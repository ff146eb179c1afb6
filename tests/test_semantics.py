import pytest

from sqrtpi.exactnum import IMAG, INV_SQRT2, ONE, ZERO, DyadicCyclotomic, omega_pow
from sqrtpi.lang import (
    BOOL,
    ONE_T,
    ZERO_T,
    Ann,
    Prim,
    Prod,
    ProdC,
    Sum,
    SumC,
    invert,
    seq,
    typecheck,
)
from sqrtpi.semantics import (
    DimensionError,
    ExactMatrix,
    adjoint,
    compose,
    direct_sum,
    equal_matrices,
    evaluate,
    kronecker,
    render,
)
from termgen import random_terms


def dc(n0, n1=0, n2=0, n3=0, k=0):
    return DyadicCyclotomic.from_coeffs((n0, n1, n2, n3), k)


def mat(rows):
    return ExactMatrix(len(rows), len(rows[0]) if rows else 0, [e for r in rows for e in r])


X_MAT = mat([[ZERO, ONE], [ONE, ZERO]])
I2 = ExactMatrix.identity(2)
S_MAT = mat([[ONE, ZERO], [ZERO, IMAG]])
Z_MAT = mat([[ONE, ZERO], [ZERO, dc(-1)]])
H_MAT = mat([[INV_SQRT2, INV_SQRT2], [INV_SQRT2, -INV_SQRT2]])


def test_eval_swap_plus_is_x():
    assert evaluate(Prim("swap+"), (BOOL, BOOL)) == X_MAT


def test_eval_id_at_unit():
    assert evaluate(Prim("id"), (ONE_T, ONE_T)) == ExactMatrix.identity(1)


def test_eval_v_against_conjugation_oracle():
    # independent oracle: V = H . diag(-1, i) . H computed entrywise here
    D = mat([[dc(-1), ZERO], [ZERO, IMAG]])
    v_oracle = compose(H_MAT, compose(D, H_MAT))
    v = evaluate(Prim("v"))
    assert v == v_oracle
    assert v == mat(
        [[dc(-1, 0, 1, k=1), dc(-1, 0, -1, k=1)], [dc(-1, 0, -1, k=1), dc(-1, 0, 1, k=1)]]
    )


def test_v_squared_is_x():
    v = evaluate(Prim("v"))
    assert compose(v, v) == X_MAT


def test_vi_is_v_cubed_and_adjoint():
    v = evaluate(Prim("v"))
    vi = evaluate(Prim("vi"))
    assert vi == compose(v, compose(v, v))
    assert vi == adjoint(v)


def test_w_powers():
    w = evaluate(Prim("w"))
    m = ExactMatrix.identity(1)
    for _ in range(8):
        m = compose(w, m)
    assert m == ExactMatrix.identity(1)
    assert evaluate(Prim("wi")) == adjoint(w)


def test_compose_examples():
    assert compose(I2, X_MAT) == X_MAT
    assert compose(X_MAT, X_MAT) == I2
    with pytest.raises(DimensionError):
        compose(I2, ExactMatrix.identity(3))


def test_direct_sum_examples():
    one = ExactMatrix.scalar(ONE)
    assert direct_sum(one, ExactMatrix.scalar(omega_pow(2))) == S_MAT
    assert direct_sum(ExactMatrix(0, 0, ()), X_MAT) == X_MAT
    assert direct_sum(one, ExactMatrix.scalar(omega_pow(4))) == Z_MAT


def test_kronecker_examples():
    one = ExactMatrix.scalar(ONE)
    assert kronecker(one, X_MAT) == X_MAT
    xk = kronecker(X_MAT, I2)
    expect = ExactMatrix.permutation(4, [2, 3, 0, 1])
    assert xk == expect
    zero_dim = ExactMatrix(0, 0, ())
    assert kronecker(zero_dim, X_MAT).rows == 0


def test_adjoint_examples():
    assert adjoint(S_MAT) == mat([[ONE, ZERO], [ZERO, -IMAG]])
    assert adjoint(X_MAT) == X_MAT


def test_equal_matrices_phase():
    w2 = X_MAT.times_omega_pow(2)
    assert equal_matrices(X_MAT, X_MAT).kind == "equal"
    assert equal_matrices(X_MAT, Z_MAT).kind == "not_equal"
    assert equal_matrices(w2, X_MAT, "strict").kind == "not_equal"
    v = equal_matrices(w2, X_MAT, "up_to_omega_power")
    assert (v.kind, v.phase) == ("equal_with_phase", 2)
    # phase must be global: differing per-entry phases are rejected
    half_twist = mat([[ZERO, ONE], [omega_pow(2), ZERO]])
    assert equal_matrices(half_twist, X_MAT, "up_to_omega_power").kind == "not_equal"


def test_identity_permutation_conventions():
    # associators, unitors, distributors denote identity matrices
    assert evaluate(Prim("dist"), (Prod(BOOL, BOOL), Sum(Prod(ONE_T, BOOL), Prod(ONE_T, BOOL)))).is_identity()
    assert evaluate(Prim("factor"), (Sum(Prod(ONE_T, BOOL), Prod(ONE_T, BOOL)), Prod(BOOL, BOOL))).is_identity()
    assert evaluate(Prim("assocr+"), (Sum(Sum(ONE_T, ONE_T), BOOL), Sum(ONE_T, Sum(ONE_T, BOOL)))).is_identity()
    assert evaluate(Prim("assocl*"), (Prod(BOOL, Prod(BOOL, ONE_T)), Prod(Prod(BOOL, BOOL), ONE_T))).is_identity()
    assert evaluate(Prim("unite+l"), (Sum(ZERO_T, BOOL), BOOL)).is_identity()
    assert evaluate(Prim("uniti*l"), (BOOL, Prod(ONE_T, BOOL))).is_identity()


def test_swap_star_is_perfect_shuffle():
    m = evaluate(Prim("swap*"), (Prod(BOOL, BOOL), Prod(BOOL, BOOL)))
    assert m == ExactMatrix.permutation(4, [0, 2, 1, 3])


def test_zero_dimensional_matrices():
    m = evaluate(Prim("absorbl"), (Prod(BOOL, ZERO_T), ZERO_T))
    assert (m.rows, m.cols) == (0, 0)
    m2 = evaluate(SumC(Prim("id"), Prim("absorbl")), (Sum(BOOL, Prod(BOOL, ZERO_T)), Sum(BOOL, ZERO_T)))
    assert m2 == I2


def test_axiom_e1():
    assert evaluate(seq(*[Prim("w")] * 8), (ONE_T, ONE_T)) == ExactMatrix.identity(1)


def test_axiom_e2():
    assert evaluate(seq(Prim("v"), Prim("v"))) == X_MAT


def s_term():
    return SumC(Ann(Prim("id"), ONE_T, ONE_T), seq(Prim("w"), Prim("w")))


def test_axiom_e3():
    v = evaluate(Prim("v"))
    s = evaluate(s_term())
    lhs = compose(v, compose(s, v))
    rhs = compose(s, compose(v, s)).times_omega_pow(2)
    assert lhs == rhs


# --- structural properties on random terms ---------------------------------


def _fold_eval(t):
    """Independent second evaluator: nested lists, separately coded ops."""
    from sqrtpi.lang import Ann as A, Prim as P, ProdC as PC, Seq as Q, SumC as SC
    from sqrtpi.semantics import _prim_matrix

    term = t.term
    if isinstance(term, P):
        m = _prim_matrix(term.name, t.src, t.tgt)
        return [[m[i, j] for j in range(m.cols)] for i in range(m.rows)]
    if isinstance(term, A):
        return _fold_eval(t.children[0])
    if isinstance(term, Q):
        # one child per part of the chain, applied left to right
        m1 = _fold_eval(t.children[0])
        for child in t.children[1:]:
            m2 = _fold_eval(child)
            rows = len(m2)
            inner = len(m1)
            cols = len(m1[0]) if inner else 0
            m1 = [
                [
                    sum((m2[i][k] * m1[k][j] for k in range(inner)), ZERO)
                    for j in range(cols)
                ]
                for i in range(rows)
            ]
        return m1
    if isinstance(term, SC):
        a = _fold_eval(t.children[0])
        b = _fold_eval(t.children[1])
        ra, ca = len(a), len(a[0]) if a else 0
        rb, cb = len(b), len(b[0]) if b else 0
        out = []
        for i in range(ra):
            out.append(a[i] + [ZERO] * cb)
        for i in range(rb):
            out.append([ZERO] * ca + b[i])
        return out
    if isinstance(term, PC):
        a = _fold_eval(t.children[0])
        b = _fold_eval(t.children[1])
        return [
            [x * y for x in row_a for y in row_b]
            for row_a in a
            for row_b in b
        ]
    raise TypeError(term)


def _as_matrix(lists, rows, cols):
    flat = [e for row in lists for e in row]
    return ExactMatrix(rows, cols, flat)


def test_unitarity_on_random_terms():
    for term, src, tgt in random_terms(seed=23, count=150):
        m = evaluate(term, (src, tgt))
        assert compose(m, adjoint(m)) == ExactMatrix.identity(m.rows)


def test_functoriality_against_independent_fold():
    for term, src, tgt in random_terms(seed=29, count=150):
        t = typecheck(term, (src, tgt))
        m = evaluate(t)
        folded = _fold_eval(t)
        assert _as_matrix(folded, m.rows, m.cols) == m


def test_inverse_law_on_random_terms():
    for term, src, tgt in random_terms(seed=31, count=150):
        m = evaluate(term, (src, tgt))
        mi = evaluate(invert(term), (tgt, src))
        assert mi == adjoint(m)
        assert compose(mi, m) == ExactMatrix.identity(m.cols)
        assert compose(m, mi) == ExactMatrix.identity(m.rows)


def test_interchange_law():
    import random

    from termgen import gen_from, random_type

    rng = random.Random(37)
    for _ in range(100):
        a = random_type(rng)
        d = random_type(rng)
        c1, b = gen_from(rng, a, 3)
        c3, tgt1 = gen_from(rng, b, 3)
        c2, e = gen_from(rng, d, 3)
        c4, tgt2 = gen_from(rng, e, 3)
        lhs = seq(SumC(c1, c2), SumC(c3, c4))
        rhs = SumC(seq(c1, c3), seq(c2, c4))
        expect = (Sum(a, d), Sum(tgt1, tgt2))
        assert evaluate(lhs, expect) == evaluate(rhs, expect)


def test_seq_uses_reverse_composition_order():
    # first w then the annotated identity: matrix is I . [w] = [w]
    m = evaluate(seq(Prim("w"), Ann(Prim("id"), ONE_T, ONE_T)))
    assert m == ExactMatrix.scalar(omega_pow(1))
    # order matters for non-commuting parts: (s ; x) vs (x ; s)
    sx = evaluate(seq(s_term(), Ann(Prim("swap+"), BOOL, BOOL)))
    xs = evaluate(seq(Ann(Prim("swap+"), BOOL, BOOL), s_term()))
    assert sx == compose(X_MAT, S_MAT)
    assert xs == compose(S_MAT, X_MAT)
    assert sx != xs


def test_json_round_trip():
    v = evaluate(Prim("v"))
    assert ExactMatrix.from_json(v.to_json()) == v


def test_render_common_denominator():
    txt = render(mat([[INV_SQRT2, INV_SQRT2], [INV_SQRT2, -INV_SQRT2]]))
    assert txt.splitlines()[0].startswith("1/√2")
    assert "1" in txt and "-1" in txt
    assert render(I2) == "[ 1  0 ]\n[ 0  1 ]"


def test_three_controlled_gates_compose_at_4x4():
    # CSXdg . CX . CSX: shapes line up and the product is exact and unitary
    from sqrtpi.gates import named_gate

    csx = evaluate(named_gate("csx"))
    cx = evaluate(named_gate("cx"))
    csxdg = evaluate(named_gate("csxdg"))
    product = compose(csxdg, compose(cx, csx))
    assert product.rows == product.cols == 4
    assert compose(product, adjoint(product)) == ExactMatrix.identity(4)
