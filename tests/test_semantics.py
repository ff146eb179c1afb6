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


# --- kernels against an independent dense oracle ----------------------------
#
# The oracle works on (rows, cols, nested lists) triples with the ring
# operations only; it uses none of the matrix kernels or ExactMatrix methods.


def _random_entry(rng):
    if rng.random() < 0.6:
        return ZERO
    return dc(*(rng.randint(-2, 2) for _ in range(4)), k=rng.randint(0, 2))


def _random_dense(rng, rows, cols):
    return rows, cols, [[_random_entry(rng) for _ in range(cols)] for _ in range(rows)]


def _to_matrix(d):
    rows, cols, lists = d
    return ExactMatrix(rows, cols, [e for row in lists for e in row])


def _assert_same(m, d):
    rows, cols, lists = d
    assert (m.rows, m.cols) == (rows, cols)
    assert list(m.entries) == [e for row in lists for e in row]
    expect = _to_matrix(d)
    assert m == expect and hash(m) == hash(expect)


def _o_compose(a, b):
    ra, ca, la = a
    rb, cb, lb = b
    assert ca == rb
    return ra, cb, [[sum((la[i][k] * lb[k][j] for k in range(ca)), ZERO)
                     for j in range(cb)] for i in range(ra)]


def _o_kronecker(a, b):
    ra, ca, la = a
    rb, cb, lb = b
    return ra * rb, ca * cb, [[la[i // rb][j // cb] * lb[i % rb][j % cb]
                               for j in range(ca * cb)] for i in range(ra * rb)]


def _o_direct_sum(a, b):
    ra, ca, la = a
    rb, cb, lb = b
    return ra + rb, ca + cb, ([row + [ZERO] * cb for row in la]
                              + [[ZERO] * ca + row for row in lb])


def _o_adjoint(a):
    rows, cols, lists = a
    return cols, rows, [[lists[i][j].conjugate() for i in range(rows)] for j in range(cols)]


def _o_scale(a, x):
    rows, cols, lists = a
    return rows, cols, [[e * x for e in row] for row in lists]


def test_kernels_match_dense_oracle_on_random_matrices():
    import random

    rng = random.Random(53)
    for _ in range(300):
        r, n, c = (rng.randint(0, 4) for _ in range(3))
        a, b = _random_dense(rng, r, n), _random_dense(rng, n, c)
        ma, mb = _to_matrix(a), _to_matrix(b)
        _assert_same(ma, a)
        _assert_same(compose(ma, mb), _o_compose(a, b))
        p = _random_dense(rng, rng.randint(0, 3), rng.randint(0, 3))
        _assert_same(kronecker(ma, _to_matrix(p)), _o_kronecker(a, p))
        _assert_same(direct_sum(ma, _to_matrix(p)), _o_direct_sum(a, p))
        _assert_same(adjoint(ma), _o_adjoint(a))
        k = rng.randint(-8, 15)
        _assert_same(ma.times_omega_pow(k), _o_scale(a, omega_pow(k)))


def test_compose_cancellation_is_canonical():
    hh = compose(H_MAT, H_MAT)
    assert hh == I2 and hash(hh) == hash(I2) and hh.is_identity()
    # a sum that cancels to zero leaves an empty column, like a zero entry
    row = mat([[ONE, ONE]])
    col = mat([[ONE], [dc(-1)]])
    zero = compose(row, col)
    assert zero == mat([[ZERO]]) and hash(zero) == hash(mat([[ZERO]]))
    assert zero.columns == ((),)


def test_is_identity_checks_every_column():
    assert ExactMatrix.identity(5).is_identity()
    assert ExactMatrix(0, 0, ()).is_identity()
    assert not ExactMatrix.permutation(3, [0, 2, 1]).is_identity()
    assert not ExactMatrix.identity(3).times_omega_pow(1).is_identity()
    assert not mat([[ONE, ZERO], [ZERO, ZERO]]).is_identity()
    assert not mat([[ONE], [ZERO]]).is_identity()


def test_equal_matrices_phase_read_off_any_nonzero():
    # row-major, b's first nonzero is (0, 1); column-major it is (1, 0)
    y1, y2 = dc(1, 1, k=1), dc(0, 2, 0, -1)
    b = mat([[ZERO, y1], [y2, ZERO]])
    a = mat([[ZERO, y1 * omega_pow(3)], [y2 * omega_pow(3), ZERO]])
    v = equal_matrices(a, b, "up_to_omega_power")
    assert (v.kind, v.phase) == ("equal_with_phase", 3)
    # the two nonzeros of b disagree on the phase, in either order
    for bad in (mat([[ZERO, y1 * omega_pow(5)], [y2 * omega_pow(3), ZERO]]),
                mat([[ZERO, y1 * omega_pow(3)], [y2 * omega_pow(5), ZERO]]),
                mat([[ZERO, ZERO], [y2 * omega_pow(3), ZERO]])):
        assert equal_matrices(bad, b, "up_to_omega_power").kind == "not_equal"
    zero = mat([[ZERO, ZERO], [ZERO, ZERO]])
    assert equal_matrices(b, zero, "up_to_omega_power").kind == "not_equal"
    assert equal_matrices(zero, zero, "up_to_omega_power").kind == "equal"


def test_equal_matrices_phase_on_random_matrices():
    import random

    rng = random.Random(59)
    for _ in range(200):
        b = _random_dense(rng, rng.randint(1, 4), rng.randint(1, 4))
        k = rng.randint(0, 7)
        a = _o_scale(b, omega_pow(k))
        v = equal_matrices(_to_matrix(a), _to_matrix(b), "up_to_omega_power")
        if not any(e for row in b[2] for e in row):
            assert v.kind == "equal"
        elif k == 0:
            assert v.kind == "equal"
        else:
            assert (v.kind, v.phase) == ("equal_with_phase", k)
        # a nonzero where b has a zero: no power of w makes up for it
        rows, cols, lists = a
        holes = [(i, j) for i in range(rows) for j in range(cols) if not b[2][i][j]]
        if holes:
            i, j = rng.choice(holes)
            lists = [list(row) for row in lists]
            lists[i][j] = ONE
            assert equal_matrices(_to_matrix((rows, cols, lists)), _to_matrix(b),
                                  "up_to_omega_power").kind == "not_equal"


# --- dimension limit -----------------------------------------------------------


def _wires(n):
    t = BOOL
    for _ in range(n - 1):
        t = Prod(BOOL, t)
    return t


def _bounded_prims(monkeypatch):
    """Fail, instead of allocating, if a primitive above the limit is built."""
    from sqrtpi import semantics
    from sqrtpi.lang import dimension

    real = semantics._prim_matrix

    def checked(name, src, tgt):
        assert dimension(src) <= semantics.MAX_DIMENSION, "primitive above the limit"
        return real(name, src, tgt)

    monkeypatch.setattr(semantics, "_prim_matrix", checked)


def test_dimension_limit_is_checked_before_evaluation(monkeypatch):
    from sqrtpi.semantics import MAX_DIMENSION

    _bounded_prims(monkeypatch)
    n = MAX_DIMENSION.bit_length() - 1
    assert 1 << n == MAX_DIMENSION
    assert evaluate(Prim("id"), (_wires(n), _wires(n))).is_identity()
    for big in (n + 1, 30):
        with pytest.raises(DimensionError, match="exceeds"):
            evaluate(Prim("id"), (_wires(big), _wires(big)))


def test_zero_factor_is_not_evaluated(monkeypatch):
    # a 0-dimensional product denotes the 0x0 matrix however large the
    # other factor is, so that factor is never built
    _bounded_prims(monkeypatch)
    big = Ann(Prim("id"), _wires(30), _wires(30))
    for term in (ProdC(big, Ann(Prim("id"), ZERO_T, ZERO_T)),
                 ProdC(Ann(Prim("id"), ZERO_T, ZERO_T), big)):
        m = evaluate(term)
        assert (m.rows, m.cols) == (0, 0)
