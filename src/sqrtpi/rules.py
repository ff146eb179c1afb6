"""The equational rule catalog.

Families:

    E         the three defining equations of the square-root extension
    A         the 1- and 2-qubit identities A1..A20
    B         the 3-qubit identities B1..B4
    D         the matrix-level identities D1..D19 over direct sums
    P         the classical CX/SWAP circuit identities P1..P6
    level2    groupoid / bifunctoriality structural laws
    coherence the distributivity coherence squares used in derivations
    gates     the basic gate algebra lemma, parts (i)..(xi)
    mat       the block-matrix reshaping lemma, parts (i)..(x)
    had       H conjugates X and Z into each other
    ctrlh     Hadamard conjugation of controlled gates
    nctrl     negative-control reductions
    swapassoc the three-wire reshaping identity

Conventions: a rule's ``phase`` k declares eval(lhs) = w^k * eval(rhs);
juxtaposed operators in the D family compose right-to-left, so the term
order is reversed relative to the written product.  D rules are stored at
minimal consecutive indices; other positions arise by conjugating with
adjacent component swaps (an extra embedded instance ships with each rule).
"""

from __future__ import annotations

from functools import lru_cache

from .circuits import place, wire_type
from .gates import (
    ctrl,
    dist_left,
    h_gate,
    identity_at,
    k_gate,
    mat,
    mat_inv,
    midswap,
    named_gate,
    nctrl,
    omega_term,
    phase_gate,
    s_gate,
    scalar_mul,
    scalar_mul_right,
    swap_gate,
    swapassoc,
    t_gate,
    tdg_gate,
    x_gate,
    z_gate,
)
from .lang import (
    BOOL,
    ONE_T,
    Ann,
    Combinator,
    MetaVar,
    Prim,
    Prod,
    ProdC,
    Sum,
    SumC,
    ValueType,
    invert,
    seq,
)
from .rewrite import INVERSE_PAIR, INVOLUTIVE, RewriteRule, SideCondition, subst

_ID1 = identity_at(ONE_T)
_ID2 = identity_at(BOOL)
_TWO_Q = Prod(BOOL, BOOL)
_ID4 = identity_at(_TWO_Q)


_m = MetaVar


def _pin(src: ValueType, term: Combinator) -> Combinator:
    """Prefix a typed identity to pin a polymorphic instance's source type."""
    return seq(identity_at(src), term)


def _rule(
    name: str,
    family: str,
    lhs: Combinator,
    rhs: Combinator,
    *,
    phase: int = 0,
    oriented: bool = False,
    normalizing: bool = False,
    side=None,
    insts=None,
    checks=None,
    qubits=None,
) -> RewriteRule:
    pairs: list[tuple[Combinator, Combinator]] = []
    if insts:
        for binding in insts:
            pairs.append((subst(lhs, binding), subst(rhs, binding)))
    if checks:
        pairs.extend(checks)
    if not pairs:
        pairs.append((lhs, rhs))
    return RewriteRule(
        name=name,
        family=family,
        lhs=lhs,
        rhs=rhs,
        phase=phase % 8,
        oriented=oriented,
        normalizing=normalizing,
        side=side,
        checks=tuple(pairs),
        qubits=qubits,
    )


# --- D-family builders: operators on n-fold direct sums of 1 ----------------


def sum_type(n: int) -> ValueType:
    """1 + (1 + (... + 1)), right-associated, n >= 1 components."""
    t: ValueType = ONE_T
    for _ in range(n - 1):
        t = Sum(ONE_T, t)
    return t


def sum_embed(block: Combinator, j: int, width: int, n: int) -> Combinator:
    """Embed a 1- or 2-component operator at components j..j+width-1
    (1-indexed) of an n-component direct sum."""
    if not (1 <= j and j + width - 1 <= n):
        raise ValueError(f"block [{j}..{j + width - 1}] out of range for {n}")
    if j > 1:
        return SumC(_ID1, sum_embed(block, j - 1, width, n - 1))
    if width == n:
        return block
    if width == 1:
        return SumC(block, identity_at(sum_type(n - 1)))
    # width == 2, n > 2: regroup 1+(1+R) as (1+1)+R around the block
    return seq(
        Prim("assocl+"),
        SumC(block, identity_at(sum_type(n - 2))),
        Prim("assocr+"),
    )


def i_at(j: int, n: int) -> Combinator:
    """The scalar i applied to component j of an n-fold sum."""
    return sum_embed(omega_term(2), j, 1, n)


def x_at(j: int, n: int) -> Combinator:
    """The transposition of adjacent components j, j+1."""
    return sum_embed(x_gate(), j, 2, n)


def k_at(j: int, n: int) -> Combinator:
    """K on adjacent components j, j+1."""
    return sum_embed(k_gate(), j, 2, n)


def conj_by_sum_swap(term: Combinator, j: int, n: int) -> Combinator:
    """Conjugate by the adjacent component swap (j, j+1)."""
    s = x_at(j, n)
    return seq(s, term, s)


def _embed_pair(lhs: Combinator, rhs: Combinator) -> tuple[Combinator, Combinator]:
    """The same identity one component lower in a one-larger sum."""
    return SumC(_ID1, lhs), SumC(_ID1, rhs)


# --- A-family helpers --------------------------------------------------------


def _on_top(g: Combinator) -> Combinator:
    return ProdC(g, _ID2)


def _on_bot(g: Combinator) -> Combinator:
    return ProdC(_ID2, g)


def _swapped(g: Combinator) -> Combinator:
    return seq(swap_gate(), g, swap_gate())


def _build_e_family(rules: list[RewriteRule]) -> None:
    w8 = seq(*[Prim("w")] * 8)
    rules.append(_rule("E1", "E", w8, _ID1, oriented=True, qubits=1))
    rules.append(_rule("E2", "E", seq(Prim("v"), Prim("v")), x_gate(),
                       oriented=True, qubits=1))
    e3_rhs = scalar_mul(omega_term(2), seq(s_gate(), Prim("v"), s_gate()))
    rules.append(_rule("E3", "E", seq(Prim("v"), s_gate(), Prim("v")), e3_rhs,
                       qubits=1))


def _build_a_family(rules: list[RewriteRule]) -> None:
    cz, cx = named_gate("cz"), named_gate("cx")
    h, s, t = h_gate(), s_gate(), t_gate()
    tdg = tdg_gate()
    ncx = nctrl(x_gate())
    hssh = seq(h, s, s, h)
    ss = seq(s, s)

    rules.append(
        _rule("A1", "A",
              scalar_mul(Prim("w"), _m("f")),
              scalar_mul_right(_m("f"), Prim("w")),
              insts=[{"f": h}, {"f": s}, {"f": x_gate()}, {"f": cx}],
              qubits=1)
    )
    rules.append(
        _rule("A2", "A",
              seq(ProdC(_m("f"), _ID2), ProdC(_ID2, _m("g"))),
              seq(ProdC(_ID2, _m("g")), ProdC(_m("f"), _ID2)),
              insts=[{"f": h, "g": s}, {"f": s, "g": x_gate()}, {"f": t, "g": h}],
              qubits=2)
    )
    rules.append(_rule("A3", "A", seq(*[Prim("w")] * 8), _ID1, oriented=True, qubits=1))
    rules.append(_rule("A4", "A", seq(h, h), _ID2, oriented=True, qubits=1))
    rules.append(_rule("A5", "A", seq(s, s, s, s), _ID2, oriented=True, qubits=1))
    rules.append(_rule("A6", "A", seq(s, h, s, h, s, h), _ID2, phase=1,
                       oriented=True, qubits=1))
    rules.append(_rule("A7", "A", seq(cz, cz), _ID4, oriented=True, qubits=2))
    rules.append(_rule("A8", "A", seq(_on_top(s), cz), seq(cz, _on_top(s)),
                       qubits=2))
    rules.append(_rule("A9", "A", seq(_on_bot(s), cz), seq(cz, _on_bot(s)),
                       qubits=2))
    rules.append(_rule("A10", "A",
                       seq(_on_top(hssh), cz),
                       seq(cz, ProdC(hssh, ss)),
                       qubits=2))
    rules.append(_rule("A11", "A",
                       seq(_on_bot(hssh), cz),
                       seq(cz, ProdC(ss, hssh)),
                       qubits=2))
    rules.append(_rule("A12", "A",
                       seq(cz, _on_bot(h), cz),
                       seq(_on_bot(s), _on_bot(h), cz, ProdC(s, s), _on_bot(h), _on_bot(s)),
                       phase=7, qubits=2))
    rules.append(_rule("A13", "A",
                       seq(cz, _on_top(h), cz),
                       seq(_on_top(s), _on_top(h), cz, ProdC(s, s), _on_top(h), _on_top(s)),
                       phase=7, qubits=2))
    rules.append(_rule("A14", "A", seq(t, t), s, oriented=True, qubits=1))
    rules.append(_rule("A15", "A", seq(h, s, s, h, t, h, s, s, h, t), _ID2,
                       phase=1, oriented=True, qubits=1))
    rules.append(_rule("A16", "A", seq(_on_top(t), cz), seq(cz, _on_top(t)),
                       qubits=2))
    rules.append(_rule("A17", "A",
                       seq(_on_bot(h), cz, ProdC(h, h), cz, _on_top(h), _on_top(t)),
                       seq(_on_bot(t), _on_bot(h), cz, ProdC(h, h), cz, _on_top(h)),
                       qubits=2))
    half18 = (_on_bot(t), _on_bot(h), _on_bot(tdg))
    rules.append(_rule("A18", "A",
                       seq(cx, *half18, ncx, *half18),
                       seq(*half18, ncx, *half18, cx),
                       qubits=2))
    half19a = (_on_bot(t), _on_bot(h), _on_bot(t), _on_bot(h), _on_bot(tdg))
    half19b = (_on_bot(t), _on_bot(h), _on_bot(tdg), _on_bot(h), _on_bot(tdg))
    rules.append(_rule("A19", "A",
                       seq(cx, *half19a, ncx, *half19b),
                       seq(*half19a, ncx, *half19b, cx),
                       qubits=2))
    ch, nch = ctrl(h), nctrl(h)
    lower = (_swapped(nch), _on_top(t), _swapped(ch))
    upper = (nch, _on_bot(t), ch)
    rules.append(_rule("A20", "A", seq(*upper, *lower), seq(*lower, *upper),
                       qubits=2))


def _build_b_family(rules: list[RewriteRule]) -> None:
    def pg(name: str, *wires: int) -> Combinator:
        return place(named_gate(name), wires, 3)

    cz01, cz12 = pg("cz", 0, 1), pg("cz", 1, 2)
    h0, h1, h2 = pg("h", 0), pg("h", 1), pg("h", 2)
    id3 = identity_at(wire_type(3))

    rules.append(_rule("B1", "B", seq(cz01, cz12), seq(cz12, cz01), qubits=3))
    rules.append(_rule(
        "B2", "B",
        seq(cz01, h0, h1, cz01, h1, h2, cz12, h1, h2, cz01, h0, h1, cz01),
        seq(cz12, h1, h2, cz12, h0, h1, cz01, h0, h1, cz12, h1, h2, cz12),
        qubits=3,
    ))
    block3 = (cz01, h0, h1, cz01, h0, h1, cz12)
    rules.append(_rule("B3", "B", seq(*(block3 * 3)), id3, oriented=True,
                       qubits=3))
    block4 = (cz12, h1, h2, cz12, h1, h2, cz01)
    rules.append(_rule("B4", "B", seq(*(block4 * 3)), id3, oriented=True,
                       qubits=3))


def _build_d_family(rules: list[RewriteRule]) -> None:
    def d(name, lhs, rhs, *, oriented=False):
        rules.append(
            _rule(name, "D", lhs, rhs, oriented=oriented,
                  checks=[(lhs, rhs), _embed_pair(lhs, rhs)])
        )

    i1 = omega_term(2)
    d("D1", seq(i1, i1, i1, i1), _ID1, oriented=True)
    d("D2", seq(x_at(1, 2), x_at(1, 2)), _ID2, oriented=True)
    d("D3", seq(*[k_at(1, 2)] * 8), _ID2, oriented=True)
    d("D4", seq(i_at(2, 2), i_at(1, 2)), seq(i_at(1, 2), i_at(2, 2)))
    d("D5", seq(x_at(2, 3), i_at(1, 3)), seq(i_at(1, 3), x_at(2, 3)))
    d("D6", seq(k_at(2, 3), i_at(1, 3)), seq(i_at(1, 3), k_at(2, 3)))
    d("D7", seq(x_at(3, 4), x_at(1, 4)), seq(x_at(1, 4), x_at(3, 4)))
    d("D8", seq(k_at(3, 4), x_at(1, 4)), seq(x_at(1, 4), k_at(3, 4)))
    d("D9", seq(k_at(3, 4), k_at(1, 4)), seq(k_at(1, 4), k_at(3, 4)))
    d("D10", seq(x_at(1, 2), i_at(2, 2)), seq(i_at(1, 2), x_at(1, 2)))
    x13 = conj_by_sum_swap(x_at(1, 3), 2, 3)
    k13 = conj_by_sum_swap(k_at(1, 3), 2, 3)
    d("D11", seq(x_at(1, 3), x_at(2, 3)), seq(x13, x_at(1, 3)))
    d("D12", seq(x_at(2, 3), x13), seq(x_at(1, 3), x_at(2, 3)))
    d("D13", seq(x_at(1, 3), k_at(2, 3)), seq(k13, x_at(1, 3)))
    d("D14", seq(x_at(2, 3), k13), seq(k_at(1, 3), x_at(2, 3)))
    i2, k2, x2 = i_at(2, 2), k_at(1, 2), x_at(1, 2)
    d("D15", seq(i2, i2, k2), seq(k2, x2))
    d("D16", seq(i2, i2, i2, k2), seq(k2, i2, k2, i2))
    i1_2 = i_at(1, 2)
    d("D17", seq(i2, i1_2, k2), seq(k2, i2, i1_2))
    d("D18", seq(i2, i1_2, k2, k2), _ID2, oriented=True)
    k13_4 = conj_by_sum_swap(k_at(1, 4), 2, 4)
    k24_4 = conj_by_sum_swap(k_at(2, 4), 3, 4)
    d("D19",
      seq(k24_4, k13_4, k_at(3, 4), k_at(1, 4)),
      seq(k_at(3, 4), k_at(1, 4), k24_4, k13_4))


def _build_p_family(rules: list[RewriteRule]) -> None:
    def pg3(name: str, *wires: int) -> Combinator:
        return place(named_gate(name), wires, 3)

    def pg2(name: str, *wires: int) -> Combinator:
        return place(named_gate(name), wires, 2)

    id3 = identity_at(wire_type(3))
    rules.append(_rule("P1", "P",
                       seq(pg3("cx", 1, 0), pg3("cx", 1, 2)),
                       seq(pg3("cx", 1, 2), pg3("cx", 1, 0)),
                       qubits=3))
    rules.append(_rule("P2", "P",
                       seq(pg3("cx", 1, 0), pg3("cx", 0, 1), pg3("cx", 1, 2),
                           pg3("cx", 0, 1), pg3("cx", 1, 0)),
                       seq(pg3("swap", 0, 1), pg3("cx", 1, 2), pg3("swap", 0, 1)),
                       qubits=3))
    rules.append(_rule("P3", "P",
                       seq(pg3("swap", 0, 1), pg3("cx", 2, 1), pg3("swap", 0, 1)),
                       seq(pg3("cx", 1, 2), pg3("cx", 2, 1), pg3("cx", 1, 0),
                           pg3("cx", 2, 1), pg3("cx", 1, 2)),
                       qubits=3))
    blk4 = (pg3("cx", 0, 1), pg3("cx", 1, 0), pg3("cx", 2, 1))
    rules.append(_rule("P4", "P", seq(*(blk4 * 3)), id3, oriented=True, qubits=3))
    blk5 = (pg3("cx", 2, 1), pg3("cx", 1, 2), pg3("cx", 0, 1))
    rules.append(_rule("P5", "P", seq(*(blk5 * 3)), id3, oriented=True, qubits=3))
    rules.append(_rule("P6", "P",
                       seq(pg2("cx", 0, 1), pg2("cx", 1, 0), pg2("cx", 0, 1)),
                       pg2("swap", 0, 1),
                       oriented=True, qubits=2))


def _build_level2(rules: list[RewriteRule]) -> None:
    c, a, b, c3 = _m("c"), _m("a"), _m("b"), _m("c3")
    w, wi, v, vi = Prim("w"), Prim("wi"), Prim("v"), Prim("vi")
    rules.append(_rule("idl◎l", "level2",
                       seq(Prim("id"), c), c, oriented=True,
                       insts=[{"c": v}, {"c": h_gate()}]))
    rules.append(_rule("idr◎l", "level2",
                       seq(c, Prim("id")), c, oriented=True,
                       insts=[{"c": v}, {"c": s_gate()}]))
    # seq flattens chains, so both sides of the associativity laws build the
    # same term; they stay in the catalog as the laws of the language
    rules.append(_rule("assoc◎l", "level2",
                       seq(a, seq(b, c3)), seq(seq(a, b), c3),
                       insts=[{"a": x_gate(), "b": s_gate(), "c3": h_gate()}]))
    rules.append(_rule("assoc◎r", "level2",
                       seq(seq(a, b), c3), seq(a, seq(b, c3)),
                       insts=[{"a": x_gate(), "b": s_gate(), "c3": h_gate()}]))
    rules.append(_rule("linv◎l", "level2",
                       seq(_m("c"), _m("ci")), Prim("id"),
                       oriented=True, side=INVERSE_PAIR,
                       checks=[(seq(v, vi), _ID2),
                               (seq(w, wi), _ID1),
                               (_pin(Sum(ONE_T, BOOL),
                                     seq(Prim("swap+"), Prim("swap+"))),
                                identity_at(Sum(ONE_T, BOOL)))]))
    rules.append(_rule("rinv◎l", "level2",
                       seq(_m("ci"), _m("c")), Prim("id"),
                       oriented=True,
                       # the relation is symmetric, so it may be checked from
                       # ci, as the text catalog's `side inverse_pair ci c` does
                       side=SideCondition("inverse_pair", ("ci", "c"),
                                          INVERSE_PAIR.fn),
                       checks=[(seq(vi, v), _ID2), (seq(wi, w), _ID1)]))
    rules.append(_rule("bifunct⊕", "level2",
                       seq(SumC(a, b), SumC(c3, _m("d"))),
                       SumC(seq(a, c3), seq(b, _m("d"))),
                       oriented=True, normalizing=True,
                       insts=[{"a": _ID1, "b": seq(w, w), "c3": _ID1, "d": seq(w, w)},
                              {"a": w, "b": v, "c3": wi, "d": vi}]))
    rules.append(_rule("bifunct⊗", "level2",
                       seq(ProdC(a, b), ProdC(c3, _m("d"))),
                       ProdC(seq(a, c3), seq(b, _m("d"))),
                       oriented=True, normalizing=True,
                       insts=[{"a": w, "b": v, "c3": wi, "d": vi}]))
    rules.append(_rule("assocl+l", "level2",
                       seq(SumC(a, SumC(b, c3)), Prim("assocl+")),
                       seq(Prim("assocl+"), SumC(SumC(a, b), c3)),
                       insts=[{"a": w, "b": wi, "c3": v}]))
    rules.append(_rule("assocl+r", "level2",
                       seq(Prim("assocl+"), SumC(SumC(a, b), c3)),
                       seq(SumC(a, SumC(b, c3)), Prim("assocl+")),
                       insts=[{"a": w, "b": wi, "c3": v}]))


def _build_coherence(rules: list[RewriteRule]) -> None:
    dl = dist_left()
    rules.append(_rule(
        "laplaza_I", "coherence",
        seq(dl, Prim("swap+")),
        seq(ProdC(Prim("id"), Prim("swap+")), dl),
        checks=[(
            _pin(Prod(BOOL, Sum(ONE_T, BOOL)), seq(dl, Prim("swap+"))),
            _pin(Prod(BOOL, Sum(ONE_T, BOOL)),
                 seq(ProdC(Prim("id"), Prim("swap+")), dl)),
        )],
    ))
    rules.append(_rule(
        "laplaza_II", "coherence",
        seq(Prim("dist"), Prim("swap+")),
        seq(ProdC(Prim("swap+"), Prim("id")), Prim("dist")),
        checks=[(
            _pin(Prod(Sum(ONE_T, BOOL), BOOL), seq(Prim("dist"), Prim("swap+"))),
            _pin(Prod(Sum(ONE_T, BOOL), BOOL),
                 seq(ProdC(Prim("swap+"), Prim("id")), Prim("dist"))),
        )],
    ))
    lhs7 = seq(Prim("assocl*"), ProdC(Prim("dist"), Prim("id")), Prim("dist"))
    rhs7 = seq(Prim("dist"), SumC(Prim("assocl*"), Prim("assocl*")))
    src7 = Prod(Sum(ONE_T, BOOL), Prod(BOOL, BOOL))
    rules.append(_rule("laplaza_VII", "coherence", lhs7, rhs7,
                       checks=[(_pin(src7, lhs7), _pin(src7, rhs7))]))
    lhs9 = seq(Prim("swap*"), Prim("dist"))
    rhs9 = seq(dl, SumC(Prim("swap*"), Prim("swap*")))
    src9 = Prod(BOOL, Sum(ONE_T, BOOL))
    rules.append(_rule("laplaza_IX", "coherence", lhs9, rhs9,
                       checks=[(_pin(src9, lhs9), _pin(src9, rhs9))]))
    lhs23 = seq(dl, SumC(Prim("unite*l"), Prim("unite*l")))
    rhs23 = Prim("unite*l")
    src23 = Prod(ONE_T, Sum(BOOL, ONE_T))
    rules.append(_rule("laplaza_XXIII", "coherence", lhs23, rhs23,
                       checks=[(_pin(src23, lhs23), _pin(src23, rhs23))]))


def _build_gates_lemma(rules: list[RewriteRule]) -> None:
    i_s, m1 = omega_term(2), omega_term(4)
    x, s = x_gate(), s_gate()
    sv = _m("s")
    rules.append(_rule("gates_i", "gates", seq(i_s, i_s), m1,
                       checks=[(seq(i_s, i_s), m1), (seq(m1, m1), omega_term(0))]))
    rules.append(_rule("gates_ii", "gates", seq(x, x), _ID2, oriented=True))
    rules.append(_rule("gates_iii", "gates",
                       seq(phase_gate(sv), phase_gate(sv)),
                       phase_gate(seq(sv, sv)),
                       insts=[{"s": omega_term(n)} for n in (1, 2, 3)]))
    rules.append(_rule("gates_iv", "gates",
                       invert(phase_gate(omega_term(1))), phase_gate(omega_term(7)),
                       checks=[(invert(phase_gate(omega_term(n))),
                                phase_gate(omega_term(8 - n)))
                               for n in (1, 2, 3)]))
    rules.append(_rule("gates_v", "gates",
                       seq(phase_gate(sv), phase_gate(_m("t"))),
                       phase_gate(seq(sv, _m("t"))),
                       insts=[{"s": omega_term(1), "t": omega_term(2)},
                              {"s": omega_term(3), "t": omega_term(1)}]))
    rules.append(_rule("gates_vi", "gates",
                       seq(phase_gate(sv), x, phase_gate(sv)),
                       scalar_mul(sv, x),
                       insts=[{"s": omega_term(n)} for n in (1, 2, 3)]))
    rules.append(_rule("gates_vii", "gates", seq(Prim("v"), x), seq(x, Prim("v"))))
    rules.append(_rule("gates_viii", "gates",
                       seq(named_gate("cx"), named_gate("cx")), _ID4,
                       oriented=True, qubits=2))
    rules.append(_rule("gates_ix", "gates",
                       seq(named_gate("cz"), named_gate("cz")), _ID4,
                       oriented=True, qubits=2))
    rules.append(_rule("gates_x", "gates",
                       seq(named_gate("ccx"), named_gate("ccx")),
                       identity_at(wire_type(3)),
                       oriented=True, qubits=3))
    rules.append(_rule("gates_xi", "gates",
                       seq(phase_gate(sv), x),
                       scalar_mul(sv, seq(x, phase_gate(_m("si")))),
                       insts=[{"s": omega_term(n), "si": omega_term(8 - n)}
                              for n in (1, 2, 3)]))


def _build_mat_lemma(rules: list[RewriteRule]) -> None:
    f = _m("f")
    m2, m2i = mat(BOOL), mat_inv(BOOL)
    msw = midswap()
    sw = swap_gate()
    h, s, x = h_gate(), s_gate(), x_gate()
    cxg = named_gate("cx")

    def mat_i_pair(a: ValueType, g: Combinator):
        return (seq(ProdC(_ID2, g), mat(a)), seq(mat(a), SumC(g, g)))

    rules.append(_rule("mat_i", "mat",
                       seq(ProdC(_ID2, f), m2), seq(m2, SumC(f, f)),
                       insts=[{"f": h}, {"f": s}, {"f": x}],
                       checks=[mat_i_pair(_TWO_Q, cxg)]))
    rules.append(_rule("mat_ii", "mat", seq(sw, m2), seq(m2, msw), qubits=2))
    rules.append(_rule("mat_iii", "mat", seq(m2i, sw), seq(msw, m2i), qubits=2))
    rules.append(_rule("mat_iv", "mat",
                       seq(ProdC(f, _ID2), m2),
                       seq(m2, msw, SumC(f, f), msw),
                       insts=[{"f": h}, {"f": s}, {"f": x}]))
    cp = lambda g: ctrl(g, BOOL)
    rules.append(_rule("mat_v", "mat",
                       seq(sw, cp(phase_gate(f)), sw), cp(phase_gate(f)),
                       insts=[{"f": omega_term(n)} for n in (1, 2, 3)],
                       qubits=2))
    rules.append(_rule("mat_vi", "mat",
                       seq(cp(phase_gate(f)), cp(phase_gate(_m("g")))),
                       seq(cp(phase_gate(_m("g"))), cp(phase_gate(f))),
                       insts=[{"f": omega_term(1), "g": omega_term(2)},
                              {"f": omega_term(2), "g": omega_term(3)}],
                       qubits=2))
    rules.append(_rule("mat_vii", "mat",
                       seq(ProdC(_ID2, phase_gate(_m("g"))), cp(phase_gate(f))),
                       seq(cp(phase_gate(f)), ProdC(_ID2, phase_gate(_m("g")))),
                       insts=[{"f": omega_term(1), "g": omega_term(2)},
                              {"f": omega_term(3), "g": omega_term(3)}],
                       qubits=2))
    rules.append(_rule("mat_viii", "mat",
                       seq(ProdC(x, _ID2), m2),
                       seq(m2, Ann(Prim("swap+"), Sum(BOOL, BOOL), Sum(BOOL, BOOL))),
                       qubits=2))
    rules.append(_rule("mat_ix", "mat",
                       seq(ProdC(phase_gate(f), _ID2), m2),
                       seq(m2, SumC(_ID2, scalar_mul(f, _ID2))),
                       insts=[{"f": omega_term(n)} for n in (1, 2, 3)],
                       qubits=2))
    ctrl_seq_pair = lambda g1, g2, a: (
        seq(ctrl(g1, a), ctrl(g2, a)),
        ctrl(seq(g1, g2), a),
    )
    rules.append(_rule("mat_x", "mat",
                       seq(cp(f), cp(_m("g"))), ctrl(seq(f, _m("g")), BOOL),
                       insts=[{"f": x, "g": s}, {"f": h, "g": x}],
                       checks=[ctrl_seq_pair(cxg, cxg, _TWO_Q)]))


def _build_had(rules: list[RewriteRule]) -> None:
    h = h_gate()
    rules.append(_rule("had_x", "had", seq(h, x_gate(), h), z_gate(),
                       oriented=True, qubits=1))
    rules.append(_rule("had_z", "had", seq(h, z_gate(), h), x_gate(),
                       oriented=True, qubits=1))


def _build_ctrlh(rules: list[RewriteRule]) -> None:
    h = h_gate()
    cx, cz = named_gate("cx"), named_gate("cz")
    rules.append(_rule("ctrlh_i", "ctrlh",
                       seq(_on_bot(h), cx, _on_bot(h)), cz,
                       oriented=True, qubits=2))
    rules.append(_rule("ctrlh_ii", "ctrlh",
                       seq(_on_top(h), _swapped(cx), _on_top(h)), cz,
                       oriented=True, qubits=2))
    rules.append(_rule("ctrlh_iii", "ctrlh",
                       seq(_on_bot(h), cz, _on_bot(h)), cx,
                       oriented=True, qubits=2))
    rules.append(_rule("ctrlh_iv", "ctrlh",
                       seq(_on_top(h), cz, _on_top(h)), _swapped(cx),
                       qubits=2))
    rules.append(_rule("ctrlh_v", "ctrlh",
                       seq(_on_top(h), cx, _on_top(h)),
                       seq(_on_bot(h), _swapped(cx), _on_bot(h)),
                       qubits=2))


def _build_nctrl(rules: list[RewriteRule]) -> None:
    f = _m("f")
    x = x_gate()
    rules.append(_rule("nctrl_i", "nctrl",
                       nctrl(f, BOOL),
                       seq(ProdC(x, _ID2), ctrl(f, BOOL), ProdC(x, _ID2)),
                       insts=[{"f": x}, {"f": z_gate()}, {"f": h_gate()},
                              {"f": s_gate()}],
                       qubits=2))
    rules.append(_rule("nctrl_ii", "nctrl",
                       nctrl(f, BOOL),
                       seq(ProdC(_ID2, f), ctrl(f, BOOL)),
                       side=INVOLUTIVE,
                       insts=[{"f": x}, {"f": z_gate()}, {"f": h_gate()}],
                       qubits=2))


def _build_swapassoc(rules: list[RewriteRule]) -> None:
    def sides(a: ValueType):
        three_mat = seq(mat(Prod(BOOL, a)), SumC(mat(a), mat(a)))
        lhs = seq(swapassoc(a), three_mat)
        rhs = seq(three_mat, midswap(a, a, a, a))
        return lhs, rhs

    l1, r1 = sides(ONE_T)
    l2, r2 = sides(BOOL)
    rules.append(_rule("swapassoc", "swapassoc", l1, r1,
                       checks=[(l1, r1), (l2, r2)]))


@lru_cache(maxsize=None)
def build_rules() -> tuple[RewriteRule, ...]:
    rules: list[RewriteRule] = []
    _build_e_family(rules)
    _build_a_family(rules)
    _build_b_family(rules)
    _build_d_family(rules)
    _build_p_family(rules)
    _build_level2(rules)
    _build_coherence(rules)
    _build_gates_lemma(rules)
    _build_mat_lemma(rules)
    _build_had(rules)
    _build_ctrlh(rules)
    _build_nctrl(rules)
    _build_swapassoc(rules)
    names = [r.name for r in rules]
    assert len(names) == len(set(names)), "duplicate rule names"
    return tuple(rules)


# --- canned derivations (each step is a catalog rule) ------------------------


def derivation_s_s_to_z() -> tuple[Combinator, list, Combinator]:
    """s ; s  ->  z, by bifunctoriality and the unit law."""
    start = seq(s_gate(), s_gate())
    script = [
        ("bifunct⊕", (), "forward"),
        ("idl◎l", (0,), "forward"),
    ]
    return start, script, z_gate()


def derivation_vi_to_v_x() -> tuple[Combinator, list, Combinator]:
    """vi  ->  v ; x, the standard derivation from the defining equations."""
    start = Prim("vi")
    script = [
        ("idr◎l", (), "backward"),       # vi ; id
        ("gates_ii", (1,), "backward"),       # vi ; x ; x
        ("E2", (1, 0), "backward"),          # vi ; v ; v ; x
        ("rinv◎l", (), "forward"),       # id ; v ; x
        ("idl◎l", (), "forward"),        # v ; x
    ]
    return start, script, seq(Prim("v"), x_gate())


def derivation_wi_to_w7() -> tuple[Combinator, list, Combinator]:
    """wi  ->  w^7."""
    start = Prim("wi")
    script = [
        ("idr◎l", (), "backward"),       # wi ; id
        ("E1", (1,), "backward"),             # wi ; w^8
        ("rinv◎l", (), "forward"),       # id ; w^7
        ("idl◎l", (), "forward"),        # w^7
    ]
    return start, script, omega_term(7)
