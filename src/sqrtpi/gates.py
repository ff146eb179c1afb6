"""Gate macro library: named quantum gates and constructions as combinator
terms.

Gates are stored as terms, never as matrices: the rewrite engine consumes
them syntactically and the evaluator derives their matrices.  The only
square-root primitives are v and w; everything else here is a macro.
Notable definitions:

    x        = swap+ at 2
    p(s)     = id + s           (phase gate, s any 1 <-> 1 scalar term)
    z, s, t  = p(w^4), p(w^2), p(w)
    h        = w . (x ; s ; v ; s ; x)   (scalar multiplication by w)
    k        = w^-1 . h
    mat(a)   : (1+1)*a <-> a+a  (block-matrix reshaping; identity matrix
               under the fixed index conventions)
    ctrl(m)  = mat ; (id + m) ; mat^-1
    nctrl(m) = mat ; (m + id) ; mat^-1

Equal terms are one object (``lang`` interns its nodes), so every use of
a gate shares one term, and typecheck and eval do its work once.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Optional

from .lang import (
    BOOL,
    ONE_T,
    Ann,
    Combinator,
    Prim,
    Prod,
    ProdC,
    SqrtPiError,
    Sum,
    SumC,
    ValueType,
    invert,
    seq,
    typecheck,
)


class GateError(SqrtPiError):
    pass


class GateMacro(NamedTuple):
    """A named gate: its signature and its expansion as a term."""

    name: str
    src: ValueType
    tgt: ValueType
    term: Combinator
    qubits: Optional[int] = None  # set for gates usable in circuit files


def identity_at(t: ValueType) -> Combinator:
    return Ann(Prim("id"), t, t)


def omega_term(n: int) -> Combinator:
    """The scalar w^n as a 1 <-> 1 term (w^0 is the scalar 1, i.e. id)."""
    n %= 8
    if n == 0:
        return identity_at(ONE_T)
    return seq(*[Prim("w")] * n)


def phase_gate(s: Combinator) -> Combinator:
    """P(s) = id + s at 2 <-> 2 for a scalar term s : 1 <-> 1."""
    return SumC(identity_at(ONE_T), s)


def scalar_mul(s: Combinator, c: Combinator) -> Combinator:
    """Left scalar multiplication s . c  =  uniti*l ; (s * c) ; unite*l."""
    return seq(Prim("uniti*l"), ProdC(s, c), Prim("unite*l"))


def scalar_mul_right(c: Combinator, s: Combinator) -> Combinator:
    """Right scalar multiplication c . s, via the derived right unitors."""
    return seq(uniti_r_times(), ProdC(c, s), unite_r_times())


def unite_r_times() -> Combinator:
    """Derived right unitor b*1 <-> b (the language only has left unitors)."""
    return seq(Prim("swap*"), Prim("unite*l"))


def uniti_r_times() -> Combinator:
    return seq(Prim("uniti*l"), Prim("swap*"))


def unite_r_plus() -> Combinator:
    return seq(Prim("swap+"), Prim("unite+l"))


def uniti_r_plus() -> Combinator:
    return seq(Prim("uniti+l"), Prim("swap+"))


def dist_left() -> Combinator:
    """Derived left distributor a*(b+c) <-> (a*b)+(a*c), via swap*."""
    return seq(Prim("swap*"), Prim("dist"), SumC(Prim("swap*"), Prim("swap*")))


def factor_left() -> Combinator:
    return invert(dist_left())


def mat(a: ValueType) -> Combinator:
    """Block-matrix reshaping (1+1)*a <-> a+a; evaluates to the identity."""
    return Ann(
        seq(Prim("dist"), SumC(Prim("unite*l"), Prim("unite*l"))),
        Prod(BOOL, a),
        Sum(a, a),
    )


def mat_inv(a: ValueType) -> Combinator:
    return invert(mat(a))


def _square_type(m: Combinator, a: Optional[ValueType]) -> ValueType:
    if a is not None:
        return a
    from .lang import TypeCheckError, type_str

    try:
        t = typecheck(m)
    except TypeCheckError as e:
        raise GateError(f"controlled gate body is not closed-typed: {e}") from e
    if t.src != t.tgt:
        raise GateError(
            "controlled gate body must be square-typed, got "
            f"{type_str(t.src)} <-> {type_str(t.tgt)}"
        )
    return t.src


def ctrl(m: Combinator, a: Optional[ValueType] = None) -> Combinator:
    """Positively controlled m: block-diag(I, m)."""
    a = _square_type(m, a)
    return seq(mat(a), SumC(identity_at(a), m), mat_inv(a))


def nctrl(m: Combinator, a: Optional[ValueType] = None) -> Combinator:
    """Negatively controlled m: block-diag(m, I)."""
    a = _square_type(m, a)
    return seq(mat(a), SumC(m, identity_at(a)), mat_inv(a))


def midswap(
    a: ValueType = ONE_T,
    b: ValueType = ONE_T,
    c: ValueType = ONE_T,
    d: ValueType = ONE_T,
) -> Combinator:
    """(a+b)+(c+d) <-> (a+c)+(b+d), swapping the middle summands."""
    term = seq(
        Prim("assocr+"),
        SumC(identity_at(a), Prim("assocl+")),
        SumC(identity_at(a), SumC(Prim("swap+"), identity_at(d))),
        SumC(identity_at(a), Prim("assocr+")),
        Prim("assocl+"),
    )
    return Ann(term, Sum(Sum(a, b), Sum(c, d)), Sum(Sum(a, c), Sum(b, d)))


def swapassoc(a: ValueType) -> Combinator:
    """Swap the first two tensor factors of 2*(2*a)."""
    term = seq(Prim("assocl*"), ProdC(Prim("swap*"), identity_at(a)), Prim("assocr*"))
    q = Prod(BOOL, Prod(BOOL, a))
    return Ann(term, q, q)


# --- the named gates --------------------------------------------------------


def x_gate() -> Combinator:
    return Ann(Prim("swap+"), BOOL, BOOL)


def z_gate() -> Combinator:
    return phase_gate(omega_term(4))


def s_gate() -> Combinator:
    return phase_gate(omega_term(2))


def sdg_gate() -> Combinator:
    return phase_gate(omega_term(6))


def t_gate() -> Combinator:
    return phase_gate(omega_term(1))


def tdg_gate() -> Combinator:
    return phase_gate(omega_term(7))


def h_gate() -> Combinator:
    body = seq(x_gate(), s_gate(), Prim("v"), s_gate(), x_gate())
    return scalar_mul(omega_term(1), body)


def k_gate() -> Combinator:
    return scalar_mul(omega_term(7), h_gate())


def swap_gate() -> Combinator:
    return Ann(Prim("swap*"), Prod(BOOL, BOOL), Prod(BOOL, BOOL))


_TWO_Q = Prod(BOOL, BOOL)
_THREE_Q = Prod(BOOL, Prod(BOOL, BOOL))


@lru_cache(maxsize=None)
def macro_table() -> dict[str, Combinator]:
    """Names the surface parser may expand (flag-controlled)."""
    t = {name: m.term for name, m in gate_macros().items()}
    # the derived unitors and distributors stay polymorphic; usable with an
    # expected type or inside a pinned context
    t["unite+r"] = unite_r_plus()
    t["uniti+r"] = uniti_r_plus()
    t["unite*r"] = unite_r_times()
    t["uniti*r"] = uniti_r_times()
    t["distl"] = dist_left()
    t["factorl"] = factor_left()
    return t


@lru_cache(maxsize=None)
def gate_macros() -> dict[str, GateMacro]:
    g: dict[str, GateMacro] = {}

    def add(name, term, ty, qubits=None):
        g[name] = GateMacro(name, ty, ty, term, qubits)

    for name, term in [
        ("x", x_gate()),
        ("z", z_gate()),
        ("s", s_gate()),
        ("sdg", sdg_gate()),
        ("t", t_gate()),
        ("tdg", tdg_gate()),
        ("h", h_gate()),
        ("k", k_gate()),
        ("v", Prim("v")),
        ("vdg", Prim("vi")),
    ]:
        add(name, term, BOOL, qubits=1)
    for name, term in [
        ("cx", ctrl(x_gate())),
        ("cz", ctrl(z_gate())),
        ("ch", ctrl(h_gate())),
        ("ct", ctrl(t_gate())),
        ("swap", swap_gate()),
        ("csx", ctrl(Prim("v"), BOOL)),
        ("csxdg", ctrl(Prim("vi"), BOOL)),
    ]:
        add(name, term, _TWO_Q, qubits=2)
    add("ccx", ctrl(ctrl(x_gate())), _THREE_Q, qubits=3)
    add("midswap", midswap(), Sum(BOOL, BOOL))
    add("i", omega_term(2), ONE_T)
    add("minus_one", omega_term(4), ONE_T)
    add("minus_i", omega_term(6), ONE_T)
    return g


def named_gate(name: str) -> Combinator:
    """Look up a gate term by (case-insensitive) name."""
    macros = gate_macros()
    key = name.lower()
    if key not in macros:
        raise GateError(
            f"unknown gate {name!r}; known: {', '.join(sorted(macros))}"
        )
    return macros[key].term
