"""Exact denotational evaluator: typed combinators to unitary matrices over
Z[1/2, w].

Index conventions are fixed once and for all: a sum indexes the left summand
first, and a product indexes lexicographically with the left factor most
significant.  Under these conventions the associators, unitors, distributors
and annihilators all denote identity permutations, swap+ is the block swap,
and swap* is the perfect shuffle.  0-dimensional objects are first-class:
matrices may have zero rows or columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Optional, Union

from .exactnum import ONE, ZERO, DyadicCyclotomic, omega_pow
from .lang import (
    Ann,
    Combinator,
    MetaVar,
    Prim,
    Prod,
    ProdC,
    Seq,
    Sum,
    SumC,
    SqrtPiError,
    Typed,
    ValueType,
    dimension,
    typecheck,
)


class DimensionError(SqrtPiError):
    pass


class ExactMatrix:
    """Dense rows x cols matrix of DyadicCyclotomic entries (row-major)."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries) -> None:
        entries = tuple(entries)
        if len(entries) != rows * cols:
            raise DimensionError(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}"
            )
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    @classmethod
    def identity(cls, n: int) -> ExactMatrix:
        return cls(n, n, tuple(ONE if i == j else ZERO for i in range(n) for j in range(n)))

    @classmethod
    def permutation(cls, n: int, image) -> ExactMatrix:
        """Matrix sending source basis vector j to target vector image[j]."""
        ent = [ZERO] * (n * n)
        for j, i in enumerate(image):
            ent[i * n + j] = ONE
        return cls(n, n, ent)

    @classmethod
    def scalar(cls, x: DyadicCyclotomic) -> ExactMatrix:
        return cls(1, 1, (x,))

    def __getitem__(self, ij: tuple[int, int]) -> DyadicCyclotomic:
        i, j = ij
        return self.entries[i * self.cols + j]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self) -> str:
        return f"ExactMatrix({self.rows}x{self.cols})"

    def times_omega_pow(self, k: int) -> ExactMatrix:
        return ExactMatrix(
            self.rows, self.cols, tuple(e.times_omega_pow(k) for e in self.entries)
        )

    def is_identity(self) -> bool:
        return self.rows == self.cols and self == ExactMatrix.identity(self.rows)

    def to_json(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [e.to_json() for e in self.entries],
        }

    @classmethod
    def from_json(cls, data: dict) -> ExactMatrix:
        return cls(
            data["rows"],
            data["cols"],
            tuple(DyadicCyclotomic.from_json(e) for e in data["entries"]),
        )


def compose(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Matrix product a . b (a.cols must equal b.rows)."""
    if a.cols != b.rows:
        raise DimensionError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    out = [ZERO] * (a.rows * b.cols)
    for i in range(a.rows):
        arow = i * a.cols
        orow = i * b.cols
        for k in range(a.cols):
            x = a.entries[arow + k]
            if not x:
                continue
            brow = k * b.cols
            for j in range(b.cols):
                y = b.entries[brow + j]
                if y:
                    out[orow + j] = out[orow + j] + x * y
    return ExactMatrix(a.rows, b.cols, out)


def direct_sum(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    rows, cols = a.rows + b.rows, a.cols + b.cols
    out = [ZERO] * (rows * cols)
    for i in range(a.rows):
        for j in range(a.cols):
            out[i * cols + j] = a.entries[i * a.cols + j]
    for i in range(b.rows):
        for j in range(b.cols):
            out[(a.rows + i) * cols + (a.cols + j)] = b.entries[i * b.cols + j]
    return ExactMatrix(rows, cols, out)


def kronecker(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Kronecker product with the left factor most significant."""
    rows, cols = a.rows * b.rows, a.cols * b.cols
    out = [ZERO] * (rows * cols)
    for i in range(a.rows):
        for j in range(a.cols):
            x = a.entries[i * a.cols + j]
            if not x:
                continue
            for k in range(b.rows):
                base = (i * b.rows + k) * cols + j * b.cols
                for l in range(b.cols):
                    y = b.entries[k * b.cols + l]
                    if y:
                        out[base + l] = x * y
    return ExactMatrix(rows, cols, out)


def adjoint(a: ExactMatrix) -> ExactMatrix:
    out = [ZERO] * (a.rows * a.cols)
    for i in range(a.rows):
        for j in range(a.cols):
            out[j * a.rows + i] = a.entries[i * a.cols + j].conjugate()
    return ExactMatrix(a.cols, a.rows, out)


# --- equality verdicts -----------------------------------------------------


@dataclass(frozen=True)
class Verdict:
    kind: Literal["equal", "equal_with_phase", "not_equal"]
    phase: Optional[int] = None

    def __str__(self) -> str:
        if self.kind == "equal_with_phase":
            return f"equal_with_phase {self.phase}"
        return self.kind

    @property
    def equivalent(self) -> bool:
        return self.kind != "not_equal"


def equal_matrices(
    a: ExactMatrix,
    b: ExactMatrix,
    phase_mode: Literal["strict", "up_to_omega_power"] = "strict",
) -> Verdict:
    """Exact comparison; in phase mode reports the unique k with a = w^k * b."""
    if a.rows != b.rows or a.cols != b.cols:
        raise DimensionError(
            f"cannot compare {a.rows}x{a.cols} with {b.rows}x{b.cols}"
        )
    if a == b:
        return Verdict("equal")
    if phase_mode == "strict":
        return Verdict("not_equal")
    # find the first nonzero entry of b and read off the candidate power
    for idx, y in enumerate(b.entries):
        if y:
            x = a.entries[idx]
            for k in range(1, 8):
                if x == y.times_omega_pow(k):
                    if a == b.times_omega_pow(k):
                        return Verdict("equal_with_phase", k)
                    return Verdict("not_equal")
            return Verdict("not_equal")
    return Verdict("not_equal")  # b == 0 but a != b


# --- denotations of primitives ---------------------------------------------

# v = H . diag(-1, i) . H, written out exactly: entries (-1 +- w^2)/2
_V_MAT = ExactMatrix(
    2,
    2,
    (
        DyadicCyclotomic.from_coeffs((-1, 0, 1, 0), 1),
        DyadicCyclotomic.from_coeffs((-1, 0, -1, 0), 1),
        DyadicCyclotomic.from_coeffs((-1, 0, -1, 0), 1),
        DyadicCyclotomic.from_coeffs((-1, 0, 1, 0), 1),
    ),
)
_VI_MAT = compose(_V_MAT, compose(_V_MAT, _V_MAT))  # v^4 = id, so v^3 = v^-1

_IDENTITY_PRIMS = frozenset(
    {
        "id",
        "assocr+",
        "assocl+",
        "unite+l",
        "uniti+l",
        "assocr*",
        "assocl*",
        "unite*l",
        "uniti*l",
        "dist",
        "factor",
        "absorbl",
        "factorzr",
    }
)


def _prim_matrix(name: str, src: ValueType, tgt: ValueType) -> ExactMatrix:
    if name == "w":
        return ExactMatrix.scalar(omega_pow(1))
    if name == "wi":
        return ExactMatrix.scalar(omega_pow(7))
    if name == "v":
        return _V_MAT
    if name == "vi":
        return _VI_MAT
    if name == "swap+":
        assert isinstance(src, Sum)
        d1, d2 = dimension(src.left), dimension(src.right)
        return ExactMatrix.permutation(
            d1 + d2, [j + d2 if j < d1 else j - d1 for j in range(d1 + d2)]
        )
    if name == "swap*":
        assert isinstance(src, Prod)
        d1, d2 = dimension(src.left), dimension(src.right)
        return ExactMatrix.permutation(
            d1 * d2, [(j % d2) * d1 + j // d2 for j in range(d1 * d2)]
        )
    if name in _IDENTITY_PRIMS:
        d = dimension(src)
        if d != dimension(tgt):  # cannot happen for scheme-typed primitives
            raise DimensionError(f"{name}: {d} != {dimension(tgt)}")
        return ExactMatrix.identity(d)
    raise SqrtPiError(f"no denotation for primitive {name!r}")


def eval_typed(t: Typed, _memo: Optional[dict] = None) -> ExactMatrix:
    """Denotation of a typed combinator.

    The memo table is per-call and keyed on subterm identity plus its
    concrete types, so shared macro expansions evaluate once.
    """
    memo = _memo if _memo is not None else {}
    key = (id(t.term), t.src, t.tgt)
    hit = memo.get(key)
    if hit is not None:
        return hit
    term = t.term
    if isinstance(term, Prim):
        m = _prim_matrix(term.name, t.src, t.tgt)
    elif isinstance(term, Ann):
        m = eval_typed(t.children[0], memo)
    elif isinstance(term, Seq):
        # front to back: each part acts on the product of the ones before it
        m = eval_typed(t.children[0], memo)
        for part in t.children[1:]:
            m = compose(eval_typed(part, memo), m)
    elif isinstance(term, SumC):
        m = direct_sum(eval_typed(t.children[0], memo), eval_typed(t.children[1], memo))
    elif isinstance(term, ProdC):
        m = kronecker(eval_typed(t.children[0], memo), eval_typed(t.children[1], memo))
    elif isinstance(term, MetaVar):
        raise SqrtPiError(f"cannot evaluate pattern variable ?{term.name}")
    else:
        raise TypeError(f"cannot evaluate {term!r}")
    memo[key] = m
    return m


def evaluate(
    c: Union[Combinator, Typed],
    expected: Optional[tuple[ValueType, ValueType]] = None,
) -> ExactMatrix:
    """Typecheck (if needed) and evaluate a combinator."""
    t = c if isinstance(c, Typed) else typecheck(c, expected)
    return eval_typed(t)


# --- display ---------------------------------------------------------------


def render(m: ExactMatrix, unicode_ok: bool = True) -> str:
    """Text display over a common 2^k * sqrt(2)^m denominator."""
    if m.rows == 0 or m.cols == 0:
        return f"({m.rows}x{m.cols} matrix)"
    k = max(max(d.k for d in e.c) for e in m.entries)
    # bring every entry to the common 2^k denominator
    scaled = []
    for e in m.entries:
        ns, ke = e.common_denominator()
        shift = k - ke
        scaled.append(DyadicCyclotomic.from_coeffs(tuple(n << shift for n in ns), 0))
    half_steps = 2 * k
    sqrt2 = DyadicCyclotomic.from_coeffs((0, 1, 0, -1))
    while half_steps > 0:
        nxt = []
        ok = True
        for e in scaled:
            f = e * sqrt2
            ns, kf = f.common_denominator()
            if kf > 0 or any(n % 2 for n in ns):
                ok = False
                break
            nxt.append(DyadicCyclotomic.from_coeffs(tuple(n // 2 for n in ns), 0))
        if not ok:
            break
        scaled = nxt
        half_steps -= 1
    cells = [[str(scaled[i * m.cols + j]) for j in range(m.cols)] for i in range(m.rows)]
    widths = [max(len(cells[i][j]) for i in range(m.rows)) for j in range(m.cols)]
    lines = [
        "[ " + "  ".join(cells[i][j].rjust(widths[j]) for j in range(m.cols)) + " ]"
        for i in range(m.rows)
    ]
    if half_steps == 0:
        return "\n".join(lines)
    root = "√2" if unicode_ok else "sqrt(2)"
    whole, half = divmod(half_steps, 2)
    den = (str(1 << whole) if whole else "") + (root if half else "")
    return f"1/{den} *\n" + "\n".join(lines)


def render_float(m: ExactMatrix) -> str:
    """Approximate complex display (never authoritative)."""
    cells = [
        [format(m.entries[i * m.cols + j].to_complex(), ".4f") for j in range(m.cols)]
        for i in range(m.rows)
    ]
    widths = [max(len(cells[i][j]) for i in range(m.rows)) for j in range(m.cols)] if m.rows else []
    lines = [
        "[ " + "  ".join(cells[i][j].rjust(widths[j]) for j in range(m.cols)) + " ]"
        for i in range(m.rows)
    ]
    return "\n".join(lines) if lines else f"({m.rows}x{m.cols} matrix)"
