"""Exact denotational evaluator: typed combinators to unitary matrices over
Z[1/2, w].

Index conventions are fixed once and for all: a sum indexes the left summand
first, and a product indexes lexicographically with the left factor most
significant.  Under these conventions the associators, unitors, distributors
and annihilators all denote identity permutations, swap+ is the block swap,
and swap* is the perfect shuffle.  0-dimensional objects are first-class:
matrices may have zero rows or columns.

Every primitive except v and vi denotes a monomial matrix (one nonzero per
column: the Pi primitives are permutations, w and wi are scalars), so most
matrices are mostly zeros.  They are stored as sparse columns: for each
column, its nonzero entries with their rows, in increasing row order.  Zeros are never stored,
which makes the form canonical and equality structural.  The kernels work
over columns.  Z[1/2, w] is a subring of the complex numbers, so it has no
zero divisors: a product of stored entries is never zero, and only sums
(in ``compose``) can cancel.
"""

from __future__ import annotations

from typing import Iterable, Literal, NamedTuple, Optional, Union

from .exactnum import INV_SQRT2, ONE, ZERO, DyadicCyclotomic, omega_pow
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


# Largest number of basis states (2^10: ten qubits) that ``evaluate`` accepts.
MAX_DIMENSION = 1 << 10


class ExactMatrix:
    """rows x cols matrix over Z[1/2, w], stored as sparse columns.

    ``columns[j]`` holds the ``(row, entry)`` pairs of column j's nonzero
    entries in increasing row order.  No zero is ever stored, so the form is
    canonical: two matrices are equal iff their shapes and columns are, and
    ``==`` and ``hash`` are structural.  The constructor takes the dense
    row-major entry list; ``entries`` rebuilds that list for display and JSON.
    """

    __slots__ = ("rows", "cols", "columns")

    def __init__(self, rows: int, cols: int, entries) -> None:
        entries = tuple(entries)
        if len(entries) != rows * cols:
            raise DimensionError(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}"
            )
        columns = tuple(
            tuple((i, e) for i, e in enumerate(entries[j::cols]) if e) for j in range(cols)
        )
        self._set(rows, cols, columns)

    def _set(self, rows: int, cols: int, columns: tuple) -> None:
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "columns", columns)

    @classmethod
    def _of_columns(cls, rows: int, cols: int, columns: tuple) -> ExactMatrix:
        """Build from columns already in canonical form (no zeros, rows sorted)."""
        m = object.__new__(cls)
        m._set(rows, cols, columns)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    @classmethod
    def identity(cls, n: int) -> ExactMatrix:
        return cls._of_columns(n, n, tuple(((j, ONE),) for j in range(n)))

    @classmethod
    def permutation(cls, n: int, image) -> ExactMatrix:
        """Matrix sending source basis vector j to target vector image[j]."""
        return cls._of_columns(n, n, tuple(((i, ONE),) for i in image))

    @classmethod
    def scalar(cls, x: DyadicCyclotomic) -> ExactMatrix:
        return cls(1, 1, (x,))

    @property
    def entries(self) -> tuple[DyadicCyclotomic, ...]:
        """The dense row-major entries, zeros included."""
        out = [ZERO] * (self.rows * self.cols)
        for j, col in enumerate(self.columns):
            for i, e in col:
                out[i * self.cols + j] = e
        return tuple(out)

    def __getitem__(self, ij: tuple[int, int]) -> DyadicCyclotomic:
        i, j = ij
        return next((e for r, e in self.columns[j] if r == i), ZERO)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.columns == other.columns
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.columns))

    def __repr__(self) -> str:
        return f"ExactMatrix({self.rows}x{self.cols})"

    def times_omega_pow(self, k: int) -> ExactMatrix:
        return ExactMatrix._of_columns(
            self.rows,
            self.cols,
            tuple(tuple((i, e.times_omega_pow(k)) for i, e in col) for col in self.columns),
        )

    def is_identity(self) -> bool:
        return self.rows == self.cols and all(
            col == ((j, ONE),) for j, col in enumerate(self.columns)
        )

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


def _times_column(acols: tuple, col: tuple) -> tuple:
    """a . col, for a given by its columns ``acols`` and col a sparse column.

    This is the one multiplication kernel: ``compose`` applies it to every
    column of its right factor, and a ``Seq`` chain (in ``eval_typed`` and in
    ``equal_typed``) pushes each column through its parts with it.  The
    result is a's columns weighted by col's entries.  A product of nonzeros
    is never zero (the ring is an integral domain), so a one-entry col just
    scales a column of a, and by ONE leaves it as it is; only sums cancel.
    """
    if len(col) == 1:
        k, y = col[0]
        if y is ONE:
            return acols[k]
        return tuple((i, x * y) for i, x in acols[k])
    acc: dict[int, DyadicCyclotomic] = {}
    for k, y in col:
        for i, x in acols[k]:
            p = x * y
            acc[i] = acc[i] + p if i in acc else p
    return tuple((i, acc[i]) for i in sorted(acc) if acc[i])


def _chain_column(parts: list[ExactMatrix], j: int) -> tuple:
    """Column j of the chain ``parts[0] ; parts[1] ; ...``, that is of the
    product parts[-1] . ... . parts[0], folded front to back from basis
    column j (so an empty chain is the identity)."""
    col = ((j, ONE),)
    for p in parts:
        col = _times_column(p.columns, col)
    return col


def compose(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Matrix product a . b (a.cols must equal b.rows), column by column:
    column j of the product is a applied to column j of b."""
    if a.cols != b.rows:
        raise DimensionError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    acols = a.columns
    return ExactMatrix._of_columns(
        a.rows, b.cols, tuple(_times_column(acols, col) for col in b.columns))


def direct_sum(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    shifted = tuple(tuple((a.rows + i, y) for i, y in col) for col in b.columns)
    return ExactMatrix._of_columns(a.rows + b.rows, a.cols + b.cols, a.columns + shifted)


def kronecker(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Kronecker product with the left factor most significant."""
    columns = tuple(
        tuple((i * b.rows + k, x * y) for i, x in acol for k, y in bcol)
        for acol in a.columns
        for bcol in b.columns
    )
    return ExactMatrix._of_columns(a.rows * b.rows, a.cols * b.cols, columns)


def adjoint(a: ExactMatrix) -> ExactMatrix:
    rows: list[list] = [[] for _ in range(a.rows)]
    for j, col in enumerate(a.columns):
        for i, x in col:
            rows[i].append((j, x.conjugate()))
    return ExactMatrix._of_columns(a.cols, a.rows, tuple(map(tuple, rows)))


# --- equality verdicts -----------------------------------------------------


class Verdict(NamedTuple):
    kind: Literal["equal", "equal_with_phase", "not_equal"]
    phase: Optional[int] = None

    def __str__(self) -> str:
        if self.kind == "equal_with_phase":
            return f"equal_with_phase {self.phase}"
        return self.kind

    @property
    def equivalent(self) -> bool:
        return self.kind != "not_equal"


def _compare_columns(pairs: Iterable[tuple[tuple, tuple]], phase_mode: str) -> Verdict:
    """Verdict on a = w^k * b from the pairs (column j of a, column j of b),
    taken in column order.

    In phase mode the first nonzero entry of b fixes k, since when b != 0 at
    most one k fits; in strict mode k is 0.  The first column that does not
    fit decides not_equal, and the pairs after it are never drawn.
    """
    k = 0 if phase_mode == "strict" else None
    for ca, cb in pairs:
        if k is None and cb:
            i, y = cb[0]
            x = ca[0][1] if ca and ca[0][0] == i else ZERO
            k = next((p for p in range(8) if x == y.times_omega_pow(p)), None)
            if k is None:
                return Verdict("not_equal")
        if ca != (tuple((i, e.times_omega_pow(k)) for i, e in cb) if k else cb):
            return Verdict("not_equal")
    return Verdict("equal_with_phase", k) if k else Verdict("equal")


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
    return _compare_columns(zip(a.columns, b.columns), phase_mode)


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


def check_dimension(t: Typed) -> None:
    """Raise DimensionError if t's type has more than MAX_DIMENSION basis
    states.  Every entry point calls it before any matrix is built; then
    every subterm that is evaluated is at most that large, since all terms
    denote isomorphisms and the factors of a 0-dimensional product are
    skipped."""
    for ty in (t.src, t.tgt):
        d = dimension(ty)
        if d > MAX_DIMENSION:
            raise DimensionError(
                f"dimension {d} exceeds the evaluation limit of {MAX_DIMENSION}"
            )


def eval_typed(t: Typed, _memo: Optional[dict] = None) -> ExactMatrix:
    """Denotation of a typed combinator.

    The memo table is fresh per call unless one is passed, and keyed on
    ``t``, the value ``(term, src, tgt)``: a term and its ground types
    determine its denotation, and all three are hash-consed, so the key
    hashes without walking a tree.  Every repeated subterm evaluates once,
    also across two ``typecheck`` results that share a memo.
    """
    memo = _memo if _memo is not None else {}
    hit = memo.get(t)
    if hit is not None:
        return hit
    term = t.term
    if isinstance(term, Prim):
        m = _prim_matrix(term.name, t.src, t.tgt)
    elif isinstance(term, MetaVar):
        raise SqrtPiError(f"cannot evaluate pattern variable ?{term.name}")
    elif isinstance(term, ProdC) and dimension(t.src) == 0:
        # a zero factor makes the product 0x0, so the other factor, which
        # may be larger than the root, is not evaluated
        m = ExactMatrix(0, 0, ())
    else:
        kids = [eval_typed(k, memo) for k in t.children]
        if isinstance(term, Seq):
            # front to back: each part acts on the product of the ones before it
            m = ExactMatrix._of_columns(
                kids[-1].rows, kids[0].cols,
                tuple(_chain_column(kids, j) for j in range(kids[0].cols)))
        elif isinstance(term, SumC):
            m = direct_sum(*kids)
        elif isinstance(term, ProdC):
            m = kronecker(*kids)
        else:  # an annotation
            m = kids[0]
    memo[t] = m
    return m


def evaluate(
    c: Union[Combinator, Typed],
    expected: Optional[tuple[ValueType, ValueType]] = None,
    memo: Optional[dict] = None,
) -> ExactMatrix:
    """Typecheck (if needed) and evaluate a combinator; ``check_dimension``
    refuses a type too large to evaluate before any matrix is built.
    ``memo`` is eval_typed's table; calls that pass one table, such as the
    checks of one ``check-rules`` run, evaluate each (subterm, src, tgt) once
    between them.  By default each call starts an empty one."""
    t = c if isinstance(c, Typed) else typecheck(c, expected)
    check_dimension(t)
    return eval_typed(t, memo)


def _chain_parts(t: Typed) -> list[Typed]:
    """The parts of t's outermost ``;`` chain (t itself if it is no chain),
    under annotations."""
    while isinstance(t.term, Ann):
        t = t.children[0]
    return list(t.children) if isinstance(t.term, Seq) else [t]


def _shared_prefix(xs: list, ys: list) -> int:
    """Length of the longest common prefix of xs and ys."""
    return next((i for i, (x, y) in enumerate(zip(xs, ys)) if x != y), min(len(xs), len(ys)))


def equal_typed(
    a: Typed,
    b: Typed,
    phase_mode: Literal["strict", "up_to_omega_power"] = "strict",
) -> Verdict:
    """Exact comparison of two typed terms of one type (b must have a's
    ``src`` and ``tgt``, as ``check_equiv`` ensures), as ``equal_matrices``
    of their denotations, without building either denotation whole.

    The longest common prefix and suffix of the two outermost chains are
    cancelled first: parts are compared by their hash-consed ``(term, src,
    tgt)`` key, so each comparison is O(1), and no matrix is built for them.
    This is exact because every part denotes a unitary, so S ; Ma ; P =
    w^k (S ; Mb ; P) holds iff Ma = w^k Mb, and the k, if any, is unique.
    An empty middle is the identity.  The middle parts of both sides are
    evaluated through one memo; then column j of each middle is folded
    through its parts, and the two are compared before column j + 1 is
    folded: the first column that differs decides not_equal.
    """
    check_dimension(a)
    pa, pb = _chain_parts(a), _chain_parts(b)
    n = _shared_prefix(pa, pb)
    m = _shared_prefix(pa[n:][::-1], pb[n:][::-1])
    memo: dict = {}
    ma = [eval_typed(p, memo) for p in pa[n:len(pa) - m]]
    mb = [eval_typed(p, memo) for p in pb[n:len(pb) - m]]
    columns = ((_chain_column(ma, j), _chain_column(mb, j)) for j in range(dimension(a.src)))
    return _compare_columns(columns, phase_mode)


# --- display ---------------------------------------------------------------


def render(m: ExactMatrix) -> str:
    """Text display over a common 2^k * sqrt(2)^m denominator."""
    if m.rows == 0 or m.cols == 0:
        return f"({m.rows}x{m.cols} matrix)"
    # only the nonzero entries are scaled: a zero stays 0 at any denominator
    nonzero = {(i, j): e for j, col in enumerate(m.columns) for i, e in col}
    k = max((e.k for e in nonzero.values()), default=0)
    # bring every entry to the common 2^k denominator: a left shift
    scaled = {pos: DyadicCyclotomic.from_coeffs(e.n, e.k - k) for pos, e in nonzero.items()}
    # take factors of sqrt(2) out of the denominator while every entry stays integral
    half_steps = 2 * k
    while half_steps:
        nxt = {pos: e * INV_SQRT2 for pos, e in scaled.items()}
        if any(e.k for e in nxt.values()):
            break
        scaled = nxt
        half_steps -= 1
    zero = str(ZERO)
    cells = [[str(scaled[i, j]) if (i, j) in scaled else zero for j in range(m.cols)]
             for i in range(m.rows)]
    widths = [max(len(cells[i][j]) for i in range(m.rows)) for j in range(m.cols)]
    lines = [
        "[ " + "  ".join(cells[i][j].rjust(widths[j]) for j in range(m.cols)) + " ]"
        for i in range(m.rows)
    ]
    if half_steps == 0:
        return "\n".join(lines)
    whole, half = divmod(half_steps, 2)
    den = (str(1 << whole) if whole else "") + ("√2" if half else "")
    return f"1/{den} *\n" + "\n".join(lines)


def render_float(m: ExactMatrix) -> str:
    """Approximate complex display (never authoritative)."""
    entries = m.entries
    cells = [
        [format(entries[i * m.cols + j].to_complex(), ".4f") for j in range(m.cols)]
        for i in range(m.rows)
    ]
    widths = [max(len(cells[i][j]) for i in range(m.rows)) for j in range(m.cols)] if m.rows else []
    lines = [
        "[ " + "  ".join(cells[i][j].rjust(widths[j]) for j in range(m.cols)) + " ]"
        for i in range(m.rows)
    ]
    return "\n".join(lines) if lines else f"({m.rows}x{m.cols} matrix)"
