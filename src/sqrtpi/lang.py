"""Front end for the sqrt-Pi combinator language.

Value types are finite types built from 0, 1, + and *.  Combinators are
built from the primitive isomorphisms below, the square-root primitives
v / vi / w / wi, sequencing ``;``, and the two parallel compositions
``+`` and ``*``.

Concrete grammar (ASCII)::

    term  ::= seq [":" type "<->" type]
    seq   ::= sum (";" sum)*
    sum   ::= prod ("+" prod)*          (right associative)
    prod  ::= atom ("*" atom)*          (right associative)
    atom  ::= name | "?" name | "(" term ")"
    type  ::= tsum
    tsum  ::= tprod ("+" tprod)*        (right associative)
    tprod ::= tatom ("*" tatom)*        (right associative)
    tatom ::= "0" | "1" | "2" | "(" type ")"

``;`` binds loosest, then ``+``, then ``*``.  ``2`` is sugar for ``1+1``.
``(a ; b) ; c`` and ``a ; (b ; c)`` parse to the same flat chain.
``?name`` is a rewrite-pattern metavariable, accepted only when parsing
patterns.  ``#`` starts a comment that runs to end of line.  Identifiers
other than primitive names resolve through the gate-macro table when
macro expansion is requested.
"""

from __future__ import annotations

import contextlib
import itertools
import operator
import re
import threading
import weakref
from typing import NamedTuple, Optional, Union


# ---------------------------------------------------------------------------
# value types


class Zero:
    """The empty type; a singleton."""

    __slots__ = ()
    open = False  # no TVar occurs
    dim = 0

    def __new__(cls) -> "Zero":
        return ZERO_T

    def __repr__(self) -> str:
        return "Zero"


class One:
    """The unit type; a singleton."""

    __slots__ = ()
    open = False
    dim = 1

    def __new__(cls) -> "One":
        return ONE_T

    def __repr__(self) -> str:
        return "One"


ZERO_T = object.__new__(Zero)
ONE_T = object.__new__(One)

# Closed Sum/Prod types and term nodes are hash-consed: the constructor returns
# the one live object with the same class and fields, found by the children's
# identities (which the entry keeps alive).  Equal closed types and equal terms
# are therefore the same object.  Types with a TVar are unifier temporaries and
# are not interned.
_INTERNED: "weakref.WeakValueDictionary[tuple, _Pair]" = weakref.WeakValueDictionary()
_TERMS: "weakref.WeakValueDictionary[tuple, _Node]" = weakref.WeakValueDictionary()
_INTERN_LOCK = threading.Lock()


class _Pair:
    """Sum or Prod of two types.  ``open`` (a TVar occurs) and ``dim`` (None
    when open) are computed once, at construction.  Closed instances are
    shared, so no field but the cached hash is assigned after that."""

    __slots__ = ("left", "right", "open", "dim", "_hash", "__weakref__")

    def __new__(cls, left: "ValueType", right: "ValueType"):
        if left.open or right.open:
            return cls._make(left, right, True, None)
        key = (cls, id(left), id(right))
        t = _INTERNED.get(key)
        if t is None:
            with _INTERN_LOCK:
                t = _INTERNED.get(key)
                if t is None:
                    t = _INTERNED[key] = cls._make(
                        left, right, False, cls._dim(left.dim, right.dim))
        return t

    @classmethod
    def _make(cls, left, right, is_open, dim):
        t = object.__new__(cls)
        t.left, t.right, t.open, t.dim, t._hash = left, right, is_open, dim, None
        return t

    def __eq__(self, other: object) -> bool:
        # distinct closed types differ: each closed type exists once
        return self is other or (
            type(other) is type(self) and self.open and other.open
            and self.left == other.left and self.right == other.right
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((type(self).__name__, self.left, self.right))
        return self._hash

    def __repr__(self) -> str:
        return f"{type(self).__name__}(left={self.left!r}, right={self.right!r})"


class Sum(_Pair):
    __slots__ = ()
    _dim = staticmethod(operator.add)


class Prod(_Pair):
    __slots__ = ()
    _dim = staticmethod(operator.mul)


class TVar:
    """Unification metavariable; never appears in a checked type.  Equal ids
    make equal TVars, and a TVar equals nothing else."""

    __slots__ = ("id",)
    open = True  # class attributes, not fields
    dim = None

    def __init__(self, id: int) -> None:
        self.id = id

    def __eq__(self, other: object) -> bool:
        return type(other) is TVar and other.id == self.id

    def __hash__(self) -> int:
        return hash((self.id,))

    def __repr__(self) -> str:
        return f"TVar(id={self.id!r})"


ValueType = Union[Zero, One, Sum, Prod, TVar]

BOOL = Sum(ONE_T, ONE_T)


def dimension(t: ValueType) -> int:
    if t.open:
        raise TypeError(f"dimension of open type {t!r}")
    return t.dim


def type_str(t: ValueType, level: int = 0) -> str:
    """Render a type; reparses to the same tree. Levels: 0 sum, 1 prod, 2 atom."""
    if t is BOOL:
        return "2"
    kind = type(t)
    if kind is Prod:
        s = f"{type_str(t.left, 2)}*{type_str(t.right, 1)}"
        return f"({s})" if level > 1 else s
    if kind is Sum:
        s = f"{type_str(t.left, 1)}+{type_str(t.right, 0)}"
        return f"({s})" if level > 0 else s
    if kind is TVar:
        return f"t{t.id}"
    return "0" if t is ZERO_T else "1"


# ---------------------------------------------------------------------------
# combinator AST


_SELF = object()  # the _bare of a node without annotations


class _Node:
    """Base of the interned term nodes; == and hash are identity.  ``_bare``
    caches strip_ann (never the node itself, which would be a cycle),
    ``_size`` caches rewrite.term_size (0 until computed), ``_scheme`` the
    principal type that typecheck inferred (None until an inference
    succeeds; for a primitive, its SCHEMES row) and ``_ground`` its ground
    types (see _ground); the last two hold types only, never a node."""

    __slots__ = ("_bare", "_size", "_scheme", "_ground", "__weakref__")

    def __new__(cls, *args):
        key = (cls, *args)
        node = _TERMS.get(key)
        if node is None:
            with _INTERN_LOCK:
                node = _TERMS.get(key)
                if node is None:
                    node = object.__new__(cls)
                    for name, value in zip(cls._fields, args, strict=True):
                        setattr(node, name, value)
                    node._bare, node._size, node._scheme, node._ground = None, 0, None, {}
                    _TERMS[key] = node
        return node

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"


class Prim(_Node):
    __slots__ = _fields = ("name",)


class Seq(_Node):
    """Chain ``parts[0] ; parts[1] ; ...``.  ``;`` is associative, so a chain
    is flat: two or more parts, none a Seq (a chain inside an Ann part stays
    there).  Build chains with :func:`seq`, which keeps this invariant."""

    __slots__ = _fields = ("parts",)


class SumC(_Node):
    __slots__ = _fields = ("left", "right")


class ProdC(_Node):
    __slots__ = _fields = ("left", "right")


class Ann(_Node):
    """Type-annotated subterm ``(c : src <-> tgt)``."""

    __slots__ = _fields = ("term", "src", "tgt")


class MetaVar(_Node):
    """Pattern hole; only valid inside rewrite-rule patterns."""

    __slots__ = _fields = ("name",)


Combinator = Union[Prim, Seq, SumC, ProdC, Ann, MetaVar]


def seq(*cs: Combinator) -> Combinator:
    """Sequential composition as one flat chain: chains among the arguments
    are spliced in, and a single part is returned unchanged."""
    parts = tuple(p for c in cs for p in (c.parts if isinstance(c, Seq) else (c,)))
    if not parts:
        raise ValueError("empty sequence")
    return Seq(parts) if len(parts) > 1 else parts[0]


# Primitive typing schemes, one row per primitive, in the form typecheck keeps
# on a node (see _Unifier.infer): counter start 0, the number of variables,
# src, tgt and no chain bounds.  The variables are t1..tk in order of first
# occurrence, so a row reads as if the primitive had been inferred at counter 0.
_T1, _T2, _T3 = TVar(1), TVar(2), TVar(3)

SCHEMES: dict[str, tuple] = {
    "id": (0, 1, _T1, _T1, ()),
    "swap+": (0, 2, Sum(_T1, _T2), Sum(_T2, _T1), ()),
    "assocr+": (0, 3, Sum(Sum(_T1, _T2), _T3), Sum(_T1, Sum(_T2, _T3)), ()),
    "assocl+": (0, 3, Sum(_T1, Sum(_T2, _T3)), Sum(Sum(_T1, _T2), _T3), ()),
    "unite+l": (0, 1, Sum(ZERO_T, _T1), _T1, ()),
    "uniti+l": (0, 1, _T1, Sum(ZERO_T, _T1), ()),
    "swap*": (0, 2, Prod(_T1, _T2), Prod(_T2, _T1), ()),
    "assocr*": (0, 3, Prod(Prod(_T1, _T2), _T3), Prod(_T1, Prod(_T2, _T3)), ()),
    "assocl*": (0, 3, Prod(_T1, Prod(_T2, _T3)), Prod(Prod(_T1, _T2), _T3), ()),
    "unite*l": (0, 1, Prod(ONE_T, _T1), _T1, ()),
    "uniti*l": (0, 1, _T1, Prod(ONE_T, _T1), ()),
    "dist": (0, 3, Prod(Sum(_T1, _T2), _T3), Sum(Prod(_T1, _T3), Prod(_T2, _T3)), ()),
    "factor": (0, 3, Sum(Prod(_T1, _T2), Prod(_T3, _T2)), Prod(Sum(_T1, _T3), _T2), ()),
    "absorbl": (0, 1, Prod(_T1, ZERO_T), ZERO_T, ()),
    "factorzr": (0, 1, ZERO_T, Prod(_T1, ZERO_T), ()),
    "v": (0, 0, BOOL, BOOL, ()),
    "vi": (0, 0, BOOL, BOOL, ()),
    "w": (0, 0, ONE_T, ONE_T, ()),
    "wi": (0, 0, ONE_T, ONE_T, ()),
}

PRIMITIVES = tuple(SCHEMES)

_DUAL = {
    "id": "id",
    "swap+": "swap+",
    "assocr+": "assocl+",
    "assocl+": "assocr+",
    "unite+l": "uniti+l",
    "uniti+l": "unite+l",
    "swap*": "swap*",
    "assocr*": "assocl*",
    "assocl*": "assocr*",
    "unite*l": "uniti*l",
    "uniti*l": "unite*l",
    "dist": "factor",
    "factor": "dist",
    "absorbl": "factorzr",
    "factorzr": "absorbl",
    "v": "vi",
    "vi": "v",
    "w": "wi",
    "wi": "w",
}


def invert(c: Combinator) -> Combinator:
    """Syntactic dagger: primitives map to their duals, Seq reverses."""
    if isinstance(c, Prim):
        return Prim(_DUAL[c.name])
    if isinstance(c, Seq):
        return seq(*[invert(p) for p in reversed(c.parts)])
    if isinstance(c, SumC):
        return SumC(invert(c.left), invert(c.right))
    if isinstance(c, ProdC):
        return ProdC(invert(c.left), invert(c.right))
    if isinstance(c, Ann):
        return Ann(invert(c.term), c.tgt, c.src)
    if isinstance(c, MetaVar):
        return c
    raise TypeError(f"cannot invert {c!r}")


def pretty(c: Combinator) -> str:
    """Render a combinator; reparses to an equal AST."""
    out: list[str] = []
    _render(c, 0, out.append)
    return "".join(out)


def _render(c: Combinator, level: int, emit) -> None:
    """Pass the text of c to emit, piece by piece, in order.

    Levels: 0 seq, 1 sum, 2 prod, 3 atom.
    """
    kind = type(c)
    if kind is Prim:
        emit(c.name)
    elif kind is Seq:
        if level > 0:
            emit("(")
        _render(c.parts[0], 1, emit)
        for p in c.parts[1:]:
            emit(" ; ")
            _render(p, 1, emit)
        if level > 0:
            emit(")")
    elif kind is ProdC or kind is SumC:
        own, op = (2, " * ") if kind is ProdC else (1, " + ")
        if level > own:
            emit("(")
        _render(c.left, own + 1, emit)
        emit(op)
        _render(c.right, own, emit)
        if level > own:
            emit(")")
    elif kind is Ann:
        emit("(")
        _render(c.term, 0, emit)
        emit(f" : {type_str(c.src)} <-> {type_str(c.tgt)})")
    elif kind is MetaVar:
        emit(f"?{c.name}")
    else:
        raise TypeError(f"cannot print {c!r}")


# ---------------------------------------------------------------------------
# errors


class SqrtPiError(Exception):
    pass


class ParseError(SqrtPiError):
    def __init__(self, msg: str, line: int, col: int, expected: tuple[str, ...] = ()):
        self.line, self.col, self.expected = line, col, expected
        tail = f" (expected one of: {', '.join(expected)})" if expected else ""
        super().__init__(f"{line}:{col}: {msg}{tail}")


class TypeCheckError(SqrtPiError):
    pass


# Longest term a type error quotes, in characters; a longer one is cut there
# and ends in "...", so the diagnostic of a wide circuit stays one short line.
MAX_QUOTE = 1000


class _QuoteFull(Exception):
    """Raised by _quote's printer once it has passed MAX_QUOTE characters."""


def _quote(node: Combinator) -> str:
    """pretty(node), cut after MAX_QUOTE characters; the rest of the term is
    not rendered."""
    pieces: list[str] = []
    size = 0

    def emit(piece: str) -> None:
        nonlocal size
        pieces.append(piece)
        size += len(piece)
        if size > MAX_QUOTE:
            raise _QuoteFull

    try:
        _render(node, 0, emit)
    except _QuoteFull:
        return "".join(pieces)[:MAX_QUOTE] + "..."
    return "".join(pieces)


class UnificationFailure(TypeCheckError):
    def __init__(self, t1: ValueType, t2: ValueType, node: Optional[Combinator]):
        self.t1, self.t2, self.node = t1, t2, node
        where = f" at `{_quote(node)}`" if node is not None else ""
        super().__init__(
            f"cannot unify {type_str(t1)} with {type_str(t2)}{where}"
        )


class UnresolvedMetavariable(TypeCheckError):
    def __init__(self, node: Combinator):
        self.node = node
        super().__init__(
            f"type of `{_quote(node)}` is not fully determined; "
            "add an annotation or an expected type"
        )


# ---------------------------------------------------------------------------
# tokenizer / parser

# Deepest nesting accepted: each open "(" and each right operand of "+" or "*",
# in terms and types, is a level.  Deeper input is a ParseError, not a stack
# overflow here or in the recursive passes after parsing.  ";" does not nest.
MAX_NESTING = 100

# Group 1 is the next token after any whitespace and comments, and "" at the
# end of the input.  A character that starts no token is a token of its own,
# which the parser rejects.  Compound names (swap+ ...) must come before names
# and the catch-all "." last; no other two alternatives match at the same
# place, so the most frequent tokens are tried first.
_TOKEN_RE = re.compile(
    r"""[ \t\r\n]*(?:\#[^\n]*[ \t\r\n]*)*
        ( [;+*():,=] | (?:swap|assocr|assocl|unite|uniti)[+*][lr]?
        | [A-Za-z][A-Za-z0-9_]* | <-> | \d+ | \?[A-Za-z][A-Za-z0-9_]*
        | . | \Z )""",
    re.VERBOSE | re.DOTALL,
)
_ONE_CHAR_TOKEN = re.compile(r"[A-Za-z\d;+*():,=]")
# Ends at the next "(" or ")" outside a comment, or at the end of the input.
_RUN_RE = re.compile(r"[^()#]*(?:#[^\n]*[^()#]*)*")
_TYPE_LITERALS = {"0": ZERO_T, "1": ONE_T, "2": BOOL}


class _GroupMemo:
    """The parenthesized groups, and the whole texts, read by one parse
    call, or by every call inside one shared_groups() block.  ``groups``
    maps (head, context) to {text: (node, peak)}: text is the exact text of
    a group that parsed, from its "(" to its ")", head is that text up to
    its first ")" character, node is what it parsed to and peak the nesting
    depth it reached, counted from outside its "(".  Group texts are prefix
    free (a group ends where its first "(" closes), so at most one entry of
    a bucket starts at a given offset.  ``texts`` maps (text,
    expand_macros, allow_metavars) to the node of a whole text that parsed,
    the text stripped of the whitespace that the tokenizer skips; a text
    that failed is never stored, so it is read again and raises the same
    error."""

    def __init__(self) -> None:
        self.groups: dict[tuple, dict[str, tuple]] = {}
        self.texts: dict[tuple, Combinator] = {}


_SHARED = threading.local()


@contextlib.contextmanager
def shared_groups():
    """Let the parse calls on this thread inside the block share one group
    memo, so a group read by an earlier call is not read again."""
    outer = getattr(_SHARED, "memo", None)
    _SHARED.memo = outer or _GroupMemo()
    try:
        yield
    finally:
        _SHARED.memo = outer


class _Parser:
    """Recursive descent over the tokens of text, read one run at a time.  A
    run is the tokens from offset ``start`` up to the next "(" or ")" at
    offset ``end``; ``toks`` holds them and ends in that parenthesis, or in
    "" at the end of the input.  Only a group's "(" and ")" move to the next
    run, so a group found in the memo is passed over without reading its
    tokens.  ``i`` indexes the current token of the run; an error finds its
    offset by reading the run again (see _error)."""

    def __init__(
        self,
        text: str,
        macros: Optional[dict[str, Combinator]] = None,
        allow_metavars: bool = False,
    ):
        self.text = text
        self.memo = getattr(_SHARED, "memo", None) or _GroupMemo()
        self.macros = macros
        self.allow_metavars = allow_metavars
        self.context = (macros is not None, allow_metavars)  # of term groups
        self.depth = 0
        self.peak = 0  # deepest level reached in the innermost open group
        self._read(0)

    def _read(self, pos: int) -> None:
        """Make the run that starts at offset pos the current one."""
        text = self.text
        m = _TOKEN_RE.match(text, pos)
        if m[1] in "()":  # "(", ")" or the end: an empty run, as in "((" or "))"
            self.toks, self.end = [m[1]], m.start(1)
        else:
            self.end = _RUN_RE.match(text, pos).end()
            self.toks = _TOKEN_RE.findall(text, pos, self.end + 1)
        self.start, self.i = pos, 0

    def _error(self, msg: str, i: Optional[int] = None,
               expected: tuple[str, ...] = ()) -> ParseError:
        """The error at token i of the run, by default the current one, unless
        the text has a character that starts no token: then the error is at
        the first such character, wherever it is.  Only this error path reads
        the whole text."""
        text = self.text
        toks = _TOKEN_RE.findall(text)
        bad = [t for t in set(toks) if len(t) == 1 and not _ONE_CHAR_TOKEN.match(t)]
        if bad:
            i = min(map(toks.index, bad))
            pos = next(itertools.islice(_TOKEN_RE.finditer(text), i, None)).start(1)
            msg, expected = f"unexpected character {toks[i]!r}", ()
        else:
            i = self.i if i is None else i
            pos = next(itertools.islice(
                _TOKEN_RE.finditer(text, self.start, self.end + 1), i, None)).start(1)
        line = text.count("\n", 0, pos) + 1
        return ParseError(msg, line, pos - text.rfind("\n", 0, pos), expected)

    def _unexpected(self, expected: tuple[str, ...], where: str = "") -> ParseError:
        t = self.toks[self.i]
        msg = f"unexpected {t!r}{where}" if t else "unexpected end of input"
        return self._error(msg, expected=expected)

    def _expect(self, text: str) -> None:
        if self.toks[self.i] != text:
            raise self._unexpected((repr(text),))
        self.i += 1

    def _end(self) -> None:
        if self.toks[self.i]:
            raise self._error(f"trailing input {self.toks[self.i]!r}")

    def _deeper(self) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self._error(f"nesting deeper than {MAX_NESTING} levels")
        if self.depth > self.peak:
            self.peak = self.depth

    def _sum(self, operand, make_sum, make_prod):
        """prod ("+" prod)* with prod ::= operand ("*" operand)*, each chain
        folded to the right; the k-th right operand of a chain is k levels
        deeper than its first operand.  Loops, not recursion, so that a level
        of nesting costs few Python frames."""
        sums = []
        while True:
            prods = [operand()]
            while self.toks[self.i] == "*":
                self.i += 1
                self._deeper()
                prods.append(operand())
            sums.append(self._fold(prods, make_prod) if len(prods) > 1 else prods[0])
            if self.toks[self.i] != "+":
                return self._fold(sums, make_sum) if len(sums) > 1 else sums[0]
            self.i += 1
            self._deeper()

    def _fold(self, parts: list, make):
        self.depth -= len(parts) - 1
        node = parts.pop()
        while parts:
            node = make(parts.pop(), node)
        return node

    def _group(self, inner, context):
        """"(" inner ")", or the node of an equal group read before, unless
        reusing it would cross MAX_NESTING here (then the parse raises).  The
        "(" ends the current run."""
        text, start = self.text, self.end
        head = (text[start:text.find(")", start) + 1], context)
        for group, (node, peak) in self.memo.groups.get(head, {}).items():
            if text.startswith(group, start):
                if self.depth + peak <= MAX_NESTING:
                    self._read(start + len(group))
                    self.peak = max(self.peak, self.depth + peak)
                    return node
                break
        outer_peak, self.peak = self.peak, self.depth
        self._read(start + 1)
        self._deeper()
        node = inner()
        self._expect(")")
        self._read(self.end + 1)  # the ")" ends its run
        self.depth -= 1
        self.memo.groups.setdefault(head, {})[text[start:self.start]] = (
            node, self.peak - self.depth)
        self.peak = max(outer_peak, self.peak)
        return node

    # terms

    def term(self) -> Combinator:
        parts = [self._sum(self.atom, SumC, ProdC)]
        while self.toks[self.i] == ";":
            self.i += 1
            parts.append(self._sum(self.atom, SumC, ProdC))
        t = seq(*parts) if len(parts) > 1 else parts[0]
        if self.toks[self.i] == ":":
            self.i += 1
            src = self.type_()
            self._expect("<->")
            return Ann(t, src, self.type_())
        return t

    def atom(self) -> Combinator:
        t = self.toks[self.i]
        if t == "(":
            return self._group(self.term, self.context)
        if t[:1] == "?":
            if not self.allow_metavars:
                raise self._error("pattern variable outside a pattern")
            self.i += 1
            return MetaVar(t[1:])
        if t[:1].isalpha():
            self.i += 1
            if t in SCHEMES:
                return Prim(t)
            if self.macros is not None and t in self.macros:
                return self.macros[t]
            hint = ("a primitive or gate name",) if self.macros is not None else (
                "a primitive name (pass expand_macros=True for gate names)",
            )
            raise self._error(f"unknown name {t!r}", self.i - 1, hint)
        raise self._unexpected(("name", "'('", "'?var'"))

    # types

    def type_(self) -> ValueType:
        return self._sum(self.tatom, Sum, Prod)

    def tatom(self) -> ValueType:
        t = self.toks[self.i]
        if t == "(":
            return self._group(self.type_, None)
        if t[:1].isdecimal():  # \d+, as the token pattern reads it
            self.i += 1
            if t in _TYPE_LITERALS:
                return _TYPE_LITERALS[t]
            raise self._error(f"unknown type literal {t!r}", self.i - 1, ("0", "1", "2"))
        raise self._unexpected(("0", "1", "2", "'('"), " in type")


def parse(
    text: str,
    expand_macros: bool = False,
    allow_metavars: bool = False,
) -> Combinator:
    """Parse surface syntax into an (untyped) combinator AST.  Inside a
    shared_groups() block, a text equal to one that parsed before, up to
    leading and trailing whitespace, returns that node without being read."""
    memo = getattr(_SHARED, "memo", None)
    key = (text.strip(" \t\r\n"), expand_macros, allow_metavars)
    if memo is not None and key in memo.texts:
        return memo.texts[key]
    macros = None
    if expand_macros:
        from . import gates  # late import; gates builds terms via this module

        macros = gates.macro_table()
    p = _Parser(text, macros, allow_metavars)
    t = p.term()
    p._end()
    if memo is not None:
        memo.texts[key] = t
    return t


def parse_type(text: str) -> ValueType:
    p = _Parser(text)
    t = p.type_()
    p._end()
    return t


def parse_type_pair(text: str) -> tuple[ValueType, ValueType]:
    """Parse ``type <-> type``."""
    p = _Parser(text)
    src = p.type_()
    p._expect("<->")
    tgt = p.type_()
    p._end()
    return src, tgt


# ---------------------------------------------------------------------------
# type checking (first-order unification over {0,1,+,*})


class Typed(NamedTuple):
    """A combinator node at the concrete types typecheck grounded it at; a
    plain value, so equal fields make equal Typed.  ``children`` has one
    entry per Seq part and per SumC/ProdC/Ann operand."""

    term: Combinator
    src: ValueType
    tgt: ValueType

    @property
    def children(self) -> tuple["Typed", ...]:
        node, src, tgt = self
        return _kids(node, src, tgt, node._ground[src, tgt] if type(node) is Seq else ())


def _kids(node: Combinator, src: ValueType, tgt: ValueType,
          inner: tuple[ValueType, ...]) -> tuple[Typed, ...]:
    """The children of node at src and tgt, given a chain's inner types."""
    kind = type(node)
    if kind is Seq:
        types = (src, *inner, tgt)
        return tuple(map(Typed, node.parts, types, types[1:]))
    if kind is Ann:
        return (Typed(node.term, src, tgt),)
    if kind is ProdC or kind is SumC:
        return (Typed(node.left, src.left, tgt.left), Typed(node.right, src.right, tgt.right))
    return ()


class _Unifier:
    """The substitution and variable counter of one typecheck call, or of
    grounding one chain's inner types in _ground."""

    def __init__(self) -> None:
        self.subst: dict[int, ValueType] = {}
        self.counter = 0

    def find(self, v: TVar) -> ValueType:
        """The representative of variable v.  The variables on the way are
        bound to it, so a chain of variables (one per part of a long ``id ;
        id ; ...``) is walked once."""
        subst = self.subst
        if v.id not in subst:
            return v
        path = []
        t = v
        while type(t) is TVar and t.id in subst:
            path.append(t.id)
            t = subst[t.id]
        for i in path:
            subst[i] = t
        return t

    def resolve(self, t: ValueType) -> ValueType:
        """t with every bound variable replaced, all the way down; t itself
        if it has none."""
        if not t.open:  # a closed type is its own resolution
            return t
        if type(t) is TVar:
            t = self.find(t)
            if type(t) is TVar or not t.open:
                return t
        left, right = self.resolve(t.left), self.resolve(t.right)
        if left is t.left and right is t.right:
            return t
        return type(t)(left, right)

    def _occurs(self, v: TVar, t: ValueType) -> bool:
        if type(t) is TVar:
            t = self.find(t)
            if type(t) is TVar:
                return t.id == v.id
        return t.open and (self._occurs(v, t.left) or self._occurs(v, t.right))

    def unify(self, a: ValueType, b: ValueType, node: Optional[Combinator]) -> None:
        if a is b:
            return
        if type(a) is TVar:
            a = self.find(a)
        if type(b) is TVar:
            b = self.find(b)
        if a is b:  # Zero, One and equal closed types are each one object
            return
        if type(b) is TVar and type(a) is not TVar:
            a, b = b, a  # bind the variable, and report it first
        if type(a) is TVar:
            if type(b) is TVar and a.id == b.id:
                return
            if self._occurs(a, b):
                raise UnificationFailure(self.resolve(a), self.resolve(b), node)
            self.subst[a.id] = b
        elif type(a) is type(b):  # two distinct pairs: Zero and One are singletons
            self.unify(a.left, b.left, node)
            self.unify(a.right, b.right, node)
        else:
            raise UnificationFailure(self.resolve(a), self.resolve(b), node)

    def infer(self, node: Combinator) -> tuple[ValueType, ValueType]:
        """The principal src and tgt of node, with no variable bound in subst.
        A node inferred before, in any call, and a primitive, whose scheme is
        its SCHEMES row, instantiate their scheme."""
        scheme = node._scheme
        kind = type(node)
        if scheme is None and kind is Prim:
            scheme = node._scheme = SCHEMES[node.name]
        if scheme is not None:
            start, count, src, tgt, _ = scheme
            delta = self.counter - start
            self.counter += count
            return (_shift(src, delta), _shift(tgt, delta)) if delta else (src, tgt)
        start, bounds = self.counter, ()
        if kind is Seq:
            kids = [self.infer(p) for p in node.parts]
            for (_, f_tgt), (g_src, _) in zip(kids, kids[1:]):
                self.unify(f_tgt, g_src, node)
            # a chain is the only node that unifies its children's types, so
            # only its types can hold variables bound in subst
            src, tgt = self.resolve(kids[0][0]), self.resolve(kids[-1][1])
            bounds = tuple([self.resolve(t) for _, t in kids[:-1]])
        elif kind is Ann:
            src, tgt = self.infer(node.term)
            self.unify(src, node.src, node)
            self.unify(tgt, node.tgt, node)
            src, tgt = node.src, node.tgt
        elif kind is ProdC or kind is SumC:
            (ls, lt), (rs, rt) = self.infer(node.left), self.infer(node.right)
            pair = Prod if kind is ProdC else Sum
            src, tgt = pair(ls, rs), pair(lt, rt)
        elif kind is MetaVar:
            raise TypeCheckError(f"cannot typecheck pattern variable ?{node.name}")
        else:
            raise TypeError(f"cannot typecheck {node!r}")
        # one assignment, so another thread sees the whole scheme or none
        node._scheme = (start, self.counter - start, src, tgt, bounds)
        return src, tgt


def _shift(t: ValueType, delta: int) -> ValueType:
    """t with every variable tN renamed to t(N + delta)."""
    if not t.open:
        return t
    if type(t) is TVar:
        return TVar(t.id + delta)
    # an open pair is never interned, so it is built without a lookup
    return t._make(_shift(t.left, delta), _shift(t.right, delta), True, None)


def _ground(node: Combinator, src: ValueType, tgt: ValueType) -> None:
    """Record on node, and on every node below it but a primitive, its inner
    types at the ground types src and tgt: a chain's types between its
    parts, () for any other node.  A chain's inner types are its scheme's
    bounds, grounded by unifying the scheme's src and tgt with src and tgt.
    Top down, in preorder: a node checks its own types first, so the first
    node left open is the one reported.  A record is written only once its subtree is grounded whole, so a
    recorded (src, tgt) returns at once, and an error is raised again."""
    if src.open or tgt.open:
        raise UnresolvedMetavariable(node)
    kind = type(node)
    if kind is Prim or (src, tgt) in node._ground:
        return
    inner: tuple[ValueType, ...] = ()
    if kind is Seq:
        _, _, s_src, s_tgt, bounds = node._scheme
        u = _Unifier()
        u.unify(s_src, src, node)
        u.unify(s_tgt, tgt, node)
        inner = tuple(map(u.resolve, bounds))
    for kid in _kids(node, src, tgt, inner):
        _ground(*kid)
    node._ground[src, tgt] = inner


def typecheck(
    c: Combinator,
    expected: Optional[tuple[ValueType, ValueType]] = None,
) -> Typed:
    """Infer concrete types for every node; returns the Typed root.

    Raises UnificationFailure on a type clash and UnresolvedMetavariable if
    the term stays polymorphic after inference (supply ``expected`` or add
    annotations in that case).

    A term is a DAG: equal subterms are one object.  The first successful
    inference of a node stores its principal scheme on the node: the
    fresh-variable counter before the inference, the number of variables it
    allocated, its src and tgt, and for a Seq the types between its parts.
    A primitive's scheme is its SCHEMES row.  Every later inference of the
    node, in this call or any later one, instantiates the scheme by renaming
    its variables.  The counter advances as if the node had been inferred
    again, so a diagnostic names the same node and variables as inferring
    every occurrence would.  None is stored for a failed inference, so a
    failing node is inferred again and raises the same error.

    The ground types of a node are recorded on it too, once per (src, tgt)
    (see _ground), so a later call grounds only its new nodes.  Schemes and
    records are process-wide and hold types only, never a node.
    """
    u = _Unifier()
    src, tgt = u.infer(c)
    if expected is not None:
        u.unify(src, expected[0], c)
        u.unify(tgt, expected[1], c)
    src, tgt = u.resolve(src), u.resolve(tgt)
    _ground(c, src, tgt)
    return Typed(c, src, tgt)


def strip_ann(c: Combinator) -> Combinator:
    """Erase type annotations (for structural comparisons); cached on the node."""
    bare = c._bare
    if bare is None:
        bare = c
        if isinstance(c, Ann):
            bare = strip_ann(c.term)
        elif isinstance(c, Seq):
            bare = seq(*[strip_ann(p) for p in c.parts])
        elif isinstance(c, (SumC, ProdC)):
            bare = type(c)(strip_ann(c.left), strip_ann(c.right))
        c._bare = _SELF if bare is c else bare
    return c if bare is _SELF else bare
