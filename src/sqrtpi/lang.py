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

import operator
import re
import threading
import weakref
from dataclasses import dataclass
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


@dataclass(frozen=True)
class TVar:
    """Unification metavariable; never appears in a checked type."""

    id: int
    open = True  # class attributes, not fields
    dim = None


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
    if isinstance(t, Zero):
        return "0"
    if isinstance(t, One):
        return "1"
    if isinstance(t, TVar):
        return f"t{t.id}"
    if isinstance(t, Sum):
        s = f"{type_str(t.left, 1)}+{type_str(t.right, 0)}"
        return f"({s})" if level > 0 else s
    s = f"{type_str(t.left, 2)}*{type_str(t.right, 1)}"
    return f"({s})" if level > 1 else s


# ---------------------------------------------------------------------------
# combinator AST


_SELF = object()  # the _bare of a node without annotations


class _Node:
    """Base of the interned term nodes; == and hash are identity.  ``_bare``
    caches strip_ann (never the node itself, which would be a cycle) and
    ``_size`` caches rewrite.term_size (0 until computed)."""

    __slots__ = ("_bare", "_size", "__weakref__")

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
                    node._bare, node._size = None, 0
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


# primitive typing schemes, one row per primitive (a, b, c are metavariables)
_A, _B, _C = TVar(-1), TVar(-2), TVar(-3)

SCHEMES: dict[str, tuple[ValueType, ValueType]] = {
    "id": (_A, _A),
    "swap+": (Sum(_A, _B), Sum(_B, _A)),
    "assocr+": (Sum(Sum(_A, _B), _C), Sum(_A, Sum(_B, _C))),
    "assocl+": (Sum(_A, Sum(_B, _C)), Sum(Sum(_A, _B), _C)),
    "unite+l": (Sum(ZERO_T, _A), _A),
    "uniti+l": (_A, Sum(ZERO_T, _A)),
    "swap*": (Prod(_A, _B), Prod(_B, _A)),
    "assocr*": (Prod(Prod(_A, _B), _C), Prod(_A, Prod(_B, _C))),
    "assocl*": (Prod(_A, Prod(_B, _C)), Prod(Prod(_A, _B), _C)),
    "unite*l": (Prod(ONE_T, _A), _A),
    "uniti*l": (_A, Prod(ONE_T, _A)),
    "dist": (Prod(Sum(_A, _B), _C), Sum(Prod(_A, _C), Prod(_B, _C))),
    "factor": (Sum(Prod(_A, _C), Prod(_B, _C)), Prod(Sum(_A, _B), _C)),
    "absorbl": (Prod(_A, ZERO_T), ZERO_T),
    "factorzr": (ZERO_T, Prod(_A, ZERO_T)),
    "v": (BOOL, BOOL),
    "vi": (BOOL, BOOL),
    "w": (ONE_T, ONE_T),
    "wi": (ONE_T, ONE_T),
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


def pretty(c: Combinator, level: int = 0) -> str:
    """Render a combinator; reparses to an equal AST.

    Levels: 0 seq, 1 sum, 2 prod, 3 atom.
    """
    if isinstance(c, Prim):
        return c.name
    if isinstance(c, MetaVar):
        return f"?{c.name}"
    if isinstance(c, Ann):
        return f"({pretty(c.term)} : {type_str(c.src)} <-> {type_str(c.tgt)})"
    if isinstance(c, Seq):
        s = " ; ".join(pretty(p, 1) for p in c.parts)
        return f"({s})" if level > 0 else s
    if isinstance(c, SumC):
        s = f"{pretty(c.left, 2)} + {pretty(c.right, 1)}"
        return f"({s})" if level > 1 else s
    if isinstance(c, ProdC):
        s = f"{pretty(c.left, 3)} * {pretty(c.right, 2)}"
        return f"({s})" if level > 2 else s
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


class UnificationFailure(TypeCheckError):
    def __init__(self, t1: ValueType, t2: ValueType, node: Optional[Combinator]):
        self.t1, self.t2, self.node = t1, t2, node
        where = f" at `{pretty(node)}`" if node is not None else ""
        super().__init__(
            f"cannot unify {type_str(t1)} with {type_str(t2)}{where}"
        )


class UnresolvedMetavariable(TypeCheckError):
    def __init__(self, node: Combinator):
        self.node = node
        super().__init__(
            f"type of `{pretty(node)}` is not fully determined; "
            "add an annotation or an expected type"
        )


# ---------------------------------------------------------------------------
# tokenizer / parser

# Deepest nesting accepted: each open "(" and each right operand of "+" or "*",
# in terms and types, is a level.  Deeper input is a ParseError, not a stack
# overflow here or in the recursive passes after parsing.  ";" does not nest.
MAX_NESTING = 100

_TOKEN_RE = re.compile(
    r"""(?P<ws>[ \t\r\n]+)
      | (?P<comment>\#[^\n]*)
      | (?P<arrow><->)
      | (?P<compound>(?:swap|assocr|assocl|unite|uniti)[+*][lr]?)
      | (?P<name>[A-Za-z][A-Za-z0-9_]*)
      | (?P<num>\d+)
      | (?P<meta>\?[A-Za-z][A-Za-z0-9_]*)
      | (?P<sym>[;+*():,=])
      | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)


class _Tok(NamedTuple):
    kind: str
    text: str
    pos: int  # offset in the input; line and column are computed on error


def _parse_error(text: str, pos: int, msg: str, expected: tuple[str, ...] = ()) -> ParseError:
    line = text.count("\n", 0, pos) + 1
    return ParseError(msg, line, pos - text.rfind("\n", 0, pos), expected)


def _tokenize(text: str) -> list[_Tok]:
    toks: list[_Tok] = []
    for m in _TOKEN_RE.finditer(text):  # every character matches some group
        kind = m.lastgroup
        if kind == "bad":
            raise _parse_error(text, m.start(), f"unexpected character {m.group()!r}")
        if kind != "ws" and kind != "comment":
            toks.append(_Tok("name" if kind == "compound" else kind, m.group(), m.start()))
    toks.append(_Tok("eof", "", len(text)))
    return toks


class _Parser:
    def __init__(
        self,
        text: str,
        macros: Optional[dict[str, Combinator]] = None,
        allow_metavars: bool = False,
    ):
        self.text = text
        self.toks = _tokenize(text)
        self.pos = 0
        self.macros = macros
        self.allow_metavars = allow_metavars
        self.depth = 0

    @property
    def cur(self) -> _Tok:
        return self.toks[self.pos]

    def _advance(self) -> _Tok:
        t = self.cur
        self.pos += 1
        return t

    def _error(self, msg: str, t: Optional[_Tok] = None,
               expected: tuple[str, ...] = ()) -> ParseError:
        return _parse_error(self.text, (self.cur if t is None else t).pos, msg, expected)

    def _unexpected(self, expected: tuple[str, ...], where: str = "") -> ParseError:
        t = self.cur
        msg = "unexpected end of input" if t.kind == "eof" else f"unexpected {t.text!r}{where}"
        return self._error(msg, expected=expected)

    def _expect(self, text: str) -> _Tok:
        if self.cur.text != text:
            raise self._unexpected((repr(text),))
        return self._advance()

    def _end(self) -> None:
        if self.cur.kind != "eof":
            raise self._error(f"trailing input {self.cur.text!r}")

    def _nested(self, parse):
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self._error(f"nesting deeper than {MAX_NESTING} levels")
        out = parse()
        self.depth -= 1
        return out

    # terms

    def term(self) -> Combinator:
        t = self.seq()
        if self.cur.text == ":":
            self._advance()
            src = self.type_()
            self._expect("<->")
            tgt = self.type_()
            return Ann(t, src, tgt)
        return t

    def seq(self) -> Combinator:
        parts = [self.sum()]
        while self.cur.text == ";":
            self._advance()
            parts.append(self.sum())
        return seq(*parts)

    def sum(self) -> Combinator:
        left = self.prod()
        if self.cur.text == "+":
            self._advance()
            return SumC(left, self._nested(self.sum))
        return left

    def prod(self) -> Combinator:
        left = self.atom()
        if self.cur.text == "*":
            self._advance()
            return ProdC(left, self._nested(self.prod))
        return left

    def atom(self) -> Combinator:
        t = self.cur
        if t.text == "(":
            self._advance()
            inner = self._nested(self.term)
            self._expect(")")
            return inner
        if t.kind == "meta":
            if not self.allow_metavars:
                raise self._error("pattern variable outside a pattern")
            self._advance()
            return MetaVar(t.text[1:])
        if t.kind == "name":
            self._advance()
            if t.text in SCHEMES:
                return Prim(t.text)
            if self.macros is not None and t.text in self.macros:
                return self.macros[t.text]
            hint = ("a primitive or gate name",) if self.macros is not None else (
                "a primitive name (pass expand_macros=True for gate names)",
            )
            raise self._error(f"unknown name {t.text!r}", t, hint)
        raise self._unexpected(("name", "'('", "'?var'"))

    # types

    def type_(self) -> ValueType:
        left = self.tprod()
        if self.cur.text == "+":
            self._advance()
            return Sum(left, self._nested(self.type_))
        return left

    def tprod(self) -> ValueType:
        left = self.tatom()
        if self.cur.text == "*":
            self._advance()
            return Prod(left, self._nested(self.tprod))
        return left

    def tatom(self) -> ValueType:
        t = self.cur
        if t.text == "(":
            self._advance()
            inner = self._nested(self.type_)
            self._expect(")")
            return inner
        if t.kind == "num":
            self._advance()
            if t.text == "0":
                return ZERO_T
            if t.text == "1":
                return ONE_T
            if t.text == "2":
                return BOOL
            raise self._error(f"unknown type literal {t.text!r}", t, ("0", "1", "2"))
        raise self._unexpected(("0", "1", "2", "'('"), " in type")


def parse(
    text: str,
    expand_macros: bool = False,
    allow_metavars: bool = False,
) -> Combinator:
    """Parse surface syntax into an (untyped) combinator AST."""
    macros = None
    if expand_macros:
        from . import gates  # late import; gates builds terms via this module

        macros = gates.macro_table()
    p = _Parser(text, macros, allow_metavars)
    t = p.term()
    p._end()
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


@dataclass(frozen=True)
class Typed:
    """A combinator node annotated with concrete source and target types;
    ``children`` has one entry per Seq part and per SumC/ProdC/Ann operand."""

    term: Combinator
    src: ValueType
    tgt: ValueType
    children: tuple["Typed", ...] = ()


class _Unifier:
    def __init__(self) -> None:
        self.subst: dict[int, ValueType] = {}
        self.counter = 0

    def fresh(self) -> TVar:
        self.counter += 1
        return TVar(self.counter)

    def find(self, t: ValueType) -> ValueType:
        while isinstance(t, TVar) and t.id in self.subst:
            t = self.subst[t.id]
        return t

    def resolve(self, t: ValueType) -> ValueType:
        if not t.open:
            return t
        t = self.find(t)
        if isinstance(t, _Pair):
            return type(t)(self.resolve(t.left), self.resolve(t.right))
        return t

    def _occurs(self, v: TVar, t: ValueType) -> bool:
        if not t.open:
            return False
        t = self.find(t)
        if isinstance(t, TVar):
            return t.id == v.id
        if isinstance(t, _Pair):
            return self._occurs(v, t.left) or self._occurs(v, t.right)
        return False

    def unify(self, a: ValueType, b: ValueType, node: Optional[Combinator]) -> None:
        if a is b:
            return
        a, b = self.find(a), self.find(b)
        if a is b:  # Zero, One and equal closed types are each one object
            return
        if isinstance(a, TVar):
            if isinstance(b, TVar) and a.id == b.id:
                return
            if self._occurs(a, b):
                raise UnificationFailure(self.resolve(a), self.resolve(b), node)
            self.subst[a.id] = b
            return
        if isinstance(b, TVar):
            self.unify(b, a, node)
            return
        if type(a) is type(b) and isinstance(a, _Pair):
            self.unify(a.left, b.left, node)
            self.unify(a.right, b.right, node)
            return
        raise UnificationFailure(self.resolve(a), self.resolve(b), node)

    def instantiate(self, t: ValueType, mapping: dict[int, TVar]) -> ValueType:
        if not t.open:
            return t
        if isinstance(t, TVar):
            if t.id not in mapping:
                mapping[t.id] = self.fresh()
            return mapping[t.id]
        return type(t)(self.instantiate(t.left, mapping), self.instantiate(t.right, mapping))


def _shift(t: ValueType, delta: int) -> ValueType:
    """t with every variable tN renamed to t(N + delta)."""
    if not t.open:
        return t
    if isinstance(t, TVar):
        return TVar(t.id + delta)
    return type(t)(_shift(t.left, delta), _shift(t.right, delta))


def _match(pattern: ValueType, ground: ValueType, env: dict[int, ValueType]) -> None:
    """Bind the variables of pattern to the parts of its instance ground."""
    if not pattern.open:
        return
    if isinstance(pattern, TVar):
        env[pattern.id] = ground
        return
    _match(pattern.left, ground.left, env)
    _match(pattern.right, ground.right, env)


def _ground(t: ValueType, env: dict[int, ValueType]) -> Optional[ValueType]:
    """t with its variables replaced through env, or None if one stays free.
    The ground type is written back for every variable on the way, so a
    chain of variables (one per part of a long ``id ; id ; ...``) is walked
    once, and without recursion."""
    if not t.open:
        return t
    if isinstance(t, TVar):
        chain = []
        while isinstance(t, TVar):
            chain.append(t.id)
            t = env.get(t.id)
            if t is None:
                return None
        g = _ground(t, env)
        if g is not None:
            for v in chain:
                env[v] = g
        return g
    left, right = _ground(t.left, env), _ground(t.right, env)
    return None if left is None or right is None else type(t)(left, right)


def _shared_nodes(c: Combinator) -> set[int]:
    """Identities of the nodes that are a child more than once in the term DAG."""
    seen: set[int] = set()
    shared: set[int] = set()
    stack = [c]
    while stack:
        node = stack.pop()
        if isinstance(node, Seq):
            kids = node.parts
        elif isinstance(node, (SumC, ProdC)):
            kids = (node.left, node.right)
        elif isinstance(node, Ann):
            kids = (node.term,)
        else:
            continue
        for kid in kids:
            key = id(kid)
            if key in seen:
                shared.add(key)
            else:
                seen.add(key)
                stack.append(kid)
    return shared


def typecheck(
    c: Combinator,
    expected: Optional[tuple[ValueType, ValueType]] = None,
) -> Typed:
    """Infer concrete types for every node; returns the annotated tree.

    Raises UnificationFailure on a type clash and UnresolvedMetavariable if
    the term stays polymorphic after inference (supply ``expected`` or add
    annotations in that case).

    A term is a DAG: equal subterms are one object.  Each shared node is
    inferred once, at its first occurrence, and its principal
    type is kept as a scheme that later occurrences instantiate, as a
    primitive instantiates its SCHEMES row.  The fresh-variable counter
    advances as if the node had been inferred again, so a diagnostic names
    the same node and variables as inferring every occurrence would.  The
    result has one Typed per (node, src, tgt).
    """
    u = _Unifier()
    shared = _shared_nodes(c)
    # shared node -> (counter before its inference, variables it allocated,
    # principal src, principal tgt)
    schemes: dict[int, tuple[int, int, ValueType, ValueType]] = {}
    # Seq -> the types between its parts: unifier types, or for a Seq under
    # a shared node, resolved when that node's scheme is taken
    bounds: dict[int, list[ValueType]] = {}
    unscoped: list[Seq] = []  # Seqs whose bounds are still unifier types

    def infer(node: Combinator) -> tuple[ValueType, ValueType]:
        if isinstance(node, Prim):
            mapping: dict[int, TVar] = {}
            src, tgt = SCHEMES[node.name]
            return u.instantiate(src, mapping), u.instantiate(tgt, mapping)
        key = id(node)
        if key not in shared:
            return infer_node(node)
        if key in schemes:
            start, count, src, tgt = schemes[key]
            delta = u.counter - start
            u.counter += count
            return _shift(src, delta), _shift(tgt, delta)
        start, mark = u.counter, len(unscoped)
        src, tgt = infer_node(node)
        src, tgt = u.resolve(src), u.resolve(tgt)
        for s in unscoped[mark:]:
            bounds[id(s)] = [u.resolve(b) for b in bounds[id(s)]]
        del unscoped[mark:]
        schemes[key] = (start, u.counter - start, src, tgt)
        return src, tgt

    def infer_node(node: Combinator) -> tuple[ValueType, ValueType]:
        if isinstance(node, Ann):
            src, tgt = infer(node.term)
            u.unify(src, node.src, node)
            u.unify(tgt, node.tgt, node)
            return node.src, node.tgt
        if isinstance(node, Seq):
            kids = [infer(p) for p in node.parts]
            for (_, f_tgt), (g_src, _) in zip(kids, kids[1:]):
                u.unify(f_tgt, g_src, node)
            bounds[id(node)] = [tgt for _, tgt in kids[:-1]]
            unscoped.append(node)
            return kids[0][0], kids[-1][1]
        if isinstance(node, SumC):
            (ls, lt), (rs, rt) = infer(node.left), infer(node.right)
            return Sum(ls, rs), Sum(lt, rt)
        if isinstance(node, ProdC):
            (ls, lt), (rs, rt) = infer(node.left), infer(node.right)
            return Prod(ls, rs), Prod(lt, rt)
        if isinstance(node, MetaVar):
            raise TypeCheckError(f"cannot typecheck pattern variable ?{node.name}")
        raise TypeError(f"cannot typecheck {node!r}")

    src, tgt = infer(c)
    if expected is not None:
        u.unify(src, expected[0], c)
        u.unify(tgt, expected[1], c)

    # Top down, in preorder, so the first node left open is the one reported.
    # A node's children get their types from its own (ground) types and, for
    # a Seq, its bounds.  Outside shared nodes the bounds are grounded through
    # the final substitution; under a shared node, through the match of its
    # scheme with the types of the occurrence.  A node outside every shared
    # node occurs once, so only the others go through the memo.
    root_env = u.subst
    built: dict[tuple[int, int, int], Typed] = {}

    def build(node: Combinator, src: ValueType, tgt: ValueType, env: dict) -> Typed:
        key = id(node)
        memo_key = None
        if env is not root_env or key in shared:
            memo_key = (key, id(src), id(tgt))
            hit = built.get(memo_key)
            if hit is not None:
                return hit
            if key in schemes:
                _, _, s_src, s_tgt = schemes[key]
                env = {}
                _match(s_src, src, env)
                _match(s_tgt, tgt, env)
        if isinstance(node, Ann):
            kids: tuple[Typed, ...] = (build(node.term, src, tgt, env),)
        elif isinstance(node, Seq):
            parts, out, prev = node.parts, [], src
            for part, bound in zip(parts, bounds[key]):
                mid = _ground(bound, env)
                if mid is None:
                    raise UnresolvedMetavariable(part)
                out.append(build(part, prev, mid, env))
                prev = mid
            out.append(build(parts[-1], prev, tgt, env))
            kids = tuple(out)
        elif isinstance(node, (SumC, ProdC)):
            kids = (build(node.left, src.left, tgt.left, env),
                    build(node.right, src.right, tgt.right, env))
        else:
            kids = ()
        typed = Typed(node, src, tgt, kids)
        if memo_key is not None:
            built[memo_key] = typed
        return typed

    src, tgt = _ground(src, root_env), _ground(tgt, root_env)
    if src is None or tgt is None:
        raise UnresolvedMetavariable(c)
    return build(c, src, tgt, root_env)


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
