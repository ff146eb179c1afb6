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

import re
from dataclasses import dataclass
from typing import NamedTuple, Optional, Union


# ---------------------------------------------------------------------------
# value types


@dataclass(frozen=True)
class Zero:
    def __repr__(self) -> str:
        return "Zero"


@dataclass(frozen=True)
class One:
    def __repr__(self) -> str:
        return "One"


@dataclass(frozen=True)
class Sum:
    left: "ValueType"
    right: "ValueType"


@dataclass(frozen=True)
class Prod:
    left: "ValueType"
    right: "ValueType"


@dataclass(frozen=True)
class TVar:
    """Unification metavariable; never appears in a checked type."""

    id: int


ValueType = Union[Zero, One, Sum, Prod, TVar]

ZERO_T = Zero()
ONE_T = One()
BOOL = Sum(ONE_T, ONE_T)


def dimension(t: ValueType) -> int:
    if isinstance(t, Zero):
        return 0
    if isinstance(t, One):
        return 1
    if isinstance(t, Sum):
        return dimension(t.left) + dimension(t.right)
    if isinstance(t, Prod):
        return dimension(t.left) * dimension(t.right)
    raise TypeError(f"dimension of open type {t!r}")


def type_str(t: ValueType, level: int = 0) -> str:
    """Render a type; reparses to the same tree. Levels: 0 sum, 1 prod, 2 atom."""
    if t == BOOL:
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


@dataclass(frozen=True)
class Prim:
    name: str


@dataclass(frozen=True)
class Seq:
    """Chain ``parts[0] ; parts[1] ; ...``.  ``;`` is associative, so a chain
    is flat: two or more parts, none a Seq (a chain inside an Ann part stays
    there).  Build chains with :func:`seq`, which keeps this invariant."""

    parts: tuple["Combinator", ...]


@dataclass(frozen=True)
class SumC:
    left: "Combinator"
    right: "Combinator"


@dataclass(frozen=True)
class ProdC:
    left: "Combinator"
    right: "Combinator"


@dataclass(frozen=True)
class Ann:
    """Type-annotated subterm ``(c : src <-> tgt)``."""

    term: "Combinator"
    src: ValueType
    tgt: ValueType


@dataclass(frozen=True)
class MetaVar:
    """Pattern hole; only valid inside rewrite-rule patterns."""

    name: str


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
        t = self.find(t)
        if isinstance(t, Sum):
            return Sum(self.resolve(t.left), self.resolve(t.right))
        if isinstance(t, Prod):
            return Prod(self.resolve(t.left), self.resolve(t.right))
        return t

    def _occurs(self, v: TVar, t: ValueType) -> bool:
        t = self.find(t)
        if isinstance(t, TVar):
            return t.id == v.id
        if isinstance(t, (Sum, Prod)):
            return self._occurs(v, t.left) or self._occurs(v, t.right)
        return False

    def unify(self, a: ValueType, b: ValueType, node: Optional[Combinator]) -> None:
        a, b = self.find(a), self.find(b)
        if isinstance(a, TVar) and isinstance(b, TVar) and a.id == b.id:
            return
        if isinstance(a, TVar):
            if self._occurs(a, b):
                raise UnificationFailure(self.resolve(a), self.resolve(b), node)
            self.subst[a.id] = b
            return
        if isinstance(b, TVar):
            self.unify(b, a, node)
            return
        if isinstance(a, Zero) and isinstance(b, Zero):
            return
        if isinstance(a, One) and isinstance(b, One):
            return
        if type(a) is type(b) and isinstance(a, (Sum, Prod)):
            self.unify(a.left, b.left, node)
            self.unify(a.right, b.right, node)
            return
        raise UnificationFailure(self.resolve(a), self.resolve(b), node)

    def instantiate(self, t: ValueType, mapping: dict[int, TVar]) -> ValueType:
        if isinstance(t, TVar):
            if t.id not in mapping:
                mapping[t.id] = self.fresh()
            return mapping[t.id]
        if isinstance(t, Sum):
            return Sum(self.instantiate(t.left, mapping), self.instantiate(t.right, mapping))
        if isinstance(t, Prod):
            return Prod(self.instantiate(t.left, mapping), self.instantiate(t.right, mapping))
        return t


def typecheck(
    c: Combinator,
    expected: Optional[tuple[ValueType, ValueType]] = None,
) -> Typed:
    """Infer concrete types for every node; returns the annotated tree.

    Raises UnificationFailure on a type clash and UnresolvedMetavariable if
    the term stays polymorphic after inference (supply ``expected`` or add
    annotations in that case).
    """
    u = _Unifier()

    def infer(node: Combinator) -> Typed:
        if isinstance(node, MetaVar):
            raise TypeCheckError(f"cannot typecheck pattern variable ?{node.name}")
        if isinstance(node, Prim):
            mapping: dict[int, TVar] = {}
            src, tgt = SCHEMES[node.name]
            return Typed(node, u.instantiate(src, mapping), u.instantiate(tgt, mapping))
        if isinstance(node, Ann):
            inner = infer(node.term)
            u.unify(inner.src, node.src, node)
            u.unify(inner.tgt, node.tgt, node)
            return Typed(node, node.src, node.tgt, (inner,))
        if isinstance(node, Seq):
            kids = tuple(infer(p) for p in node.parts)
            for f, g in zip(kids, kids[1:]):
                u.unify(f.tgt, g.src, node)
            return Typed(node, kids[0].src, kids[-1].tgt, kids)
        if isinstance(node, SumC):
            l, r = infer(node.left), infer(node.right)
            return Typed(node, Sum(l.src, r.src), Sum(l.tgt, r.tgt), (l, r))
        if isinstance(node, ProdC):
            l, r = infer(node.left), infer(node.right)
            return Typed(node, Prod(l.src, r.src), Prod(l.tgt, r.tgt), (l, r))
        raise TypeError(f"cannot typecheck {node!r}")

    root = infer(c)
    if expected is not None:
        u.unify(root.src, expected[0], c)
        u.unify(root.tgt, expected[1], c)

    # found type node (by identity) -> its ground type, or None if a variable
    # is left; one entry per shared node, so each subtree is resolved once
    ground: dict[int, Optional[ValueType]] = {}

    def ground_type(ty: ValueType) -> Optional[ValueType]:
        ty = u.find(ty)
        key = id(ty)
        if key not in ground:
            if isinstance(ty, TVar):
                ground[key] = None
            elif isinstance(ty, (Sum, Prod)):
                l, r = ground_type(ty.left), ground_type(ty.right)
                ground[key] = None if l is None or r is None else type(ty)(l, r)
            else:
                ground[key] = ty
        return ground[key]

    def resolve(t: Typed) -> Typed:
        src, tgt = ground_type(t.src), ground_type(t.tgt)
        if src is None or tgt is None:
            raise UnresolvedMetavariable(t.term)
        return Typed(t.term, src, tgt, tuple(resolve(ch) for ch in t.children))

    return resolve(root)


def strip_ann(c: Combinator) -> Combinator:
    """Erase type annotations (for structural comparisons)."""
    if isinstance(c, Ann):
        return strip_ann(c.term)
    if isinstance(c, Seq):
        return seq(*[strip_ann(p) for p in c.parts])
    if isinstance(c, SumC):
        return SumC(strip_ann(c.left), strip_ann(c.right))
    if isinstance(c, ProdC):
        return ProdC(strip_ann(c.left), strip_ann(c.right))
    return c
