"""Surface syntax and type inference for the reference interpreter.

It shares no code with ``sqrtpi``: its own tokenizer, parser and
unification type inference, written from the README's grammar and the
standard typing of each primitive.  It needs no numpy, so the workload
generators can use it without numpy entering the measured process.
"""

from __future__ import annotations

import re

# --- types --------------------------------------------------------------------
# A type is ("0",), ("1",), ("+", a, b), ("*", a, b) or ("var", n).

ZERO = ("0",)
ONE = ("1",)
TWO = ("+", ONE, ONE)


class TermError(Exception):
    """Input the reference interpreter cannot parse, type or evaluate."""


def _v(n: int) -> tuple:
    return ("var", n)


# Typing schemes; variables 0, 1, 2 are renamed apart at every use.
_A, _B, _C = _v(0), _v(1), _v(2)
SCHEMES = {
    "id": (_A, _A),
    "swap+": (("+", _A, _B), ("+", _B, _A)),
    "assocr+": (("+", ("+", _A, _B), _C), ("+", _A, ("+", _B, _C))),
    "assocl+": (("+", _A, ("+", _B, _C)), ("+", ("+", _A, _B), _C)),
    "unite+l": (("+", ZERO, _A), _A),
    "uniti+l": (_A, ("+", ZERO, _A)),
    "swap*": (("*", _A, _B), ("*", _B, _A)),
    "assocr*": (("*", ("*", _A, _B), _C), ("*", _A, ("*", _B, _C))),
    "assocl*": (("*", _A, ("*", _B, _C)), ("*", ("*", _A, _B), _C)),
    "unite*l": (("*", ONE, _A), _A),
    "uniti*l": (_A, ("*", ONE, _A)),
    "dist": (("*", ("+", _A, _B), _C), ("+", ("*", _A, _C), ("*", _B, _C))),
    "factor": (("+", ("*", _A, _C), ("*", _B, _C)), ("*", ("+", _A, _B), _C)),
    "absorbl": (("*", _A, ZERO), ZERO),
    "factorzr": (ZERO, ("*", _A, ZERO)),
    "v": (TWO, TWO),
    "vi": (TWO, TWO),
    "w": (ONE, ONE),
    "wi": (ONE, ONE),
}


def dim(t: tuple) -> int:
    if t == ZERO:
        return 0
    if t == ONE:
        return 1
    if t[0] == "+":
        return dim(t[1]) + dim(t[2])
    if t[0] == "*":
        return dim(t[1]) * dim(t[2])
    raise TermError("dimension of an unresolved type")


def type_text(t: tuple) -> str:
    """Fully parenthesized surface form of a closed type."""
    if t in (ZERO, ONE):
        return t[0]
    return f"({type_text(t[1])}{t[0]}{type_text(t[2])})"


# --- terms --------------------------------------------------------------------


class Node:
    """A parsed term node: kind is prim, seq, sum, prod or ann."""

    __slots__ = ("kind", "name", "kids", "ann", "src", "tgt")

    def __init__(self, kind, kids=(), name=None, ann=None):
        self.kind, self.kids, self.name, self.ann = kind, list(kids), name, ann
        self.src = self.tgt = None


_TOKEN = re.compile(r"\s+|#[^\n]*|<->|[A-Za-z][A-Za-z0-9_]*|\d+|[;+*():]")


def tokenize(text: str) -> list[str]:
    toks, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise TermError(f"unexpected character {text[pos]!r}")
        start, tok, pos = pos, m.group(), m.end()
        if tok[0].isspace() or tok[0] == "#":
            continue
        # primitive names such as swap+ and unite*l run on past the symbol
        if tok[0].isalpha() and text[pos:pos + 1] in ("+", "*"):
            for extra in (2, 1):
                if text[start:pos + extra] in SCHEMES:
                    tok, pos = text[start:pos + extra], pos + extra
                    break
        toks.append(tok)
    return toks


class _Parser:
    def __init__(self, text: str):
        self.toks = tokenize(text) + [""]
        self.pos = 0

    def peek(self) -> str:
        return self.toks[self.pos]

    def take(self, want: str | None = None) -> str:
        tok = self.toks[self.pos]
        if want is not None and tok != want:
            raise TermError(f"expected {want!r}, got {tok!r}")
        self.pos += 1
        return tok

    def term(self) -> Node:
        parts = [self.sum()]
        while self.peek() == ";":
            self.take()
            parts.append(self.sum())
        node = parts[0] if len(parts) == 1 else Node("seq", parts)
        if self.peek() == ":":
            self.take()
            src = self.type_()
            self.take("<->")
            node = Node("ann", [node], ann=(src, self.type_()))
        return node

    def sum(self) -> Node:
        left = self.prod()
        if self.peek() == "+":
            self.take()
            return Node("sum", [left, self.sum()])
        return left

    def prod(self) -> Node:
        left = self.atom()
        if self.peek() == "*":
            self.take()
            return Node("prod", [left, self.prod()])
        return left

    def atom(self) -> Node:
        tok = self.take()
        if tok == "(":
            inner = self.term()
            self.take(")")
            return inner
        if tok in SCHEMES:
            return Node("prim", name=tok)
        raise TermError(f"unknown name {tok!r}")

    def type_(self) -> tuple:
        left = self.tprod()
        if self.peek() == "+":
            self.take()
            return ("+", left, self.type_())
        return left

    def tprod(self) -> tuple:
        left = self.tatom()
        if self.peek() == "*":
            self.take()
            return ("*", left, self.tprod())
        return left

    def tatom(self) -> tuple:
        tok = self.take()
        if tok == "(":
            inner = self.type_()
            self.take(")")
            return inner
        if tok in ("0", "1", "2"):
            return {"0": ZERO, "1": ONE, "2": TWO}[tok]
        raise TermError(f"bad type token {tok!r}")


def parse(text: str) -> Node:
    p = _Parser(text)
    node = p.term()
    if p.peek() != "":
        raise TermError(f"trailing input {p.peek()!r}")
    return node


def count_atoms(text: str) -> int:
    """Primitive occurrences in a printed term (its size, annotations free)."""
    return sum(1 for tok in tokenize(text) if tok in SCHEMES)


# --- type inference -----------------------------------------------------------


class Types:
    def __init__(self):
        self.subst: dict[int, tuple] = {}
        self.fresh = 0

    def new(self) -> tuple:
        self.fresh += 1
        return _v(self.fresh)

    def find(self, t: tuple) -> tuple:
        while t[0] == "var" and t[1] in self.subst:
            t = self.subst[t[1]]
        return t

    def resolve(self, t: tuple) -> tuple:
        t = self.find(t)
        if t[0] in "+*":
            return (t[0], self.resolve(t[1]), self.resolve(t[2]))
        if t[0] == "var":
            raise TermError("term stays polymorphic")
        return t

    def occurs(self, n: int, t: tuple) -> bool:
        t = self.find(t)
        if t[0] == "var":
            return t[1] == n
        return t[0] in "+*" and (self.occurs(n, t[1]) or self.occurs(n, t[2]))

    def unify(self, a: tuple, b: tuple) -> None:
        a, b = self.find(a), self.find(b)
        if a == b:
            return
        if a[0] == "var" or b[0] == "var":
            if a[0] != "var":
                a, b = b, a
            if self.occurs(a[1], b):
                raise TermError("infinite type")
            self.subst[a[1]] = b
            return
        if a[0] != b[0] or a[0] not in "+*":
            raise TermError(f"type clash {a[0]} vs {b[0]}")
        self.unify(a[1], b[1])
        self.unify(a[2], b[2])

    def instantiate(self, t: tuple, names: dict) -> tuple:
        if t[0] == "var":
            if t[1] not in names:
                names[t[1]] = self.new()
            return names[t[1]]
        if t[0] in "+*":
            return (t[0], self.instantiate(t[1], names), self.instantiate(t[2], names))
        return t


def infer(node: Node, u: Types) -> None:
    # iterative post-order walk, so long chains never hit the recursion limit
    stack = [(node, False)]
    while stack:
        n, done = stack.pop()
        if not done:
            stack.append((n, True))
            stack.extend((k, False) for k in n.kids)
            continue
        if n.kind == "prim":
            names: dict = {}
            src, tgt = SCHEMES[n.name]
            n.src, n.tgt = u.instantiate(src, names), u.instantiate(tgt, names)
        elif n.kind == "seq":
            for a, b in zip(n.kids, n.kids[1:]):
                u.unify(a.tgt, b.src)
            n.src, n.tgt = n.kids[0].src, n.kids[-1].tgt
        elif n.kind in ("sum", "prod"):
            op = "+" if n.kind == "sum" else "*"
            l, r = n.kids
            n.src, n.tgt = (op, l.src, r.src), (op, l.tgt, r.tgt)
        else:
            (inner,) = n.kids
            u.unify(inner.src, n.ann[0])
            u.unify(inner.tgt, n.ann[1])
            n.src, n.tgt = n.ann




def typed(text: str, src: tuple | None = None, tgt: tuple | None = None):
    """Parse and type a term, optionally pinned to ``src <-> tgt``.

    Returns the root node and the solved types; raises TermError if
    the term is ill typed or stays polymorphic.
    """
    node = parse(text)
    u = Types()
    infer(node, u)
    if src is not None:
        u.unify(node.src, src)
    if tgt is not None:
        u.unify(node.tgt, tgt)
    u.resolve(node.src)
    u.resolve(node.tgt)
    return node, u
