"""Directed rewriting over combinator terms, with step traces.

Matching is syntactic first-order, modulo two things only: ``;`` chains are
flat (``lang.Seq``), and type annotations are transparent (they are
re-established by typechecking the rewritten term).  A pattern chain meets
a window of a longer chain in one pass (``_rewrite_node``): the window's
tail past the match is kept, or a trailing metavariable absorbs it.  Every
applied step is checked to preserve the term's type, so traces are
well-typed throughout.  ``simplify`` tries at each position only the rules
whose LHS has the position's head (``RuleIndex``).

Paths address subterms as if chains were right-nested, ``a ; (b ; c)``: in
a chain of n parts, k ``1``s then ``0`` address part k, k ``1``s ending a path
address the suffix window from part k, and n-1 ``1``s reach the last part.
A path leads to a position ``(node, k)``: that window of chain ``node``, or
the whole node when k is 0.

Soundness, not confluence, is the contract: a rule ships only if all of its
recorded instantiations evaluate equal (up to the rule's declared omega
power), and ``simplify`` guarantees every emitted step is semantically
sound.  Termination of ``simplify`` is by budget.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import zip_longest
from typing import Callable, Iterator, Literal, NamedTuple, Optional, Sequence

from .lang import (
    _DUAL,
    _Binary,
    Ann,
    Combinator,
    MetaVar,
    Prim,
    Seq,
    SqrtPiError,
    TypeCheckError,
    ValueType,
    parse,
    pretty,
    seq,
    shared_groups,
    strip_ann,
    typecheck,
)
from .semantics import (
    DimensionError,
    ExactMatrix,
    Verdict,
    equal_typed,
    evaluate,
)


class NoMatch(SqrtPiError):
    pass


class PathInvalid(SqrtPiError):
    pass


class CatalogError(SqrtPiError):
    pass


class BadStep(SqrtPiError):
    """A rewrite step names no catalog rule, or no direction."""


# --- term plumbing ----------------------------------------------------------


def _window(node: Combinator, k: int) -> Combinator:
    if not k:
        return node
    rest = node.parts[k:]  # parts of a flat chain, so no splicing is needed
    return Seq(rest) if len(rest) > 1 else rest[0]


def _walk(t: Combinator, path: Sequence[int]):
    """The position ``(node, k)`` at a path, and the (parent, index) trail
    of the nodes entered on the way."""
    trail: list[tuple[Combinator, int]] = []
    node, k = t, 0
    for i in path:
        kids, j = node.kids, i
        if type(node) is Seq:  # only 0 and 1 are steps in a chain
            last = len(kids) - 1
            if i == 1 and k + 1 < last:
                k += 1  # the next suffix window of the same chain
                continue
            j = k if i == 0 else last if i == 1 else -1
        if not 0 <= j < len(kids):
            raise PathInvalid(f"no child {i} at `{pretty(_window(node, k))}`")
        trail.append((node, j))
        node, k = kids[j], 0
    return trail, node, k


def replace_at(t: Combinator, path: Sequence[int], new: Combinator) -> Combinator:
    trail, node, k = _walk(t, path)
    out = seq(*node.parts[:k], new) if k else new
    for parent, i in reversed(trail):
        kids = parent.kids
        out = parent.rebuild((*kids[:i], out, *kids[i + 1:]))
    return out


def iter_paths(t: Combinator) -> Iterator[tuple[tuple[int, ...], Combinator, int]]:
    """Every ``(path, node, k)`` position, preorder (shallowest first at each
    branch): a chain's window k comes before part k's subterms."""

    def walk(node: Combinator, path: tuple[int, ...]):
        if isinstance(node, Seq):
            last = len(node.parts) - 1
            for k in range(last):
                yield path, node, k
                yield from walk(node.parts[k], path + (0,))
                path += (1,)
            yield from walk(node.parts[last], path)
            return
        yield path, node, 0
        for i, kid in enumerate(node.kids):
            yield from walk(kid, path + (i,))

    return walk(t, ())


def term_size(t: Combinator) -> int:
    """Node count, n-1 for the ``;`` of an n-part chain; annotations are free
    so they never block a reduction.  Cached on the node."""
    size = t._size
    if not size:
        kind, kids = type(t), t.kids
        own = 0 if kind is Ann else len(kids) - 1 if kind is Seq else 1
        size = t._size = own + sum(map(term_size, kids))
    return size


# --- matching / substitution ------------------------------------------------


def match(pat: Combinator, term: Combinator):
    """First-order match of a pattern against a whole term (annotations are
    transparent on both sides).  Returns the binding dict or None.

    A pattern chain matches a chain of as many parts, or of more parts when
    its last part is a metavariable, which then absorbs the rest.
    """
    b: dict = {}
    return b if _match(pat, term, b) else None


def _match(pat: Combinator, term: Combinator, b: dict) -> bool:
    if isinstance(pat, MetaVar):
        prev = b.get(pat.name)
        if prev is None:
            b[pat.name] = term
            return True
        return strip_ann(prev) is strip_ann(term)
    if isinstance(pat, Ann):
        return _match(pat.term, term, b)
    if isinstance(term, Ann):
        return _match(pat, term.term, b)
    if isinstance(pat, Prim):
        return isinstance(term, Prim) and pat.name == term.name
    if isinstance(pat, Seq):
        if not isinstance(term, Seq):
            return False
        ps, ts = pat.parts, term.parts
        m, n = len(ps), len(ts)
        if m > n or (m < n and not isinstance(ps[-1], MetaVar)):
            return False
        return (all(_match(ps[i], ts[i], b) for i in range(m - 1))
                and _match(ps[-1], _window(term, m - 1), b))
    return (type(term) is type(pat)  # a sum or a product
            and _match(pat.left, term.left, b) and _match(pat.right, term.right, b))


def _metavars(pat: Combinator) -> set[str]:
    """The names of the metavariables in pat; a shared node is visited once."""
    names: set[str] = set()
    seen, stack = set(), [pat]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            if isinstance(node, MetaVar):
                names.add(node.name)
            stack.extend(node.kids)
    return names


def subst(pat: Combinator, b: dict) -> Combinator:
    if isinstance(pat, MetaVar):
        try:
            return b[pat.name]
        except KeyError:
            raise NoMatch(f"unbound pattern variable ?{pat.name}") from None
    kids = pat.kids
    return pat.rebuild([subst(k, b) for k in kids]) if kids else pat


# --- rules -------------------------------------------------------------------


class SideCondition(NamedTuple):
    """Named checkable predicate over a rule's bindings.  Equality and the
    hash read the name and the variables, not ``fn``."""

    name: str
    vars: tuple[str, ...]
    fn: Callable[..., bool]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SideCondition) and self[:2] == other[:2]

    def __ne__(self, other: object) -> bool:
        return not self == other

    def __hash__(self) -> int:
        return hash(self[:2])

    def holds(self, b: dict) -> bool:
        try:
            args = [b[v] for v in self.vars]
        except KeyError:
            return False
        try:
            return self.fn(*args)
        except SqrtPiError:
            return False


def _chain_parts(c: Combinator, reverse: bool = False) -> Iterator[Combinator]:
    """The parts of ``strip_ann(c)`` read as a chain (c itself when it is not
    one), front to back or back to front; the parts keep their inner
    annotations."""
    while isinstance(c, Ann):
        c = c.term
    if isinstance(c, Seq):
        for p in reversed(c.parts) if reverse else c.parts:
            yield from _chain_parts(p, reverse)
    else:
        yield c


def _is_syntactic_inverse(a: Combinator, c: Combinator) -> bool:
    """``strip_ann(invert(a)) == strip_ann(c)``, decided part by part without
    building either side, so a mismatch near the front costs O(1)."""
    for x, y in zip_longest(_chain_parts(a, reverse=True), _chain_parts(c)):
        if isinstance(x, Prim):
            if not (isinstance(y, Prim) and y.name == _DUAL[x.name]):
                return False
        elif isinstance(x, _Binary):
            if not (type(y) is type(x)
                    and _is_syntactic_inverse(x.left, y.left)
                    and _is_syntactic_inverse(x.right, y.right)):
                return False
        elif x is not y:  # a metavariable is its own inverse; None past an end
            return False
    return True


def _is_involutive(f: Combinator) -> bool:
    m = evaluate(seq(f, f))
    return m.is_identity()


INVERSE_PAIR = SideCondition("inverse_pair", ("c", "ci"), _is_syntactic_inverse)
INVOLUTIVE = SideCondition("involutive", ("f",), _is_involutive)

SIDE_CONDITIONS = {"inverse_pair": INVERSE_PAIR, "involutive": INVOLUTIVE}


class _RuleFields(NamedTuple):
    name: str
    family: str
    lhs: Combinator
    rhs: Combinator
    phase: int = 0
    oriented: bool = False
    normalizing: bool = False
    side: Optional[SideCondition] = None
    checks: tuple[tuple[Combinator, Combinator], ...] = ()
    qubits: Optional[int] = None


class RewriteRule(_RuleFields):
    """A named oriented equation between combinator patterns.

    ``phase`` is the declared global phase: eval(lhs) = w^phase * eval(rhs)
    at every instantiation.  ``checks`` are the concrete (lhs, rhs) pairs the
    rule is validated on before it ships.  Every construction path, ``_make``
    and ``_replace`` included, checks the rule.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> RewriteRule:
        r = super().__new__(cls, *args, **kwargs)
        # A side condition, and the rhs of an oriented rule, may read only
        # what the lhs binds.  Applied backward, a rule binds from its rhs,
        # so the rhs of a rule that is not oriented may bind more.  The lhs
        # of a gate rule is a large DAG, so it is walked only when some
        # variable is read.
        reads = [(f"side condition {r.side.name}", set(r.side.vars))] if r.side else []
        if r.oriented:
            reads.append(("rhs", _metavars(r.rhs)))
        bound = _metavars(r.lhs) if any(names for _, names in reads) else set()
        for what, names in reads:
            for name in sorted(names - bound):
                raise CatalogError(
                    f"rule {r.name!r}: {what} reads ?{name}, which its lhs does not bind")
        return r

    @classmethod
    def _make(cls, fields) -> RewriteRule:
        return cls(*fields)  # _replace builds through _make


# --- rule dispatch ------------------------------------------------------------


def _head(t: Combinator):
    """The outermost constructor under any annotations: a primitive's name,
    the node class otherwise, None for a metavariable (matches anything)."""
    while isinstance(t, Ann):
        t = t.term
    if isinstance(t, Prim):
        return t.name
    return None if isinstance(t, MetaVar) else type(t)


def _key(t: Combinator, k: int = 0):
    """Dispatch key of the position (t, k), or of a rule's LHS: its head, and
    for a chain ``(Seq, head of part k)``."""
    while isinstance(t, Ann):
        t = t.term
    return (Seq, _head(t.parts[k])) if isinstance(t, Seq) else _head(t)


_CHAIN_WILD = (Seq, None)


class RuleIndex:
    """Rules bucketed by the key of their LHS, so a position is tried only
    against the rules that can match it.

    A pattern matches only where its key equals the position's: ``_match``
    compares heads through annotations, and a pattern chain always matches
    its first part against part k of the window.  The exceptions are the
    wildcards: a chain whose first part is a metavariable can match any
    chain window, and a bare metavariable any position.  Each bucket holds
    its wildcards too, in the order of the rule list.
    """

    def __init__(self, rules: Sequence[RewriteRule]):
        keyed = [(_key(r.lhs), r) for r in rules]

        def bucket(key) -> tuple[RewriteRule, ...]:
            wild = (None, _CHAIN_WILD) if isinstance(key, tuple) else (None,)
            return tuple(r for rk, r in keyed if rk == key or rk in wild)

        keys = {key for key, _ in keyed} | {None, _CHAIN_WILD}
        self._buckets = {key: bucket(key) for key in keys}

    def candidates(self, node: Combinator, k: int) -> tuple[RewriteRule, ...]:
        """The rules that may rewrite the position (node, k), in rule order."""
        key = _key(node, k)
        found = self._buckets.get(key)
        if found is None:
            found = self._buckets[_CHAIN_WILD if isinstance(key, tuple) else None]
        return found


# --- rule application ---------------------------------------------------------


def _rewrite_node(node: Combinator, k: int, lhs: Combinator, rhs: Combinator,
                  side: Optional[SideCondition]) -> Optional[Combinator]:
    """Rewrite the position (node, k); returns the replacement, or None on
    no match.  A pattern chain's first m-1 parts meet the window once; its
    last part takes the next chain part, keeping the tail, or if that or the
    side condition fails and it is a metavariable, the rest of the window.
    Any other pattern matches the whole window."""
    b: dict = {}
    if isinstance(lhs, Seq) and isinstance(node, Seq):
        ps, ts = lhs.parts, node.parts
        m, last = len(ps), ps[-1]
        if k + m > len(ts) or not all(_match(ps[i], ts[k + i], b) for i in range(m - 1)):
            return None
        fresh = isinstance(last, MetaVar) and last.name not in b
        if _match(last, ts[k + m - 1], b) and (side is None or side.holds(b)):
            return seq(subst(rhs, b), *ts[k + m:])
        if k + m == len(ts) or not isinstance(last, MetaVar):
            return None
        if fresh:
            del b[last.name]  # bound just above to one part, not to the rest
        lhs, k = last, k + m - 1  # the metavariable meets the rest of the window
    if _match(lhs, _window(node, k), b) and (side is None or side.holds(b)):
        return subst(rhs, b)
    return None


def apply_rule(
    term: Combinator,
    rule: RewriteRule,
    path: Sequence[int],
    direction: Literal["forward", "backward"] = "forward",
    expected: Optional[tuple[ValueType, ValueType]] = None,
) -> Combinator:
    """Apply a rule at a subterm address of the term.

    The result is checked to typecheck at the input's type.
    """
    if direction not in ("forward", "backward"):
        raise BadStep(f"unknown direction {direction!r}; use 'forward' or 'backward'")
    lhs, rhs = (rule.lhs, rule.rhs) if direction == "forward" else (rule.rhs, rule.lhs)
    typed = typecheck(term, expected)
    _, node, k = _walk(term, path)
    new_node = _rewrite_node(node, k, lhs, rhs, rule.side)
    if new_node is None:
        raise NoMatch(f"rule {rule.name} does not match at path {tuple(path)}")
    result = replace_at(term, path, new_node)
    try:
        typecheck(result, (typed.src, typed.tgt))
    except TypeCheckError as e:
        raise NoMatch(f"rewrite would break typing: {e}") from e
    return result


class RewriteStep(NamedTuple):
    rule: str
    path: tuple[int, ...]
    direction: Literal["forward", "backward"]
    phase: int  # signed contribution to the trace's omega power
    term_after: Combinator

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "path": list(self.path),
            "direction": self.direction,
            "phase": self.phase,
            "term_after": pretty(self.term_after),
        }


class RewriteTrace(NamedTuple):
    start: Combinator
    steps: tuple[RewriteStep, ...]

    @property
    def final(self) -> Combinator:
        return self.steps[-1].term_after if self.steps else self.start

    @property
    def omega_power(self) -> int:
        return sum(s.phase for s in self.steps) % 8

    def to_json(self) -> dict:
        return {
            "start": pretty(self.start),
            "omega_power": self.omega_power,
            "steps": [s.to_json() for s in self.steps],
        }


def replay(
    term: Combinator,
    script: Sequence[tuple[str, Sequence[int], str]],
    expected: Optional[tuple[ValueType, ValueType]] = None,
) -> RewriteTrace:
    """Execute a fixed derivation script: (rule name, path, direction) steps."""
    rules = rules_by_name()
    t = term
    steps: list[RewriteStep] = []
    for name, path, direction in script:
        rule = rules.get(name)
        if rule is None:
            raise BadStep(f"unknown rule {name!r}")
        t = apply_rule(t, rule, tuple(path), direction, expected)
        signed = rule.phase if direction == "forward" else -rule.phase
        steps.append(RewriteStep(name, tuple(path), direction, signed % 8, t))
    return RewriteTrace(term, tuple(steps))


def simplify(
    term: Combinator,
    budget: int = 128,
    expected: Optional[tuple[ValueType, ValueType]] = None,
) -> tuple[Combinator, RewriteTrace]:
    """Greedy best-effort simplification with the oriented catalog rules.

    Size-decreasing rules are preferred; size-preserving "normalizing" rules
    (the bifunctoriality laws) apply only to terms not seen before, and the
    step budget bounds the run.  Every step is recorded; the endpoints agree
    up to the trace's omega power.
    """
    decreasing, normalizing = _simplify_rules()
    t = term
    typed = typecheck(t, expected)
    ty = (typed.src, typed.tgt)
    steps: list[RewriteStep] = []
    seen = {strip_ann(t)}

    def try_rules(index: RuleIndex, require_smaller: bool):
        nonlocal t
        size_now = term_size(t)
        for path, node, k in iter_paths(t):
            for rule in index.candidates(node, k):
                new_node = _rewrite_node(node, k, rule.lhs, rule.rhs, rule.side)
                if new_node is None:
                    continue
                t2 = replace_at(t, path, new_node)
                if require_smaller and term_size(t2) >= size_now:
                    continue
                key = strip_ann(t2)
                if not require_smaller and key in seen:
                    continue
                try:
                    typecheck(t2, ty)
                except TypeCheckError:
                    continue
                seen.add(key)
                steps.append(
                    RewriteStep(rule.name, path, "forward", rule.phase % 8, t2)
                )
                t = t2
                return True
        return False

    while len(steps) < budget:
        if try_rules(decreasing, True):
            continue
        if try_rules(normalizing, False):
            continue
        break
    return t, RewriteTrace(term, tuple(steps))


def check_equiv(
    t1: Combinator,
    t2: Combinator,
    phase_mode: Literal["strict", "up_to_omega_power"] = "strict",
    expected: Optional[tuple[ValueType, ValueType]] = None,
) -> Verdict:
    """Decide semantic equivalence by exact evaluation.

    ``equal_typed`` first cancels the longest common prefix and suffix of
    the two sides' outermost chains (for circuits, the placed gates they
    share): every part denotes a unitary, so the sides agree up to w^k iff
    the middles do, with the same unique k.  Only the middle parts are
    evaluated, through one memo, and the middles are compared column by
    column: the first column that differs decides not_equal without
    folding the rest.  In phase mode the first nonzero entry fixes the
    phase.
    """
    a = typecheck(t1, expected)
    b = typecheck(t2, (a.src, a.tgt))
    return equal_typed(a, b, phase_mode)


# --- validation ---------------------------------------------------------------


class InstanceResult(NamedTuple):
    index: int
    ok: bool
    detail: str = ""


class RuleReport(NamedTuple):
    rule: str
    family: str
    results: tuple[InstanceResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.ok for r in self.results)


def validate_rule(
    rule: RewriteRule,
    memo: Optional[dict] = None,
) -> RuleReport:
    """Exact comparison of every recorded instantiation (``rule.checks``); an
    instance too large to decide raises.

    ``memo`` is passed to ``evaluate``.  The CLI passes the same table to
    every rule of one ``check-rules`` run, so a (subterm, src, tgt) that
    recurs across check sides is evaluated once in that run; by default
    every call makes its own."""
    results = []
    for i, (lhs, rhs) in enumerate(rule.checks):
        try:
            tl = typecheck(lhs)
            tr = typecheck(rhs, (tl.src, tl.tgt))
            ml = evaluate(tl, memo=memo)
            mr = evaluate(tr, memo=memo).times_omega_pow(rule.phase)
            if ml == mr:
                results.append(InstanceResult(i, True))
            else:
                results.append(InstanceResult(i, False, _first_diff(ml, mr)))
        except DimensionError as e:
            raise DimensionError(f"rule {rule.name} instance {i}: {e}") from e
        except SqrtPiError as e:
            results.append(InstanceResult(i, False, f"{type(e).__name__}: {e}"))
    return RuleReport(rule.name, rule.family, tuple(results))


def _first_diff(a: ExactMatrix, b: ExactMatrix) -> str:
    """The first entry, in row-major order, at which a and b differ.  Only
    the columns that differ are searched: the first differing row of each."""
    first = None
    for j, (ca, cb) in enumerate(zip(a.columns, b.columns)):
        if ca != cb:
            da, db = dict(ca), dict(cb)  # no zero is stored: None stands for 0
            i = min(r for r in da.keys() | db.keys() if da.get(r) != db.get(r))
            if first is None or i < first[0]:
                first = (i, j)
    if first is None:
        return "matrices differ in shape"
    i, j = first
    return f"entry ({i},{j}): {a[i, j]} != {b[i, j]}"


# --- catalog ------------------------------------------------------------------

CATALOG_VERSION = "sqrtpi-rules 1"


def rule_db() -> tuple[RewriteRule, ...]:
    from .rules import build_rules

    return build_rules()


@lru_cache(maxsize=None)
def _simplify_rules() -> tuple[RuleIndex, RuleIndex]:
    """The catalog's size-decreasing and normalizing oriented rules, indexed
    once per process (the catalog is built once too)."""
    oriented = [r for r in rule_db() if r.oriented]
    return (RuleIndex([r for r in oriented if not r.normalizing]),
            RuleIndex([r for r in oriented if r.normalizing]))


def rules_by_name() -> dict[str, RewriteRule]:
    return {r.name: r for r in rule_db()}


def catalog_text(rules: Optional[Sequence[RewriteRule]] = None) -> str:
    """Serialize rules to the versioned text catalog format."""
    if rules is None:
        rules = rule_db()
    out = [CATALOG_VERSION, ""]
    for r in rules:
        out.append(f"rule {r.name}")
        out.append(f"family {r.family}")
        if r.qubits is not None:
            out.append(f"qubits {r.qubits}")
        out.append(f"phase {r.phase}")
        flags = []
        if r.oriented:
            flags.append("oriented")
        if r.normalizing:
            flags.append("normalizing")
        if flags:
            out.append("flags " + " ".join(flags))
        if r.side is not None:
            out.append(f"side {r.side.name} " + " ".join(r.side.vars))
        out.append(f"lhs {pretty(r.lhs)}")
        out.append(f"rhs {pretty(r.rhs)}")
        for lhs, rhs in r.checks:
            out.append(f"check {pretty(lhs)} == {pretty(rhs)}")
        out.append("end")
        out.append("")
    return "\n".join(out)


def _parse_check(text: str) -> tuple[Combinator, Combinator]:
    left, sep, right = text.partition("==")
    if not sep:
        raise CatalogError(f"check line needs `==`: {text!r}")
    return (
        parse(left, allow_metavars=True),
        parse(right, allow_metavars=True),
    )


def load_catalog(text: str) -> tuple[RewriteRule, ...]:
    """The rules of a catalog in the text form of catalog_text().  Every
    pattern is parsed through one group memo, so a parenthesized subterm
    that recurs across lines is read once."""
    with shared_groups():
        return _load_catalog(text)


def _load_catalog(text: str) -> tuple[RewriteRule, ...]:
    lines = text.splitlines()
    if not lines or lines[0].strip() != CATALOG_VERSION:
        raise CatalogError(
            f"catalog must start with {CATALOG_VERSION!r}"
        )
    rules: list[RewriteRule] = []
    names: set[str] = set()
    cur: Optional[dict] = None
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, rest = line.partition(" ")
        rest = rest.strip()
        try:
            if key == "rule":
                if cur is not None:
                    raise CatalogError("nested rule block")
                if not rest:
                    raise CatalogError("rule needs a name")
                if rest in names:
                    raise CatalogError(f"duplicate rule {rest!r}")
                names.add(rest)
                cur = {"name": rest, "check": [], "flags": [], "phase": 0,
                       "family": "?", "qubits": None, "side": None}
            elif cur is None:
                raise CatalogError(f"{key!r} outside a rule block")
            elif key == "family":
                cur["family"] = rest
            elif key == "qubits":
                cur["qubits"] = int(rest)
            elif key == "phase":
                cur["phase"] = int(rest)
            elif key == "flags":
                cur["flags"] = flags = rest.split()  # `bidirectional` is retired, ignored
                for flag in sorted(set(flags) - {"oriented", "normalizing", "bidirectional"}):
                    raise CatalogError(f"unknown flag {flag!r}")
            elif key == "side":
                name, *varnames = rest.split() or [""]
                if name not in SIDE_CONDITIONS:
                    raise CatalogError(f"unknown side condition {name!r}")
                base = SIDE_CONDITIONS[name]
                if varnames and len(varnames) != len(base.vars):
                    raise CatalogError(f"side condition {name!r} takes {len(base.vars)} "
                                       f"variable(s), not {len(varnames)}")
                cur["side"] = SideCondition(name, tuple(varnames) or base.vars, base.fn)
            elif key == "lhs":
                cur["lhs"] = parse(rest, allow_metavars=True)
            elif key == "rhs":
                cur["rhs"] = parse(rest, allow_metavars=True)
            elif key == "check":
                cur["check"].append(_parse_check(rest))
            elif key == "end":
                for part in ("lhs", "rhs", "check"):
                    if not cur.get(part):
                        raise CatalogError(f"rule {cur['name']!r} has no {part} line")
                flags = cur.pop("flags")
                rules.append(
                    RewriteRule(
                        name=cur["name"],
                        family=cur["family"],
                        lhs=cur["lhs"],
                        rhs=cur["rhs"],
                        phase=cur["phase"],
                        oriented="oriented" in flags,
                        normalizing="normalizing" in flags,
                        side=cur["side"],
                        checks=tuple(cur["check"]),
                        qubits=cur["qubits"],
                    )
                )
                cur = None
            else:
                raise CatalogError(f"unknown key {key!r}")
        except (KeyError, ValueError) as e:
            raise CatalogError(f"line {lineno}: {e}") from e
        except SqrtPiError as e:
            raise CatalogError(f"line {lineno}: {e}") from e
    if cur is not None:
        raise CatalogError("unterminated rule block")
    return tuple(rules)
