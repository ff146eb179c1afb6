"""lang.typecheck against an independent, tree-walking oracle.

The oracle infers every occurrence of a subterm afresh, the way the typing
rules read: a primitive instantiates its scheme with fresh variables t1, t2,
... in order of first appearance, a chain unifies neighbouring parts after
inferring all of them, and the first node in preorder whose type is not
ground is reported.  Types are tuples: ("0",), ("1",), ("+", a, b),
("*", a, b) and ("var", n).  typecheck shares the work on repeated subterms,
and must still agree with the oracle on the types of every occurrence and,
on ill-typed input, on the error class, the node object and the message.
"""

import gc
import os
import random
import re
import sys
import threading
import time

import pytest

from sqrtpi import lang
from sqrtpi.circuits import Circuit, CircuitGate, compile_circuit
from sqrtpi.gates import gate_macros, named_gate
from sqrtpi.lang import (
    BOOL,
    ONE_T,
    Ann,
    Prim,
    Prod,
    ProdC,
    Seq,
    Sum,
    SumC,
    TypeCheckError,
    parse,
    pretty,
    seq,
    type_str,
    typecheck,
)
from termgen import random_terms

Z, U = ("0",), ("1",)
A, B, C = ("var", "a"), ("var", "b"), ("var", "c")


def S(x, y):
    return ("+", x, y)


def P(x, y):
    return ("*", x, y)


TWO = S(U, U)
ORACLE_SCHEMES = {
    "id": (A, A),
    "swap+": (S(A, B), S(B, A)),
    "assocr+": (S(S(A, B), C), S(A, S(B, C))),
    "assocl+": (S(A, S(B, C)), S(S(A, B), C)),
    "unite+l": (S(Z, A), A),
    "uniti+l": (A, S(Z, A)),
    "swap*": (P(A, B), P(B, A)),
    "assocr*": (P(P(A, B), C), P(A, P(B, C))),
    "assocl*": (P(A, P(B, C)), P(P(A, B), C)),
    "unite*l": (P(U, A), A),
    "uniti*l": (A, P(U, A)),
    "dist": (P(S(A, B), C), S(P(A, C), P(B, C))),
    "factor": (S(P(A, C), P(B, C)), P(S(A, B), C)),
    "absorbl": (P(A, Z), Z),
    "factorzr": (Z, P(A, Z)),
    "v": (TWO, TWO),
    "vi": (TWO, TWO),
    "w": (U, U),
    "wi": (U, U),
}


class OracleError(Exception):
    def __init__(self, kind, node, message):
        super().__init__(message)
        self.kind, self.node, self.message = kind, node, message


def to_lang(t):
    """Oracle type to a lang type (variables become TVars)."""
    if t[0] == "0":
        return lang.ZERO_T
    if t[0] == "1":
        return ONE_T
    if t[0] == "var":
        return lang.TVar(t[1])
    cons = lang.Sum if t[0] == "+" else lang.Prod
    return cons(to_lang(t[1]), to_lang(t[2]))


def of_lang(t):
    if t is lang.ZERO_T:
        return Z
    if t is ONE_T:
        return U
    return ("+" if isinstance(t, lang.Sum) else "*", of_lang(t.left), of_lang(t.right))


def quote(node):
    """The term a type error names, as the README states it is printed: cut
    after 1000 characters and ended with "..."."""
    s = pretty(node)
    return s if len(s) <= 1000 else s[:1000] + "..."


class Oracle:
    def __init__(self):
        self.subst, self.counter = {}, 0

    def find(self, t):
        while t[0] == "var" and t[1] in self.subst:
            t = self.subst[t[1]]
        return t

    def resolve(self, t):
        t = self.find(t)
        if t[0] in "+*":
            return (t[0], self.resolve(t[1]), self.resolve(t[2]))
        return t

    def occurs(self, n, t):
        t = self.find(t)
        if t[0] == "var":
            return t[1] == n
        return t[0] in "+*" and (self.occurs(n, t[1]) or self.occurs(n, t[2]))

    def fail(self, a, b, node):
        a, b = type_str(to_lang(self.resolve(a))), type_str(to_lang(self.resolve(b)))
        where = f" at `{quote(node)}`" if node is not None else ""
        raise OracleError("UnificationFailure", node, f"cannot unify {a} with {b}{where}")

    def unify(self, a, b, node):
        a, b = self.find(a), self.find(b)
        if a == b and a[0] in ("var", "0", "1"):
            return
        if a[0] == "var":
            if self.occurs(a[1], b):
                self.fail(a, b, node)
            self.subst[a[1]] = b
        elif b[0] == "var":
            self.unify(b, a, node)
        elif a[0] == b[0] and a[0] in "+*":
            self.unify(a[1], b[1], node)
            self.unify(a[2], b[2], node)
        elif a[0] != b[0] or a[0] not in "01":
            self.fail(a, b, node)

    def instantiate(self, t, names):
        if t[0] == "var":
            if t[1] not in names:
                self.counter += 1
                names[t[1]] = ("var", self.counter)
            return names[t[1]]
        if t[0] in "+*":
            return (t[0], self.instantiate(t[1], names), self.instantiate(t[2], names))
        return t

    def infer(self, node):
        """(node, src, tgt, children) for this occurrence of node."""
        if isinstance(node, Prim):
            names = {}
            src, tgt = ORACLE_SCHEMES[node.name]
            return (node, self.instantiate(src, names), self.instantiate(tgt, names), ())
        if isinstance(node, Ann):
            inner = self.infer(node.term)
            src, tgt = of_lang(node.src), of_lang(node.tgt)
            self.unify(inner[1], src, node)
            self.unify(inner[2], tgt, node)
            return (node, src, tgt, (inner,))
        if isinstance(node, Seq):
            kids = [self.infer(p) for p in node.parts]
            for f, g in zip(kids, kids[1:]):
                self.unify(f[2], g[1], node)
            return (node, kids[0][1], kids[-1][2], tuple(kids))
        if isinstance(node, (SumC, ProdC)):
            op = "+" if isinstance(node, SumC) else "*"
            l, r = self.infer(node.left), self.infer(node.right)
            return (node, (op, l[1], r[1]), (op, l[2], r[2]), (l, r))
        raise OracleError("TypeCheckError", None,
                          f"cannot typecheck pattern variable ?{node.name}")


def oracle_typecheck(term, expected=None):
    """[(node, src, tgt)] for every occurrence, in preorder."""
    o = Oracle()
    root = o.infer(term)
    if expected is not None:
        o.unify(root[1], of_lang(expected[0]), term)
        o.unify(root[2], of_lang(expected[1]), term)
    out = []

    def walk(rec):
        node, src, tgt, kids = rec
        src, tgt = o.resolve(src), o.resolve(tgt)
        if "var" in repr((src, tgt)):
            raise OracleError(
                "UnresolvedMetavariable", node,
                f"type of `{quote(node)}` is not fully determined; "
                "add an annotation or an expected type")
        out.append((node, src, tgt))
        for k in kids:
            walk(k)

    walk(root)
    return out


def preorder(typed):
    out = [typed]
    for k in typed.children:
        out.extend(preorder(k))
    return out


def agree(term, expected=None):
    """typecheck and the oracle agree on term; returns True if it is well-typed."""
    try:
        want = oracle_typecheck(term, expected)
    except OracleError as e:
        with pytest.raises(TypeCheckError) as info:
            typecheck(term, expected)
        got = info.value
        assert type(got).__name__ == e.kind
        assert getattr(got, "node", None) is e.node
        assert str(got) == e.message
        return False
    typed = typecheck(term, expected)
    got = preorder(typed)
    assert len(got) == len(want)
    for t, (node, src, tgt) in zip(got, want):
        assert t.term is node
        assert (of_lang(t.src), of_lang(t.tgt)) == (src, tgt)
    # each (node, src, tgt) but a primitive's has one record on its node,
    # which gives the chain's inner types, so equal keys give equal values
    by_key = {}
    for t in got:
        record = t.term._ground.get((t.src, t.tgt))
        if isinstance(t.term, Prim):
            assert record is None
        elif isinstance(t.term, Seq):
            assert record == tuple(k.tgt for k in t.children[:-1])
        else:
            assert record == ()
        first = by_key.setdefault((t.term, t.src, t.tgt), t)
        assert first == t and first.children == t.children
    return True


CIRCUIT_GATES = {name: m.qubits for name, m in gate_macros().items() if m.qubits}


def seeded_circuit(seed):
    """1-6 qubits; gates and wire tuples drawn from a small pool, so both repeat."""
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    names = [g for g, k in CIRCUIT_GATES.items() if k <= n]
    pool = []
    for _ in range(4):
        g = rng.choice(names)
        pool.append(CircuitGate(g, tuple(rng.sample(range(n), CIRCUIT_GATES[g]))))
    return Circuit(n, tuple(rng.choice(pool) for _ in range(rng.randint(1, 10))))


# shared pieces for ill-typed DAGs: gate macros and primitive objects
PIECES = [named_gate(g) for g in ("h", "x", "s", "cx", "cz", "ccx", "swap")] + [
    Prim(p) for p in ("swap+", "swap*", "dist", "uniti*l", "assocl*", "v", "w", "id",
                      "absorbl", "factorzr")
]
ANN_TYPES = (BOOL, ONE_T, lang.ZERO_T, lang.Prod(BOOL, BOOL), Sum(BOOL, ONE_T),
             lang.Prod(BOOL, lang.ZERO_T))


def random_dag(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(PIECES)
    kind = rng.randrange(4)
    a, b = random_dag(rng, depth - 1), random_dag(rng, depth - 1)
    if kind == 0:
        return seq(a, b, a) if rng.random() < 0.5 else seq(a, b)
    if kind == 1:
        return SumC(a, b)
    if kind == 2:
        return ProdC(a, a if rng.random() < 0.5 else b)
    src = rng.choice(ANN_TYPES)
    return Ann(a, src, src if rng.random() < 0.5 else rng.choice(ANN_TYPES))


def test_random_terms_agree():
    # each primitive's SCHEMES row alone, and under an expected type that
    # clashes with every row, so the message prints the row's variables
    assert list(lang.SCHEMES) == list(ORACLE_SCHEMES)
    for name in lang.SCHEMES:
        agree(Prim(name))
        assert not agree(Prim(name), (ONE_T, lang.ZERO_T))
    for seed in range(4):
        for term, src, tgt in random_terms(seed, 25):
            assert agree(term, (src, tgt))
            agree(term)
            shared = seq(term, Prim("id"), term) if src == tgt else ProdC(term, term)
            assert agree(shared, (src, src) if src == tgt else
                         (lang.Prod(src, src), lang.Prod(tgt, tgt)))


def test_shared_polymorphic_nodes_agree():
    # one node object used at several types, inside and outside annotations
    loop = seq(Prim("uniti*l"), Prim("unite*l"))
    swap_twice = seq(Prim("swap+"), Prim("swap+"))
    for seed, (term, src, tgt) in enumerate(random_terms(21, 40)):
        both = SumC(Ann(loop, src, src), seq(term, loop))
        assert agree(both, (Sum(src, src), Sum(src, tgt)))
        assert agree(ProdC(loop, Ann(loop, tgt, tgt)), (lang.Prod(BOOL, tgt),) * 2)
        nested = SumC(swap_twice, SumC(Ann(swap_twice, Sum(src, tgt), Sum(src, tgt)),
                                       swap_twice))
        agree(nested, (Sum(Sum(ONE_T, BOOL), Sum(Sum(src, tgt), Sum(BOOL, BOOL))),) * 2)
        agree(nested)
        # an unshared node under a shared one, at the same types twice
        half = SumC(Prim("v"), seq(Prim("uniti*l"), Prim("unite*l")))
        assert agree(SumC(Ann(half, Sum(BOOL, src), Sum(BOOL, src)), half),
                     (Sum(Sum(BOOL, src), Sum(BOOL, tgt)),) * 2)
        # a middle type of absorbl ; factorzr ; absorbl is open under a shared node
        open_mid = seq(Prim("absorbl"), Prim("factorzr"), Prim("absorbl"))
        assert not agree(SumC(Ann(open_mid, lang.Prod(src, lang.ZERO_T), lang.ZERO_T),
                              open_mid),
                         (Sum(lang.Prod(src, lang.ZERO_T), lang.Prod(BOOL, lang.ZERO_T)),
                          Sum(lang.ZERO_T, lang.ZERO_T)))


def test_seeded_circuits_agree():
    for seed in range(30):
        circuit = seeded_circuit(seed)
        term = compile_circuit(circuit)
        assert agree(term)
        agree(term, (ONE_T, ONE_T))


def test_demo_files_agree():
    files = "demos/files"
    for name in sorted(os.listdir(files)):
        if name.endswith(".term"):
            with open(os.path.join(files, name), encoding="utf-8") as f:
                assert agree(parse(f.read(), expand_macros=True)), name


def test_ill_typed_mutants_agree():
    rng = random.Random(5)
    failures = 0
    for _ in range(300):
        failures += not agree(random_dag(rng, 4))
    assert failures > 150  # most random DAGs are ill-typed


def test_mutated_random_terms_agree():
    # swap one primitive occurrence of a well-typed term for another
    rng = random.Random(9)
    names = sorted(ORACLE_SCHEMES)
    for term, src, tgt in random_terms(17, 60):
        text = pretty(term)
        words = [w for w in text.replace("(", " ").replace(")", " ").split()
                 if w in ORACLE_SCHEMES]
        mutant = text.replace(rng.choice(words), rng.choice(names), 1)
        agree(parse(mutant), (src, tgt))
        agree(parse(mutant))


def test_ground_types_are_interned():
    assert Sum(ONE_T, ONE_T) is BOOL
    assert lang.Prod(BOOL, BOOL) is lang.Prod(Sum(ONE_T, ONE_T), BOOL)
    assert lang.Zero() is lang.ZERO_T and lang.One() is ONE_T
    assert Sum(lang.TVar(1), ONE_T) == Sum(lang.TVar(1), ONE_T)
    assert hash(Sum(lang.TVar(1), ONE_T)) == hash(Sum(lang.TVar(1), ONE_T))
    assert Sum(lang.TVar(1), ONE_T) != Sum(lang.TVar(2), ONE_T)


def test_intern_table_does_not_grow():
    term = compile_circuit(seeded_circuit(3))
    typecheck(term)
    gc.collect()
    size = len(lang._INTERNED)
    for _ in range(3):
        typecheck(term)
        gc.collect()
        assert len(lang._INTERNED) == size


def dag_nodes(term):
    """The distinct nodes of term, in preorder of first visit."""
    seen, out, stack = set(), [], [term]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        out.append(node)
        if isinstance(node, Seq):
            stack.extend(reversed(node.parts))
        elif isinstance(node, (SumC, ProdC)):
            stack.extend((node.right, node.left))
        elif isinstance(node, Ann):
            stack.append(node.term)
    return out


def error_text(term, expected=None):
    """The class and message typecheck raises on term, or None."""
    try:
        typecheck(term, expected)
    except TypeCheckError as e:
        return f"{type(e).__name__}: {e}"
    return None


def warm_cache_corpus():
    rng = random.Random(31)
    for _ in range(120):
        yield random_dag(rng, 4), None
    names = sorted(ORACLE_SCHEMES)
    for term, src, tgt in random_terms(37, 60):
        # swap one primitive occurrence for another
        text = pretty(term)
        m = rng.choice(list(re.finditer(r"[a-z][a-z+*]*", text)))
        yield parse(text[:m.start()] + rng.choice(names) + text[m.end():]), (src, tgt)
    for seed in range(30, 50):
        yield compile_circuit(seeded_circuit(seed)), None


def test_results_do_not_depend_on_a_warm_cache():
    # typecheck keeps a node's scheme for the life of the process: whichever
    # subterms an earlier call checked, and whether they failed, the term's
    # types and diagnostics are those of the oracle, which infers afresh
    rng = random.Random(43)
    warmed_failures = ill_typed = 0
    for term, expected in warm_cache_corpus():
        nodes = dag_nodes(term)
        for node in nodes:  # start cold, as in a fresh process
            node._scheme = None
        for sub in rng.sample(nodes[1:], len(nodes[1:]) // 2):
            warmed_failures += error_text(sub) is not None
        for exp in dict.fromkeys((expected, None)):
            if not agree(term, exp):
                ill_typed += 1
                # a failed inference stores nothing that changes the next one
                assert error_text(term, exp) == error_text(term, exp)
    assert warmed_failures > 100 and ill_typed > 100


def test_concurrent_typechecks_agree(monkeypatch):
    # a circuit no other test builds, so its placed gates are not yet typed;
    # each scheme is published in one assignment, so a thread sees a whole
    # scheme or none.  A thread gives up the interpreter lock at each
    # inference and each resolve, all of which a chain makes between reading
    # its empty scheme and publishing its own, so the threads interleave
    # there.  Each thread typechecks the placed gates one by one, so it
    # grounds a gate's chains right after it reads their schemes
    def yielding(method):
        def call(*args):
            time.sleep(0)
            return method(*args)
        return call

    for name in ("infer", "resolve"):
        monkeypatch.setattr(lang._Unifier, name, yielding(getattr(lang._Unifier, name)))
    rng = random.Random(97)
    gates = tuple(CircuitGate(g, tuple(rng.sample(range(7), CIRCUIT_GATES[g])))
                  for g in rng.choices(sorted(CIRCUIT_GATES), k=40))
    term = compile_circuit(Circuit(7, gates))
    assert term._scheme is None
    pieces = (*term.parts, term)
    barrier = threading.Barrier(8)
    results, errors = [None] * 8, []

    def work(i):
        barrier.wait(timeout=60)
        try:
            results[i] = [typecheck(p) for p in pieces]
        except Exception as e:  # reported below, with the thread's index
            errors.append((i, e))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    want = [[(t.term, t.src, t.tgt) for t in preorder(typecheck(p))] for p in pieces]
    for typed in results:
        assert [[(t.term, t.src, t.tgt) for t in preorder(x)] for x in typed] == want
    assert agree(term)


def test_a_second_typecheck_grounds_nothing_new(monkeypatch):
    term = compile_circuit(seeded_circuit(61))  # in no other test
    first = typecheck(term)
    records = {id(n): dict(n._ground) for n in dag_nodes(term)}
    calls = []
    ground = lang._ground

    def counted(node, src, tgt):
        calls.append(node)
        return ground(node, src, tgt)

    monkeypatch.setattr(lang, "_ground", counted)
    assert typecheck(term) == first
    # the root's record answers at once
    assert calls == [term]
    assert {id(n): dict(n._ground) for n in dag_nodes(term)} == records


def test_concurrent_typechecks_walk_their_children(monkeypatch):
    # many threads ground one polymorphic term at once, each at types of its
    # own, so they add records to the same nodes side by side: every Typed
    # that typecheck returned must find each record it reads, then and after
    # the other threads are done.  A thread gives up the interpreter lock at
    # each node it grounds, between reading the node's record and writing it,
    # so the threads interleave there
    kids = lang._kids

    def yielding(*args):
        time.sleep(0)
        return kids(*args)

    monkeypatch.setattr(lang, "_kids", yielding)
    chain = seq(*[Prim("swap*")] * 6)  # a*b <-> a*b
    term = SumC(chain, ProdC(chain, Ann(chain, Prod(BOOL, ONE_T), Prod(BOOL, ONE_T))))
    count = 8

    def wide(n):  # 1+(1+(...)) with n ones: one type per thread
        t = ONE_T
        for _ in range(n - 1):
            t = Sum(ONE_T, t)
        return t

    types = []
    for i in range(count):
        a, b = wide(i + 11), wide(2 * i + 30)
        ty = Sum(Prod(a, b), Prod(Prod(b, a), Prod(BOOL, ONE_T)))
        types.append((ty, ty))
    barrier = threading.Barrier(count)
    results, walks, errors = [None] * count, [None] * count, []

    def work(i):
        barrier.wait(timeout=60)
        try:
            results[i] = typecheck(term, types[i])
            for _ in range(20):  # while the other threads still add records
                walks[i] = preorder(results[i])
        except Exception as e:  # reported below, with the thread's index
            errors.append((i, e))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(count)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    for typed, walk, ty in zip(results, walks, types):
        assert preorder(typed) == walk
        assert agree(term, ty)
    assert len(chain._ground) >= count
