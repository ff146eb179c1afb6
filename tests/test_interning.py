"""Term nodes are hash-consed: equal terms are one object.

The cached ``strip_ann`` and ``term_size`` are checked against plain
recursive versions coded here, and the intern table is checked not to keep
nodes alive through a reference cycle.
"""

import gc
import os
import random
import weakref

from sqrtpi import lang
from sqrtpi.circuits import Circuit, CircuitGate, compile_circuit
from sqrtpi.gates import gate_macros, named_gate
from sqrtpi.lang import (
    BOOL,
    ONE_T,
    Ann,
    MetaVar,
    Prim,
    Prod,
    ProdC,
    Seq,
    SumC,
    parse,
    pretty,
    seq,
    strip_ann,
    typecheck,
)
from sqrtpi.rewrite import (
    catalog_text,
    check_equiv,
    load_catalog,
    rule_db,
    simplify,
    term_size,
    validate_rule,
)
from termgen import random_terms

FILES = os.path.join(os.path.dirname(__file__), "..", "demos", "files")


def seeded_circuit(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 5)
    names = [g for g, m in gate_macros().items() if m.qubits and m.qubits <= n]
    gates = []
    for _ in range(rng.randint(1, 8)):
        g = rng.choice(names)
        gates.append(CircuitGate(g, tuple(rng.sample(range(n), gate_macros()[g].qubits))))
    return Circuit(n, tuple(gates))


def corpus():
    for term, _, _ in random_terms(seed=11, count=150):
        yield term
    for name in sorted(os.listdir(FILES)):
        if name.endswith(".term"):
            with open(os.path.join(FILES, name), encoding="utf-8") as f:
                yield parse(f.read(), expand_macros=True)
    for seed in range(30):
        yield compile_circuit(seeded_circuit(seed))


def subterms(t):
    yield t
    if isinstance(t, Seq):
        kids = t.parts
    elif isinstance(t, (SumC, ProdC)):
        kids = (t.left, t.right)
    elif isinstance(t, Ann):
        kids = (t.term,)
    else:
        kids = ()
    for k in kids:
        yield from subterms(k)


def ref_strip(t):
    if isinstance(t, Ann):
        return ref_strip(t.term)
    if isinstance(t, Seq):
        return seq(*[ref_strip(p) for p in t.parts])
    if isinstance(t, (SumC, ProdC)):
        return type(t)(ref_strip(t.left), ref_strip(t.right))
    return t


def ref_size(t):
    if isinstance(t, Ann):
        return ref_size(t.term)
    if isinstance(t, Seq):
        return len(t.parts) - 1 + sum(ref_size(p) for p in t.parts)
    if isinstance(t, (SumC, ProdC)):
        return 1 + ref_size(t.left) + ref_size(t.right)
    return 1


def test_equal_nodes_are_one_object():
    assert Prim("v") is Prim("v")
    assert MetaVar("v") is MetaVar("v") and MetaVar("v") is not Prim("v")
    a = seq(Prim("v"), SumC(Ann(Prim("id"), ONE_T, ONE_T), Prim("w")))
    b = seq(Prim("v"), SumC(Ann(Prim("id"), ONE_T, ONE_T), Prim("w")))
    assert a is b and a == b and hash(a) == hash(b)
    assert SumC(Prim("v"), Prim("w")) is not ProdC(Prim("v"), Prim("w"))
    assert Ann(Prim("id"), BOOL, BOOL) is not Ann(Prim("id"), ONE_T, ONE_T)
    assert named_gate("cx") is parse("cx", expand_macros=True)


def test_parse_of_pretty_is_the_same_object():
    for t in corpus():
        assert parse(pretty(t)) is t, pretty(t)


def test_parse_of_a_wide_compiled_circuit_is_the_same_object():
    # every gate on the last wires, then ccx across the register: the printed
    # tree repeats the same SWAP and identity groups thousands of times
    n = 60
    gates = [CircuitGate(g, tuple(range(n - m.qubits, n)))
             for g, m in sorted(gate_macros().items()) if m.qubits]
    gates += [CircuitGate("ccx", (2, 1, 0)), CircuitGate("ccx", (0, n - 1, n // 2))]
    c = compile_circuit(Circuit(n, tuple(gates)))
    assert parse(pretty(c)) is c


def test_cached_strip_and_size_match_the_recursive_definitions():
    for t in corpus():
        for sub in subterms(t):
            assert strip_ann(sub) is ref_strip(sub)
            assert term_size(sub) == ref_size(sub)
            # a second call reads the cache
            assert strip_ann(sub) is ref_strip(sub)
            assert term_size(sub) == ref_size(sub)


def field_kids(n):
    """The children of n read from its fields, in field order: each field
    that holds a node, and each part of a chain's parts."""
    kids = []
    for name in n._fields:
        value = getattr(n, name)
        if isinstance(value, tuple):
            kids += value
        elif isinstance(value, lang._Node):
            kids.append(value)
    return tuple(kids)


def test_kids_and_rebuild_keep_every_node():
    circuit = Circuit(5, (CircuitGate("h", (0,)), CircuitGate("cx", (4, 1)),
                          CircuitGate("ccx", (3, 0, 2)), CircuitGate("t", (4,))))
    roots = [term for term, _, _ in random_terms(seed=11, count=150)]
    roots += [p for r in rule_db() for p in (r.lhs, r.rhs)]
    roots.append(compile_circuit(circuit))
    seen, stack, kinds = set(), roots, set()
    while stack:
        n = stack.pop()
        if id(n) in seen:
            continue
        seen.add(id(n))
        kinds.add(type(n))
        kids = field_kids(n)
        assert type(n.kids) is tuple and n.kids == kids, n
        if isinstance(n, (Prim, MetaVar)):
            assert n.kids == ()
        assert n.rebuild(n.kids) is n, n
        stack.extend(kids)
    assert kinds == {Prim, Seq, SumC, ProdC, Ann, MetaVar}


def test_repr_keeps_the_dataclass_form():
    assert repr(Prim("v")) == "Prim(name='v')"
    assert repr(MetaVar("c")) == "MetaVar(name='c')"
    assert repr(seq(Prim("v"), Prim("w"))) == "Seq(parts=(Prim(name='v'), Prim(name='w')))"
    assert repr(SumC(Prim("v"), Prim("w"))) == "SumC(left=Prim(name='v'), right=Prim(name='w'))"
    assert repr(ProdC(Prim("v"), Prim("w"))) == "ProdC(left=Prim(name='v'), right=Prim(name='w'))"
    assert (repr(Ann(Prim("id"), ONE_T, Prod(ONE_T, ONE_T)))
            == "Ann(term=Prim(name='id'), src=One, tgt=Prod(left=One, right=One))")


def test_cached_fields_make_no_cycle():
    # with the cycle collector off, a node that refers to itself would stay
    # in the table after its last outside reference is gone
    gc.collect()
    gc.disable()
    try:
        before = len(lang._TERMS)
        chain = seq(*[Prim("w")] * 37)
        t = SumC(Ann(chain, ONE_T, ONE_T), ProdC(chain, Ann(Prim("v"), BOOL, BOOL)))
        assert strip_ann(t) is SumC(chain, ProdC(chain, Prim("v")))
        assert strip_ann(chain) is chain
        assert term_size(t) == 1 + 73 + (1 + 73 + 1)  # a chain of 37 counts 37 + 36
        assert typecheck(t).src is lang.Sum(ONE_T, Prod(ONE_T, BOOL))
        assert_types_only(t._scheme)
        assert_types_only(chain._scheme)
        assert_record_types_only(t._ground)
        assert_record_types_only(chain._ground)
        bad = seq(t, chain)  # 1+1*2 against 1
        assert type_error(bad).startswith("cannot unify")
        assert bad._scheme is None
        assert len(lang._TERMS) > before
        del t, chain, bad
        assert len(lang._TERMS) == before
    finally:
        gc.enable()


def assert_types_only(scheme):
    """A stored scheme is (start, count, src, tgt, bounds) and refers to no
    node, so it cannot close a cycle back to the node that holds it."""
    start, count, src, tgt, bounds = scheme
    assert isinstance(start, int) and isinstance(count, int) and isinstance(bounds, tuple)
    stack = [src, tgt, *bounds]
    while stack:
        t = stack.pop()
        assert isinstance(t, (lang.Zero, lang.One, lang.TVar, lang._Pair)), t
        if isinstance(t, lang._Pair):
            stack += [t.left, t.right]


def assert_record_types_only(record):
    """A ground record maps (src, tgt) to a tuple of inner types, all of them
    closed; like a scheme, it refers to no node."""
    assert record
    for (src, tgt), inner in record.items():
        assert isinstance(inner, tuple)
        for t in (src, tgt, *inner):
            assert isinstance(t, (lang.Zero, lang.One, lang._Pair)) and not t.open, t


def type_error(term):
    # the exception refers to the node; only its text leaves this frame
    try:
        typecheck(term)
    except lang.TypeCheckError as e:
        return str(e)
    return None


def test_typecheck_leaves_no_cycle():
    # neither typecheck's tables nor the schemes it stores on the nodes may
    # keep a term or its typed tree alive, with the cycle collector off, after
    # the last outside reference is gone; also when inference fails
    gc.collect()
    gc.disable()
    try:
        before = len(lang._TERMS)
        term = parse("(vi ; swap+ ; vi) * (swap+ ; vi ; swap+)")  # in no other test
        nodes = [weakref.ref(n) for n in (term, term.left, term.right)]
        typed = typecheck(term)
        assert typed.src is Prod(BOOL, BOOL)
        assert [k.term for k in typed.children[1].children] == list(term.right.parts)
        for n in nodes:
            assert_types_only(n()._scheme)
            assert_record_types_only(n()._ground)
        del term, typed
        assert [n() for n in nodes] == [None, None, None]
        assert len(lang._TERMS) == before

        # the left factor types, the right one does not
        term = parse("(swap+ ; vi ; v ; swap+) * (vi ; swap* ; vi)")  # in no other test
        nodes = [weakref.ref(n) for n in (term, term.left, term.right)]
        assert type_error(term) == "cannot unify 2 with t5*t6 at `vi ; swap* ; vi`"
        assert_types_only(term.left._scheme)
        assert term._scheme is None and term.right._scheme is None
        assert not term._ground and not term.left._ground  # inference failed first
        del term
        assert [n() for n in nodes] == [None, None, None]
        assert len(lang._TERMS) == before
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_term_table_is_steady_across_repeated_commands():
    circuit = compile_circuit(Circuit(3, (CircuitGate("h", (0,)), CircuitGate("cx", (0, 2)),
                                          CircuitGate("h", (0,)), CircuitGate("ccx", (2, 1, 0)))))
    other = compile_circuit(Circuit(3, (CircuitGate("ccx", (2, 1, 0)),)))
    rules = [r for r in rule_db() if r.family in ("E", "A", "gates")]
    # the last rule's terms are in no other test, so only a run holds them
    text = catalog_text(rules) + ("rule steady\nlhs vi ; swap+ ; v ; swap+\nrhs id\n"
                                  "check vi ; swap+ ; v ; swap+ == id\nend\n")

    def commands():
        simplify(circuit, budget=16)
        for r in rules:
            validate_rule(r)
        check_equiv(circuit, other)
        # check-rules on a text catalog: one load, one denotation table
        loaded = load_catalog(text)
        memo = {}
        for r in loaded:
            assert validate_rule(r, memo=memo).passed, r.name
        return weakref.ref(loaded[-1].lhs)

    gc.collect()
    gc.disable()
    try:
        # the first run builds the terms that the repeats find again
        commands()
        size = len(lang._TERMS)
        for _ in range(3):
            steady = commands()
            assert len(lang._TERMS) == size
            # no table of the load or of the run outlives it
            assert steady() is None
    finally:
        gc.enable()
