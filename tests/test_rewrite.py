import collections
import hashlib
import json
import os
import random

import pytest

import sqrtpi.rewrite as rewrite
from sqrtpi.circuits import parse_circuit, compile_circuit
from sqrtpi.gates import (
    ctrl,
    h_gate,
    named_gate,
    omega_term,
    s_gate,
    scalar_mul,
    x_gate,
    z_gate,
)
from sqrtpi.lang import (
    BOOL,
    ONE_T,
    PRIMITIVES,
    Ann,
    MetaVar,
    Prim,
    ProdC,
    Seq,
    SumC,
    TypeCheckError,
    invert,
    parse,
    pretty,
    seq,
    strip_ann,
)
from sqrtpi.rewrite import (
    CatalogError,
    NoMatch,
    PathInvalid,
    RewriteRule,
    RewriteStep,
    RewriteTrace,
    RuleIndex,
    _is_syntactic_inverse,
    _key,
    _metavars,
    _rewrite_node,
    apply_rule,
    catalog_text,
    check_equiv,
    iter_paths,
    load_catalog,
    match,
    replace_at,
    replay,
    rule_db,
    rules_by_name,
    simplify,
    subst,
    term_size,
    validate_rule,
)
from sqrtpi.rules import (
    derivation_s_s_to_z,
    derivation_vi_to_v_x,
    derivation_wi_to_w7,
)
from sqrtpi.semantics import equal_matrices, evaluate
from sqrtpi.lang import typecheck
from termgen import random_terms


RULES = rules_by_name()


def test_rule_db_size_and_contents():
    db = rule_db()
    assert len(db) >= 60
    names = {r.name for r in db}
    for expected in ("E1", "E2", "E3", "A6", "A14", "A20", "B1", "B4", "D15",
                     "D19", "P1", "P6", "gates_xi", "mat_x", "had_x",
                     "ctrlh_v", "nctrl_ii", "swapassoc", "assoc◎l",
                     "bifunct⊕", "laplaza_XXIII"):
        assert expected in names, expected


def test_family_sizes():
    db = rule_db()
    by_family = {}
    for r in db:
        by_family.setdefault(r.family, []).append(r)
    assert len(by_family["A"]) == 20
    assert len(by_family["B"]) == 4
    assert len(by_family["D"]) == 19
    assert len(by_family["P"]) == 6
    assert len(by_family["E"]) == 3
    assert len(by_family["gates"]) == 11
    assert len(by_family["mat"]) == 10
    assert len(by_family["ctrlh"]) == 5


def test_e3_rule_shape():
    e3 = RULES["E3"]
    assert strip_ann(e3.lhs) == strip_ann(seq(Prim("v"), s_gate(), Prim("v")))
    rhs = scalar_mul(omega_term(2), seq(s_gate(), Prim("v"), s_gate()))
    assert strip_ann(e3.rhs) == strip_ann(rhs)


def test_every_rule_validates():
    for r in rule_db():
        rep = validate_rule(r)
        assert rep.passed, (r.name, [x.detail for x in rep.results if not x.ok])


def test_phase_declarations():
    assert RULES["A6"].phase == 1
    assert RULES["A15"].phase == 1
    assert RULES["A12"].phase == 7
    assert RULES["A13"].phase == 7
    assert RULES["E2"].phase == 0


def test_validate_corrupted_rule_reports_diff():
    a5 = RULES["A5"]
    broken = RewriteRule(
        name="A5broken",
        family="A",
        lhs=seq(s_gate(), s_gate(), s_gate()),
        rhs=a5.rhs,
        checks=((seq(s_gate(), s_gate(), s_gate()), a5.rhs),),
    )
    rep = validate_rule(broken)
    assert not rep.passed
    assert "entry" in rep.results[0].detail


def test_run_memos_report_what_fresh_memos_report():
    # check-rules validates every rule through one denotation table; a rule
    # with a wrong phase in the middle of the run, whose terms the table
    # already holds, must fail with the same detail
    db = rule_db()
    a6 = RULES["A6"]
    wrong = a6._replace(name="A6wrong", phase=a6.phase + 1)
    for loaded in (db, load_catalog(catalog_text(db))):
        rules = list(loaded)
        rules.insert(max(len(rules) // 2, rules.index(a6) + 1), wrong)
        memo = {}
        shared = [validate_rule(r, memo=memo) for r in rules]
        fresh = [validate_rule(r) for r in rules]
        assert shared == fresh
        failed = [rep for rep in shared if not rep.passed]
        assert [rep.rule for rep in failed] == ["A6wrong"]
        assert all(res.detail.startswith("entry (") for res in failed[0].results)


def test_every_rule_copy_is_checked():
    # a copy made by _replace or _make is checked like a built rule
    e1 = RULES["E1"]
    assert e1.oriented and e1._replace(name="E1copy").name == "E1copy"
    unbound = seq(e1.rhs, MetaVar("zz"))
    for copy in (lambda: e1._replace(rhs=unbound),
                 lambda: RewriteRule._make((*e1[:3], unbound, *e1[4:]))):
        with pytest.raises(CatalogError, match=r"rhs reads \?zz, which its lhs does not bind"):
            copy()


def test_apply_bifunct():
    term = seq(s_gate(), s_gate())
    out = apply_rule(term, RULES["bifunct⊕"], (), expected=(BOOL, BOOL))
    assert isinstance(out, SumC)
    left, right = out.left, out.right
    assert strip_ann(left) == strip_ann(seq(Prim("id"), Prim("id")))
    assert strip_ann(right) == strip_ann(seq(Prim("w"), Prim("w"), Prim("w"), Prim("w")))


def test_apply_e2():
    out = apply_rule(seq(Prim("v"), Prim("v")), RULES["E2"], ())
    assert strip_ann(out) == Prim("swap+")


def test_apply_e2_no_match():
    with pytest.raises(NoMatch):
        apply_rule(Prim("w"), RULES["E2"], ())


def test_apply_window_keeps_tail():
    term = seq(Prim("v"), Prim("v"), Prim("v"))
    out = apply_rule(term, RULES["E2"], ())
    assert strip_ann(out) == strip_ann(seq(Prim("swap+"), Prim("v")))


def test_apply_path_invalid():
    with pytest.raises(PathInvalid):
        apply_rule(seq(Prim("v"), Prim("v")), RULES["E2"], (5,))


def test_apply_preserves_typing():
    term = seq(Prim("v"), Prim("v"), s_gate())
    before = typecheck(term, (BOOL, BOOL))
    out = apply_rule(term, RULES["E2"], ())
    after = typecheck(out, (BOOL, BOOL))
    assert (before.src, before.tgt) == (after.src, after.tgt)


def test_match_binds_consistently():
    pat = seq(SumC(Prim("id"), Prim("w")), SumC(Prim("id"), Prim("w")))
    assert match(pat, seq(s_gate(), s_gate())) is None  # w vs w;w
    pat2 = seq(x_gate(), x_gate())
    assert match(pat2, seq(Prim("swap+"), Prim("swap+"))) == {}


def test_simplify_s_s_to_z():
    out, trace = simplify(seq(s_gate(), s_gate()), expected=(BOOL, BOOL))
    assert strip_ann(out) == strip_ann(z_gate())
    assert len(trace.steps) >= 2
    assert trace.omega_power == 0


def test_simplify_unit_law():
    out, _ = simplify(seq(Prim("id"), Prim("v")), expected=(BOOL, BOOL))
    assert out == Prim("v")


def test_simplify_budget_zero_is_identity():
    term = seq(Prim("v"), Prim("v"))
    out, trace = simplify(term, budget=0)
    assert out == term
    assert trace.steps == ()


def test_simplify_records_phase():
    term = seq(s_gate(), h_gate(), s_gate(), h_gate(), s_gate(), h_gate())
    out, trace = simplify(term, expected=(BOOL, BOOL))
    m0 = evaluate(term, (BOOL, BOOL))
    m1 = evaluate(out, (BOOL, BOOL))
    assert equal_matrices(m0, m1.times_omega_pow(trace.omega_power)).kind == "equal"
    assert trace.omega_power == 1


def test_replay_derivations():
    start, script, expect = derivation_s_s_to_z()
    tr = replay(start, script, expected=(BOOL, BOOL))
    assert strip_ann(tr.final) == strip_ann(expect)

    start, script, expect = derivation_vi_to_v_x()
    tr = replay(start, script, expected=(BOOL, BOOL))
    assert strip_ann(tr.final) == strip_ann(expect)

    start, script, expect = derivation_wi_to_w7()
    tr = replay(start, script, expected=(ONE_T, ONE_T))
    assert strip_ann(tr.final) == strip_ann(expect)


def test_replay_steps_are_catalog_rules():
    for fn in (derivation_s_s_to_z, derivation_vi_to_v_x, derivation_wi_to_w7):
        _, script, _ = fn()
        for name, _, _ in script:
            assert name in RULES


def test_check_equiv_examples():
    sw = parse_circuit("qubits 3\ncsx 1 2\ncx 0 1\ncsxdg 1 2\ncx 0 1\ncsx 0 2\n")
    assert check_equiv(compile_circuit(sw), named_gate("ccx")).kind == "equal"
    sh3 = seq(s_gate(), h_gate(), s_gate(), h_gate(), s_gate(), h_gate())
    v = check_equiv(sh3, identity2(), "up_to_omega_power")
    assert (v.kind, v.phase) == ("equal_with_phase", 1)
    assert check_equiv(x_gate(), z_gate()).kind == "not_equal"


def identity2():
    from sqrtpi.gates import identity_at

    return identity_at(BOOL)


def _random_gate_chain(rng):
    names = ["x", "z", "s", "sdg", "t", "tdg", "h", "k", "v", "vdg"]
    n = rng.randint(2, 8)
    parts = []
    for _ in range(n):
        pick = rng.random()
        if pick < 0.15:
            parts.append(Prim("id"))
        else:
            parts.append(named_gate(rng.choice(names)))
    return seq(*parts)


def _trace_digest(trace) -> str:
    """Digest of every step (rule, path, direction, phase, term_after) and
    the omega power of a trace; the start term is left out."""
    data = trace.to_json()
    del data["start"]
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()[:16]


def test_trace_soundness_on_random_runs():
    # trace_digests.json holds _trace_digest of each run below, recorded
    # while `;` was still a binary right-nested node: the traces must not
    # depend on how chains are represented
    path = os.path.join(os.path.dirname(__file__), "trace_digests.json")
    with open(path, encoding="utf-8") as f:
        pinned = json.load(f)
    digests = {"random_terms_seed43": [], "gate_chains_seed41": []}
    rng = random.Random(41)
    runs = 0
    for term, src, tgt in random_terms(seed=43, count=150):
        out, trace = simplify(term, budget=48, expected=(src, tgt))
        m0 = evaluate(term, (src, tgt))
        m1 = evaluate(out, (src, tgt))
        assert equal_matrices(m0, m1.times_omega_pow(trace.omega_power)).kind == "equal"
        digests["random_terms_seed43"].append(_trace_digest(trace))
        runs += 1
    for _ in range(150):
        term = _random_gate_chain(rng)
        out, trace = simplify(term, budget=48, expected=(BOOL, BOOL))
        m0 = evaluate(term, (BOOL, BOOL))
        m1 = evaluate(out, (BOOL, BOOL))
        assert equal_matrices(m0, m1.times_omega_pow(trace.omega_power)).kind == "equal"
        digests["gate_chains_seed41"].append(_trace_digest(trace))
        runs += 1
    assert runs == 300
    assert digests == {k: v for k, v in pinned.items() if k != LONG_CHAIN}


# trace_digests.json key of the `simplify` trace (64 steps, the CLI's default
# budget) of the 2-qubit `h 0; cx 0 1` circuit repeated 60 times, recorded
# before rules were dispatched through RuleIndex
LONG_CHAIN = "h0_cx01_x60_budget64"


def test_long_chain_trace_is_pinned():
    path = os.path.join(os.path.dirname(__file__), "trace_digests.json")
    with open(path, encoding="utf-8") as f:
        pinned = json.load(f)
    term = compile_circuit(parse_circuit("qubits 2\n" + "h 0\ncx 0 1\n" * 60))
    _, trace = simplify(term, budget=64)
    assert len(trace.steps) == 64
    assert [_trace_digest(trace)] == pinned[LONG_CHAIN]


def test_fallback_only_inverse_pair_traces_are_pinned():
    # linv◎l (`?c ; ?ci`) takes this chain only through the whole-window
    # fallback of _rewrite_node: its prefix match fails, and then ?ci absorbs
    # the rest of the window, `swap+ ; vi`.  The mirror is left unchanged,
    # because a leading metavariable cannot absorb a prefix window.  Both
    # traces are pinned as they are, so that a change to the fallback shows
    term = parse("(v ; swap+ : 2 <-> 2) ; swap+ ; vi")
    out, trace = simplify(term)
    assert out is Prim("id")
    assert trace.to_json() == {
        "start": "(v ; swap+ : 2 <-> 2) ; swap+ ; vi", "omega_power": 0,
        "steps": [{"rule": "linv◎l", "path": [], "direction": "forward", "phase": 0,
                   "term_after": "id"}],
    }
    mirror = parse("vi ; swap+ ; (swap+ ; v : 2 <-> 2)")
    out, trace = simplify(mirror)
    assert out is mirror
    assert trace.to_json() == {
        "start": "vi ; swap+ ; (swap+ ; v : 2 <-> 2)", "omega_power": 0, "steps": []}


def test_trace_json():
    _, trace = simplify(seq(Prim("id"), Prim("v")), expected=(BOOL, BOOL))
    data = trace.to_json()
    assert data["start"] == "id ; v"
    assert data["steps"][0]["rule"] == "idl◎l"
    assert data["omega_power"] == 0


def test_catalog_round_trip():
    db = rule_db()
    text = catalog_text(db)
    # the same rules in another order: a group first read in a later block
    head, *blocks = text.split("\n\nrule ")
    random.Random(5).shuffle(blocks)
    shuffled = head + "".join("\n\nrule " + b.rstrip("\n") for b in blocks) + "\n"
    by_name = {r.name: r for r in db}
    for source in (text, shuffled):
        loaded = load_catalog(source)
        assert sorted(r.name for r in loaded) == sorted(by_name)
        for b in loaded:
            a = by_name[b.name]
            assert (a.family, a.phase, a.oriented, a.normalizing, a.qubits) == (
                b.family, b.phase, b.oriented, b.normalizing, b.qubits)
            # every pattern loads to the built-in node itself
            assert b.lhs is a.lhs and b.rhs is a.rhs, a.name
            assert len(a.checks) == len(b.checks)
            for (al, ar), (bl, br) in zip(a.checks, b.checks):
                assert bl is al and br is ar, a.name
    assert catalog_text(load_catalog(shuffled)) != text
    assert catalog_text(load_catalog(text)) == text
    # loaded rules revalidate
    for r in load_catalog(text)[:10]:
        assert validate_rule(r).passed, r.name


def test_catalog_check_rules_output_matches_built_in(capsys, tmp_path, monkeypatch):
    from sqrtpi.cli import main

    assert main(["check-rules"]) == 0
    built_in = capsys.readouterr()
    path = tmp_path / "rules.txt"
    path.write_text(catalog_text(), encoding="utf-8")
    monkeypatch.setenv("SQRTPI_RULE_CATALOG", str(path))
    assert main(["check-rules"]) == 0
    loaded = capsys.readouterr()
    assert (loaded.out, loaded.err) == (built_in.out, built_in.err)


def test_catalog_duplicate_rule_name():
    text = catalog_text([r for r in rule_db() if r.name in ("E1", "E2")])
    with pytest.raises(CatalogError, match="^line 22: duplicate rule 'E1'$"):
        load_catalog(text + text.split("\n", 2)[2])


def test_catalog_rule_needs_a_name():
    text = catalog_text([RULES["E1"]]).replace("rule E1", "rule  ")
    with pytest.raises(CatalogError, match="^line 3: rule needs a name$"):
        load_catalog(text)


def test_catalog_side_condition_arity_is_checked():
    # a side line names the condition's variables or none; any other count
    # would reach the condition's function with the wrong arguments
    rules = [r for r in rule_db() if r.side is not None]
    text = catalog_text(rules)
    assert [r.side for r in load_catalog(text)] == [r.side for r in rules]
    plain = text.replace("side inverse_pair c ci\n", "side inverse_pair\n")
    assert [r.side.vars for r in load_catalog(plain)][0] == ("c", "ci")
    line = text.split("\n").index("side inverse_pair c ci") + 1
    for wrong in ("c", "c ci c"):
        bad = text.replace("side inverse_pair c ci\n", f"side inverse_pair {wrong}\n")
        with pytest.raises(CatalogError, match=(
                f"^line {line}: side condition 'inverse_pair' takes 2 variable\\(s\\), "
                f"not {len(wrong.split())}$")):
            load_catalog(bad)
    bad = text.replace("side involutive f\n", "side involutive f g\n")
    with pytest.raises(CatalogError, match="takes 1 variable"):
        load_catalog(bad)


def test_catalog_rejects_bad_version():
    with pytest.raises(Exception):
        load_catalog("something-else 9\n")


def test_d_rules_embed_by_conjugation():
    # X on components [2,4] of a 4-fold sum equals the swap(3,4)-conjugate of
    # X on [2,3]
    from sqrtpi.rules import conj_by_sum_swap, sum_type, x_at

    direct = conj_by_sum_swap(x_at(2, 4), 3, 4)
    four = sum_type(4)
    m = evaluate(direct, (four, four))
    # oracle permutation: swap basis components 2 and 4 (1-indexed)
    from sqrtpi.semantics import ExactMatrix

    assert m == ExactMatrix.permutation(4, [0, 3, 2, 1])


# --- rule dispatch --------------------------------------------------------------


def _brute_force_simplify(term, budget, expected):
    """simplify's greedy loop with no rule index: every oriented rule is tried
    at every position."""
    oriented = [r for r in rule_db() if r.oriented]
    decreasing = [r for r in oriented if not r.normalizing]
    normalizing = [r for r in oriented if r.normalizing]
    typed = typecheck(term, expected)
    ty = (typed.src, typed.tgt)
    t, steps, seen = term, [], {strip_ann(term)}

    def step(group, require_smaller):
        for path, node, k in iter_paths(t):
            for rule in group:
                new_node = _rewrite_node(node, k, rule.lhs, rule.rhs, rule.side)
                if new_node is None:
                    continue
                t2 = replace_at(t, path, new_node)
                if require_smaller and term_size(t2) >= term_size(t):
                    continue
                if not require_smaller and strip_ann(t2) in seen:
                    continue
                try:
                    typecheck(t2, ty)
                except TypeCheckError:
                    continue
                seen.add(strip_ann(t2))
                return RewriteStep(rule.name, path, "forward", rule.phase % 8, t2)
        return None

    while len(steps) < budget:
        found = step(decreasing, True) or step(normalizing, False)
        if found is None:
            break
        steps.append(found)
        t = found.term_after
    return t, RewriteTrace(term, tuple(steps))


def _demo_terms():
    files = os.path.join(os.path.dirname(__file__), "..", "demos", "files")
    for name in sorted(os.listdir(files)):
        with open(os.path.join(files, name), encoding="utf-8") as f:
            text = f.read()
        if name.endswith(".circ"):
            yield name, compile_circuit(parse_circuit(text))
        else:
            yield name, parse(text, expand_macros=True)


def test_index_gives_brute_force_traces():
    runs = []
    for term, src, tgt in random_terms(seed=43, count=150):
        runs.append((term, 48, (src, tgt)))
    rng = random.Random(41)
    runs += [(_random_gate_chain(rng), 48, (BOOL, BOOL)) for _ in range(150)]
    runs += [(term, 64, None) for _, term in _demo_terms()]
    steps = 0
    for term, budget, expected in runs:
        indexed = simplify(term, budget=budget, expected=expected)
        assert indexed == _brute_force_simplify(term, budget, expected)
        steps += len(indexed[1].steps)
    assert len(runs) == 309 and steps > 500


def _assert_index_exact(rules, term, want_hits=()):
    """At every position of term, the index offers, in rule order, every rule
    of the list that rewrites there."""
    def rewrites(node, k, r):
        try:
            return _rewrite_node(node, k, r.lhs, r.rhs, r.side) is not None
        except NoMatch:  # matched, but the RHS has a variable the LHS lacks
            return True

    index = RuleIndex(rules)
    hit_names = set()
    for _, node, k in iter_paths(term):
        hits = [r for r in rules if rewrites(node, k, r)]
        offered = index.candidates(node, k)
        assert [r for r in offered if r in hits] == hits
        assert list(offered) == [r for r in rules if r in offered]
        hit_names.update(r.name for r in hits)
    assert set(want_hits) <= hit_names, set(want_hits) - hit_names


def _two_pass_rewrite(node, k, lhs, rhs, side, windows):
    """The position (node, k) rewritten in two passes of the public match:
    the pattern against the prefix window of its length, keeping the tail,
    then against the whole window.  The oracle of _rewrite_node; windows
    caches the windows it builds, by (node, k, end)."""
    def bind(end):
        window = windows.get((node, k, end))
        if window is None:
            window = seq(*node.parts[k:end]) if isinstance(node, Seq) else node
            windows[node, k, end] = window
        b = match(lhs, window)
        return b if b is not None and (side is None or side.holds(b)) else None

    n = len(node.parts) if isinstance(node, Seq) else 0
    if isinstance(lhs, Seq) and k + len(lhs.parts) <= n:
        end = k + len(lhs.parts)
        b = bind(end)
        if b is not None:
            return seq(subst(rhs, b), *node.parts[end:])
    b = bind(n)
    return None if b is None else subst(rhs, b)


def _outcome(rewrite, *args):
    try:
        return rewrite(*args)
    except NoMatch as e:  # matched, but the pattern side lacks a variable
        return str(e)


def _probe(pattern, rhs):
    """A small stand-in for rhs that shows the whole binding of pattern and
    needs every variable that rhs needs: the same binding and tail give the
    same rewrite of rhs itself."""
    out = Prim("id")
    for name in sorted(_metavars(pattern) | _metavars(rhs), reverse=True):
        out = ProdC(MetaVar(name), out)
    return out


def test_one_pass_match_agrees_with_two_pass_reference():
    rng = random.Random(17)
    terms = [term for _, term in _demo_terms()]
    terms += [term for term, _, _ in random_terms(seed=43, count=150)]
    terms += [_random_gate_chain(rng) for _ in range(150)]
    terms += [_reannotate(rng, term) for term in terms[-300:]]
    terms.append(parse("(v ; swap+ : 2 <-> 2) ; swap+ ; vi"))
    sides = [(r.lhs, _probe(r.lhs, r.rhs), r.side) for r in rule_db()]
    # apply_rule's backward direction uses the rhs as the pattern
    sides += [(r.rhs, _probe(r.rhs, r.lhs), r.side) for r in rule_db()]
    # a trailing variable bound before it, and an annotated chain pattern
    for text in ("?c ; ?c", "?c ; ?d ; ?c", "(?c ; ?d : 2 <-> 2)", "(?c ; id : 2 <-> 2)"):
        pat = parse(text, allow_metavars=True)
        sides.append((pat, _probe(pat, pat), None))
    # interned nodes: a position that recurs is the same (node, k) pair
    positions = dict.fromkeys((node, k) for term in terms for _, node, k in iter_paths(term))
    windows, hits = {}, 0
    for node, k in positions:
        for lhs, rhs, side in sides:
            want = _outcome(_two_pass_rewrite, node, k, lhs, rhs, side, windows)
            assert _outcome(_rewrite_node, node, k, lhs, rhs, side) == want, (
                pretty(node), k, pretty(lhs))
            hits += want is not None
    assert len(positions) > 3000 and hits > 20_000, (len(positions), hits)


def test_chain_prefix_is_matched_once_per_position(monkeypatch):
    # the first m-1 parts of a pattern chain meet the window once at each
    # position, also when the last part then absorbs the rest of the window
    entered = collections.Counter()
    real = rewrite._match

    def counting(pat, term, *rest):
        entered[pat, term] += 1
        return real(pat, term, *rest)

    monkeypatch.setattr(rewrite, "_match", counting)
    absorbing = parse("(v ; swap+ : 2 <-> 2) ; swap+ ; vi")
    rng = random.Random(5)
    terms = [absorbing, *(term for _, term in _demo_terms())]
    terms += [_random_gate_chain(rng) for _ in range(50)]
    positions = dict.fromkeys((node, k) for term in terms
                              for _, node, k in iter_paths(term) if isinstance(node, Seq))
    rules = [(r.lhs, r.rhs, r.side) for r in rule_db()]
    rules += [(r.rhs, r.lhs, r.side) for r in rule_db()]
    pairs = 0
    for node, k in positions:
        for lhs, rhs, side in rules:
            if not isinstance(lhs, Seq) or k + len(lhs.parts) > len(node.parts):
                continue
            prefix = list(zip(lhs.parts[:-1], node.parts[k:]))
            entered.clear()
            b = {}  # one pass: the prefix, then the last part on the next chain part
            if all(counting(p, t, b) for p, t in prefix):
                counting(lhs.parts[-1], node.parts[k + len(prefix)], b)
            once = dict(entered)
            entered.clear()
            try:
                _rewrite_node(node, k, lhs, rhs, side)
            except NoMatch:
                pass
            for pair in prefix:
                assert entered[pair] == once.get(pair, 0), (pretty(node), k, pretty(lhs))
            pairs += len(prefix)
    assert pairs > 10_000
    entered.clear()
    assert _rewrite_node(absorbing, 0, RULES["linv◎l"].lhs, Prim("id"), RULES["linv◎l"].side)
    assert entered[MetaVar("c"), absorbing.parts[0]] == 1


def test_index_is_exact_on_catalog_and_demos():
    for name, term in _demo_terms():
        _assert_index_exact(rule_db(), term)


def test_index_annotated_chain_first_part():
    # cz's first part is an annotated chain (dist ; ... : ...), so A7's key is
    # (Seq, Seq); a chain starting with the bare primitive must not offer it
    cz = named_gate("cz")
    assert _key(RULES["A7"].lhs) == (Seq, Seq)
    _assert_index_exact(rule_db(), seq(cz, cz), want_hits=("A7", "gates_ix"))
    bare = seq(*strip_ann(cz).parts, *strip_ann(cz).parts)
    assert RULES["A7"] not in RuleIndex(rule_db()).candidates(bare, 0)


def test_index_annotated_prim_term_part():
    v = Ann(Prim("v"), BOOL, BOOL)
    term = seq(v, Prim("vi"), Ann(Prim("v"), BOOL, BOOL), Prim("v"))
    assert _key(term, 0) == (Seq, "v")
    _assert_index_exact(rule_db(), term, want_hits=("E2", "linv◎l"))
    _assert_index_exact(rule_db(), Ann(seq(Prim("v"), Prim("v")), BOOL, BOOL),
                        want_hits=("E2",))


def test_index_bare_metavariable_lhs():
    anything = RewriteRule("anything", "test", MetaVar("x"),
                           seq(MetaVar("x"), Prim("id")), oriented=True)
    rules = [RULES["E2"], anything, RULES["idr◎l"], RULES["bifunct⊕"]]
    index = RuleIndex(rules)
    term = seq(Prim("v"), SumC(Prim("w"), Prim("v")), Prim("v"), Prim("id"))
    for _, node, k in iter_paths(term):
        assert anything in index.candidates(node, k)
    _assert_index_exact(rules, term, want_hits=("anything", "idr◎l"))
    _assert_index_exact(rules, SumC(Prim("w"), seq(Prim("v"), Prim("v"))),
                        want_hits=("anything", "E2"))


# --- the inverse_pair side condition ----------------------------------------------


def _inverse_oracle(a, c):
    return strip_ann(invert(a)) == strip_ann(c)


def _reannotate(rng, t):
    """t with annotations put around random parts and runs of chain parts
    (their types are never checked, so any will do)."""
    if isinstance(t, Seq):
        parts = [_reannotate(rng, p) for p in t.parts]
        i = rng.randrange(len(parts))
        j = rng.randint(i + 1, len(parts))
        if j - i > 1 and rng.random() < 0.6:
            parts[i:j] = [Ann(seq(*parts[i:j]), ONE_T, ONE_T)]
        t = seq(*parts)
    elif isinstance(t, (SumC, ProdC)):
        t = type(t)(_reannotate(rng, t.left), _reannotate(rng, t.right))
    return Ann(t, BOOL, BOOL) if rng.random() < 0.15 else t


def _mutate(rng, t):
    """t with one primitive renamed, or one chain part dropped or doubled."""
    if isinstance(t, Prim):
        return Prim(rng.choice([p for p in PRIMITIVES if p != t.name]))
    if isinstance(t, Seq):
        parts, i = list(t.parts), rng.randrange(len(t.parts))
        pick = rng.random()
        if pick < 0.2:
            del parts[i]
        elif pick < 0.4:
            parts.insert(i, parts[i])
        else:
            parts[i] = _mutate(rng, parts[i])
        return seq(*parts)
    if rng.random() < 0.5:
        return type(t)(_mutate(rng, t.left), t.right)
    return type(t)(t.left, _mutate(rng, t.right))


def test_inverse_check_matches_oracle():
    rng = random.Random(7)
    terms = [t for t, _, _ in random_terms(seed=59, count=2600, max_depth=5)]
    pairs = []
    for a, b in zip(terms, terms[1:]):
        inv = invert(a)
        pairs += [(a, inv), (a, _mutate(rng, inv)), (a, b), (a, a)]
    pairs = [(_reannotate(rng, a), _reannotate(rng, c)) for a, c in pairs]
    assert len(pairs) >= 10000
    agreed = inverses = 0
    for a, c in pairs:
        for x, y in ((a, c), (c, a)):
            want = _inverse_oracle(x, y)
            assert _is_syntactic_inverse(x, y) == want, (pretty(x), pretty(y))
            inverses += want
            agreed += 1
    assert agreed == 2 * len(pairs)
    assert len(pairs) // 2 < inverses < len(pairs)  # both outcomes are common
    # the flipped side condition of rinv◎l agrees with the oracle too
    flip = RULES["rinv◎l"].side
    for a, c in pairs[:2000]:
        assert flip.holds({"ci": c, "c": a}) == _inverse_oracle(a, c)
