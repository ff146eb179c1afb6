import hashlib
import json
import os
import random

import pytest

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
from sqrtpi.lang import BOOL, ONE_T, Prim, SumC, pretty, seq, strip_ann
from sqrtpi.rewrite import (
    NoMatch,
    PathInvalid,
    RewriteRule,
    apply_rule,
    catalog_text,
    check_equiv,
    load_catalog,
    match,
    replay,
    rule_db,
    rules_by_name,
    simplify,
    subterm,
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
    assert digests == pinned


def test_trace_json():
    _, trace = simplify(seq(Prim("id"), Prim("v")), expected=(BOOL, BOOL))
    data = trace.to_json()
    assert data["start"] == "id ; v"
    assert data["steps"][0]["rule"] == "idl◎l"
    assert data["omega_power"] == 0


def test_catalog_round_trip():
    db = rule_db()
    text = catalog_text(db)
    loaded = load_catalog(text)
    assert len(loaded) == len(db)
    for a, b in zip(db, loaded):
        assert a.name == b.name
        assert a.family == b.family
        assert a.phase == b.phase
        assert strip_ann(a.lhs) == strip_ann(b.lhs)
        assert strip_ann(a.rhs) == strip_ann(b.rhs)
        assert len(a.checks) == len(b.checks)
    # loaded rules revalidate
    for r in loaded[:10]:
        assert validate_rule(r).passed, r.name


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
