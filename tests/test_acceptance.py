"""Acceptance suite: one test per criterion, every check exact.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion.
"""

import random

from sqrtpi.circuits import compile_circuit, parse_circuit, place
from sqrtpi.exactnum import IMAG, INV_SQRT2, ONE, ZERO, DyadicCyclotomic, omega_pow
from sqrtpi.gates import (
    ctrl,
    gate_macros,
    h_gate,
    named_gate,
    omega_term,
    s_gate,
    x_gate,
)
from sqrtpi.lang import BOOL, ONE_T, Prim, dimension, invert, seq, strip_ann, typecheck
from sqrtpi.rewrite import (
    check_equiv,
    replay,
    rule_db,
    rules_by_name,
    simplify,
    validate_rule,
)
from sqrtpi.rules import (
    derivation_s_s_to_z,
    derivation_vi_to_v_x,
    derivation_wi_to_w7,
)
from sqrtpi.semantics import (
    ExactMatrix,
    adjoint,
    compose,
    equal_matrices,
    evaluate,
    kronecker,
)
from termgen import random_terms
from test_rewrite import _random_gate_chain
from test_semantics import _as_matrix, _fold_eval
from test_circuits import classical_pairs


def _report(n: int, label: str) -> None:
    print(f"[criterion {n}] {label}: PASS")


def dc(n0, n1=0, n2=0, n3=0, k=0):
    return DyadicCyclotomic.from_coeffs((n0, n1, n2, n3), k)


def mat_of(rows):
    return ExactMatrix(len(rows), len(rows[0]), [e for r in rows for e in r])


I2 = ExactMatrix.identity(2)


def test_criterion_1_axiom_suite():
    # (E1) w^8 = id
    assert evaluate(seq(*[Prim("w")] * 8), (ONE_T, ONE_T)) == ExactMatrix.identity(1)
    # (E2) v^2 = swap+
    v = evaluate(Prim("v"))
    assert compose(v, v) == evaluate(Prim("swap+"), (BOOL, BOOL))
    # (E3) V . S . V = w^2 . (S . V . S) with S = id + w^2
    s = evaluate(s_gate())
    assert compose(v, compose(s, v)) == compose(s, compose(v, s)).times_omega_pow(2)
    _report(1, "axiom suite E1, E2, E3 exact")


def test_criterion_2_printed_matrix_fidelity():
    assert evaluate(named_gate("x")) == mat_of([[ZERO, ONE], [ONE, ZERO]])
    assert evaluate(named_gate("z")) == mat_of([[ONE, ZERO], [ZERO, dc(-1)]])
    assert evaluate(named_gate("s")) == mat_of([[ONE, ZERO], [ZERO, IMAG]])
    t_entry = (ONE + IMAG) * INV_SQRT2
    assert evaluate(named_gate("t")) == mat_of([[ONE, ZERO], [ZERO, t_entry]])
    assert evaluate(named_gate("h")) == mat_of(
        [[INV_SQRT2, INV_SQRT2], [INV_SQRT2, -INV_SQRT2]]
    )
    assert evaluate(named_gate("cx")) == ExactMatrix.permutation(4, [0, 1, 3, 2])

    a, b = dc(-1, 0, 1, k=1), dc(-1, 0, -1, k=1)  # (-1+i)/2 and (-1-i)/2
    csx = mat_of(
        [
            [ONE, ZERO, ZERO, ZERO],
            [ZERO, ONE, ZERO, ZERO],
            [ZERO, ZERO, a, b],
            [ZERO, ZERO, b, a],
        ]
    )
    csxdg = mat_of(
        [
            [ONE, ZERO, ZERO, ZERO],
            [ZERO, ONE, ZERO, ZERO],
            [ZERO, ZERO, b, a],
            [ZERO, ZERO, a, b],
        ]
    )
    assert evaluate(named_gate("csx")) == csx
    assert evaluate(named_gate("csxdg")) == csxdg

    # the five-gate product, with each placement built here from scratch
    # (independent of the circuits module)
    def on_bottom_pair(m):  # wires (1, 2) of 3
        return kronecker(I2, m)

    def on_top_pair(m):  # wires (0, 1) of 3
        return kronecker(m, I2)

    def ctrl0_target2(u):  # control wire 0, target wire 2, middle untouched
        ent = [ZERO] * 64
        for b0 in range(2):
            for b1 in range(2):
                for c in range(2):
                    col = (b0 << 2) | (b1 << 1) | c
                    if b0 == 0:
                        ent[col * 8 + col] = ONE
                    else:
                        for r in range(2):
                            row = (b0 << 2) | (b1 << 1) | r
                            ent[row * 8 + col] = u[r, c]
        return ExactMatrix(8, 8, ent)

    vmat = evaluate(Prim("v"))
    cx = evaluate(named_gate("cx"))
    product = ExactMatrix.identity(8)
    for step in (
        on_bottom_pair(csx),
        on_top_pair(cx),
        on_bottom_pair(csxdg),
        on_top_pair(cx),
        ctrl0_target2(vmat),
    ):
        product = compose(step, product)
    toffoli_printed = ExactMatrix.permutation(8, [0, 1, 2, 3, 4, 5, 7, 6])
    assert product == toffoli_printed
    _report(2, "printed X/Z/S/T/H/CX, CSX/CSXdg, and the 8x8 product")


def test_criterion_3_sleator_weinfurter():
    circuit = parse_circuit(
        "qubits 3\ncsx 1 2\ncx 0 1\ncsxdg 1 2\ncx 0 1\ncsx 0 2\n"
    )
    verdict = check_equiv(compile_circuit(circuit), ctrl(ctrl(x_gate())))
    assert verdict.kind == "equal"
    _report(3, "compiled circuit strictly equals the doubly-controlled not")


def test_criterion_4_rule_families_all_validate():
    db = rule_db()
    required = {
        "A": 20, "B": 4, "D": 19, "P": 6,
        "gates": 11, "mat": 10, "had": 2, "ctrlh": 5, "nctrl": 2,
        "swapassoc": 1,
    }
    counts = {}
    for rule in db:
        counts[rule.family] = counts.get(rule.family, 0) + 1
        report = validate_rule(rule)
        assert report.passed, (rule.name,
                               [r.detail for r in report.results if not r.ok])
        for lhs, _ in rule.checks:
            assert dimension(typecheck(lhs).src) <= 16, rule.name
        # phase-carrying rules must report exactly the declared omega power
        if rule.phase:
            for lhs, rhs in rule.checks:
                tl = typecheck(lhs)
                v = equal_matrices(
                    evaluate(tl),
                    evaluate(typecheck(rhs, (tl.src, tl.tgt))),
                    "up_to_omega_power",
                )
                assert (v.kind, v.phase) == ("equal_with_phase", rule.phase), rule.name
    for family, expected in required.items():
        assert counts.get(family, 0) == expected, family
    by_name = rules_by_name()
    assert by_name["A6"].phase == 1 and by_name["A15"].phase == 1
    _report(4, f"all {len(db)} catalog rules validate at every instantiation")


def test_criterion_5_structural_properties():
    count = 0
    for term, src, tgt in random_terms(seed=101, count=500):
        typed = typecheck(term, (src, tgt))
        m = evaluate(typed)
        n = m.rows
        assert compose(m, adjoint(m)) == ExactMatrix.identity(n)
        inv_typed = typecheck(invert(term), (tgt, src))
        assert (inv_typed.src, inv_typed.tgt) == (tgt, src)
        assert evaluate(inv_typed) == adjoint(m)
        assert _as_matrix(_fold_eval(typed), m.rows, m.cols) == m
        count += 1
    assert count == 500
    _report(5, "unitarity, inversion, and functoriality on 500 random terms")


def test_criterion_6_circuit_oracle():
    one_qubit = [name for name, m in gate_macros().items() if m.qubits == 1]
    checked = 0
    for n in range(1, 5):
        for w in range(n):
            for gate in one_qubit:
                g = evaluate(named_gate(gate))
                oracle = g
                for i in range(n):
                    if i == w:
                        continue
                    oracle = kronecker(ExactMatrix.identity(2), oracle) if i < w \
                        else kronecker(oracle, ExactMatrix.identity(2))
                placed = evaluate(place(named_gate(gate), [w], n))
                assert placed == oracle, (gate, w, n)
                checked += 1
    assert checked == len(one_qubit) * (1 + 2 + 3 + 4)
    for i, (lhs, rhs) in enumerate(classical_pairs(), start=1):
        verdict = check_equiv(compile_circuit(lhs), compile_circuit(rhs))
        assert verdict.kind == "equal", f"P{i}"
    _report(6, "placement matches the Kronecker oracle; P1-P6 hold compiled")


def test_criterion_7_trace_soundness():
    rng = random.Random(59)
    runs = 0
    for term, src, tgt in random_terms(seed=61, count=150):
        out, trace = simplify(term, budget=48, expected=(src, tgt))
        m0 = evaluate(term, (src, tgt))
        m1 = evaluate(out, (src, tgt))
        assert equal_matrices(m0, m1.times_omega_pow(trace.omega_power)).kind == "equal"
        runs += 1
    for _ in range(150):
        term = _random_gate_chain(rng)
        out, trace = simplify(term, budget=48, expected=(BOOL, BOOL))
        m0 = evaluate(term, (BOOL, BOOL))
        m1 = evaluate(out, (BOOL, BOOL))
        assert equal_matrices(m0, m1.times_omega_pow(trace.omega_power)).kind == "equal"
        runs += 1
    assert runs == 300
    _report(7, "300 simplify traces endpoint-equal up to the recorded phase")


def test_criterion_8_derived_equation_replay():
    catalog = rules_by_name()
    cases = [
        (derivation_vi_to_v_x, (BOOL, BOOL)),
        (derivation_wi_to_w7, (ONE_T, ONE_T)),
        (derivation_s_s_to_z, (BOOL, BOOL)),
    ]
    for fn, expected_type in cases:
        start, script, expect = fn()
        for name, _, _ in script:
            assert name in catalog, name
        trace = replay(start, script, expected=expected_type)
        assert strip_ann(trace.final) == strip_ann(expect), fn.__name__
        # every intermediate step already typechecked; endpoints agree exactly
        m0 = evaluate(start, expected_type)
        m1 = evaluate(trace.final, expected_type)
        assert equal_matrices(m0, m1.times_omega_pow(trace.omega_power)).kind == "equal"
    _report(8, "inverse-combinator and s;s->z derivations replay from catalog rules")
