"""Tests of the benchmark itself: its reference, checks, tracing and output.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import json
import random
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import calibrate
import reference as ref
import refterms as rt
import run
import tracing
import workloads as W

BENCH = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


@pytest.fixture(scope="module")
def runner():
    return run.Runner(run.load_cli())


class Mini(W.Workload):
    """One small op of each workload kind, so traced runs take seconds."""

    name = "mini"

    def prepare(self, cli):
        self.equiv = W.EquivWide(self.seed, self.workdir)
        self.simp = W.Simplify(self.seed, self.workdir)

    def round(self, r):
        rng = self.rng(r)
        path = self.write(f"r{r}.circ", W.circuit_text(2, W.small_circuit(rng, 2, 6)))
        return [
            self.equiv.pair_op(rng, r, 0, 3, "phase", cross=True),
            self.equiv.pair_op(rng, r, 1, 3, "not_equal", cross=True),
            self.simp.circuit_op(path, 2, "circuit"),
            self.simp.term_op(rng, f"r{r}.term"),
            W.Op(["check-rules", "--family", "E"], "rules", W.expect_exit0),
        ]


def mini(tmp_path, seed=5):
    wl = Mini(seed, str(tmp_path))
    wl.prepare(None)
    return wl


class FixedSetup:
    """Stands in for run.SetupTimer so tests spawn no interpreters."""

    def sample(self):
        pass

    def due(self):
        pass

    def median(self, key):
        return 0.1


SETUP = FixedSetup()


def compiled(runner, tmp_path, gates, n):
    path = tmp_path / "c.circ"
    path.write_text(W.circuit_text(n, gates))
    rc, text = runner.text(["compile", str(path)])
    assert rc == 0
    return ref.evaluate(text)


def test_reference_matches_textbook_toffoli(runner, tmp_path):
    toffoli = np.eye(8)
    toffoli[[6, 7]] = toffoli[[7, 6]]
    assert np.allclose(compiled(runner, tmp_path, W.SW_CCX, 3), toffoli)


def test_reference_wire_zero_is_most_significant(runner, tmp_path):
    cx = np.eye(4)[[0, 1, 3, 2]]
    assert np.allclose(compiled(runner, tmp_path, [("cx", (0, 1))], 2), cx)
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    assert np.allclose(compiled(runner, tmp_path, [("h", (0,))], 1), h)


@pytest.mark.parametrize("kind", W.EQUIV_KINDS)
def test_constructed_verdicts_hold_in_the_reference(runner, tmp_path, kind):
    a, b, verdict = W.equiv_pair(random.Random(kind), 3, kind)
    ma, mb = compiled(runner, tmp_path, a, 3), compiled(runner, tmp_path, b, 3)
    assert ref.verdict(ma, mb, phase=True) == verdict


def test_reference_parses_annotations_and_compound_names():
    m = ref.evaluate("(swap+ : 2 <-> 2) ; (uniti*l ; unite*l : 2 <-> 2)")
    assert np.allclose(m, [[0, 1], [1, 0]])
    assert rt.tokenize("swap*+id") == ["swap*", "+", "id"]
    with pytest.raises(rt.TermError):
        rt.typed("swap+")  # polymorphic without a pinned type


def test_generated_terms_are_seeded_and_well_typed():
    a = [W.typed_term(random.Random(7), 5) for _ in range(3)]
    b = [W.typed_term(random.Random(7), 5) for _ in range(3)]
    assert a == b
    for text, src, tgt in a:
        rt.typed(text, src, tgt)


def test_wrong_expected_verdict_counts_as_failure(runner, tmp_path):
    class Wrong(W.Workload):
        name = "wrong"

        def round(self, r):
            a, b, _ = W.equiv_pair(self.rng(r), 3, "not_equal")
            pa = self.write("a.circ", W.circuit_text(3, a))
            pb = self.write("b.circ", W.circuit_text(3, b))
            return [W.Op(["equiv", pa, pb], "wrong", W.expect_verdict("equal"))]

    metrics, notes, records = run.untraced_run(Wrong(1, str(tmp_path)), runner, 0, SETUP)
    attempted, failed = run.summary(records)
    assert attempted == 1 and failed == 1
    assert any("FAILED" in line for line in notes)
    assert "error_rate=1.0000" in notes[0]


def test_unsound_trace_is_caught():
    check = W.trace_check(rt.TWO, rt.TWO, 64)
    bad = {"start": "v", "omega_power": 0, "steps": [
        {"rule": "x", "path": [], "direction": "forward", "phase": 0, "term_after": "vi"}]}
    assert "unsound" in check(json.dumps(bad), None)
    good = dict(bad, steps=[dict(bad["steps"][0], term_after="v ; id")])
    assert check(json.dumps(good), None) is None


def test_untraced_run_is_correct(runner, tmp_path):
    metrics, _notes, records = run.untraced_run(mini(tmp_path), runner, 0, SETUP)
    assert run.summary(records) == (5, 0)
    assert metrics["ops_per_kref"] > 0 and metrics["op_p50_ref"] > 0


def test_traced_counters_repeat_exactly(runner, tmp_path):
    exact = ("calls", "dense_madds", "instances", "mul_calls", "bool_calls",
             "steps", "result_nnz", "result_entries", "size_in", "size_out")
    runs = []
    for _ in range(2):
        metrics, _notes, records = run.traced_run(mini(tmp_path), runner, 0, SETUP)
        assert run.summary(records)[1] == 0
        runs.append({k: v for k, v in metrics.items() if k.split(".")[-1] in exact})
    assert runs[0] == runs[1]
    assert runs[0]["semantics.evaluate.calls"] > 0
    assert runs[0]["rewrite.simplify.steps"] > 0
    assert runs[0]["exactnum.bool_calls"] > 0


def test_absent_wrapper_target_is_reported_not_raised():
    t = tracing.Tracer(targets={"x.gone": [("sqrtpi.cli", "no_such_function")]})
    t.install()
    t.uninstall()
    assert t.absent == ["x.gone (sqrtpi.cli.no_such_function)"]
    c = tracing.Counter(target=("sqrtpi.exactnum", "NoSuchClass", ("__mul__",)))
    c.install()
    c.uninstall()
    assert c.absent == ["sqrtpi.exactnum.NoSuchClass.__mul__"]


def test_spans_from_pool_threads_hang_under_the_op():
    t = tracing.Tracer(targets={})
    work = t.wrap("layer", lambda: sum(range(10000)))
    with t.op():
        threads = [threading.Thread(target=work) for _ in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=10)
    assert not any(th.is_alive() for th in threads)
    root = next(s for s in t.spans if s.name == tracing.ROOT)
    layer = [s for s in t.spans if s.name == "layer"]
    assert len(layer) == 4 and all(s.parent == root.sid for s in layer)
    assert all(s.tid != root.tid for s in layer)
    st = tracing.layer_stats(t.spans)["layer"]
    assert st["union_s"] <= st["busy_s"] + 1e-12


def test_union_and_self_time():
    assert tracing.union_length([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4)
    spans = []
    for sid, name, t0, t1, parent in [(1, "p", 0.0, 10.0, None), (2, "c", 1.0, 4.0, 1),
                                      (3, "c", 3.0, 5.0, 1)]:
        s = tracing.Span(sid, name, t0, parent, 0, False)
        s.t1 = t1
        spans.append(s)
    assert tracing.self_times(spans, "p") == pytest.approx(6.0)


def test_sampler_samples_during_an_op_and_only_while_installed():
    with calibrate.Sampler(interval=0.01) as sampler:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.2:
            sum(range(1000))
        t1 = time.perf_counter()
    taken = len(sampler.spans)
    time.sleep(0.05)
    assert len(sampler.spans) == taken >= 5
    inside = sampler.within(t0, t1)
    assert inside and all(0 < d < t1 - t0 for d in inside)
    assert sampler.within(t1, t1 + 1) == []


def test_benchmark_json_matches_the_emitted_metrics():
    spec = json.loads(BENCH.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_names()
