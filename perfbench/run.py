#!/usr/bin/env python3
"""sqrtpi benchmark: closed-loop CLI workloads with per-layer tracing.

    python3 perfbench/run.py --workload equiv_wide --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30

One client in one process sends each op after the previous one finishes.
Every op is ``sqrtpi.cli.main(argv)`` called in-process with stdout
captured, and every result is checked against an answer known without the
code under test.  A fixed reference loop (``calibrate.py``) runs before,
during and after each op, and op times are reported as multiples of its
time, which a host slowdown leaves alone.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1``
prints the per-layer metrics of a traced pass, the exact-ring counts of a
separate counting pass and the tracing overhead.  The last line of output is
one JSON object: correct, attempted, failed and metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import calibrate  # noqa: E402  (HERE is on sys.path when run as a script)
import tracing  # noqa: E402
import workloads  # noqa: E402
from refterms import count_atoms  # noqa: E402

SETUP_FIRST = 3  # fresh interpreters timed before the loop
SETUP_GAP = 1.0  # then one more after any op that ends this many seconds later
MIN_TAIL_BEYOND = 10

# Runs in a fresh interpreter: what every CLI process pays before its
# command starts.
SETUP_CODE = """
import time
t0 = time.perf_counter()
import json, sys
sys.path.insert(0, sys.argv[1])
import sqrtpi, sqrtpi.cli
t1 = time.perf_counter()
from sqrtpi.gates import gate_macros
gate_macros()
t2 = time.perf_counter()
from sqrtpi.rewrite import rule_db
rule_db()
t3 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "gates.gate_macros.busy_s": t2 - t1,
                  "rules.build_rules.busy_s": t3 - t2, "setup_s": t3 - t0}))
"""

END_TO_END = [("setup_s", "s"), ("ops_per_kref", "1/kref"), ("op_p50_ref", "ref"),
              ("op_tail_ref", "ref"), ("peak_rss_mb", "MB")]


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in report order."""
    out = [("import_s", "s"), ("gates.gate_macros.busy_s", "s"),
           ("rules.build_rules.busy_s", "s"), ("cli.self_s", "s")]
    for layer, fields in LAYER_FIELDS:
        out += [(f"{layer}.{f}", UNITS.get(f, "count")) for f in fields]
    out += [("semantics.result_entries", "count"), ("semantics.result_nnz", "count"),
            ("exactnum.mul_calls", "count"), ("exactnum.bool_calls", "count"),
            ("exactnum.useful_ratio", "ratio"),
            ("rewrite.simplify.self_s", "s"), ("rewrite.simplify.steps", "count"),
            ("rewrite.simplify.typecheck_calls", "count"),
            ("rewrite.simplify.accept_ratio", "ratio"),
            ("rewrite.simplify.size_in", "count"), ("rewrite.simplify.size_out", "count"),
            ("trace.ops", "count"), ("trace.untraced_s", "s"), ("trace.traced_s", "s"),
            ("trace.overhead_pct", "%")]
    return out


LAYER_FIELDS = [
    ("lang.parse", ("calls", "busy_s")),
    ("lang.typecheck", ("calls", "busy_s", "union_s")),
    ("circuits.parse_circuit", ("calls", "busy_s")),
    ("circuits.compile_circuit", ("calls", "busy_s")),
    ("semantics.evaluate", ("calls", "busy_s", "union_s")),
    ("semantics.compose", ("calls", "busy_s", "dense_madds")),
    ("semantics.kronecker", ("calls", "busy_s")),
    ("semantics.direct_sum", ("calls", "busy_s")),
    ("semantics.equal_matrices", ("busy_s",)),
    ("rewrite.load_catalog", ("busy_s",)),
    ("rewrite.simplify", ("busy_s",)),
    ("rewrite.check_equiv", ("busy_s",)),
    ("rewrite.validate_rule", ("calls", "busy_s", "union_s", "instances")),
]
UNITS = {"busy_s": "s", "union_s": "s"}


# --- program under test -------------------------------------------------------


def load_cli():
    """Import sqrtpi from this checkout's src/, and nowhere else."""
    if not (SRC / "sqrtpi" / "__init__.py").is_file():
        sys.exit(f"perfbench: no sqrtpi sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import sqrtpi.cli

    if Path(sqrtpi.cli.__file__).resolve().parent.parent != SRC:
        sys.exit(f"perfbench: imported sqrtpi from {sqrtpi.cli.__file__}, not {SRC}")
    return sqrtpi.cli


def call_cli(cli, argv, catalog=None):
    """(exit code, stdout, stderr, start, end) of one in-process CLI call."""
    saved = os.environ.pop("SQRTPI_RULE_CATALOG", None)
    if catalog is not None:
        os.environ["SQRTPI_RULE_CATALOG"] = catalog
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = cli.main(argv)
            except SystemExit as e:  # argparse rejects its input this way
                rc = e.code if isinstance(e.code, int) else 2
            t1 = time.perf_counter()
    finally:
        os.environ.pop("SQRTPI_RULE_CATALOG", None)
        if saved is not None:
            os.environ["SQRTPI_RULE_CATALOG"] = saved
    return rc, out.getvalue(), err.getvalue(), t0, t1


class Runner:
    """Runs ops against the CLI and records time, output and failure."""

    def __init__(self, cli):
        self.cli = cli

    def text(self, argv):
        rc, out, _err, _t0, _t1 = call_cli(self.cli, argv)
        return rc, out

    def run(self, op, tracer=None):
        """Runs op with reference-loop samples before, during and after it.

        The samples taken during the op are left out of its time `dt`;
        `ref` is `dt` over the mean sample time.
        """
        before = calibrate.sample()
        with calibrate.Sampler() as sampler:
            t0 = time.perf_counter()
            try:
                with tracer.op() if tracer else contextlib.nullcontext():
                    rc, out, err, t0, t1 = call_cli(self.cli, op.argv, op.catalog)
                problem = op.expect(rc, out)
                if problem and err:
                    problem += f"; stderr: {err.strip().splitlines()[-1]}"
            except Exception as e:  # any crash, RecursionError included, is a failed op
                t1, out, problem = time.perf_counter(), "", f"{type(e).__name__}: {e}"
        inside = sampler.within(t0, t1)
        samples = [before, calibrate.sample()] + inside
        dt = t1 - t0 - sum(inside)
        ref = dt * len(samples) / sum(samples)
        return {"op": op, "dt": dt, "ref": ref, "out": out, "error": problem}

    def deferred(self, records) -> None:
        """Reference checks, run after timing so they never slow an op."""
        for rec in records:
            check = rec["op"].deferred
            if check is None or rec["error"]:
                continue
            try:
                rec["error"] = check(rec["out"], self.text)
            except Exception as e:  # a malformed output fails its op
                rec["error"] = f"reference check: {type(e).__name__}: {e}"


# --- measurement ------------------------------------------------------------------


class SetupTimer:
    """Set-up time of fresh interpreters, each split reported as a median.

    The machine's speed drifts over seconds, so samples are taken between
    rounds across the whole run rather than in one burst at the start.
    """

    def __init__(self):
        self.samples: list[dict] = []
        self.last = 0.0

    def due(self) -> None:
        """Takes a sample if SETUP_GAP seconds have passed since the last."""
        if time.perf_counter() - self.last >= SETUP_GAP:
            self.sample()

    def sample(self) -> None:
        proc = subprocess.run([sys.executable, "-I", "-c", SETUP_CODE, str(SRC)],
                              capture_output=True, text=True, timeout=120, check=True)
        self.samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        self.last = time.perf_counter()

    def median(self, key: str) -> float:
        return statistics.median(s[key] for s in self.samples)


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with 10 samples beyond it."""
    xs = sorted(times)
    k = max(1, len(xs) - MIN_TAIL_BEYOND)
    return xs[k - 1], 100.0 * k / len(xs)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def summary(records) -> tuple[int, int]:
    failed = sum(1 for r in records if r["error"])
    return len(records), failed


def closed_loop(wl, runner, seconds: float, between) -> list:
    """Whole rounds until `seconds` have passed; returns the op records.

    `between` runs after each op, outside its timing.
    """
    records, r = [], 0
    start = time.perf_counter()
    while r == 0 or time.perf_counter() - start < seconds:
        for op in wl.round(r):
            records.append(runner.run(op))
            between()
        r += 1
    return records


def untraced_run(wl, runner, seconds: float, setup) -> tuple[dict, list, list]:
    records = closed_loop(wl, runner, seconds, setup.due)
    rss = peak_rss_mb()  # before the reference checks load numpy
    runner.deferred(records)
    attempted, failed = summary(records)
    refs = [rec["ref"] for rec in records]
    tail_ref, pct = tail(refs)
    metrics = {
        "setup_s": setup.median("setup_s"),
        "ops_per_kref": 1000.0 * (attempted - failed) / sum(refs),
        "op_p50_ref": statistics.median(refs),
        "op_tail_ref": tail_ref,
        "peak_rss_mb": rss,
    }
    row = [f"{wl.name:<12}"]
    for name, unit in END_TO_END:
        row.append(f"{name}={metrics[name]:.4g} {unit}")
        if name == "op_tail_ref":
            row[-1] += f" (p{pct:.0f}, n={len(refs)})"
    row.insert(-1, f"error_rate={failed / attempted:.4f} ({failed}/{attempted})")
    times = [rec["dt"] for rec in records]
    loop_ms = statistics.median(rec["dt"] / rec["ref"] for rec in records) * 1000.0
    notes = ["  ".join(row),
             f"  wall time: ops_per_s={(attempted - failed) / sum(times):.4g} 1/s"
             f"  op_p50_ms={statistics.median(times) * 1000.0:.4g} ms"
             f"  op_tail_ms={tail(times)[0] * 1000.0:.4g} ms"
             f"  reference loop={loop_ms:.4g} ms (median)"]
    tags: dict[str, int] = {}
    for rec in records:
        key = rec["op"].info.get("verdict")
        if key:
            tags[key] = tags.get(key, 0) + 1
    if tags:
        notes.append("  verdict share: " + "  ".join(
            f"{k}={v / attempted:.2f}" for k, v in sorted(tags.items())))
    notes += [f"  FAILED {rec['op'].tag} {' '.join(rec['op'].argv)}: {rec['error']}"
              for rec in records if rec["error"]][:10]
    return metrics, notes, records


def traced_run(wl, runner, seconds: float, setup) -> tuple[dict, list, list]:
    """Pairs of untraced and traced passes over round 0, then a counting pass.

    Round 0 is fixed by the seed, so every counter repeats exactly across
    runs; times are per pass, averaged over as many pairs as fit.
    """
    ops = wl.round(0)
    records, first = [], None
    untraced = traced = untraced_ref = traced_ref = 0.0
    passes, tracers = 0, []
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        recs = [runner.run(op) for op in ops]
        first = first or recs  # the outputs the reference checks
        tracer = tracing.Tracer()
        tracer.install()
        try:
            trecs = [runner.run(op, tracer) for op in ops]
        finally:
            tracer.uninstall()
        untraced += sum(r["dt"] for r in recs)
        traced += sum(r["dt"] for r in trecs)
        untraced_ref += sum(r["ref"] for r in recs)
        traced_ref += sum(r["ref"] for r in trecs)
        tracers.append(tracer)
        records += recs + trecs
        passes += 1
        setup.sample()
    counter = tracing.Counter()
    counter.install()
    try:
        records += [runner.run(op) for op in ops]
    finally:
        counter.uninstall()
    runner.deferred(first)

    stats = [tracing.layer_stats(t.spans) for t in tracers]
    exact = [{layer: {k: v for k, v in st.items() if not k.endswith("_s")}
              for layer, st in s.items()} for s in stats]
    if any(e != exact[0] for e in exact[1:]):
        records.append({"op": ops[0], "dt": 0.0, "out": "",
                        "error": "layer counters differ between passes"})

    def avg(layer, field):
        return sum(s.get(layer, {}).get(field, 0) for s in stats) / passes

    m: dict[str, float] = {k: setup.median(k) for k in
                           ("import_s", "gates.gate_macros.busy_s", "rules.build_rules.busy_s")}
    m["cli.self_s"] = sum(tracing.self_times(t.spans, tracing.ROOT) for t in tracers) / passes
    for layer, fields in LAYER_FIELDS:
        for f in fields:
            m[f"{layer}.{f}"] = avg(layer, f)
    m["semantics.result_entries"] = avg("semantics.evaluate", "result_entries")
    m["semantics.result_nnz"] = avg("semantics.evaluate", "result_nnz")
    mul, bools = counter.values.get("__mul__", 0), counter.values.get("__bool__", 0)
    m["exactnum.mul_calls"], m["exactnum.bool_calls"] = mul, bools
    m["exactnum.useful_ratio"] = mul / bools if bools else 0.0

    spans0 = tracers[0].spans
    m["rewrite.simplify.self_s"] = sum(
        tracing.self_times(t.spans, "rewrite.simplify") for t in tracers) / passes
    steps = size_in = size_out = 0
    for rec in first:
        if rec["op"].argv[0] == "simplify" and not rec["error"]:
            trace = json.loads(rec["out"])
            steps += len(trace["steps"])
            size_in += count_atoms(trace["start"])
            final = trace["steps"][-1]["term_after"] if trace["steps"] else trace["start"]
            size_out += count_atoms(final)
    tc = tracing.calls_under(spans0, "lang.typecheck", "rewrite.simplify")
    candidates = tc - exact[0].get("rewrite.simplify", {}).get("calls", 0)
    m["rewrite.simplify.steps"] = steps
    m["rewrite.simplify.typecheck_calls"] = tc
    m["rewrite.simplify.accept_ratio"] = steps / candidates if candidates > 0 else 0.0
    m["rewrite.simplify.size_in"], m["rewrite.simplify.size_out"] = size_in, size_out
    m["trace.ops"] = len(ops)
    m["trace.untraced_s"], m["trace.traced_s"] = untraced / passes, traced / passes
    # in reference-loop units, so a host slowdown during one kind of pass
    # does not pass for tracing cost
    m["trace.overhead_pct"] = 100.0 * (traced_ref / untraced_ref - 1.0)

    absent = tracers[0].absent + counter.absent + sorted(tracers[0].broken)
    notes = [f"  {name:<36} {m[name]:>14.6g} {unit}" for name, unit in per_layer_names()]
    notes.append(f"  tracing overhead {m['trace.overhead_pct']:.1f}% over {passes} pass(es)"
                 f" of {len(ops)} ops ({m['trace.traced_s']:.3f} s traced vs"
                 f" {m['trace.untraced_s']:.3f} s untraced)")
    notes += [f"  absent: {a} (reported as 0)" for a in absent]
    notes += [f"  FAILED {rec['op'].tag}: {rec['error']}" for rec in records if rec["error"]][:10]
    return m, notes, records


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    cli = load_cli()
    workdir = HERE / ".work" / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup = SetupTimer()
        for _ in range(SETUP_FIRST):
            setup.sample()
        runner = Runner(cli)
        wl = workloads.WORKLOADS[name](seed, str(workdir))
        wl.prepare(runner.text)
        for op in wl.warmup():
            runner.run(op)
        run = traced_run if trace else untraced_run
        metrics, notes, records = run(wl, runner, seconds, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left alone while another run uses it
            workdir.parent.rmdir()
    attempted, failed = summary(records)
    units = dict(per_layer_names() if trace else END_TO_END)
    if trace:
        print(f"{name} (seed {seed}, traced)")
    print("\n".join(notes))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, so peak RSS is its own."""
    status = 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True)
        lines = proc.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]) if proc.returncode == 0 else proc.stdout, end="\n")
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            status = proc.returncode
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
