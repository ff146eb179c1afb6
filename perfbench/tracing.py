"""Per-layer spans and counters, installed from outside the program.

Timing wrappers rebind public functions in the ``sqrtpi.cli``,
``sqrtpi.rewrite`` and ``sqrtpi.semantics`` namespaces, so every call from
one layer into the next records a span: name, start, end, the span that
caused it, and the thread it ran on.  Spans stay in memory and are reduced
to per-layer metrics when the pass ends.  A target that no longer exists is
reported as absent instead of failing the run.

The exact-arithmetic counters wrap ``DyadicCyclotomic.__mul__`` and
``__bool__``.  Those run millions of times per op, so they are installed in
a separate counting pass and never share a pass with the timed spans.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import threading
import time

# layer name -> (module, attribute) bindings that the wrapper replaces
TARGETS = {
    "lang.parse": [("sqrtpi.cli", "parse"), ("sqrtpi.rewrite", "parse")],
    "lang.typecheck": [("sqrtpi.cli", "typecheck"), ("sqrtpi.rewrite", "typecheck"),
                       ("sqrtpi.semantics", "typecheck")],
    "circuits.parse_circuit": [("sqrtpi.cli", "parse_circuit")],
    "circuits.compile_circuit": [("sqrtpi.cli", "compile_circuit")],
    "semantics.evaluate": [("sqrtpi.cli", "evaluate"), ("sqrtpi.rewrite", "evaluate")],
    "semantics.compose": [("sqrtpi.semantics", "compose")],
    "semantics.kronecker": [("sqrtpi.semantics", "kronecker")],
    "semantics.direct_sum": [("sqrtpi.semantics", "direct_sum")],
    "semantics.equal_matrices": [("sqrtpi.rewrite", "equal_matrices")],
    "rewrite.simplify": [("sqrtpi.cli", "simplify")],
    "rewrite.check_equiv": [("sqrtpi.cli", "check_equiv")],
    "rewrite.validate_rule": [("sqrtpi.cli", "validate_rule")],
    "rewrite.load_catalog": [("sqrtpi.cli", "load_catalog")],
}

ROOT = "cli.main"
COUNTED = ("sqrtpi.exactnum", "DyadicCyclotomic", ("__mul__", "__bool__"))


def _compose_madds(args, _result):
    a, b = args[0], args[1]
    return {"dense_madds": a.rows * a.cols * b.cols}


def _matrix_nnz(_args, m):
    # the documented JSON form, so the count survives a change of representation
    entries = m.to_json()["entries"]
    nnz = sum(1 for e in entries if any(e["c"][0::2]))
    return {"result_entries": len(entries), "result_nnz": nnz}


def _instances(_args, report):
    return {"instances": len(report.results)}


# layer -> function of (args, result) giving work counts for that span
COUNTS = {
    "semantics.compose": _compose_madds,
    "semantics.evaluate": _matrix_nnz,
    "rewrite.validate_rule": _instances,
}


class Span:
    __slots__ = ("sid", "name", "t0", "t1", "parent", "tid", "nested", "counts")

    def __init__(self, sid, name, t0, parent, tid, nested):
        self.sid, self.name, self.t0, self.parent = sid, name, t0, parent
        self.tid, self.nested = tid, nested
        self.t1 = t0
        self.counts = None


class Tracer:
    """Records spans while installed; ``op`` opens the root span of an op."""

    def __init__(self, targets=TARGETS, counts=COUNTS):
        self.targets, self.counts = targets, counts
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.broken: set[str] = set()   # layers whose count hook failed
        self._ids = itertools.count(1)  # next() on a count is atomic
        self._local = threading.local()
        self._root = None
        self._saved: list = []

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _open(self, name: str) -> Span:
        st = self._stack()
        # pool threads start with an empty stack; their parent is the op
        parent = st[-1].sid if st else (self._root.sid if self._root else None)
        nested = any(s.name == name for s in st)
        span = Span(next(self._ids), name, time.perf_counter(), parent,
                    threading.get_ident(), nested)
        st.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.t1 = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)  # list.append is atomic under the GIL

    def wrap(self, name: str, fn):
        hook = self.counts.get(name)

        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if hook is not None and name not in self.broken:
                try:
                    span.counts = hook(args, result)
                except (AttributeError, KeyError, TypeError, IndexError):
                    self.broken.add(name)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for name, binds in self.targets.items():
            wrapped = {}
            for mod_name, attr in binds:
                mod = importlib.import_module(mod_name)
                fn = getattr(mod, attr, None)
                if not callable(fn):
                    self.absent.append(f"{name} ({mod_name}.{attr})")
                    continue
                # one wrapper per function, shared by every namespace
                if id(fn) not in wrapped:
                    wrapped[id(fn)] = self.wrap(name, fn)
                self._saved.append((mod, attr, fn))
                setattr(mod, attr, wrapped[id(fn)])

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    @contextlib.contextmanager
    def op(self):
        """Root span of one op; spans on other threads hang under it."""
        self._root = self._open(ROOT)
        try:
            yield self._root
        finally:
            self._close(self._root)
            self._root = None


# --- reduction -----------------------------------------------------------------


def union_length(intervals) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans: list[Span], name: str) -> float:
    """Sum over spans of `name` of their duration not covered by children."""
    kids: dict = {}
    for s in spans:
        kids.setdefault(s.parent, []).append(s)
    total = 0.0
    for s in spans:
        if s.name != name:
            continue
        covered = [(max(k.t0, s.t0), min(k.t1, s.t1)) for k in kids.get(s.sid, ())]
        total += (s.t1 - s.t0) - union_length([c for c in covered if c[1] > c[0]])
    return total


def layer_stats(spans: list[Span]) -> dict[str, dict]:
    """calls, busy_s (outermost spans only), union_s and summed counts per layer."""
    out: dict[str, dict] = {}
    for s in spans:
        st = out.setdefault(s.name, {"calls": 0, "busy_s": 0.0, "intervals": []})
        st["calls"] += 1
        if not s.nested:
            st["busy_s"] += s.t1 - s.t0
            st["intervals"].append((s.t0, s.t1))
        for k, v in (s.counts or {}).items():
            st[k] = st.get(k, 0) + v
    for st in out.values():
        st["union_s"] = union_length(st.pop("intervals"))
    return out


def calls_under(spans: list[Span], child: str, parent: str) -> int:
    """Number of `child` spans opened directly inside a `parent` span."""
    parents = {s.sid for s in spans if s.name == parent}
    return sum(1 for s in spans if s.name == child and s.parent in parents)


# --- counting pass -------------------------------------------------------------


class Counter:
    """Counts calls of the exact-ring methods while installed."""

    def __init__(self, target=COUNTED):
        self.target = target
        self.absent: list[str] = []
        self.values: dict[str, int] = {}
        self._counts: dict[str, itertools.count] = {}
        self._saved: list = []

    def install(self) -> None:
        mod_name, cls_name, methods = self.target
        cls = getattr(importlib.import_module(mod_name), cls_name, None)
        for meth in methods:
            fn = vars(cls).get(meth) if cls is not None else None
            if fn is None:
                self.absent.append(f"{mod_name}.{cls_name}.{meth}")
                continue
            counter = self._counts[meth] = itertools.count()

            def counted(*args, _fn=fn, _tick=counter.__next__):
                _tick()
                return _fn(*args)

            self._saved.append((cls, meth, fn))
            setattr(cls, meth, counted)

    def uninstall(self) -> None:
        for cls, meth, fn in reversed(self._saved):
            setattr(cls, meth, fn)
        self._saved.clear()
        # the next value of a count is the number of ticks so far
        self.values = {meth: next(c) for meth, c in self._counts.items()}
