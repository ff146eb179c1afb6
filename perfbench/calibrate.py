"""A fixed pure-Python reference loop that measures the host's current speed.

The benchmark shares a few cores of a busy host, and the speed of those
cores drifts by half or more from one second to the next.  So every op is
timed together with this loop: once right before the op, once right after
it, and every ``INTERVAL`` seconds while it runs, from a timer signal.  The
end-to-end times are reported as multiples of the loop's mean time over
those samples (unit ``ref``).  A host slowdown stretches the op and the
loop alike, so the ratio stays put, while a change to ``sqrtpi`` moves only
the op.  Samples taken during the op are subtracted from its time.

The loop imitates the program's own mix of work without importing it: a
dense product of small matrices over an exact ring with zero-skipping
(like ``semantics.compose``), hashing and rebuilding nested tuples (like
term rewriting), and the reference type checker on a fixed term (like
``lang.typecheck``).  It does the same work on every call; it is part of
the benchmark and must not change between the commits being compared.
"""

from __future__ import annotations

import signal
import threading
import time

import refterms as rt

INTERVAL = 0.025  # seconds between samples while an op runs


class _Ring:
    """a + b*i over the dyadics, as (numerator, numerator, exponent)."""

    __slots__ = ("a", "b", "k")

    def __init__(self, a: int, b: int, k: int):
        self.a, self.b, self.k = a, b, k

    def __bool__(self) -> bool:
        return bool(self.a or self.b)

    def __mul__(self, o: "_Ring") -> "_Ring":
        return _Ring(self.a * o.a - self.b * o.b, self.a * o.b + self.b * o.a, self.k + o.k)

    def __add__(self, o: "_Ring") -> "_Ring":
        if self.k < o.k:
            s = 1 << (o.k - self.k)
            return _Ring(self.a * s + o.a, self.b * s + o.b, o.k)
        s = 1 << (self.k - o.k)
        return _Ring(self.a + o.a * s, self.b + o.b * s, self.k)


_N = 5
_ZERO = _Ring(0, 0, 0)
# a third of the entries are zero, so the zero test does real work
_M = [_Ring((3 * i + j) % 5 - 2, (i * j) % 3 - 1, (i + j) % 3) if (i + 2 * j) % 3 else _ZERO
      for i in range(_N) for j in range(_N)]
_LEAVES = [("p", name) for name in ("id", "v", "vi", "w", "swap+")]
_TERM = ("(uniti*l ; (id * (swap+ ; v))) ; unite*l", rt.TWO, rt.TWO)


def reference_loop() -> None:
    """One run of the fixed reference work (about 0.3 ms)."""
    n, out = _N, [_ZERO] * (_N * _N)
    for i in range(n):
        for k in range(n):
            x = _M[i * n + k]
            if not x:
                continue
            for j in range(n):
                y = _M[k * n + j]
                if y:
                    out[i * n + j] = out[i * n + j] + x * y
    seen: dict = {}
    for i in range(60):
        a, b = _LEAVES[i % 5], _LEAVES[(i * 3) % 5]
        t = (";", (";", a, b), ("+", b, (";", a, a)))
        t = (";", t, t[1]) if i % 2 else ("+", t[2], t)
        seen[t] = seen.get(t, 0) + 1
    rt.typed(*_TERM)


def sample() -> float:
    """Wall time of one run of the reference loop, in seconds."""
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0


class Sampler:
    """Runs the reference loop on a timer signal while installed.

    Each sample is recorded as its (start, end) interval, so the time the
    samples took can be taken out of the op they interrupted.  Timer signals
    reach only the main thread; elsewhere the sampler records nothing.
    """

    def __init__(self, interval: float = INTERVAL):
        self.interval = interval
        self.spans: list[tuple[float, float]] = []
        self._saved = None

    def _on_alarm(self, _signum, _frame) -> None:
        t0 = time.perf_counter()
        reference_loop()
        self.spans.append((t0, time.perf_counter()))

    def __enter__(self) -> "Sampler":
        self.spans = []
        if threading.current_thread() is threading.main_thread():
            self._saved = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *_exc) -> None:
        if self._saved is not None:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._saved)
            self._saved = None

    def within(self, t0: float, t1: float) -> list[float]:
        """Durations of the samples taken between t0 and t1."""
        return [e - s for s, e in self.spans if s >= t0 and e <= t1]
