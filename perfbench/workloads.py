"""Seeded inputs and expected answers for the three benchmark workloads.

The generators here are the benchmark's own (the test suite's term generator
is not imported, so editing the tests cannot shift a workload).  Every
input is written to a file; the program under test only ever sees those
files.  Each expected answer is known without running the code under test:
equivalence verdicts by construction, rule-catalog results from the catalog
size, and simplify traces by the float reference interpreter.

A workload is an endless sequence of rounds.  Every round has the same
composition (the same slot list with fresh random contents), so the mix of
op kinds, and with it the medians, does not drift with run length or seed.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from typing import Callable, Optional

import refterms as rt

# gate name -> arity, the equiv_wide gate set
GATES = {"h": 1, "t": 1, "s": 1, "x": 1, "z": 1, "v": 1,
         "cx": 2, "cz": 2, "swap": 2, "ccx": 3}

# Rule count of the built-in catalog; check-rules must report all of them.
CATALOG_RULES = 98

# (SH)^3 = w * I on one wire, so the pair (A, A with it inserted) is
# "A = w^7 B", i.e. equal_with_phase 7.
PHASE_BLOCK = [("s", 1), ("h", 1)] * 3
PHASE_VERDICT = "equal_with_phase 7"

# demos/files/sw_ccx.circ, embedded so the workload does not depend on demos
SW_CCX = [("csx", (1, 2)), ("cx", (0, 1)), ("csxdg", (1, 2)),
          ("cx", (0, 1)), ("csx", (0, 2))]

Check = Callable[[int, str], Optional[str]]


@dataclass
class Op:
    """One CLI invocation and how to judge its result."""

    argv: list[str]
    tag: str
    expect: Check                       # cheap check, run right after the op
    catalog: Optional[str] = None       # value for SQRTPI_RULE_CATALOG
    # check run after the timed loop; it gets stdout and a CLI runner
    deferred: Optional[Callable[[str, Callable], Optional[str]]] = None
    info: dict = field(default_factory=dict)


# --- circuits -------------------------------------------------------------------


def wire_type(n: int) -> tuple:
    t = rt.TWO
    for _ in range(n - 1):
        t = ("*", rt.TWO, t)
    return t


def circuit_text(n: int, gates) -> str:
    lines = [f"qubits {n}"]
    lines += [f"{g} {' '.join(map(str, ws))}" for g, ws in gates]
    return "\n".join(lines) + "\n"


def wide_circuit(rng: random.Random, n: int) -> list:
    """20 gates: two of each gate in GATES, in random order on random wires.

    A fixed gate multiset keeps the cost of one pair close to that of any
    other pair with the same qubit count, so medians depend on n, not luck.
    """
    names = list(GATES) * 2
    rng.shuffle(names)
    return [(g, tuple(rng.sample(range(n), GATES[g]))) for g in names]


# gate order that small circuits draw their gate multiset from
SMALL_ORDER = ("h", "t", "cx", "ccx", "s", "x", "z", "v", "cz", "swap")


def small_circuit(rng: random.Random, n: int, m: int) -> list:
    """m gates: the first m of SMALL_ORDER (cycled, arity <= n), shuffled,
    on random wires.

    As with wide_circuit, a fixed multiset per size keeps the rewriting work
    of one circuit close to that of the next; the order and the wires are
    random, and they decide which rules fire.
    """
    order = [g for g in SMALL_ORDER if GATES[g] <= n]
    names = [order[i % len(order)] for i in range(m)]
    rng.shuffle(names)
    return [(g, tuple(rng.sample(range(n), GATES[g]))) for g in names]


def equiv_pair(rng: random.Random, n: int, kind: str):
    """(A, B, expected verdict) with the verdict known by construction."""
    a = wide_circuit(rng, n)
    q = rng.randrange(n)
    if kind == "equal":
        pos = rng.randint(0, len(a))
        b = a[:pos] + [("h", (q,)), ("h", (q,))] + a[pos:]
        return a, b, "equal"
    if kind == "phase":
        pos = rng.randint(0, len(a))
        block = [(g, (q,)) for g, _ in PHASE_BLOCK]
        return a, a[:pos] + block + a[pos:], PHASE_VERDICT
    return a, a + [("x", (q,))], "not_equal"


# --- typed terms ---------------------------------------------------------------
# A term is ("p", name) or (op, left, right) with op in ";", "+", "*".

_DUAL = {"id": "id", "swap+": "swap+", "swap*": "swap*", "v": "vi", "vi": "v",
         "w": "wi", "wi": "w", "assocr+": "assocl+", "assocl+": "assocr+",
         "assocr*": "assocl*", "assocl*": "assocr*", "unite+l": "uniti+l",
         "uniti+l": "unite+l", "unite*l": "uniti*l", "uniti*l": "unite*l",
         "dist": "factor", "factor": "dist", "absorbl": "factorzr",
         "factorzr": "absorbl"}


def term_text(t: tuple) -> str:
    if t[0] == "p":
        return t[1]
    return f"({term_text(t[1])} {t[0]} {term_text(t[2])})"


def invert(t: tuple) -> tuple:
    if t[0] == "p":
        return ("p", _DUAL[t[1]])
    if t[0] == ";":
        return (";", invert(t[2]), invert(t[1]))
    return (t[0], invert(t[1]), invert(t[2]))


def random_type(rng: random.Random, depth: int = 3) -> tuple:
    r = rng.random()
    if depth == 0 or r < 0.3:
        return rng.choice((rt.ONE, rt.TWO, rt.TWO, rt.ZERO))
    op = "+" if r < 0.65 else "*"
    t = (op, random_type(rng, depth - 1), random_type(rng, depth - 1))
    return t if 0 < rt.dim(t) <= 8 else rt.TWO


def random_term(rng: random.Random, src: tuple, depth: int) -> tuple[tuple, tuple]:
    """A term with source type src, built so it is well typed; (term, tgt)."""
    opts: list = [("id", src)]
    if src == rt.ONE:
        opts += [("w", src), ("wi", src)]
    if src == rt.TWO:
        opts += [("v", src), ("vi", src)] * 2
    if src[0] == "+":
        _, a, b = src
        opts.append(("swap+", ("+", b, a)))
        if a == rt.ZERO:
            opts.append(("unite+l", b))
        if a[0] == "+":
            opts.append(("assocr+", ("+", a[1], ("+", a[2], b))))
        if b[0] == "+":
            opts.append(("assocl+", ("+", ("+", a, b[1]), b[2])))
        if a[0] == "*" and b[0] == "*" and a[2] == b[2]:
            opts.append(("factor", ("*", ("+", a[1], b[1]), a[2])))
    if src[0] == "*":
        _, a, b = src
        opts.append(("swap*", ("*", b, a)))
        if a == rt.ONE:
            opts.append(("unite*l", b))
        if b == rt.ZERO:
            opts.append(("absorbl", rt.ZERO))
        if a[0] == "*":
            opts.append(("assocr*", ("*", a[1], ("*", a[2], b))))
        if b[0] == "*":
            opts.append(("assocl*", ("*", ("*", a, b[1]), b[2])))
        if a[0] == "+":
            opts.append(("dist", ("+", ("*", a[1], b), ("*", a[2], b))))
    if depth > 0:
        opts += [(";", None)] * 4 + [("inverse", None)] * 2
        opts += [("uniti+l", ("+", rt.ZERO, src)), ("uniti*l", ("*", rt.ONE, src))]
        if src[0] in "+*":
            opts += [("split", None)] * 3
    kind, tgt = rng.choice(opts)
    if kind == ";":
        first, mid = random_term(rng, src, depth - 1)
        second, tgt = random_term(rng, mid, depth - 1)
        return (";", first, second), tgt
    if kind == "inverse":  # c ; c^-1, a redex for the inverse laws
        c, _ = random_term(rng, src, depth - 1)
        return (";", c, invert(c)), src
    if kind == "split":
        left, left_tgt = random_term(rng, src[1], depth - 1)
        right, right_tgt = random_term(rng, src[2], depth - 1)
        return (src[0], left, right), (src[0], left_tgt, right_tgt)
    return ("p", kind), tgt


def typed_term(rng: random.Random, depth: int) -> tuple[str, tuple, tuple]:
    """(text, src, tgt) of a random term that the reference checker types."""
    while True:
        src = random_type(rng)
        term, tgt = random_term(rng, src, depth)
        text = term_text(term)
        try:
            rt.typed(text, src, tgt)
        except rt.TermError:
            continue
        return text, src, tgt


# --- checks ---------------------------------------------------------------------


def expect_verdict(verdict: str) -> Check:
    code = 1 if verdict == "not_equal" else 0

    def check(rc: int, out: str) -> Optional[str]:
        if rc != code or out.strip() != verdict:
            return f"expected {verdict!r} (exit {code}), got {out.strip()!r} (exit {rc})"
        return None

    return check


def expect_rules_pass(rc: int, out: str) -> Optional[str]:
    lines = out.splitlines()
    summary = f"{CATALOG_RULES}/{CATALOG_RULES} rules pass"
    passing = sum(1 for line in lines[:-1] if line.endswith("  pass"))
    if rc != 0 or not lines or lines[-1] != summary or passing != CATALOG_RULES:
        tail = lines[-1] if lines else ""
        return f"expected {summary!r} (exit 0), got {tail!r} (exit {rc})"
    return None


def expect_exit0(rc: int, out: str) -> Optional[str]:
    return None if rc == 0 else f"exit {rc}"


def trace_check(src: tuple, tgt: tuple, budget: int):
    """Deferred check of a simplify --json trace: start = w^p * final."""

    def check(out: str, _cli) -> Optional[str]:
        import reference as ref  # numpy loads after the timed loop, outside peak RSS

        trace = json.loads(out)
        steps = trace["steps"]
        if len(steps) > budget:
            return f"{len(steps)} steps exceed the budget {budget}"
        final = steps[-1]["term_after"] if steps else trace["start"]
        start_m = ref.evaluate(trace["start"], src, tgt)
        final_m = ref.evaluate(final, src, tgt)
        p = trace["omega_power"]
        if ref.verdict(start_m, ref.OMEGA ** p * final_m, False) != "equal":
            return f"unsound trace: start != w^{p} * final"
        return None

    return check


def cross_check(a_path: str, b_path: str, phase: bool, verdict: str):
    """Deferred check: the reference verdict on the compiled circuits."""

    def check(_out: str, cli) -> Optional[str]:
        import reference as ref  # numpy loads after the timed loop, outside peak RSS

        mats = []
        for path in (a_path, b_path):
            rc, text = cli(["compile", path])
            if rc != 0:
                return f"compile {path} exited {rc}"
            mats.append(ref.evaluate(text))
        got = ref.verdict(mats[0], mats[1], phase)
        return None if got == verdict else f"reference says {got!r}, expected {verdict!r}"

    return check


# --- rounds -------------------------------------------------------------------

SIMPLIFY_BUDGET = 64
EQUIV_KINDS = ("equal", "phase", "not_equal")


class Workload:
    """Builds round r of a workload into files under workdir."""

    name = ""

    def __init__(self, seed: int, workdir: str):
        self.seed, self.workdir = seed, workdir

    def rng(self, r: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{r}")

    def write(self, fname: str, text: str) -> str:
        path = os.path.join(self.workdir, fname)
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
        return path

    def prepare(self, cli) -> None:
        """One-off, untimed preparation that may use the CLI."""

    def warmup(self) -> list[Op]:
        return []

    def round(self, r: int) -> list[Op]:
        raise NotImplementedError


class EquivWide(Workload):
    """equiv A B on 4-5 qubit x 20 gate pairs; dense evaluation dominates."""

    name = "equiv_wide"

    @staticmethod
    def slots(r: int) -> list[tuple[int, str]]:
        """(qubits, verdict kind) of each pair in round r.

        Three 4-qubit pairs and six 5-qubit pairs, each verdict a third of
        them.  A 5-qubit pair costs about three times a 4-qubit one, so the
        median and the tail (10 ops beyond it) sit inside the 5-qubit group
        whatever the number of rounds, away from the jump between groups.
        6-qubit pairs are left out: one takes 4-5 s, a sixth of a run, and
        with them a run holds too few ops for a steady median.
        """
        k = EQUIV_KINDS
        return [(4, kind) for kind in k] + [(5, kind) for kind in k * 2]

    def pair_op(self, rng, r: int, i: int, n: int, kind: str, cross: bool) -> Op:
        a, b, verdict = equiv_pair(rng, n, kind)
        pa = self.write(f"r{r}_{i}_a.circ", circuit_text(n, a))
        pb = self.write(f"r{r}_{i}_b.circ", circuit_text(n, b))
        phase = kind == "phase" or rng.random() < 0.5
        argv = ["equiv", pa, pb] + (["--phase"] if phase else [])
        op = Op(argv, f"n{n}/{verdict.split()[0]}", expect_verdict(verdict),
                info={"verdict": verdict.split()[0]})
        if cross:
            op.deferred = cross_check(pa, pb, phase, verdict)
        return op

    def warmup(self) -> list[Op]:
        return [self.pair_op(random.Random(0), "w", 0, 3, k, False) for k in EQUIV_KINDS]

    def round(self, r: int) -> list[Op]:
        rng = self.rng(r)
        # round 0 is also cross-checked by the float reference
        return [self.pair_op(rng, r, i, n, kind, r == 0)
                for i, (n, kind) in enumerate(self.slots(r))]


class Simplify(Workload):
    """simplify --json on small circuits, typed terms and the sw_ccx demo."""

    name = "simplify"
    # (qubits, gates) per circuit.  Sorted by cost, a round is: the three
    # terms and the 2x4 circuit; the 3x4 circuit and six 2x8 ones, which
    # cost about the same, so the median is the middle of seven like ops
    # for any number of rounds; SW_CCX_COPIES runs of the fixed sw_ccx
    # circuit; and the 3x12 circuit, the dearest.  With one 3x12 op per
    # round, the tail (the 11th op from the top) falls among the identical
    # sw_ccx ops whatever the number of rounds.
    CIRCUITS = [(2, 4), (3, 4)] + [(2, 8)] * 6 + [(3, 12)]
    SW_CCX_COPIES = 3
    TERMS = 3
    TERM_DEPTH = 5

    def circuit_op(self, path: str, n: int, tag: str) -> Op:
        t = wire_type(n)
        return Op(["simplify", path, "--json"], tag, expect_exit0,
                  deferred=trace_check(t, t, SIMPLIFY_BUDGET))

    def term_op(self, rng, fname: str) -> Op:
        text, src, tgt = typed_term(rng, self.TERM_DEPTH)
        path = self.write(fname, text + "\n")
        ty = f"{rt.type_text(src)} <-> {rt.type_text(tgt)}"
        return Op(["simplify", path, "--json", "--type", ty], "term", expect_exit0,
                  deferred=trace_check(src, tgt, SIMPLIFY_BUDGET))

    def prepare(self, cli) -> None:
        self.sw_ccx = self.write("sw_ccx.circ", circuit_text(3, SW_CCX))

    def warmup(self) -> list[Op]:
        rng = random.Random(0)
        path = self.write("w.circ", circuit_text(2, small_circuit(rng, 2, 3)))
        return [self.circuit_op(path, 2, "warmup"), self.term_op(rng, "w.term")]

    def round(self, r: int) -> list[Op]:
        rng = self.rng(r)
        ops = []
        for i, (n, m) in enumerate(self.CIRCUITS):
            path = self.write(f"r{r}_{i}.circ", circuit_text(n, small_circuit(rng, n, m)))
            ops.append(self.circuit_op(path, n, f"circuit{n}x{m}"))
        ops += [self.term_op(rng, f"r{r}_t{i}.term") for i in range(self.TERMS)]
        ops += [self.circuit_op(self.sw_ccx, 3, "sw_ccx")] * self.SW_CCX_COPIES
        return ops


class CheckRules(Workload):
    """check-rules on the built-in catalog and on its text round trip."""

    name = "check_rules"

    def prepare(self, cli) -> None:
        rc, text = cli(["catalog"])
        if rc != 0:
            raise RuntimeError(f"`catalog` exited {rc}")
        # the seed shuffles the order of the rule blocks in the text catalog
        head, *blocks = text.split("\nrule ")
        random.Random(f"{self.name}:{self.seed}").shuffle(blocks)
        body = "".join("\nrule " + b.rstrip("\n") + "\n" for b in blocks)
        self.catalog = self.write("catalog.txt", head.rstrip("\n") + "\n" + body)

    def warmup(self) -> list[Op]:
        return [Op(["check-rules", "--family", "E"], "warmup", expect_exit0)]

    def round(self, r: int) -> list[Op]:
        # Two text-catalog runs per built-in run: the text path takes about
        # twice as long, and a 1:1 mix would put the median in the gap
        # between the two groups, where it jumps from run to run.
        text = Op(["check-rules"], "text", expect_rules_pass, catalog=self.catalog)
        builtin = Op(["check-rules"], "builtin", expect_rules_pass)
        return [text, builtin, text]


WORKLOADS = {w.name: w for w in (EquivWide, Simplify, CheckRules)}
