"""The `equiv` verdict: pinned CLI output, an independent dense oracle, the
chain parts both sides share (which are never evaluated), and the
first-difference message of `check-rules`."""

import contextlib
import hashlib
import io
import json
import os
import random

from sqrtpi.cli import main
from sqrtpi.exactnum import INV_SQRT2, ONE, ZERO, DyadicCyclotomic, omega_pow

FILES = "demos/files"

# gate name -> arity, as in the benchmark's equiv_wide pairs
WIDE_GATES = {"h": 1, "t": 1, "s": 1, "x": 1, "z": 1, "v": 1,
              "cx": 2, "cz": 2, "swap": 2, "ccx": 3}
KINDS = ("equal", "phase", "not_equal")


def wide_pair(rng: random.Random, n: int, kind: str):
    """(A, B) gate lists on n wires: A is two of each gate of arity <= n in
    random order; B is A with `h q ; h q` inserted ("equal"), with
    `(s q ; h q)^3` inserted ("phase": A = w^7 B) or with `x q` appended."""
    names = [g for g, k in WIDE_GATES.items() if k <= n] * 2
    rng.shuffle(names)
    a = [(g, tuple(rng.sample(range(n), WIDE_GATES[g]))) for g in names]
    q = (rng.randrange(n),)
    pos = rng.randint(0, len(a))
    if kind == "equal":
        return a, a[:pos] + [("h", q)] * 2 + a[pos:]
    if kind == "phase":
        return a, a[:pos] + [("s", q), ("h", q)] * 3 + a[pos:]
    return a, a + [("x", q)]


def circuit_text(n: int, gates) -> str:
    return "\n".join([f"qubits {n}"] + [f"{g} {' '.join(map(str, ws))}" for g, ws in gates]) + "\n"


def _write(workdir, name: str, text: str) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)
    return path


def late_column_files(workdir) -> dict:
    """Pairs whose verdict is decided past column 0: name -> (left, right)."""
    empty3 = _write(workdir, "empty3.circ", "qubits 3\n")
    empty2 = _write(workdir, "empty2.circ", "qubits 2\n")
    return {
        # ccx moves only basis states 6 and 7
        "ccx_vs_empty": (_write(workdir, "ccx.circ", "qubits 3\nccx 0 1 2\n"), empty3),
        # column 0 fixes the phase at w^0, column 3 carries w
        "ct_vs_empty": (_write(workdir, "ct.circ", "qubits 2\nct 0 1\n"), empty2),
        "w_vs_wi": (_write(workdir, "w.term", "w\n"), _write(workdir, "wi.term", "wi\n")),
    }


# middles (X, Y) with X = Y: s;s = z; X = w^4 Y: (z;x)^2 = -1; X != Y
CANCEL_MIDDLES = {
    "equal": ([("s", (1,))] * 2, [("z", (1,))]),
    "phase": ([("z", (1,)), ("x", (1,))] * 2, [("h", (1,))] * 2),
    "not_equal": ([("t", (1,))], [("s", (1,))]),
}
# term pairs that share chain parts only up to annotations or types
CANCEL_TERMS = {
    "outer_ann": ("(h ; x ; h : 2 <-> 2)", "h ; x ; h"),
    "inner_ann": ("(h ; x ; h : 2 <-> 2)", "h ; (x ; h : 2 <-> 2)"),
    "ann_phase": ("(x ; z : 2 <-> 2)", "z ; x"),
    # the parts after swap+ have one term and src but tgt 2+2*0 against 2+1*0
    "factorzr_equal": (
        "swap+ ; (v + factorzr) ; (id : 2+2*0 <-> 2+2*0) ; (v + absorbl) ; swap+",
        "swap+ ; (v + factorzr) ; (id : 2+1*0 <-> 2+1*0) ; (v + absorbl) ; swap+"),
    "factorzr_not_equal": (
        "swap+ ; (v + factorzr) ; (id : 2+2*0 <-> 2+2*0) ; (v + absorbl) ; swap+",
        "swap+ ; (v + factorzr) ; (id : 2+1*0 <-> 2+1*0) ; (vi + absorbl) ; swap+"),
}


def cancellation_files(workdir) -> dict:
    """Pairs shaped by the chain parts both sides share: P ; X ; S against
    P ; Y ; S with a common prefix P only, a common suffix S only, or both;
    one side a sub-chain of the other; and the term pairs above."""
    rng = random.Random("cancel")
    names = [g for g, k in WIDE_GATES.items() if k <= 4]
    p = [(g, tuple(rng.sample(range(4), WIDE_GATES[g]))) for g in rng.sample(names, 6)]
    s = [(g, tuple(rng.sample(range(4), WIDE_GATES[g]))) for g in rng.sample(names, 6)]
    pairs = {}
    for kind, (x, y) in CANCEL_MIDDLES.items():
        for shape, pre, suf in (("prefix", p, []), ("suffix", [], s), ("both", p, s)):
            pairs[f"cancel_{shape}_{kind}"] = (pre + x + suf, pre + y + suf)
    for kind, mid in (("equal", [("h", (2,))] * 2), ("not_equal", [("x", (2,))])):
        pairs[f"cancel_sub_{kind}"] = (p + s, p + mid + s)
        pairs[f"cancel_super_{kind}"] = (p + mid + s, p + s)
    out = {name: (_write(workdir, f"{name}_a.circ", circuit_text(4, a)),
                  _write(workdir, f"{name}_b.circ", circuit_text(4, b)))
           for name, (a, b) in pairs.items()}
    for name, (a, b) in CANCEL_TERMS.items():
        out[f"cancel_{name}"] = (_write(workdir, f"cancel_{name}_a.term", a + "\n"),
                                 _write(workdir, f"cancel_{name}_b.term", b + "\n"))
    return out


def equiv_cases(workdir) -> dict:
    """name -> (left, right): every ordered pair of demo files, seeded
    equiv_wide-style pairs of 3-6 qubits, the late-column pairs and the
    cancellation-shaped pairs."""
    demos = sorted(os.listdir(FILES))
    cases = {f"demo {x} {y}": (os.path.join(FILES, x), os.path.join(FILES, y))
             for x in demos for y in demos}
    for n in range(3, 7):
        for seed in (n, 10 + n):
            for kind in KINDS:
                a, b = wide_pair(random.Random(f"{seed} {kind}"), n, kind)
                stem = f"wide{n}_s{seed}_{kind}"
                cases[stem] = (_write(workdir, f"{stem}_a.circ", circuit_text(n, a)),
                               _write(workdir, f"{stem}_b.circ", circuit_text(n, b)))
    cases.update(late_column_files(workdir))
    cases.update(cancellation_files(workdir))
    return cases


def equiv_digests(workdir) -> dict:
    """sha256 prefix of the exit code and stdout of `equiv --expand-macros`,
    with and without --phase, for each of equiv_cases()."""
    out = {}
    for name, (left, right) in equiv_cases(workdir).items():
        for mode, flags in (("strict", ()), ("phase", ("--phase",))):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                code = main(["equiv", left, right, "--expand-macros", *flags])
            blob = f"{code}\n{buf.getvalue()}".encode()
            out[f"{name} {mode}"] = hashlib.sha256(blob).hexdigest()[:16]
    return out


def test_equiv_output_matches_pinned_digests(tmp_path):
    # equiv_digests.json was recorded while each side was evaluated to a full
    # matrix and the two matrices were compared whole; its cancel_* entries
    # while every chain part of both sides was evaluated
    with open(os.path.join(os.path.dirname(__file__), "equiv_digests.json"),
              encoding="utf-8") as f:
        pinned = json.load(f)
    assert equiv_digests(str(tmp_path)) == pinned


# --- an independent dense oracle --------------------------------------------
# Circuits are simulated on dense state vectors with the gate matrices written
# out below, and the verdict is a k = 0..7 search over nested lists.  Nothing
# here calls the evaluator, its kernels or equal_matrices.

W = omega_pow(1)
I_ = omega_pow(2)
MINUS = omega_pow(4)


def _perm(images):
    """Dense permutation matrix sending basis state j to images[j]."""
    n = len(images)
    return [[ONE if images[j] == i else ZERO for j in range(n)] for i in range(n)]


def _diag(*entries):
    return [[e if i == j else ZERO for j in range(len(entries))] for i, e in enumerate(entries)]


_V_DIAG = DyadicCyclotomic.from_coeffs((-1, 0, 1, 0), 1)   # (-1 + i)/2
_V_OFF = DyadicCyclotomic.from_coeffs((-1, 0, -1, 0), 1)   # (-1 - i)/2
ORACLE_GATES = {
    "h": [[INV_SQRT2, INV_SQRT2], [INV_SQRT2, -INV_SQRT2]],
    "x": _perm([1, 0]),
    "z": _diag(ONE, MINUS),
    "s": _diag(ONE, I_),
    "t": _diag(ONE, W),
    "v": [[_V_DIAG, _V_OFF], [_V_OFF, _V_DIAG]],
    # two- and three-qubit gates: the first wire listed is the most significant
    "cx": _perm([0, 1, 3, 2]),
    "cz": _diag(ONE, ONE, ONE, MINUS),
    "ct": _diag(ONE, ONE, ONE, W),
    "swap": _perm([0, 2, 1, 3]),
    "ccx": _perm([0, 1, 2, 3, 4, 5, 7, 6]),
}


def _apply_gate(state: dict, gate, wires, n: int) -> dict:
    """gate on `wires` (wire 0 most significant) applied to a state {basis: amplitude}."""
    shifts = [n - 1 - w for w in wires]
    out: dict = {}
    for basis, amp in state.items():
        local = 0
        for s in shifts:
            local = (local << 1) | ((basis >> s) & 1)
        base = basis
        for s in shifts:
            base &= ~(1 << s)
        for row in range(len(gate)):
            g = gate[row][local]
            if not g:
                continue
            target = base
            for pos, s in enumerate(shifts):
                if (row >> (len(shifts) - 1 - pos)) & 1:
                    target |= 1 << s
            out[target] = out[target] + g * amp if target in out else g * amp
    return {b: a for b, a in out.items() if a}


def oracle_matrix(n: int, gates) -> list:
    """The circuit's unitary as nested lists, row-major."""
    dim = 1 << n
    rows = [[ZERO] * dim for _ in range(dim)]
    for j in range(dim):
        state = {j: ONE}
        for g, wires in gates:
            state = _apply_gate(state, ORACLE_GATES[g], wires, n)
        for i, amp in state.items():
            rows[i][j] = amp
    return rows


def oracle_verdict(a: list, b: list, phase: bool) -> str:
    for k in range(8 if phase else 1):
        if all(x == y.times_omega_pow(k) for ra, rb in zip(a, b) for x, y in zip(ra, rb)):
            return "equal" if k == 0 else f"equal_with_phase {k}"
    return "not_equal"


def _first_differing_column(a: list, b: list) -> int:
    return next(j for j in range(len(a[0])) if any(ra[j] != rb[j] for ra, rb in zip(a, b)))


def _circuit_term(n: int, gates):
    from sqrtpi.circuits import compile_circuit, parse_circuit

    return compile_circuit(parse_circuit(circuit_text(n, gates)))


def _check_against_oracle(n: int, a, b, expected_strict=None, expected_phase=None):
    from sqrtpi.rewrite import check_equiv

    ma, mb = oracle_matrix(n, a), oracle_matrix(n, b)
    ta, tb = _circuit_term(n, a), _circuit_term(n, b)
    for phase, expected in ((False, expected_strict), (True, expected_phase)):
        want = oracle_verdict(ma, mb, phase)
        if expected is not None:
            assert want == expected
        got = check_equiv(ta, tb, "up_to_omega_power" if phase else "strict")
        assert str(got) == want, (n, a, b, phase)
    return ma, mb


def test_oracle_matrices_match_the_evaluator():
    # the oracle's gate tables and wire order are the evaluator's
    from sqrtpi.semantics import evaluate

    rng = random.Random(7)
    for n in (1, 2, 3):
        for kind in KINDS:
            a, b = wide_pair(rng, n, kind)
            for gates in (a, b, [("ct", (n - 1, 0))] if n > 1 else [("t", (0,))]):
                m = evaluate(_circuit_term(n, gates))
                dense = oracle_matrix(n, gates)
                assert [[m[i, j] for j in range(m.cols)] for i in range(m.rows)] == dense


def test_streamed_verdict_matches_dense_oracle_on_seeded_pairs():
    expected = {"equal": ("equal", "equal"),
                "phase": ("not_equal", "equal_with_phase 7"),
                "not_equal": ("not_equal", "not_equal")}
    for n in range(1, 7):
        for seed in range(2 if n < 6 else 1):
            for kind in KINDS:
                a, b = wide_pair(random.Random(f"oracle {n} {seed} {kind}"), n, kind)
                _check_against_oracle(n, a, b, *expected[kind])


def test_verdicts_decided_past_column_zero():
    # ccx moves only basis states 6 and 7: columns 0-5 agree
    ma, mb = _check_against_oracle(3, [("ccx", (0, 1, 2))], [], "not_equal", "not_equal")
    assert _first_differing_column(ma, mb) == 6
    # column 0 fixes the phase at w^0; column 3 carries w, which breaks it
    ma, mb = _check_against_oracle(2, [("ct", (0, 1))], [], "not_equal", "not_equal")
    assert _first_differing_column(ma, mb) == 3
    assert oracle_verdict([row[:3] for row in ma], [row[:3] for row in mb], True) == "equal"
    # the phase is fixed by column 0 and must hold in every later column
    a = [("h", (0,)), ("cx", (0, 1)), ("t", (1,))]
    b = a[:2] + [("s", (1,)), ("h", (1,))] * 3 + a[2:]
    _check_against_oracle(2, a, b, "not_equal", "equal_with_phase 7")


def test_streamed_verdict_on_terms(capsys, tmp_path):
    from sqrtpi.circuits import wire_type
    from sqrtpi.lang import ZERO_T, Ann, Prim, ProdC, seq
    from sqrtpi.rewrite import check_equiv

    files = late_column_files(str(tmp_path))
    for flags, want in (((), "not_equal"), (("--phase",), "equal_with_phase 2")):
        assert oracle_verdict([[W]], [[omega_pow(7)]], bool(flags)) == want
        assert main(["equiv", *files["w_vs_wi"], *flags]) == (0 if flags else 1)
        assert capsys.readouterr().out == want + "\n"
    # a 0-dimensional pair: no columns, so nothing differs, and the wide
    # factor of the zero product is never built
    wide = Ann(Prim("id"), wire_type(30), wire_type(30))
    left = ProdC(wide, Ann(Prim("id"), ZERO_T, ZERO_T))
    right = seq(left, Prim("id"))
    for mode in ("strict", "up_to_omega_power"):
        assert str(check_equiv(left, right, mode)) == "equal"
    # --type fixes the type of the left side, and the right side follows it
    dense = {"v ; v": ORACLE_GATES["x"], "swap+": ORACLE_GATES["x"], "id": _diag(ONE, ONE)}
    cases = (("v ; v", "swap+", "equal"), ("swap+", "id", "not_equal"), ("v ; v", "id", "not_equal"))
    for left, right, want in cases:
        paths = [_write(str(tmp_path), f"{side}.term", text + "\n")
                 for side, text in (("l", left), ("r", right))]
        for flags in ((), ("--phase",)):
            assert oracle_verdict(dense[left], dense[right], bool(flags)) == want
            code = main(["equiv", *paths, "--type", "1+1 <-> 1+1", *flags])
            assert code == (1 if want == "not_equal" else 0)
            assert capsys.readouterr().out == want + "\n"


def test_cancelled_verdict_matches_whole_matrices_on_random_terms():
    # p ; x ; s against p ; y ; s for seeded random terms, where y is x, x
    # times w^k or z ; x for a random z: the verdict with the shared parts
    # cancelled is the verdict on the two whole denotations
    from termgen import gen_from, random_type

    from sqrtpi.lang import BOOL, ZERO_T, Prim, Prod, ProdC, Sum, seq
    from sqrtpi.rewrite import check_equiv
    from sqrtpi.semantics import equal_matrices, evaluate

    rng = random.Random(14)
    zero_dim = [ZERO_T, Prod(BOOL, ZERO_T), Sum(ZERO_T, ZERO_T)]
    seen = set()
    for i in range(60):
        src = zero_dim[i] if i < len(zero_dim) else random_type(rng)
        p, t1 = gen_from(rng, src, 3)
        x, t2 = gen_from(rng, t1, 3)
        s, t3 = gen_from(rng, t2, 3)
        k = rng.randrange(1, 8)
        z, tgt = gen_from(rng, t1, 2)
        while tgt != t1:
            z, tgt = gen_from(rng, t1, 2)
        phased = seq(x, Prim("uniti*l"), ProdC(seq(*[Prim("w")] * k), Prim("id")),
                     Prim("unite*l"))
        for y in (x, phased, seq(z, x)):
            a, b = seq(p, x, s), seq(p, y, s)
            for mode in ("strict", "up_to_omega_power"):
                want = equal_matrices(evaluate(a, (src, t3)), evaluate(b, (src, t3)), mode)
                assert check_equiv(a, b, mode, (src, t3)) == want, (i, a, b, mode)
                seen.add(want.kind)
    assert seen == {"equal", "equal_with_phase", "not_equal"}


def _typed_keys(typed) -> set:
    """(term, src, tgt) of every node under typed, typed included."""
    keys, stack = set(), [typed]
    while stack:
        t = stack.pop()
        keys.add((t.term, t.src, t.tgt))
        stack.extend(t.children)
    return keys


def test_equiv_builds_only_the_parts_where_the_sides_differ(monkeypatch):
    # the parts both chains share at the front and at the back cancel, so no
    # matrix is built for them: a side against itself builds nothing, and a
    # side with an inserted block builds only nodes under that block
    from sqrtpi import semantics
    from sqrtpi.lang import typecheck
    from sqrtpi.rewrite import check_equiv

    real = semantics.eval_typed
    built: set = set()

    def counting(t, _memo=None):
        built.add((t.term, t.src, t.tgt))
        return real(t, _memo)

    monkeypatch.setattr(semantics, "eval_typed", counting)
    blocks = {"equal": [("h", (0,))] * 2,
              "equal_with_phase": [("s", (0,)), ("h", (0,))] * 3,
              "not_equal": [("x", (0,))]}
    for n in (3, 5):
        a, _ = wide_pair(random.Random(f"share {n}"), n, "equal")
        ta = _circuit_term(n, a)
        built.clear()
        assert check_equiv(ta, ta).kind == "equal" and not built
        for kind, block in blocks.items():
            for pos in (0, len(a) // 2, len(a)):
                b = a[:pos] + block + a[pos:]
                tb = _circuit_term(n, b)
                built.clear()
                assert check_equiv(ta, tb, "up_to_omega_power").kind == kind
                parts = typecheck(tb).children
                assert len(parts) == len(b)  # one chain part per placed gate
                inserted = set().union(*map(_typed_keys, parts[pos:pos + len(block)]))
                assert built and built <= inserted, (n, kind, pos)


# --- the first difference that check-rules reports ---------------------------


def _failing_rule(n: int, lhs_gates, rhs_gates, phase: int = 0):
    from sqrtpi.lang import Prim
    from sqrtpi.rewrite import RewriteRule

    check = (_circuit_term(n, lhs_gates), _circuit_term(n, rhs_gates))
    return RewriteRule(name="r", family="?", lhs=Prim("v"), rhs=Prim("v"), phase=phase,
                       checks=(check,))


def test_first_difference_message_is_pinned():
    # recorded while every entry was read through ExactMatrix.__getitem__ in
    # row-major order; in the first three cases the first difference in
    # column order, at (1,0), (3,2) and (3,1), is another entry
    from sqrtpi.rewrite import validate_rule

    cases = [
        ([("x", (0,)), ("t", (1,)), ("t", (1,))], [("cx", (0, 1)), ("x", (1,)), ("cx", (0, 1))],
         0, "entry (0,1): 0 != 1"),
        ([("cx", (0, 1))], [("cx", (0, 1)), ("t", (0,))], 0, "entry (2,3): 1 != w"),
        ([("ct", (1, 0)), ("h", (0,))], [("h", (0,)), ("ct", (0, 1))],
         0, "entry (1,3): (1 + w^2)/2 != (w - w^3)/2"),
        ([("ct", (1, 0)), ("h", (0,))], [("h", (0,)), ("ct", (0, 1))],
         3, "entry (0,0): (w - w^3)/2 != (-1 + w^2)/2"),
    ]
    for lhs, rhs, phase, detail in cases:
        (result,) = validate_rule(_failing_rule(2, lhs, rhs, phase)).results
        assert (result.ok, result.detail) == (False, detail)


def test_first_difference_of_a_wide_instance_is_found_fast():
    # columns of 32 nonzeros that first differ in row 384: reading the dense
    # matrix entry by entry, each entry a search of its column, took 1.2 s
    # for this instance on a 2-core x86 container
    import time

    from sqrtpi.rewrite import validate_rule

    hs = [("h", (q,)) for q in range(5)]
    rule = _failing_rule(9, hs, hs + [("ct", (0, 1))])
    start = time.perf_counter()
    (result,) = validate_rule(rule).results
    assert time.perf_counter() - start < 1.0
    assert result.detail == "entry (384,0): (w - w^3)/8 != (1 + w^2)/8"
