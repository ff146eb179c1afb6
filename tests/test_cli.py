import contextlib
import hashlib
import io
import json
import os
import pathlib
import random
import re
import subprocess
import sys
import time
import tracemalloc

import pytest

from sqrtpi.cli import main

FILES = "demos/files"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cold_start_imports_no_dataclasses():
    # Every command runs in a fresh interpreter, and importing dataclasses
    # (with the inspect, ast and dis it pulls in) took longer than all of
    # sqrtpi's own module bodies.
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    code = ("import sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "import sqrtpi.cli\n"
            "from sqrtpi.gates import gate_macros\n"
            "from sqrtpi.rewrite import rule_db\n"
            "gate_macros()\n"
            "rule_db()\n"
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-I", "-c", code, str(src)],
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_eval_h_term(capsys):
    code, out, _ = run(capsys, "eval", f"{FILES}/h.term")
    assert code == 0
    assert out.splitlines()[0].startswith("1/√2")
    assert "-1" in out


def test_eval_json_round_trips(capsys):
    from sqrtpi.semantics import ExactMatrix
    from sqrtpi.gates import named_gate
    from sqrtpi.semantics import evaluate

    code, out, _ = run(capsys, "eval", f"{FILES}/h.term", "--json")
    assert code == 0
    m = ExactMatrix.from_json(json.loads(out))
    assert m == evaluate(named_gate("h"))


def test_eval_float_label(capsys):
    code, out, _ = run(capsys, "eval", f"{FILES}/h.term", "--float")
    assert code == 0
    assert "not authoritative" in out


def test_equiv_sw_circuit_and_ccx_term(capsys):
    code, out, _ = run(capsys, "equiv", f"{FILES}/sw_ccx.circ", f"{FILES}/ccx.term")
    assert code == 0
    assert out.strip() == "equal"


def test_equiv_phase(capsys):
    code, out, _ = run(
        capsys, "equiv", f"{FILES}/sh_cubed.term", f"{FILES}/identity2.term",
        "--expand-macros", "--phase",
    )
    assert code == 0
    assert out.strip() == "equal_with_phase 1"


def test_equiv_strict_rejects_phase(capsys):
    code, out, _ = run(
        capsys, "equiv", f"{FILES}/sh_cubed.term", f"{FILES}/identity2.term",
        "--expand-macros",
    )
    assert code == 1
    assert out.strip() == "not_equal"


def test_equiv_circuit_identity(capsys):
    code, out, _ = run(capsys, "equiv", f"{FILES}/cz_pair.circ", f"{FILES}/identity4.term")
    assert code == 0
    assert out.strip() == "equal"


def test_macro_expansion_flag(capsys):
    code, _, err = run(capsys, "typecheck", f"{FILES}/toffoli_macro.term")
    assert code == 2
    assert "expand_macros" in err or "unknown name" in err
    code, out, _ = run(capsys, "typecheck", f"{FILES}/toffoli_macro.term",
                       "--expand-macros")
    assert code == 0
    assert out.strip() == "2*2*2 <-> 2*2*2"


def test_parse_prints_canonical_form(capsys):
    code, out, _ = run(capsys, "parse", f"{FILES}/s_s.term", "--expand-macros")
    assert code == 0
    assert out.strip() == "(id : 1 <-> 1) + (w ; w) ; (id : 1 <-> 1) + (w ; w)"
    # and the canonical form reparses to the same AST
    from sqrtpi.lang import parse

    assert parse(out.strip()) == parse("s ; s", expand_macros=True)


def test_typecheck_with_expected_type(capsys):
    code, out, _ = run(capsys, "typecheck", f"{FILES}/identity2.term",
                       "--type", "2 <-> 2")
    assert code == 0
    assert out.strip() == "2 <-> 2"


def test_compile_emits_term(capsys):
    code, out, _ = run(capsys, "compile", f"{FILES}/cz_pair.circ")
    assert code == 0
    from sqrtpi.lang import parse

    term = parse(out.strip())
    from sqrtpi.semantics import evaluate, ExactMatrix

    assert evaluate(term) == ExactMatrix.identity(4)


def test_simplify_trace_output(capsys):
    code, out, _ = run(capsys, "simplify", f"{FILES}/s_s.term",
                       "--expand-macros", "--steps", "8")
    assert code == 0
    assert "bifunct" in out
    assert "omega power: 0" in out


def test_simplify_rejects_a_negative_budget(capsys):
    code, out, err = run(capsys, "simplify", f"{FILES}/s_s.term",
                         "--expand-macros", "--steps", "-1")
    _assert_one_line_error(code, out, err)
    assert err == "error: --steps must be 0 or more, not -1\n"
    code, out, _ = run(capsys, "simplify", f"{FILES}/s_s.term", "--expand-macros",
                       "--steps", "0")
    assert code == 0 and "   1. " not in out


def test_simplify_json(capsys):
    code, out, _ = run(capsys, "simplify", f"{FILES}/s_s.term",
                       "--expand-macros", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["omega_power"] == 0
    assert data["steps"]


def test_check_rules_family_a(capsys):
    code, out, _ = run(capsys, "check-rules", "--family", "A")
    assert code == 0
    assert "20/20 rules pass" in out


def test_check_rules_unknown_family(capsys):
    # the empty name is a family with no rules too, not the whole catalog
    for family in ("Q", ""):
        code, out, err = run(capsys, "check-rules", "--family", family)
        assert code == 2
        assert out == ""
        assert err == f"error: no rules in family {family!r}\n"


def test_check_rules_catalog_override(capsys, tmp_path, monkeypatch):
    from sqrtpi.rewrite import catalog_text, rule_db

    rules = [r for r in rule_db() if r.name in ("E1", "E2")]
    path = tmp_path / "rules.txt"
    path.write_text(catalog_text(rules), encoding="utf-8")
    monkeypatch.setenv("SQRTPI_RULE_CATALOG", str(path))
    code, out, _ = run(capsys, "check-rules")
    assert code == 0
    assert "2/2 rules pass" in out


def test_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.term"
    bad.write_text("v ;; v", encoding="utf-8")
    code, _, err = run(capsys, "parse", str(bad))
    assert code == 2
    assert "error:" in err


def test_type_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.term"
    bad.write_text("(swap+ : 2 <-> 2) ; (swap* : 1*1 <-> 1*1)", encoding="utf-8")
    code, _, err = run(capsys, "typecheck", str(bad))
    assert code == 2
    assert "unify" in err


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, "eval", "no-such-file.term")
    assert code == 2


def test_deterministic_output(capsys):
    a = run(capsys, "eval", f"{FILES}/ccx.term")
    b = run(capsys, "eval", f"{FILES}/ccx.term")
    assert a == b
    c = run(capsys, "check-rules", "--family", "D")
    d = run(capsys, "check-rules", "--family", "D")
    assert c == d


def test_catalog_subcommand_round_trips(capsys):
    from sqrtpi.rewrite import load_catalog, rule_db

    code, out, _ = run(capsys, "catalog")
    assert code == 0
    assert len(load_catalog(out)) == len(rule_db())
    # catalogs that still carry the retired `bidirectional` flag load the same
    old = out.replace("flags oriented", "flags bidirectional oriented")
    assert old != out
    flags = [(r.name, r.oriented, r.normalizing) for r in rule_db()]
    assert [(r.name, r.oriented, r.normalizing) for r in load_catalog(old)] == flags


def _catalog_error(capsys, tmp_path, monkeypatch, body):
    path = tmp_path / "rules.txt"
    path.write_text("sqrtpi-rules 1\n" + body, encoding="utf-8")
    monkeypatch.setenv("SQRTPI_RULE_CATALOG", str(path))
    code, out, err = run(capsys, "check-rules")
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    return err


def test_catalog_side_without_condition_name(capsys, tmp_path, monkeypatch):
    err = _catalog_error(capsys, tmp_path, monkeypatch,
                         "rule r\nside\nlhs v\nrhs v\ncheck v == v\nend\n")
    assert err.startswith("error: line 3: unknown side condition")


def test_catalog_side_with_the_wrong_arity(capsys, tmp_path, monkeypatch):
    err = _catalog_error(capsys, tmp_path, monkeypatch,
                         "rule r\nlhs ?c ; ?ci\nrhs id\nside inverse_pair c\n"
                         "check v ; vi == id\nend\n")
    assert err == "error: line 5: side condition 'inverse_pair' takes 2 variable(s), not 1\n"


def test_catalog_unknown_flag(capsys, tmp_path, monkeypatch):
    err = _catalog_error(capsys, tmp_path, monkeypatch,
                         "rule r\nflags orientd\nlhs v\nrhs v\ncheck v == v\nend\n")
    assert err == "error: line 3: unknown flag 'orientd'\n"


def test_catalog_rule_without_check(capsys, tmp_path, monkeypatch):
    err = _catalog_error(capsys, tmp_path, monkeypatch, "rule r\nlhs v\nrhs v\nend\n")
    assert err == "error: line 5: rule 'r' has no check line\n"


def test_catalog_rule_without_lhs_or_rhs(capsys, tmp_path, monkeypatch):
    err = _catalog_error(capsys, tmp_path, monkeypatch, "rule r\nrhs v\ncheck v == v\nend\n")
    assert err == "error: line 5: rule 'r' has no lhs line\n"
    err = _catalog_error(capsys, tmp_path, monkeypatch, "rule r\nlhs v\ncheck v == v\nend\n")
    assert err == "error: line 5: rule 'r' has no rhs line\n"


def test_catalog_rule_reading_an_unbound_variable(capsys, tmp_path, monkeypatch):
    from sqrtpi.rewrite import catalog_text

    # a side condition over variables that the lhs never binds can never hold
    text = catalog_text().removeprefix("sqrtpi-rules 1\n")
    assert text.count("side inverse_pair c ci\n") == 1
    err = _catalog_error(capsys, tmp_path, monkeypatch,
                         text.replace("side inverse_pair c ci\n", "side inverse_pair x y\n"))
    assert re.fullmatch(r"error: line \d+: rule 'linv◎l': side condition inverse_pair "
                        r"reads \?x, which its lhs does not bind\n", err)
    # the rhs of an oriented rule may use only what its lhs binds
    block = "rule r\n{}lhs ?c ; v\nrhs ?d\ncheck v == v\nend\n"
    err = _catalog_error(capsys, tmp_path, monkeypatch, block.format("flags oriented\n"))
    assert err == "error: line 7: rule 'r': rhs reads ?d, which its lhs does not bind\n"
    # applied backward, a rule that is not oriented binds ?d from its rhs
    path = tmp_path / "rules.txt"
    path.write_text("sqrtpi-rules 1\n" + block.format(""), encoding="utf-8")
    code, out, _ = run(capsys, "check-rules")
    assert (code, out.splitlines()[-1]) == (0, "1/1 rules pass")


def test_catalog_without_rules(capsys, tmp_path, monkeypatch):
    err = _catalog_error(capsys, tmp_path, monkeypatch, "# no rule yet\n")
    assert err == f"error: no rules in catalog {tmp_path / 'rules.txt'}\n"


def test_catalog_duplicate_rule_name(capsys, tmp_path, monkeypatch):
    block = "rule r\nlhs v\nrhs v\ncheck v == v\nend\n"
    err = _catalog_error(capsys, tmp_path, monkeypatch, block + block)
    assert err == "error: line 7: duplicate rule 'r'\n"


def test_long_circuit_equiv_is_a_verdict(capsys, tmp_path):
    circ = tmp_path / "long.circ"
    circ.write_text("qubits 2\n" + "h 0\ncx 0 1\n" * 300, encoding="utf-8")
    code, out, err = run(capsys, "equiv", str(circ), str(circ))
    assert (code, out.strip(), err) == (0, "equal", "")


def test_equiv_of_circuits_of_different_widths(capsys, tmp_path, monkeypatch):
    # checked before typecheck, so the diagnostic is one line, not a
    # unification error that prints a whole placed gate
    def unreachable(*args, **kwargs):
        raise AssertionError("check_equiv called")

    monkeypatch.setattr("sqrtpi.cli.check_equiv", unreachable)
    wide, narrow = tmp_path / "wide.circ", tmp_path / "narrow.circ"
    wide.write_text("qubits 10\nh 0\ncx 0 9\n", encoding="utf-8")
    narrow.write_text("qubits 9\nh 0\ncx 0 8\n", encoding="utf-8")
    for left, right, widths in ((wide, narrow, (10, 9)), (narrow, wide, (9, 10))):
        code, out, err = run(capsys, "equiv", str(left), str(right))
        _assert_one_line_error(code, out, err)
        assert err == (f"error: {left} has {widths[0]} qubits and {right} has {widths[1]};"
                       " equiv compares circuits of equal width\n")


def test_long_chain_parses_and_typechecks(capsys, tmp_path):
    term = tmp_path / "long.term"
    term.write_text(" ; ".join(["v"] * 2000), encoding="utf-8")
    code, out, _ = run(capsys, "parse", str(term))
    assert (code, out.count(";")) == (0, 1999)
    code, out, _ = run(capsys, "typecheck", str(term))
    assert (code, out.strip()) == (0, "2 <-> 2")
    # each `id` adds a type variable bound to the next one
    term.write_text(" ; ".join(["id"] * 3000), encoding="utf-8")
    code, out, _ = run(capsys, "typecheck", str(term), "--type", "2 <-> 2")
    assert (code, out.strip()) == (0, "2 <-> 2")


def test_nesting_limit_exit_code(capsys, tmp_path, monkeypatch):
    from sqrtpi.lang import MAX_NESTING

    v = tmp_path / "v.term"
    v.write_text("v", encoding="utf-8")
    for depth, want in ((MAX_NESTING, 0), (MAX_NESTING + 1, 2), (600, 2)):
        term = tmp_path / f"deep{depth}.term"
        term.write_text("(" * depth + "v" + ")" * depth, encoding="utf-8")
        deep_type = "(" * depth + "2" + ")" * depth + " <-> 2"
        catalog = tmp_path / f"deep{depth}.txt"
        catalog.write_text(f"sqrtpi-rules 1\nrule deep\nlhs {term.read_text()}\n"
                           "rhs v\ncheck v == v\nend\n", encoding="utf-8")
        for argv in (["parse", term], ["typecheck", term], ["eval", term],
                     ["equiv", term, v], ["equiv", v, term], ["simplify", term],
                     ["typecheck", v, "--type", deep_type], ["check-rules"]):
            if argv[0] == "check-rules":
                monkeypatch.setenv("SQRTPI_RULE_CATALOG", str(catalog))
            code, out, err = run(capsys, *map(str, argv))
            assert code == want, (depth, argv)
            if want == 0:
                assert err == ""
                if argv[0] == "typecheck":
                    assert out.strip() == "2 <-> 2"
            else:
                assert err.startswith("error: ") and "nesting deeper" in err, argv
                assert len(err.splitlines()) == 1


def test_recursion_error_is_a_diagnostic(capsys, monkeypatch):
    def overflow(*args, **kwargs):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr("sqrtpi.cli.typecheck", overflow)
    code, out, err = run(capsys, "typecheck", f"{FILES}/h.term")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and len(err.splitlines()) == 1


NOT_UTF8 = b"\xff\xfe v ; v\n"


def _assert_one_line_error(code, out, err):
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_non_utf8_eval_is_a_diagnostic(capsys, tmp_path):
    bad = tmp_path / "bad.term"
    bad.write_bytes(NOT_UTF8)
    code, out, err = run(capsys, "eval", str(bad))
    _assert_one_line_error(code, out, err)
    assert "bad.term: not UTF-8" in err


def test_non_utf8_equiv_is_not_a_verdict(capsys, tmp_path):
    bad = tmp_path / "bad.circ"
    bad.write_bytes(NOT_UTF8)
    for argv in ((f"{FILES}/h.term", str(bad)), (str(bad), f"{FILES}/h.term")):
        code, out, err = run(capsys, "equiv", *argv)
        _assert_one_line_error(code, out, err)
        assert "bad.circ: not UTF-8" in err


def test_non_utf8_rule_catalog_is_a_diagnostic(capsys, tmp_path, monkeypatch):
    bad = tmp_path / "bad.rules"
    bad.write_bytes(NOT_UTF8)
    monkeypatch.setenv("SQRTPI_RULE_CATALOG", str(bad))
    code, out, err = run(capsys, "check-rules")
    _assert_one_line_error(code, out, err)
    assert "bad.rules: not UTF-8" in err


def test_internal_failure_is_a_diagnostic(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise KeyError("line one\nline two")

    monkeypatch.setattr("sqrtpi.cli.check_equiv", broken)
    code, out, err = run(capsys, "equiv", f"{FILES}/h.term", f"{FILES}/h.term")
    _assert_one_line_error(code, out, err)
    assert "internal error: KeyError" in err


def test_interrupt_is_not_a_diagnostic(capsys, monkeypatch):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr("sqrtpi.cli.typecheck", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["typecheck", f"{FILES}/h.term"])


# gate name -> arity for the seeded circuits whose eval output is pinned
EVAL_GATES = {"h": 1, "t": 1, "s": 1, "x": 1, "z": 1, "v": 1,
              "cx": 2, "cz": 2, "swap": 2, "ccx": 3}
EVAL_MODES = {"text": (), "json": ("--json",), "float": ("--float",)}


def _seeded_circuit(n: int, seed: int, count: int = 20) -> str:
    rng = random.Random(seed)
    names = [g for g, k in EVAL_GATES.items() if k <= n]
    lines = [f"qubits {n}"]
    for _ in range(count):
        g = rng.choice(names)
        lines.append(" ".join([g, *map(str, rng.sample(range(n), EVAL_GATES[g]))]))
    return "\n".join(lines) + "\n"


def eval_digests(workdir) -> dict:
    """sha256 prefix of `eval` stdout in each mode, per demo file and per
    seeded 2-6 qubit circuit (the circuits are written to `workdir`)."""
    paths = {name: os.path.join(FILES, name) for name in sorted(os.listdir(FILES))}
    for n in range(2, 7):
        for seed in (n, 10 + n):
            path = os.path.join(workdir, f"q{n}_seed{seed}.circ")
            with open(path, "w", encoding="utf-8") as f:
                f.write(_seeded_circuit(n, seed))
            paths[os.path.basename(path)] = path
    out = {}
    for name, path in paths.items():
        for mode, flags in EVAL_MODES.items():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main(["eval", path, "--expand-macros", *flags])
            assert code == 0, (name, mode)
            out[f"{name} {mode}"] = hashlib.sha256(buf.getvalue().encode()).hexdigest()[:16]
    return out


def test_eval_output_matches_pinned_digests(tmp_path):
    # eval_digests.json was recorded while matrices were stored densely: the
    # printed bytes must not depend on how a matrix is stored
    with open(os.path.join(os.path.dirname(__file__), "eval_digests.json"),
              encoding="utf-8") as f:
        pinned = json.load(f)
    assert eval_digests(str(tmp_path)) == pinned


def test_dimension_limit_exit_code(capsys, tmp_path, monkeypatch):
    # a regression fails here instead of building a 2^30 x 2^30 matrix
    def never(*args):
        raise AssertionError("a matrix was built")

    monkeypatch.setattr("sqrtpi.semantics.eval_typed", never)
    circ = tmp_path / "wide.circ"
    circ.write_text("qubits 30\nh 0\n", encoding="utf-8")
    for argv in (["eval", str(circ)], ["equiv", str(circ), str(circ)]):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "exceeds" in err
        assert len(err.splitlines()) == 1
    # a catalog instance too large to evaluate is undecided, not a failed rule
    wide = "(id : " + "*".join(["2"] * 11) + " <-> " + "*".join(["2"] * 11) + ")"
    catalog = tmp_path / "wide.txt"
    catalog.write_text(f"sqrtpi-rules 1\nrule wide\nlhs v\nrhs v\ncheck {wide} == {wide}\nend\n",
                       encoding="utf-8")
    monkeypatch.setenv("SQRTPI_RULE_CATALOG", str(catalog))
    code, out, err = run(capsys, "check-rules")
    assert (code, out) == (2, "")
    assert err.startswith("error: rule wide instance 0: ") and "exceeds" in err
    assert len(err.splitlines()) == 1


# primitives and gate names that the seeded ill-typed inputs are built from
ERROR_ATOMS = ("id", "swap+", "swap*", "assocl*", "assocr*", "assocl+", "dist",
               "factor", "unite*l", "uniti*l", "uniti+l", "absorbl", "v", "w",
               "h", "x", "cx", "cz", "ccx")
ERROR_TYPES = ("1", "2", "2*2", "2+1", "1*2", "2*2*2", "0")


def _random_untyped(rng: random.Random, depth: int) -> str:
    """Surface syntax combined at random from ERROR_ATOMS; mostly ill-typed."""
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(ERROR_ATOMS)
    op = rng.choice((" ; ", " + ", " * ", " ; "))
    text = _random_untyped(rng, depth - 1) + op + _random_untyped(rng, depth - 1)
    if rng.random() < 0.2:
        return f"({text} : {rng.choice(ERROR_TYPES)} <-> {rng.choice(ERROR_TYPES)})"
    return f"({text})"


def _mutant(rng: random.Random, seed: int) -> str:
    """A well-typed random term with one primitive renamed or a wrong annotation."""
    from sqrtpi.lang import pretty, type_str
    from termgen import random_terms

    term, src, tgt = next(random_terms(100 + seed, 1, max_depth=4))
    text = pretty(term)
    names = list(re.finditer(r"[a-z][a-z+*]*", text))
    if rng.random() < 0.6:
        m = rng.choice(names)
        text = text[:m.start()] + rng.choice(ERROR_ATOMS) + text[m.end():]
        return f"{text} : {type_str(src)} <-> {type_str(tgt)}"
    return f"{text} : {type_str(src)} <-> {rng.choice(ERROR_TYPES)}"


def ill_typed_inputs() -> list[str]:
    """Fifty seeded inputs, most of them ill-typed or not fully determined."""
    out = []
    for seed in range(50):
        rng = random.Random(seed)
        out.append(_random_untyped(rng, 3) if seed % 2 else _mutant(rng, seed))
    return out


def error_digests(workdir) -> dict:
    """sha256 prefix of the exit code and stderr of `typecheck`, `eval` and
    `equiv` (the input on either side) on each of ill_typed_inputs(), with and
    without --expand-macros."""
    partner = os.path.join(FILES, "h.term")
    out = {}
    for i, text in enumerate(ill_typed_inputs()):
        path = os.path.join(workdir, f"bad{i}.term")
        with open(path, "w", encoding="utf-8") as f:
            f.write(text + "\n")
        runs = {"typecheck": ["typecheck", path], "eval": ["eval", path],
                "equiv_left": ["equiv", path, partner],
                "equiv_right": ["equiv", partner, path]}
        for flags in ((), ("--expand-macros",)):
            for name, argv in runs.items():
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(err):
                    code = main([*argv, *flags])
                key = f"bad{i} {name}{' expand' if flags else ''}"
                blob = f"{code}\n{err.getvalue()}".encode()
                out[key] = hashlib.sha256(blob).hexdigest()[:16]
    return out


def test_error_output_matches_pinned_digests(tmp_path):
    # error_digests.json was recorded with the tree-walking typechecker: which
    # node a type error names, and its tN variables, must not depend on how
    # repeated subterms are checked
    with open(os.path.join(os.path.dirname(__file__), "error_digests.json"),
              encoding="utf-8") as f:
        pinned = json.load(f)
    assert error_digests(str(tmp_path)) == pinned


def test_type_error_quote_is_bounded(capsys, tmp_path):
    from sqrtpi.lang import MAX_QUOTE

    rng = random.Random(1)
    wide = tmp_path / "wide.circ"
    wide.write_text("qubits 40\n" + "".join(
        "cx {} {}\n".format(*rng.sample(range(40), 2)) for _ in range(200)), encoding="utf-8")
    code, out, err = run(capsys, "typecheck", str(wide), "--type", "2 <-> 2")
    _assert_one_line_error(code, out, err)
    assert err.startswith("error: cannot unify ") and err.endswith("...`\n")
    assert len(err) < MAX_QUOTE + 300


def test_type_error_renders_only_what_it_quotes():
    # the quote stops rendering once past MAX_QUOTE: rendering the whole
    # term of this circuit would allocate megabytes, the quote a few KB
    from sqrtpi import lang
    from sqrtpi.circuits import compile_circuit, parse_circuit

    rng = random.Random(1)
    term = compile_circuit(parse_circuit("qubits 40\n" + "".join(
        "cx {} {}\n".format(*rng.sample(range(40), 2)) for _ in range(200))))
    tracemalloc.start()
    try:
        quote = lang._quote(term)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * lang.MAX_QUOTE
    whole = lang.pretty(term)
    assert len(whole) > 1000 * lang.MAX_QUOTE
    assert quote == whole[:lang.MAX_QUOTE] + "..."
    # chains of 250 parts, "id ; id ; id ; v ; v ; ...", around the cap
    for ids in (3, 4):
        chain = lang.seq(*[lang.Prim("id")] * ids, *[lang.Prim("v")] * (250 - ids))
        text = lang.pretty(chain)
        assert len(text) == 997 + ids
        assert lang._quote(chain) == (text if ids == 3 else text[:1000] + "...")


def test_qubit_limit(capsys, tmp_path):
    from sqrtpi.circuits import MAX_QUBITS, compile_circuit, parse_circuit
    from sqrtpi.lang import parse

    n = MAX_QUBITS
    # ccx on the first wires nests deepest; at n + 1 it no longer parses
    at_limit = tmp_path / "max.circ"
    at_limit.write_text(f"qubits {n}\nccx 0 1 2\ncx {n - 1} 0\nx {n - 1}\n", encoding="utf-8")
    code, out, err = run(capsys, "compile", str(at_limit))
    assert (code, err) == (0, "")
    assert parse(out) == compile_circuit(parse_circuit(at_limit.read_text()))
    code, out, _ = run(capsys, "typecheck", str(at_limit))
    assert (code, out.strip()) == (0, " <-> ".join(["*".join(["2"] * n)] * 2))
    for argv in (["eval", str(at_limit)], ["equiv", str(at_limit), str(at_limit)]):
        code, out, err = run(capsys, *argv)
        _assert_one_line_error(code, out, err)
        assert "exceeds the evaluation limit" in err
    one_gate = tmp_path / "x.circ"
    one_gate.write_text(f"qubits {n}\nx {n - 1}\n", encoding="utf-8")
    code, out, _ = run(capsys, "simplify", str(one_gate), "--steps", "1")
    assert code == 0 and out.startswith("start: ")

    over = tmp_path / "over.circ"
    over.write_text(f"qubits {n + 1}\nccx 0 1 2\n", encoding="utf-8")
    for argv in (["compile", str(over)], ["typecheck", str(over)], ["eval", str(over)],
                 ["equiv", str(over), str(at_limit)], ["simplify", str(over)]):
        code, out, err = run(capsys, *argv)
        _assert_one_line_error(code, out, err)
        assert f"line 1: {n + 1} qubits exceed the limit of {n}" in err, argv


def test_dimension_limit_comes_before_cancelling_shared_parts(capsys, tmp_path):
    # once their shared gates cancel, these sides differ in one 1-qubit gate,
    # yet an 11-qubit type is refused before anything is cancelled
    sides = []
    for name, last in (("a", "t"), ("b", "s")):
        sides.append(tmp_path / f"{name}.circ")
        sides[-1].write_text(f"qubits 11\nh 0\ncx 0 10\n{last} 5\nccx 1 2 3\n",
                             encoding="utf-8")
    for flags in ((), ("--phase",)):
        code, out, err = run(capsys, "equiv", *map(str, sides), *flags)
        _assert_one_line_error(code, out, err)
        assert "dimension 2048 exceeds the evaluation limit" in err


def test_far_over_qubit_limit_is_checked_first(capsys, tmp_path):
    circ = tmp_path / "wide.circ"
    circ.write_text("qubits 900\ncx 0 899\n", encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run(capsys, "equiv", str(circ), str(circ))
    assert time.perf_counter() - start < 1.0
    _assert_one_line_error(code, out, err)
    assert "900 qubits exceed the limit" in err


def test_one_parser_serves_every_call(capsys):
    # main() builds its argument parser on the first call of the process and
    # reuses it: each call prints what it printed with a parser of its own,
    # argparse rejections and help included
    from sqrtpi import cli

    calls = [
        ["equiv", f"{FILES}/sh_cubed.term", f"{FILES}/identity2.term", "--expand-macros",
         "--phase"],
        ["eval", f"{FILES}/h.term", "--json"],
        ["equiv", f"{FILES}/h.term"],
        ["typecheck", f"{FILES}/sw_ccx.circ"],
        ["simplify", f"{FILES}/s_s.term", "--steps", "many"],
        ["compile", f"{FILES}/cz_pair.circ"],
        ["equiv", "--help"],
        ["frobnicate"],
        ["simplify", f"{FILES}/s_s.term", "--expand-macros", "--json"],
    ]

    def call(argv):
        try:
            code = cli.main(argv)
        except SystemExit as e:  # argparse exits on --help and on a rejection
            code = f"exit {e.code}"
        out = capsys.readouterr()
        return code, out.out, out.err

    first = []
    for argv in calls:
        cli._parser.cache_clear()
        first.append(call(argv))
    assert [code for code, _, _ in first] == [0, 0, "exit 2", 0, "exit 2", 0, "exit 0",
                                              "exit 2", 0]
    cli._parser.cache_clear()
    assert [call(argv) for argv in calls] == first
    assert cli._parser.cache_info().misses == 1
