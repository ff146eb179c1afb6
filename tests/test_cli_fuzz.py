"""Seeded fuzz of the command line over every input kind.

Term files, circuit files and rule catalogs (built with catalog_text() and
read by check-rules through SQRTPI_RULE_CATALOG) are mutated token by token
and line by line, and run through every subcommand.  Whatever the input, a
command exits 0, 1 or 2, never reports an internal error, and exits 1 ("not
equivalent", "rules failed") only from equiv and check-rules.
"""

import contextlib
import glob
import io
import os
import random
import re

from sqrtpi.cli import main
from sqrtpi.gates import gate_macros
from sqrtpi.lang import pretty, type_str
from sqrtpi.rewrite import catalog_text

from termgen import random_terms

FILES = os.path.join(os.path.dirname(__file__), os.pardir, "demos", "files")
TOKEN_RE = re.compile(r"<->|[A-Za-z][A-Za-z0-9_+*]*|\?[A-Za-z]\w*|\d+|\S")
# what a term mutant drops, inserts or puts in place of a token
TERM_TOKENS = ("(", ")", "# (\n", "@", ";", "+", "*", ":", "<->", "2", "2*2", "0",
               "v", "h", "cx", "ccx", "swap+", "?f", "frob", "id : 2 <-> 2")
# what a circuit mutant puts in place of a field of a line
CIRCUIT_FIELDS = ("qubits", "0", "1", "2", "3", "-1", "99", "1000", "x", "#", "h", "cx",
                  "ccx", "swap", "csx", "frob", "0 1", "")


def _term_mutant(rng: random.Random, text: str) -> str:
    """text cut short, or with one token dropped, another inserted before
    it, or replaced."""
    if rng.random() < 0.2:
        return text[:rng.randrange(len(text) + 1)]
    m = rng.choice(list(TOKEN_RE.finditer(text)))
    new = ["", f"{rng.choice(TERM_TOKENS)} {m[0]}", rng.choice(TERM_TOKENS)]
    return text[:m.start()] + rng.choice(new) + text[m.end():]


def _circuit_mutant(rng: random.Random, text: str) -> str:
    """text with one line dropped, repeated, or with one field replaced."""
    lines = text.splitlines()
    i = rng.randrange(len(lines))
    kind = rng.randrange(3)
    if kind == 0:
        del lines[i]
    elif kind == 1:
        lines.insert(i, lines[i])
    else:
        fields = lines[i].split() or [""]
        fields[rng.randrange(len(fields))] = rng.choice(CIRCUIT_FIELDS)
        lines[i] = " ".join(fields)
    return "\n".join(lines) + "\n"


def _catalog_mutant(rng: random.Random, text: str) -> str:
    """The catalog with one pattern line mutated as a term or replaced by
    another rule's line of the same kind, or with one line dropped or
    repeated."""
    lines = text.splitlines()
    patterns = [i for i, line in enumerate(lines) if line.split(" ")[0] in ("lhs", "rhs", "check")]
    kind = rng.randrange(5)
    i = rng.choice(patterns)
    key, _, rest = lines[i].partition(" ")
    if kind < 2:
        lines[i] = f"{key} {_term_mutant(rng, rest)}"
    elif kind == 2:
        lines[i] = rng.choice([lines[j] for j in patterns if lines[j].startswith(key)])
    else:
        i = rng.randrange(len(lines))
        lines[i:i + 1] = [] if kind == 3 else [lines[i]] * 2
    return "\n".join(lines) + "\n"


def _random_circuit(rng: random.Random) -> str:
    sizes = {name: m.qubits for name, m in gate_macros().items() if m.qubits}
    n = rng.randint(1, 3)
    names = sorted(g for g, k in sizes.items() if k <= n)
    gates = [(g, rng.sample(range(n), sizes[g])) for g in rng.choices(names, k=rng.randint(1, 5))]
    return f"qubits {n}\n" + "".join(f"{g} {' '.join(map(str, w))}\n" for g, w in gates)


def _run(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def test_cli_fuzz_over_every_input_kind(tmp_path, monkeypatch):
    rng = random.Random(24)
    terms, circuits = [], []
    for path in sorted(glob.glob(os.path.join(FILES, "*"))):
        with open(path, encoding="utf-8") as f:
            (circuits if path.endswith(".circ") else terms).append(f.read())
    terms += [f"{pretty(t)} : {type_str(s)} <-> {type_str(g)}"
              for t, s, g in random_terms(25, 40, max_depth=4)]
    circuits += [_random_circuit(rng) for _ in range(40)]
    files = []

    def write(name: str, data: bytes) -> str:
        path = str(tmp_path / name)
        with open(path, "wb") as f:
            f.write(data)
        files.append(path)
        return path

    for i, text in enumerate(terms):
        for j in range(3):
            write(f"t{i}_{j}.term", _term_mutant(rng, text).encode())
        write(f"t{i}.term", text.encode())
    for i, text in enumerate(circuits):
        for j in range(3):
            write(f"c{i}_{j}.circ", _circuit_mutant(rng, text).encode())
        write(f"c{i}.circ", text.encode())
    # a file that is not UTF-8, of either kind
    write("u.term", b"v ; \xff w\n")
    write("u.circ", b"qubits 1\nh \xff0\n")

    failures, codes = [], {}

    def check(*argv: str) -> None:
        code, err = _run(list(argv))
        codes.setdefault(argv[0], set()).add(code)
        if (code not in (0, 1, 2) or "internal error" in err
                or (code == 1 and argv[0] not in ("equiv", "check-rules"))):
            failures.append((argv, code, err))

    for path in files:
        check("parse", path)
        check("parse", path, "--expand-macros")
        check("typecheck", path, "--expand-macros")
        check("eval", path, "--expand-macros")
        check("simplify", path, "--expand-macros", "--steps", "8", "--json")
        check("compile", path)
        check("equiv", path, rng.choice(files), "--expand-macros", "--phase")
    check("catalog")
    catalog = catalog_text()
    for i in range(40):
        monkeypatch.setenv("SQRTPI_RULE_CATALOG", write(f"k{i}.txt", _catalog_mutant(rng, catalog).encode()))
        check("check-rules")
    assert failures == []
    # the mutants reach past the first error: every command also succeeds
    assert all(0 in seen for seen in codes.values()), codes
    assert codes["equiv"] == codes["check-rules"] == {0, 1, 2}
