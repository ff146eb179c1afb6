"""Parser diagnostics pinned byte for byte.

parse_error_digests.json holds, for each input of parse_error_corpus(), a
sha256 prefix of the exit code, stdout and stderr of `sqrtpi parse` (with
and without --expand-macros), and for each catalog of
catalog_error_corpus() the same of `sqrtpi check-rules` under
SQRTPI_RULE_CATALOG.  The corpus is seeded: truncations and one-token
mutations of catalog pattern lines, demo files and random well-typed terms,
plus hand-written inputs for bad characters, unbalanced parentheses, the
nesting limit and errors near repeated groups.
"""

import contextlib
import glob
import hashlib
import io
import json
import os
import random
import re

from sqrtpi import lang
from sqrtpi.cli import main
from sqrtpi.lang import MAX_NESTING, ParseError, parse, pretty, shared_groups, type_str
from sqrtpi.rewrite import catalog_text

from termgen import random_terms

DIGESTS = os.path.join(os.path.dirname(__file__), "parse_error_digests.json")
DEMO_TERMS = os.path.join(os.path.dirname(__file__), os.pardir, "demos", "files", "*.term")

# tokens spliced in by the one-token mutations (the empty string deletes)
MUTATION_TOKENS = ("(", ")", "+", "*", ";", ":", "<->", "v", "h", "cx", "?f",
                   "2", "3", "0", "frob", "==", "", "@", "-", "id : 2 <-> 2")
TOKEN_RE = re.compile(r"<->|[A-Za-z][A-Za-z0-9_+*]*|\?[A-Za-z]\w*|\d+|\S")


def _pattern_texts() -> list[str]:
    """Every lhs / rhs text and each side of every check line of the catalog."""
    out = []
    for line in catalog_text().splitlines():
        key, _, rest = line.partition(" ")
        if key in ("lhs", "rhs"):
            out.append(rest)
        elif key == "check":
            out.extend(side.strip() for side in rest.split("=="))
    return out


def _demo_texts() -> list[str]:
    out = []
    for path in sorted(glob.glob(DEMO_TERMS)):
        with open(path, encoding="utf-8") as f:
            out.append(f.read())
    return out


def _term_texts() -> list[str]:
    return [f"{pretty(t)} : {type_str(s)} <-> {type_str(g)}"
            for t, s, g in random_terms(7, 12, max_depth=5)]


def _mutate(rng: random.Random, text: str) -> str:
    """text cut at a random character, or with one token replaced."""
    if rng.random() < 0.35:
        return text[:rng.randrange(len(text) + 1)]
    toks = list(TOKEN_RE.finditer(text))
    m = rng.choice(toks)
    return text[:m.start()] + rng.choice(MUTATION_TOKENS) + text[m.end():]


def _nesting_texts() -> list[str]:
    n = MAX_NESTING
    out = []
    for k in (n - 1, n, n + 1):
        out += ["(" * k + "v" + ")" * k,
                " + ".join(["v"] * (k + 1)),
                " * ".join(["w"] * (k + 1)),
                "v : " + "(" * k + "2" + ")" * k + " <-> 2",
                "w : 1 <-> " + "*".join(["1"] * (k + 1)),
                "v : 2 <-> " + "+".join(["1"] * k),
                "(" * (k // 2) + " + ".join(["v"] * (k - k // 2 + 1)) + ")" * (k // 2),
                "(" * k + "v ; v" + ")" * (k - 1)]
    # one group read shallow, then again where it crosses the limit
    group = "(" * 50 + "v ; w" + ")" * 50
    for k in (49, 50, 51):
        out.append(f"{group} ; " + "(" * k + group + ")" * k)
        out.append(f"{group} ; " + " * ".join(["w"] * k + [group]))
        out.append(f"{group} ; " + "(" * k + group + " ; @" + ")" * k)
    tgroup = "(" * 50 + "2*2" + ")" * 50
    for k in (49, 50, 51):
        out.append(f"id : {tgroup} <-> 2*2 ; id : " + "(" * k + tgroup + ")" * k + " <-> 2*2")
    return out


def _hand_written() -> list[str]:
    return [
        "", "   ", "# only a comment\n", "v ; @", "v\x0c", "v ; é", "v ; ?", "v <- w",
        "v - w", "(v ; w) # ok\n$", "v ; ?f", "?f", "h", "cx ; frob",
        "(v", "v)", "((v)", "(v))", ")(", "(v ; (w)", "(v ; w))) ; v", "()", "(())",
        "v ; ()", "(:", "(v :", "(v : 2", "(v : 2 <->", "(v : 2 <-> 2", "(v : 2 <-> 2))",
        "v : 2 <-> 3", "v : (2 <-> 2)", "v : 2 <-> ()", "v : 2 <-> (2", "v : 2 <-> 2)",
        "v : 2 2", "v : 2 <-> 2 <-> 2", "v : 2 <-> 2 : 2",
        # errors just after and inside a repeated group
        "(v ; w) ; (v ; w) ; (v ; w) )",
        "(v ; w) ; (v ; w) v",
        "(v ; w) ; (v ; w ;)",
        "(v ; w) ; (v ; w) ; (v ; x)",
        "(v ; w) ; (v ; w) ; (v ; ?f)",
        "(id : 2 <-> 2) + (w ; w) ; (id : 2 <-> 2) + (w ; w) ; (id : 2 <-> 3)",
        "(id : 2 <-> 2) * (id : 2 <-> 2) ; (id : 2 <-> 2) *",
        "((v ; w)) ; ((v ; w)) ; ((v ; w) ; h)",
        "(v ; w) ; (v ; w\n) ; (v ;\n w) ; (v ; w\n",
        "(v ; w) # (v ; w\n ; (v ; w) ; ( v ; w ) ; (v;w)) ; (",
        # the same tokens read as a type and then as a term, and the reverse
        "(v : (2) <-> 2) ; (2)", "(v) ; v : (v) <-> 2", "(h) ; v : (h) <-> 2",
    ]


def parse_error_corpus() -> list[str]:
    rng = random.Random(20)
    patterns = _pattern_texts()
    out = _hand_written() + _nesting_texts()
    for base in rng.sample(patterns, 60):
        out += [_mutate(rng, base), _mutate(rng, base)]
    for base in _demo_texts():
        out += [_mutate(rng, base) for _ in range(4)]
    for base in _term_texts():
        out += [_mutate(rng, base), _mutate(rng, base)]
    return out


def catalog_error_corpus() -> list[str]:
    """Catalog texts that fail to load: the first twelve rule blocks of the
    built-in catalog with one pattern line mutated, then a block with an
    unterminated group, so that every text fails even where the mutation
    still parses."""
    rng = random.Random(21)
    lines = catalog_text().splitlines()
    ends = [i for i, line in enumerate(lines) if line == "end"]
    prefix = lines[:ends[11] + 1]
    targets = [i for i, line in enumerate(prefix) if line.split(" ")[0] in ("lhs", "rhs", "check")]
    tail = ["rule Zbad", "lhs (v ; w", "end", ""]
    out = []
    for i in rng.sample(targets, 30):
        key, _, rest = prefix[i].partition(" ")
        out.append("\n".join(prefix[:i] + [f"{key} {_mutate(rng, rest)}"] + prefix[i + 1:] + tail))
    # a group from an early line read again later, past the nesting limit
    group = "(" * 50 + "v ; w" + ")" * 50
    for k in (50, 51):
        deep = "(" * k + group + ")" * k
        out.append("\n".join(["sqrtpi-rules 1", "rule G1", f"lhs {group}", f"rhs {group}",
                              f"check {group} == {group}", "end", "rule G2", f"lhs {deep}",
                              "rhs v ; w", f"check {deep} == v ; w", "end"] + tail))
    return out


def _run(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    blob = f"{code}\n{out.getvalue()}\n{err.getvalue()}".encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def parse_error_digests(workdir: str, monkeypatch) -> dict:
    out = {}
    for i, text in enumerate(parse_error_corpus()):
        path = os.path.join(workdir, f"p{i}.term")
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
        out[f"p{i} parse"] = _run(["parse", path])
        out[f"p{i} parse expand"] = _run(["parse", path, "--expand-macros"])
    for i, text in enumerate(catalog_error_corpus()):
        path = os.path.join(workdir, f"c{i}.txt")
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
        monkeypatch.setenv("SQRTPI_RULE_CATALOG", path)
        out[f"c{i} check-rules"] = _run(["check-rules"])
    return out


def test_parse_error_output_matches_pinned_digests(tmp_path, monkeypatch):
    # parse_error_digests.json was recorded with a parser that read every
    # group of every input again: a parse that reuses a group must report
    # the same message, line:col and expected list
    with open(DIGESTS, encoding="utf-8") as f:
        pinned = json.load(f)
    assert parse_error_digests(str(tmp_path), monkeypatch) == pinned


# what a warm/cold mutant drops, inserts or puts in place of a token: the
# parentheses of a group, a comment holding a "(", a character that starts
# no token, and ordinary tokens
WARM_COLD_TOKENS = ("(", ")", "# (\n", "@", "v", ";", "*", "+", "2", ":", "?f", "h", "<->")


def _token_mutant(rng: random.Random, text: str) -> str:
    """text with one token dropped, another inserted before it, or replaced."""
    m = rng.choice(list(TOKEN_RE.finditer(text)))
    new = ["", f"{rng.choice(WARM_COLD_TOKENS)} {m[0]}", rng.choice(WARM_COLD_TOKENS)]
    return text[:m.start()] + rng.choice(new) + text[m.end():]


def _outcome(text: str, options: dict):
    try:
        return parse(text, **options)
    except ParseError as e:
        return str(e), e.line, e.col, e.expected


def test_warm_parse_equals_cold_parse(monkeypatch):
    # a parse that skips the groups earlier parses read must give what a
    # parse with a fresh memo gives: the same node or the same error
    rng = random.Random(22)
    terms = [f"{pretty(t)} : {type_str(s)} <-> {type_str(g)}"
             for t, s, g in random_terms(23, 120, max_depth=6)]
    bases = [(t, {"allow_metavars": True}) for t in _pattern_texts()]
    bases += [(t, {}) for t in terms] + [(t, {"expand_macros": True}) for t in _demo_texts()]
    # a group read at depth 0, then reused up to and past the nesting limit
    group = "(" * 50 + "v ; w" + ")" * 50
    bases.append((group, {}))
    inputs = list(bases)
    inputs += [("(" * k + group + ")" * k, {}) for k in (49, 50, 51)]
    inputs += [(" * ".join(["w"] * k + [group]), {}) for k in (50, 51)]
    for text, options in bases:
        inputs += [(_token_mutant(rng, text), options) for _ in range(2)]
    reads = []
    read = lang._Parser._read

    def counting(parser, pos):
        reads.append(pos)
        read(parser, pos)

    monkeypatch.setattr(lang._Parser, "_read", counting)
    cold = [_outcome(text, options) for text, options in inputs]
    cold_reads = len(reads)
    with shared_groups():
        for text, options in bases:
            parse(text, **options)
        del reads[:]
        for (text, options), want in zip(inputs, cold):
            got = _outcome(text, options)
            if isinstance(want, tuple):
                assert got == want, text
            else:
                assert got is want, text
    assert sum(isinstance(w, tuple) for w in cold) > len(inputs) // 5
    assert len(reads) < cold_reads // 2  # the groups were passed over, not read
