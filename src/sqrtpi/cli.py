"""Command-line interface.

Subcommands: parse, typecheck, eval, equiv, simplify, compile, check-rules,
catalog.
Exit codes: 0 success (or "equivalent"), 1 not equivalent / rules failed,
2 parse or type errors, an unreadable or non-UTF-8 file, input too deeply
nested, a matrix larger than ``semantics.MAX_DIMENSION``, or any internal
failure (one diagnostic line on stderr).

Files ending in ``.circ`` are read as circuit files and compiled; anything
else is parsed as a term in the surface syntax.  Set SQRTPI_RULE_CATALOG to
override the built-in rule catalog for ``check-rules``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .circuits import Circuit, compile_circuit, parse_circuit
from .lang import Combinator, SqrtPiError, parse, parse_type_pair, pretty, type_str, typecheck
from .rewrite import (
    catalog_text,
    check_equiv,
    load_catalog,
    rule_db,
    simplify,
    validate_rule,
)
from .semantics import evaluate, render, render_float


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError as e:
        raise SqrtPiError(f"{path}: not UTF-8 text (byte {e.start}: {e.reason})") from e


def _load(path: str, expand_macros: bool) -> Circuit | Combinator:
    text = _read(path)
    if path.endswith(".circ"):
        return parse_circuit(text)
    return parse(text, expand_macros=expand_macros)


def _term(artifact: Circuit | Combinator) -> Combinator:
    return compile_circuit(artifact) if isinstance(artifact, Circuit) else artifact


def _load_term(path: str, expand_macros: bool) -> Combinator:
    return _term(_load(path, expand_macros))


def _expected(args) -> tuple | None:
    if getattr(args, "type", None):
        return parse_type_pair(args.type)
    return None


def _cmd_parse(args) -> int:
    term = _load_term(args.file, args.expand_macros)
    print(pretty(term))
    return 0


def _cmd_typecheck(args) -> int:
    term = _load_term(args.file, args.expand_macros)
    t = typecheck(term, _expected(args))
    print(f"{type_str(t.src)} <-> {type_str(t.tgt)}")
    return 0


def _cmd_eval(args) -> int:
    term = _load_term(args.file, args.expand_macros)
    m = evaluate(typecheck(term, _expected(args)))
    if args.json:
        print(json.dumps(m.to_json()))
    else:
        print(render(m))
        if args.float:
            print("approximate (not authoritative):")
            print(render_float(m))
    return 0


def _cmd_equiv(args) -> int:
    left = _load(args.left, args.expand_macros)
    right = _load(args.right, args.expand_macros)
    if (isinstance(left, Circuit) and isinstance(right, Circuit)
            and left.n_qubits != right.n_qubits):
        raise SqrtPiError(f"{args.left} has {left.n_qubits} qubits and {args.right} has "
                          f"{right.n_qubits}; equiv compares circuits of equal width")
    t1, t2 = _term(left), _term(right)
    mode = "up_to_omega_power" if args.phase else "strict"
    verdict = check_equiv(t1, t2, mode, _expected(args))
    print(verdict)
    return 0 if verdict.equivalent else 1


def _cmd_simplify(args) -> int:
    if args.steps < 0:
        raise SqrtPiError(f"--steps must be 0 or more, not {args.steps}")
    term = _load_term(args.file, args.expand_macros)
    out, trace = simplify(term, budget=args.steps, expected=_expected(args))
    if args.json:
        print(json.dumps(trace.to_json()))
        return 0
    print(f"start: {pretty(trace.start)}")
    for i, step in enumerate(trace.steps, start=1):
        where = "/".join(map(str, step.path)) or "root"
        print(f"{i:3}. {step.rule} @ {where} [{step.direction}]"
              f" -> {pretty(step.term_after)}")
    print(f"final: {pretty(out)}")
    print(f"omega power: {trace.omega_power}")
    return 0


def _cmd_compile(args) -> int:
    circuit = parse_circuit(_read(args.file))
    print(pretty(compile_circuit(circuit)))
    return 0


def _cmd_check_rules(args) -> int:
    catalog_path = os.environ.get("SQRTPI_RULE_CATALOG")
    if catalog_path:
        rules = load_catalog(_read(catalog_path))
    else:
        rules = rule_db()
    if args.family:
        rules = [r for r in rules if r.family == args.family]
        if not rules:
            raise SqrtPiError(f"no rules in family {args.family!r}")
    elif not rules:
        raise SqrtPiError(f"no rules in catalog {catalog_path}")
    memo: dict = {}  # denotations, shared by the whole run
    reports = [validate_rule(r, memo=memo) for r in rules]
    width = max(len(r.name) for r in rules)
    passed = 0
    for rule, report in zip(rules, reports):
        ok = report.passed
        passed += ok
        status = "pass" if ok else "FAIL"
        phase = f" phase={rule.phase}" if rule.phase else ""
        print(f"{rule.name:<{width}}  {rule.family:<9} "
              f"{len(report.results):>2} instance(s){phase}  {status}")
        if not ok:
            for res in report.results:
                if not res.ok:
                    print(f"    instance {res.index}: {res.detail}")
    print(f"{passed}/{len(rules)} rules pass")
    return 0 if passed == len(rules) else 1


def _cmd_catalog(args) -> int:
    print(catalog_text(), end="")
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first ``main`` call and reused by
    every later one: parsing does not change it."""
    ap = argparse.ArgumentParser(
        prog="sqrtpi",
        description="Toolchain for the sqrt-Pi combinator language: exact "
        "evaluation, circuit compilation, equivalence checking, rewriting.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, with_type=True):
        p.add_argument("--expand-macros", action="store_true",
                       help="resolve gate names in the surface syntax")
        if with_type:
            p.add_argument("--type", metavar="'SRC <-> TGT'",
                           help="expected type annotation")

    p = sub.add_parser("parse", help="parse a term and print its canonical form")
    p.add_argument("file")
    common(p, with_type=False)
    p.set_defaults(fn=_cmd_parse)

    p = sub.add_parser("typecheck", help="infer and print a term's type")
    p.add_argument("file")
    common(p)
    p.set_defaults(fn=_cmd_typecheck)

    p = sub.add_parser("eval", help="print the exact matrix of a term or circuit")
    p.add_argument("file")
    p.add_argument("--json", action="store_true", help="matrix as JSON")
    p.add_argument("--float", action="store_true",
                   help="also print an approximate complex rendering")
    common(p)
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("equiv", help="decide exact equivalence of two artifacts")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--phase", action="store_true",
                   help="allow a global omega-power phase")
    common(p)
    p.set_defaults(fn=_cmd_equiv)

    p = sub.add_parser("simplify", help="greedy rule-based simplification trace")
    p.add_argument("file")
    p.add_argument("--steps", type=int, default=64, metavar="N",
                   help="step budget (default 64)")
    p.add_argument("--json", action="store_true", help="trace as JSON")
    common(p)
    p.set_defaults(fn=_cmd_simplify)

    p = sub.add_parser("compile", help="compile a circuit file to a term")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_compile)

    p = sub.add_parser("check-rules", help="validate the rule catalog")
    p.add_argument("--family", help="restrict to one family (A, B, D, P, E, ...)")
    p.set_defaults(fn=_cmd_check_rules)

    p = sub.add_parser("catalog", help="print the rule catalog in text form")
    p.set_defaults(fn=_cmd_catalog)
    return ap


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (SqrtPiError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input nested too deeply to process", file=sys.stderr)
        return 2
    except Exception as e:  # an internal failure is a diagnostic, never a verdict
        print(f"error: internal error: {type(e).__name__}: {e}".splitlines()[0],
              file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
