"""Command-line interface.

Subcommands: solve, verify, construct, table, census, eq1.  Output
formats json, csv and text are deterministic: identical invocations
produce byte-identical stdout.

Exit codes: 0 success, 1 semantic failure (formula mismatch or invalid
input set), 2 usage error, 3 internal invariant breach.
"""

from __future__ import annotations

import argparse
import json
import sys

from .constructions import build_construction
from .domination import (
    DominationKind,
    census_inequalities,
    component_census,
    is_valid,
)
from .errors import InternalError, PetdomError
from .formulas import f_one_two, g_one_two_total, gamma_ref, gamma_t_ref
from .graph import PetersenGraph, VertexSet
from .solver import brute_force_min, check_eq1, enumerate_eq1
from .transfer import dp_min, dp_minima

EXIT_OK = 0
EXIT_SEMANTIC = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

_FORMULAS = {
    DominationKind.PLAIN: gamma_ref,
    DominationKind.TOTAL: gamma_t_ref,
    DominationKind.ONE_TWO: f_one_two,
    DominationKind.ONE_TWO_TOTAL: g_one_two_total,
}

_KIND_CHOICES = [k.value for k in DominationKind]


def _emit_json(doc) -> None:
    print(json.dumps(doc))


def _emit_csv(header: list[str], rows: list[list]) -> None:
    print(",".join(header))
    for row in rows:
        print(",".join(str(c) for c in row))


def _check_k(args) -> None:
    if args.k != 2:
        raise PetdomError(f"only k = 2 is supported, got k={args.k}")


def cmd_solve(args) -> int:
    _check_k(args)
    kind = DominationKind.from_text(args.kind)
    method = args.method
    if method == "auto":
        method = "brute" if 2 * args.n <= 20 else "dp"
    if method == "brute":
        result = brute_force_min(PetersenGraph(args.n, 2), kind)
    else:
        result = dp_min(args.n, kind)
    doc = result.as_dict(include_witness=args.witness)
    if args.format == "json":
        _emit_json(doc)
    elif args.format == "csv":
        if args.witness:
            doc["witness"] = result.witness.text().replace(",", ";")
        _emit_csv(list(doc), [list(doc.values())])
    else:
        print(
            f"P({result.n},{result.k}) {result.kind.value}: "
            f"minimum {result.minimum} ({result.method.value})"
        )
        if args.witness:
            print(f"witness: {result.witness.text()}")
    return EXIT_OK


def cmd_verify(args) -> int:
    kind = DominationKind.from_text(args.kind)
    dp = dp_minima(args.start, args.end, kind)
    formula = _FORMULAS[kind]
    rows = []
    all_match = True
    for n, got in zip(range(args.start, args.end + 1), dp):
        expected = formula(n)
        match = expected == got
        all_match &= match
        rows.append([n, expected, got, match])
    header = ["n", "formula", "dp", "match"]
    if args.format == "json":
        _emit_json(
            {
                "kind": kind.value,
                "rows": [dict(zip(header, r)) for r in rows],
                "all_match": all_match,
            }
        )
    elif args.format == "csv":
        _emit_csv(header, rows)
    else:
        for n, expected, got, match in rows:
            flag = "ok" if match else "MISMATCH"
            print(f"n={n} formula={expected} dp={got} {flag}")
        print(f"all match: {all_match}")
    return EXIT_OK if all_match else EXIT_SEMANTIC


def cmd_construct(args) -> int:
    _check_k(args)
    kind = DominationKind.from_text(args.kind)
    c = build_construction(args.n, kind)
    if args.format == "json":
        _emit_json(c.as_dict())
    elif args.format == "csv":
        doc = c.as_dict()
        doc["set"] = c.vertex_set.text().replace(",", ";")
        _emit_csv(list(doc), [list(doc.values())])
    else:
        print(
            f"P({c.n},2) {c.kind.value}: size {c.size} "
            f"[{c.source.value}] {c.vertex_set.text()}"
        )
    return EXIT_OK


def cmd_table(args) -> int:
    header = [
        "n",
        "gamma_ref",
        "gamma_t_ref",
        "f",
        "g",
        "dp_plain",
        "dp_total",
        "dp_one_two",
        "dp_one_two_total",
    ]
    columns = [dp_minima(args.start, args.end, kind) for kind in DominationKind]
    rows = []
    for n, *dp in zip(range(args.start, args.end + 1), *columns):
        rows.append(
            [n, gamma_ref(n), gamma_t_ref(n), f_one_two(n), g_one_two_total(n), *dp]
        )
    if args.format == "json":
        _emit_json([dict(zip(header, r)) for r in rows])
    else:
        _emit_csv(header, rows)
    return EXIT_OK


def cmd_census(args) -> int:
    _check_k(args)
    g = PetersenGraph(args.n, 2)
    S = VertexSet.from_names(args.set, args.n)
    report = is_valid(g, S, DominationKind.ONE_TWO_TOTAL)
    if not report.valid:
        doc = {
            "n": args.n,
            "set": S.names(),
            "valid": False,
            "violations": [w.as_dict() for w in report.violations],
        }
        if args.format == "json":
            _emit_json(doc)
        else:
            print(f"set is not one-two-total dominating on P({args.n},2):")
            for w in report.violations:
                print(f"  {w.vertex.name}: count {w.count} ({w.bound.value})")
        return EXIT_SEMANTIC
    census = component_census(g, S)
    checks = census_inequalities(census, args.n, len(S))
    doc = {
        "n": args.n,
        "set": S.names(),
        "valid": True,
        "census": census.as_dict(),
        "inequalities": checks.as_dict(),
    }
    if args.format == "json":
        _emit_json(doc)
    else:
        print(f"set is one-two-total dominating on P({args.n},2)")
        print(f"census: {json.dumps(census.as_dict())}")
        for name in ("eq2", "eq3", "eq4", "eq5"):
            chk = getattr(checks, name)
            rel = "==" if name == "eq3" else ">="
            flag = "ok" if chk.ok else "FAIL"
            print(f"{name}: {chk.lhs} {rel} {chk.rhs} {flag}")
    return EXIT_OK


def cmd_eq1(args) -> int:
    solutions = enumerate_eq1(args.n)
    for x in solutions:
        report = check_eq1(x, args.n)
        if not report.all_ok:
            raise InternalError(f"enumerated profile fails its own check: {x}")
    if args.format == "json":
        _emit_json(
            {
                "n": args.n,
                "count": len(solutions),
                "solutions": [list(x.values) for x in solutions],
            }
        )
    elif args.format == "csv":
        _emit_csv(
            ["profile"], [[";".join(str(v) for v in x.values)] for x in solutions]
        )
        print(f"count,{len(solutions)}")
    else:
        for x in solutions:
            print(",".join(str(v) for v in x.values))
        print(f"count: {len(solutions)}")
    return EXIT_OK


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="petdom",
        description="Domination numbers and witnesses for generalized "
        "Petersen graphs P(n,2)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, kinds=True):
        p.add_argument("--format", choices=["json", "csv", "text"], default="text")
        if kinds:
            p.add_argument("--kind", choices=_KIND_CHOICES, required=True)

    p = sub.add_parser("solve", help="exact minimum for one n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--method", choices=["auto", "brute", "dp"], default="auto")
    p.add_argument("--witness", action="store_true", help="include the witness set")
    add_common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="check a formula against the DP over a range")
    p.add_argument("--from", dest="start", type=int, required=True)
    p.add_argument("--to", dest="end", type=int, required=True)
    add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("construct", help="emit a validated witness construction")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=2)
    add_common(p)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("table", help="formula and DP values over a range")
    p.add_argument("--from", dest="start", type=int, required=True)
    p.add_argument("--to", dest="end", type=int, required=True)
    add_common(p, kinds=False)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("census", help="validate a set and print its census")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--set", required=True, help="comma-separated vertex names")
    add_common(p, kinds=False)
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("eq1", help="enumerate window-system solutions")
    p.add_argument("--n", type=int, required=True)
    add_common(p, kinds=False)
    p.set_defaults(func=cmd_eq1)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.func(args)
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except PetdomError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
