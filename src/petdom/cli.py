"""Command-line interface.

Subcommands: solve, verify, construct, table, census, eq1.  Output
formats json, csv and text are deterministic: identical invocations
produce byte-identical stdout.  The argument parser is built once, when
the module is imported, and every ``main`` call parses with it.  Records
(solve, construct, census) write each vertex set straight from
``VertexSet.text()``, with the bytes json.dumps would give its list of
names, so they build no str per name; ``SolveResult.as_dict`` and
``Construction.as_dict`` still return names lists for library callers.

Exit codes: 0 success, 1 semantic failure (formula mismatch or invalid
input set), 2 usage error, 3 internal invariant breach, 141 (128 + SIGPIPE)
when the reader of stdout closes it early.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .constructions import build_construction
from .domination import DominationKind, census_inequalities, component_census, is_valid
from .errors import InternalError, PetdomError
from .formulas import BY_KIND
from .graph import PetersenGraph, VertexSet
from .solver import brute_force_min, check_eq1, enumerate_eq1
from .transfer import dp_min, dp_minima

EXIT_OK = 0
EXIT_SEMANTIC = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3
EXIT_PIPE = 141


def _emit_csv(header: list[str], rows: list[list]) -> None:
    print(",".join(header))
    for row in rows:
        print(",".join(str(c) for c in row))


def _json(value) -> str:
    """json.dumps(value), a VertexSet as the list of its names."""
    if not isinstance(value, VertexSet):
        return json.dumps(value)
    return '["' + value.text().replace(",", '", "') + '"]' if value else "[]"


def _emit_record(fmt: str, doc: dict) -> None:
    """doc as JSON, or as a one-row CSV; a VertexSet value is written from
    its text() as its list of names, in CSV joined with ';'."""
    if fmt == "json":
        print("{" + ", ".join(f"{json.dumps(k)}: {_json(v)}" for k, v in doc.items()) + "}")
    else:
        row = [v.text().replace(",", ";") if isinstance(v, VertexSet) else v
               for v in doc.values()]
        _emit_csv(list(doc), [row])


def cmd_solve(args) -> int:
    kind = DominationKind.from_text(args.kind)
    if args.method == "brute" or args.method == "auto" and 2 * args.n <= 20:
        result = brute_force_min(PetersenGraph(args.n, 2), kind)
    else:
        result = dp_min(args.n, kind)
    if args.format != "text":
        doc = result.as_dict(include_witness=False)
        if args.witness:
            doc["witness"] = result.witness
        _emit_record(args.format, doc)
        return EXIT_OK
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
    formula = BY_KIND[kind]
    rows = []
    for n, got in zip(range(args.start, args.end + 1), dp):
        expected = formula(n)
        rows.append([n, expected, got, expected == got])
    all_match = all(match for *_, match in rows)
    header = ["n", "formula", "dp", "match"]
    if args.format == "json":
        table = [dict(zip(header, r)) for r in rows]
        print(json.dumps({"kind": kind.value, "rows": table, "all_match": all_match}))
    elif args.format == "csv":
        _emit_csv(header, rows)
    else:
        for n, expected, got, match in rows:
            flag = "ok" if match else "MISMATCH"
            print(f"n={n} formula={expected} dp={got} {flag}")
        print(f"all match: {all_match}")
    return EXIT_OK if all_match else EXIT_SEMANTIC


def cmd_construct(args) -> int:
    c = build_construction(args.n, DominationKind.from_text(args.kind))
    if args.format != "text":
        doc = {"n": c.n, "kind": c.kind.value, "size": c.size, "set": c.vertex_set,
               "source": c.source.value}
        _emit_record(args.format, doc)
        return EXIT_OK
    print(
        f"P({c.n},2) {c.kind.value}: size {c.size} "
        f"[{c.source.value}] {c.vertex_set.text()}"
    )
    return EXIT_OK


def cmd_table(args) -> int:
    header = [
        "n", "gamma_ref", "gamma_t_ref", "f", "g",
        "dp_plain", "dp_total", "dp_one_two", "dp_one_two_total",
    ]
    columns = [dp_minima(args.start, args.end, kind) for kind in DominationKind]
    rows = [
        [n, *(formula(n) for formula in BY_KIND.values()), *dp]
        for n, *dp in zip(range(args.start, args.end + 1), *columns)
    ]
    if args.format == "json":
        print(json.dumps([dict(zip(header, r)) for r in rows]))
    else:
        _emit_csv(header, rows)
    return EXIT_OK


def cmd_census(args) -> int:
    g = PetersenGraph(args.n, 2)
    S = VertexSet.from_names(args.set, args.n)
    report = is_valid(g, S, DominationKind.ONE_TWO_TOTAL)
    if report.valid:
        census = component_census(g, S)
        checks = census_inequalities(census, args.n, len(S))
    if args.format == "json":
        doc = {"n": args.n, "set": S, "valid": report.valid}
        if report.valid:
            doc.update(census=census.as_dict(), inequalities=checks.as_dict())
        else:
            doc["violations"] = [w.as_dict() for w in report.violations]
        _emit_record("json", doc)
    elif report.valid:
        print(f"set is one-two-total dominating on P({args.n},2)")
        print(f"census: {json.dumps(census.as_dict())}")
        for name in ("eq2", "eq3", "eq4", "eq5"):
            chk = getattr(checks, name)
            rel = "==" if name == "eq3" else ">="
            print(f"{name}: {chk.lhs} {rel} {chk.rhs} {'ok' if chk.ok else 'FAIL'}")
    else:
        print(f"set is not one-two-total dominating on P({args.n},2):")
        for w in report.violations:
            print(f"  {w.vertex.name}: count {w.count} ({w.bound.value})")
    return EXIT_OK if report.valid else EXIT_SEMANTIC


def cmd_eq1(args) -> int:
    solutions = enumerate_eq1(args.n)
    for x in solutions:
        report = check_eq1(x, args.n)
        if not report.all_ok:
            raise InternalError(f"enumerated profile fails its own check: {x}")
    if args.format == "json":
        values = [list(x.values) for x in solutions]
        print(json.dumps({"n": args.n, "count": len(solutions), "solutions": values}))
    elif args.format == "csv":
        _emit_csv(["profile"], [[";".join(map(str, x.values))] for x in solutions])
        print(f"count,{len(solutions)}")
    else:
        for x in solutions:
            print(",".join(map(str, x.values)))
        print(f"count: {len(solutions)}")
    return EXIT_OK


def _add_nk(p) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=2, choices=[2])


def _add_range(p) -> None:
    p.add_argument("--from", dest="start", type=int, required=True)
    p.add_argument("--to", dest="end", type=int, required=True)


def _add_common(p, func, kinds: bool = True) -> None:
    p.add_argument("--format", choices=["json", "csv", "text"], default="text")
    if kinds:
        p.add_argument(
            "--kind", choices=[k.value for k in DominationKind], required=True
        )
    p.set_defaults(func=func)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="petdom",
        description="Domination numbers and witnesses for generalized "
        "Petersen graphs P(n,2)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="exact minimum for one n")
    _add_nk(p)
    p.add_argument("--method", choices=["auto", "brute", "dp"], default="auto")
    p.add_argument("--witness", action="store_true", help="include the witness set")
    _add_common(p, cmd_solve)

    p = sub.add_parser("verify", help="check a formula against the DP over a range")
    _add_range(p)
    _add_common(p, cmd_verify)

    p = sub.add_parser("construct", help="emit a validated witness construction")
    _add_nk(p)
    _add_common(p, cmd_construct)

    p = sub.add_parser("table", help="formula and DP values over a range")
    _add_range(p)
    _add_common(p, cmd_table, kinds=False)

    p = sub.add_parser("census", help="validate a set and print its census")
    _add_nk(p)
    p.add_argument("--set", required=True, help="comma-separated vertex names")
    _add_common(p, cmd_census, kinds=False)

    p = sub.add_parser("eq1", help="enumerate window-system solutions")
    p.add_argument("--n", type=int, required=True)
    _add_common(p, cmd_eq1, kinds=False)

    return parser


_PARSER = _parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone: send the interpreter's final flush nowhere
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except PetdomError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
