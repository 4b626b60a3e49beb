"""Command-line front end.

    lieorbits <command> [form] [--max-rank N] [--format text|json|dot]

Commands: list, describe, table1, verify.  Results go to stdout, diagnostics
to stderr; exit code 0 on success, 1 on verification failure, 2 on parse or
bounds errors; a complex rank above MAX_RANK (64), in a form name or in
--max-rank, is a bounds error.  All behavior comes from flags; there is no
configuration file and no environment variable.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import FormNameError, LieOrbitsError, OutOfRangeParams
from .orbits import (
    CONDITION_FIELDS,
    OrbitReport,
    orbit_report,
    report_to_dict,
)
from .satake import MAX_RANK, RealFormDescriptor, SatakeDiagram, build_satake, catalog, parse_form_name
from .verify import golden_row, run_verification

TABLE_PARAMETERS = (
    [("su_star", (k,)) for k in range(2, 7)]
    + [("so_pq", (1, n - 1)) for n in range(5, 13)]
    + [("sp_pq", (p, q)) for p in range(1, 6) for q in range(p, 6)]
    + [("e6_m26", ())]
    + [("f4_m20", ())]
)


COMMANDS = {
    "list": "canonical names of all catalog entries",
    "describe": "full orbit report for one real form",
    "table1": "golden table of the five non-matching families",
    "verify": "run every invariant suite over the catalog",
}


def build_parser() -> argparse.ArgumentParser:
    """One parser for every command; `main` parses with
    `parse_intermixed_args`, so options may stand between the command and the
    form, and checks that a form is given to `describe` and to no other
    command.  The usage line is given, as in the module docstring, because
    `parse_intermixed_args` would otherwise format it on every call."""
    parser = argparse.ArgumentParser(
        prog="lieorbits",
        usage="%(prog)s <command> [form] [--max-rank N] [--format text|json|dot]",
        description="Smallest complex nilpotent orbits meeting each non-compact real simple Lie algebra",
        epilog="commands:\n" + "\n".join(f"  {name:<10}{text}" for name, text in COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=COMMANDS, metavar="command", help="one of the commands listed below")
    parser.add_argument("form", nargs="?", help="real-form name for describe, e.g. su*(4), so(3,5), e6(-26)")
    parser.add_argument("--max-rank", type=int, default=8, dest="max_rank", help="complex rank bound (default 8)")
    parser.add_argument("--format", choices=("text", "json", "dot"), default="text", dest="format")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_intermixed_args(argv)
        if (args.form is None) == (args.command == "describe"):
            parser.error("describe takes one form" if args.form is None else f"{args.command} takes no form")
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.max_rank < 2:
        print(f"lieorbits: --max-rank must be >= 2, got {args.max_rank}", file=sys.stderr)
        return 2
    if args.max_rank > MAX_RANK:
        print(f"lieorbits: --max-rank must be <= MAX_RANK = {MAX_RANK}, got {args.max_rank}", file=sys.stderr)
        return 2
    if args.format == "dot" and args.command != "describe":
        print("lieorbits: --format dot is only valid for describe", file=sys.stderr)
        return 2
    try:
        if args.command == "list":
            return _run_list(args)
        if args.command == "describe":
            return _run_describe(args)
        if args.command == "table1":
            return _run_table(args)
        return _run_verify(args)
    except (FormNameError, OutOfRangeParams) as exc:
        print(f"lieorbits: {exc}", file=sys.stderr)
        return 2
    except LieOrbitsError as exc:
        print(f"lieorbits: {exc}", file=sys.stderr)
        return 1


def _run_list(args) -> int:
    names = [sd.name for sd in catalog(args.max_rank)]
    if args.format == "json":
        print(json.dumps(names, indent=2))
    else:
        for name in names:
            print(name)
    return 0


def _run_describe(args) -> int:
    descriptor = parse_form_name(args.form)
    sd = build_satake(descriptor)
    report = orbit_report(sd)
    if args.format == "json":
        print(json.dumps(report_to_dict(report), indent=2))
    elif args.format == "dot":
        print(emit_dot(report))
    else:
        print(render_text(report, sd))
    return 0


def render_text(report: OrbitReport, sd: SatakeDiagram) -> str:
    def weights(wdd):
        return " ".join(str(w) for w in wdd.as_ints())

    def yesno(flag):
        return "yes" if flag else "no"

    black = ", ".join(f"alpha{i + 1}" for i in sorted(sd.black)) or "none"
    arrows = ", ".join(f"alpha{i + 1}<->alpha{j + 1}" for i, j in sd.arrows) or "none"
    lines = [
        f"{report.descriptor.canonical_name}   [complex type {sd.rs.simple_type.name}]",
        f"  satake diagram: black {black}; arrows {arrows}",
        f"  minimal complex orbit diagram:  {weights(report.min_wdd)}",
        f"  meets the real form: {yesno(report.min_meets)}",
        f"  smallest orbit meeting the form: {weights(report.min_g_wdd)}",
        f"  complex dimension: {report.min_g_dim}",
        f"  dim g_lambda: {report.g_lambda_dim}",
        f"  minimal real nilpotent orbits: {report.minimal_real_orbit_count}",
        f"  hermitian: {yesno(report.hermitian)}",
        "  conditions "
        + ", ".join(f"{f}={yesno(getattr(report.conditions, f))}" for f in CONDITION_FIELDS),
    ]
    return "\n".join(lines)


def emit_dot(report: OrbitReport) -> str:
    """Graph description: nodes in canonical order labeled by the weights of
    the smallest meeting orbit, black nodes filled, arrow pairs dashed,
    multiple Cartan edges labeled and directed long to short."""
    sd = build_satake(report.descriptor)
    cartan = sd.rs.cartan
    n = sd.rs.rank
    weights = report.min_g_wdd.as_ints()
    lines = [f'graph "{report.descriptor.canonical_name}" {{', "  rankdir=LR;", "  node [shape=circle];"]
    for i in range(n):
        style = ", style=filled, fillcolor=black, fontcolor=white" if i in sd.black else ""
        lines.append(f'  n{i + 1} [label="{weights[i]}"{style}];')
    for i in range(n):
        for j in range(i + 1, n):
            if cartan[i][j] == 0:
                continue
            mult = cartan[i][j] * cartan[j][i]
            if mult == 1:
                lines.append(f"  n{i + 1} -- n{j + 1};")
            else:
                # C[i][j] = -mult exactly when node j is the shorter one
                head, tail = (i, j) if cartan[i][j] == -mult else (j, i)
                lines.append(f'  n{head + 1} -- n{tail + 1} [label="{mult}", dir=forward];')
    for i, j in sd.arrows:
        lines.append(f"  n{i + 1} -- n{j + 1} [style=dashed, constraint=false];")
    lines.append("}")
    return "\n".join(lines)


def _run_table(args) -> int:
    rows = []
    failed = False
    for family, params in TABLE_PARAMETERS:
        descriptor = RealFormDescriptor(family, params)
        sd = build_satake(descriptor)
        report = orbit_report(sd)
        expected_weights, expected_dim = golden_row(descriptor)
        got = report.min_g_wdd.as_ints()
        ok = got == expected_weights and report.min_g_dim == expected_dim
        failed = failed or not ok
        rows.append(
            {
                "descriptor": descriptor.canonical_name,
                "expected_wdd": list(expected_weights),
                "wdd": list(got),
                "expected_dim": expected_dim,
                "dim": report.min_g_dim,
                "ok": ok,
            }
        )
    if args.format == "json":
        print(json.dumps(rows, indent=2))
    else:
        for row in rows:
            mark = "OK" if row["ok"] else "FAIL"
            expected = " ".join(map(str, row["expected_wdd"]))
            got = " ".join(map(str, row["wdd"]))
            print(
                f"{row['descriptor']:<12} expected {expected} dim {row['expected_dim']:<3} "
                f"got {got} dim {row['dim']:<3} {mark}"
            )
    return 1 if failed else 0


def _run_verify(args) -> int:
    result = run_verification(max_rank=args.max_rank)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "entries": result.entries,
                    "checks_run": result.checks_run,
                    "failures": [
                        {"entry": f.entry, "check": f.check, "message": f.message} for f in result.failures
                    ],
                },
                indent=2,
            )
        )
    else:
        for failure in result.failures:
            print(str(failure))
        status = "ok" if result.ok else f"{len(result.failures)} failures"
        print(f"verified {result.entries} catalog entries, {result.checks_run} check suites: {status}")
    return 0 if result.ok else 1


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
