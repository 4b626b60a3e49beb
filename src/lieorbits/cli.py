"""Command-line front end.

    lieorbits <command> [form] [--max-rank N] [--format text|json|dot]

Commands: list, describe, table1, verify.  `parse_args` reads the options
anywhere, as `--opt value`, `--opt=value` or a unique prefix, and none after
`--`.  Results go to stdout, diagnostics to stderr; exit code 0 on success, 1
on verification failure, 2 on parse or bounds errors; a complex rank above
MAX_RANK (64), in a form name or in --max-rank, is a bounds error.  All
behavior comes from flags; there is no configuration file and no
environment variable.
"""

from __future__ import annotations

import sys

from .errors import FormNameError, LieOrbitsError, OutOfRangeParams
from .orbits import (
    CONDITION_FIELDS,
    OrbitReport,
    orbit_report,
    report_to_dict,
)
from .rootsys import MAX_RANK
from .satake import RealFormDescriptor, SatakeDiagram, build_satake, catalog, parse_form_name
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
USAGE = "usage: lieorbits <command> [form] [--max-rank N] [--format text|json|dot]"
HELP = f"""{USAGE}

options:
  -h, --help    show this help message and exit
  --max-rank N  complex rank bound (default 8)
  --format F    text, json or dot (default text)

commands:
""" + "\n".join(f"  {name:<10}{text}" for name, text in COMMANDS.items())


class UsageError(Exception):
    """A command line outside the grammar; `main` exits 2 on it."""


def parse_args(argv: list[str]) -> tuple[str, str | None, int, str] | None:
    """(command, form, max_rank, format), or None when help is asked for.
    Options are read left to right, so a bad value stops the reading before a
    later --help does; unknown options are reported after the whole line.
    Before `--`, a word starting with "-", other than "-", is an option."""
    values: dict[str, int | str] = {"--max-rank": 8, "--format": "text"}
    positionals, unknown = [], []
    args = iter(argv)
    for arg in args:
        if arg == "--":
            positionals += args
            break
        if arg[:1] != "-" or arg == "-":
            positionals.append(arg)
            continue
        name, eq, value = ("--help", "", "") if arg == "-h" else arg.partition("=")
        names = [option for option in ("--help", "--max-rank", "--format") if option.startswith(name)]
        if name[:2] != "--" or len(names) != 1 or names == ["--help"] and eq:
            unknown.append(arg)
            continue
        option = names[0]
        if option == "--help":
            return None
        if not eq and (value := next(args, "-"))[:1] == "-":
            raise UsageError(f"argument {option}: expected one argument")
        if option == "--format" and value not in ("text", "json", "dot"):
            raise UsageError(f"argument --format: invalid choice: {value!r} (choose from 'text', 'json', 'dot')")
        try:
            values[option] = value if option == "--format" else int(value)
        except ValueError:
            raise UsageError(f"argument --max-rank: invalid int value: {value!r}") from None
    if not positionals:
        raise UsageError("the following arguments are required: command")
    command, form = (positionals + [None])[:2]
    if command not in COMMANDS:
        raise UsageError(f"argument command: invalid choice: {command!r} (choose from {', '.join(map(repr, COMMANDS))})")
    if unknown or positionals[2:]:
        raise UsageError(f"unrecognized arguments: {' '.join(unknown + positionals[2:])}")
    if (form is None) == (command == "describe"):
        raise UsageError("describe takes one form" if form is None else f"{command} takes no form")
    max_rank, fmt = values["--max-rank"], values["--format"]
    if not 2 <= max_rank <= MAX_RANK:
        raise UsageError(f"--max-rank must be >= 2 and <= MAX_RANK = {MAX_RANK}, got {max_rank}")
    if fmt == "dot" and command != "describe":
        raise UsageError("--format dot is only valid for describe")
    return command, form, max_rank, fmt


def main(argv=None) -> int:
    try:
        parsed = parse_args(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        print(f"{USAGE}\nlieorbits: error: {exc}", file=sys.stderr)
        return 2
    if parsed is None:
        print(HELP)
        return 0
    command, form, max_rank, fmt = parsed
    try:
        if command == "list":
            return _run_list(max_rank, fmt)
        if command == "describe":
            return _run_describe(form, fmt)
        if command == "table1":
            return _run_table(fmt)
        return _run_verify(max_rank, fmt)
    except (FormNameError, OutOfRangeParams) as exc:
        print(f"lieorbits: {exc}", file=sys.stderr)
        return 2
    except LieOrbitsError as exc:
        print(f"lieorbits: {exc}", file=sys.stderr)
        return 1


def _run_list(max_rank: int, fmt: str) -> int:
    names = [sd.name for sd in catalog(max_rank)]
    if fmt == "json":
        import json

        print(json.dumps(names, indent=2))
    else:
        for name in names:
            print(name)
    return 0


def _run_describe(form: str, fmt: str) -> int:
    descriptor = parse_form_name(form)
    sd = build_satake(descriptor)
    report = orbit_report(sd)
    if fmt == "json":
        import json

        print(json.dumps(report_to_dict(report), indent=2))
    elif fmt == "dot":
        print(emit_dot(report))
    else:
        print(render_text(report, sd))
    return 0


def render_text(report: OrbitReport, sd: SatakeDiagram) -> str:
    def weights(wdd):
        return " ".join(map(str, wdd.weights))

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
    weights = report.min_g_wdd.weights
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


def _run_table(fmt: str) -> int:
    rows = []
    failed = False
    for family, params in TABLE_PARAMETERS:
        descriptor = RealFormDescriptor(family, params)
        sd = build_satake(descriptor)
        report = orbit_report(sd)
        expected_weights, expected_dim = golden_row(descriptor)
        got = report.min_g_wdd.weights
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
    if fmt == "json":
        import json

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


def _run_verify(max_rank: int, fmt: str) -> int:
    result = run_verification(max_rank=max_rank)
    if fmt == "json":
        import json

        failures = [{"entry": f.entry, "check": f.check, "message": f.message} for f in result.failures]
        print(json.dumps({"entries": result.entries, "checks_run": result.checks_run, "failures": failures}, indent=2))
    else:
        for failure in result.failures:
            print(str(failure))
        status = "ok" if result.ok else f"{len(result.failures)} failures"
        print(f"verified {result.entries} catalog entries, {result.checks_run} check suites: {status}")
    return 0 if result.ok else 1


def entrypoint() -> None:
    """`main` as a process.  A reader that closes the pipe early (`| head -1`)
    ends the run with exit code 1 and no traceback: stdout is pointed at
    devnull, as the Python docs advise, so the flush at exit cannot fail again."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    raise SystemExit(code)


if __name__ == "__main__":
    entrypoint()
