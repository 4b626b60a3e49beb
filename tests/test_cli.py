import argparse
import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from lieorbits import cli
from lieorbits.orbits import orbit_report, report_from_dict
from lieorbits.satake import MAX_RANK, build_satake, parse_form_name


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_describe_f4_text(capsys):
    code, out, _ = run(capsys, "describe", "f4(-20)", "--format", "text")
    assert code == 0
    assert "0 0 0 1" in out
    assert "22" in out
    assert "hermitian: no" in out


def test_describe_rank_bound_only_limits_enumeration(capsys):
    code, out, _ = run(capsys, "describe", "su(9,9)")
    assert code == 0
    assert "minimal real nilpotent orbits: 2" in out


def test_describe_bad_form_exits_2(capsys):
    code, _, err = run(capsys, "describe", "sl(1,R)")
    assert code == 2
    assert "sl" in err

    code, _, err = run(capsys, "describe", "frobnicate")
    assert code == 2
    assert "frobnicate" in err


def test_bad_flag_exits_2(capsys):
    assert cli.main(["describe", "f4(-20)", "--format", "yaml"]) == 2
    capsys.readouterr()
    assert cli.main(["list", "--format", "dot"]) == 2
    capsys.readouterr()
    assert cli.main(["list", "--max-rank", "1"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["describe"],
        ["describe", "--format", "json"],
        ["list", "su(1,2)"],
        ["table1", "e6(-26)"],
        ["verify", "f4(-20)", "--max-rank", "4"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_wrong_form_count_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert not out
    assert f"error: {argv[0]} takes" in err and "form" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("describe", "--format", "json", "su(1,2)"),
        ("--format", "json", "describe", "su(1,2)"),
        ("describe", "--max-rank", "8", "--format", "json", "su(1,2)"),
    ],
)
def test_options_may_precede_the_form(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0 and not err
    assert (code, out, err) == run(capsys, "describe", "su(1,2)", "--format", "json")


def test_help_lists_the_four_commands(capsys):
    code, out, err = run(capsys, "--help")
    assert code == 0
    assert not err
    for command, text in (
        ("list", "canonical names of all catalog entries"),
        ("describe", "full orbit report for one real form"),
        ("table1", "golden table of the five non-matching families"),
        ("verify", "run every invariant suite over the catalog"),
    ):
        assert any(line.split() == [command, *text.split()] for line in out.splitlines()), command


def test_rank_cap_exits_2_fast(capsys):
    huge = "9" * 5000  # past the 4300 digits int() reads
    for argv in (
        ["describe", "sl(100000,R)"],
        ["describe", "so(3,100000)"],
        ["verify", "--max-rank", "100000"],
        ["describe", f"sl({huge},R)"],
        ["describe", f"su*({huge})"],
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1, argv
        assert code == 2, argv
        assert not out
        assert "MAX_RANK" in err and str(MAX_RANK) in err, argv


def test_describe_json_roundtrip(capsys):
    code, out, _ = run(capsys, "describe", "e6(-26)", "--format", "json")
    assert code == 0
    data = json.loads(out)
    report = orbit_report(build_satake(parse_form_name("e6(-26)")))
    assert report_from_dict(data) == report
    assert data["min_g_wdd"] == [1, 0, 0, 0, 0, 1]
    assert data["min_g_dim"] == 32


def test_list_sorted_names(capsys):
    code, out, _ = run(capsys, "list", "--max-rank", "3")
    assert code == 0
    names = out.strip().splitlines()
    assert names == sorted(names)
    assert "su*(4)" in names and "sl(2,R)" in names and "so(1,5)" in names
    assert all("e6" not in n for n in names)

    code, out, _ = run(capsys, "list", "--max-rank", "3", "--format", "json")
    assert code == 0
    assert json.loads(out) == names


def test_dot_sl2r(capsys):
    code, out, _ = run(capsys, "describe", "sl(2,R)", "--format", "dot")
    assert code == 0
    assert out.count("[label=") == 1
    assert 'label="2"' in out
    assert "filled" not in out


def test_dot_su_star4(capsys):
    code, out, _ = run(capsys, "describe", "su*(4)", "--format", "dot")
    assert code == 0
    assert out.count("style=filled") == 2
    assert 'n1 [label="0", style=filled' in out
    assert 'n2 [label="2"]' in out
    assert 'n3 [label="0", style=filled' in out
    assert "n1 -- n2;" in out and "n2 -- n3;" in out


def test_dot_e6_m26(capsys):
    code, out, _ = run(capsys, "describe", "e6(-26)", "--format", "dot")
    assert code == 0
    assert out.count("style=filled") == 4
    labels = [line for line in out.splitlines() if "[label=" in line]
    white = [line for line in labels if "filled" not in line]
    assert sorted(line.split('"')[1] for line in white) == ["1", "1"]


def test_dot_double_edge_direction(capsys):
    code, out, _ = run(capsys, "describe", "so(1,4)", "--format", "dot")
    assert code == 0
    # B2: double edge points from the long root n1 to the short root n2
    assert 'n1 -- n2 [label="2", dir=forward];' in out


@pytest.mark.parametrize(
    "form, edge",
    [
        # G2: a1 is short, so the triple edge points from n2 to n1
        ("g2(2)", 'n2 -- n1 [label="3", dir=forward];'),
        # C3: a3 is long, so the double edge points from n3 to n2
        ("sp(3,R)", 'n3 -- n2 [label="2", dir=forward];'),
    ],
    ids=["G2", "C3"],
)
def test_dot_multiple_edge_points_long_to_short(capsys, form, edge):
    code, out, _ = run(capsys, "describe", form, "--format", "dot")
    assert code == 0
    assert edge in out


def test_dot_dashed_arrow_pair(capsys):
    code, out, _ = run(capsys, "describe", "su(1,2)", "--format", "dot")
    assert code == 0
    assert "style=dashed" in out


def test_table1_ok(capsys):
    code, out, _ = run(capsys, "table1")
    assert code == 0
    lines = [line for line in out.strip().splitlines()]
    assert len(lines) == 5 + 8 + 15 + 1 + 1
    assert all(line.endswith("OK") for line in lines)
    assert any(line.startswith("e6(-26)") for line in lines)


def test_table1_json(capsys):
    code, out, _ = run(capsys, "table1", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert all(row["ok"] for row in rows)
    row = next(r for r in rows if r["descriptor"] == "f4(-20)")
    assert row["wdd"] == [0, 0, 0, 1] and row["dim"] == 22


def test_verify_small_rank_ok(capsys):
    code, out, _ = run(capsys, "verify", "--max-rank", "3")
    assert code == 0
    assert "ok" in out


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--max-rank", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["failures"] == []
    assert data["entries"] > 0


def test_verify_corrupted_catalog_exits_1(capsys, monkeypatch):
    import lieorbits.verify as verify_mod

    good = verify_mod.catalog(3)
    corrupted = [
        sd._replace(black=frozenset({0, 2})) if sd.name == "su(1,3)" else sd for sd in good
    ]
    monkeypatch.setattr(verify_mod, "catalog", lambda max_rank: corrupted)
    code, out, _ = run(capsys, "verify", "--max-rank", "3")
    assert code == 1
    assert "su(1,3)" in out
    assert "FAIL" in out


# --- the argparse parser that `cli.parse_args` replaced ----------------------


def reference_parser():
    """A copy of the argparse parser the command line used before it read
    its grammar directly, with the same usage line, options and epilog."""
    parser = argparse.ArgumentParser(
        prog="lieorbits",
        usage="%(prog)s <command> [form] [--max-rank N] [--format text|json|dot]",
        description="Smallest complex nilpotent orbits meeting each non-compact real simple Lie algebra",
        epilog="commands:\n" + "\n".join(f"  {name:<10}{text}" for name, text in cli.COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=cli.COMMANDS, metavar="command", help="one of the commands listed below")
    parser.add_argument("form", nargs="?", help="real-form name for describe, e.g. su*(4), so(3,5), e6(-26)")
    parser.add_argument("--max-rank", type=int, default=8, dest="max_rank", help="complex rank bound (default 8)")
    parser.add_argument("--format", choices=("text", "json", "dot"), default="text", dest="format")
    return parser


def reference_outcome(argv):
    """(command, form, max_rank, format) as the argparse parser, its
    form-count check and the bounds checks that followed read argv, or
    "help", or "error" after exit 2 with nothing on stdout; with the stderr
    of an error the parser reported."""
    parser = reference_parser()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args = parser.parse_intermixed_args(argv)
            if (args.form is None) == (args.command == "describe"):
                parser.error("describe takes one form" if args.form is None else f"{args.command} takes no form")
        except SystemExit as exc:
            if exc.code == 0:
                return "help", ""
            assert exc.code == 2 and not out.getvalue() and err.getvalue().startswith("usage: lieorbits"), argv
            return "error", err.getvalue()
    if not 2 <= args.max_rank <= MAX_RANK or (args.format == "dot" and args.command != "describe"):
        return "error", ""
    return (args.command, args.form, args.max_rank, args.format), ""


def outcome(capsys, argv):
    """The same reading by `cli.parse_args`, with the stderr of `main` on an error."""
    try:
        parsed = cli.parse_args(argv)
    except cli.UsageError as exc:
        code, out, err = run(capsys, *argv)
        assert code == 2 and not out and err == f"{cli.USAGE}\nlieorbits: error: {exc}\n", argv
        return "error", err
    if parsed is None:
        code, out, err = run(capsys, *argv)
        assert code == 0 and out == cli.HELP + "\n" and not err, argv
        return "help", ""
    return parsed, ""


def orders():
    """Every order of command, form and two options, each option written as
    `--opt value`, `--opt=value` or by a prefix; then a missing form, and
    one form too many."""
    ranks = [["--max-rank", "4"], ["--max-rank=4"], ["--max", "4"], ["--m=4"]]
    formats = [["--format", "json"], ["--format=json"], ["--form", "json"], ["--f=json"]]
    for command, forms in (("describe", [["su(1,2)"], []]), ("list", [[]]), ("verify", [[]])):
        for rank, fmt, form in itertools.product(ranks, formats, forms):
            for order in itertools.permutations([[command], rank, fmt] + [form] * bool(form)):
                yield [arg for unit in order for arg in unit]
        yield [command, "--max", "4", "--format=json"] + ["e8(8)"] * (2 if command == "describe" else 1)


EDGES = [
    # missing values
    ["describe", "su(1,2)", "--format"],
    ["list", "--max-rank"],
    ["--format", "--max-rank", "4", "list"],
    ["--max-rank", "--", "list"],
    ["list", "--format", "-x"],
    # bad choices and bad integers
    ["describe", "su(1,2)", "--format", "yaml"],
    ["list", "--format="],
    ["list", "--format", "JSON"],
    ["list", "--max-rank", "abc"],
    ["list", "--max-rank=4.0"],
    ["list", "--max-rank", ""],
    ["list", "--max-rank="],
    ["list", "--max-rank", "9" * 5000],
    ["list", "--max-rank", "-3"],
    ["list", "--max-rank=-3"],
    ["list", "--max-rank", "1"],
    ["list", "--max-rank", "65"],
    ["list", "--max-rank", "64"],
    ["list", "--format", "dot"],
    ["list", "--max-rank", "-1.5"],
    ["list", "--max-rank", " 8 "],
    ["list", "--max-rank", "+8"],
    ["list", "--max-rank", "1_0"],
    ["list", "--max", "list"],
    # repeated options: the last one wins
    ["list", "--format", "json", "--format", "text"],
    ["list", "--max-rank", "4", "--max", "6", "--m=5"],
    ["--format=dot", "describe", "g2(2)", "--form", "json"],
    # extra positionals and unknown options
    ["describe", "su(1,2)", "so(3,5)"],
    ["list", "x", "y"],
    ["list", "--bogus"],
    ["--bogus", "describe", "su(1,2)"],
    ["describe", "--bogus", "su(1,2)"],
    ["list", "-x"],
    ["list", "--max-rank-x", "3"],
    ["list", "--formats", "json"],
    ["list", "--=3"],
    ["list", "-h=3"],
    ["list", "-5"],
    ["list", "-"],
    ["describe", ""],
    ["--format json", "list"],
    ["bogus"],
    ["su(1,2)", "describe"],
    [],
    # everything after -- is positional
    ["--", "describe", "su(1,2)"],
    ["describe", "--", "su(1,2)"],
    ["describe", "su(1,2)", "--"],
    ["--format", "json", "--", "describe", "su(1,2)"],
    ["describe", "--", "su(1,2)", "--format", "json"],
    ["describe", "--", "--format"],
    ["list", "--"],
    ["--", "list"],
    ["--format", "--", "json", "list"],
    # help wherever it stands, unless a bad option value comes first
    ["-h"],
    ["--help"],
    ["--h"],
    ["--he"],
    ["describe", "su(1,2)", "--help"],
    ["--help", "describe"],
    ["describe", "-h", "su(1,2)"],
    ["bogus", "--help"],
    ["list", "--bogus", "--help"],
    ["--help", "--format", "yaml"],
    ["--format", "yaml", "--help"],
    ["--format", "--help", "list"],
    ["--max-rank", "x", "-h"],
    ["--help=1"],
    ["list", "su(1,2)", "--help"],
]


def argv_id(argv):
    return repr(argv) if len(repr(argv)) < 80 else repr(argv)[:60] + "..."


# Usage errors whose reason reads differently from argparse's: an unknown
# option is reported without the words after it, and the words that
# argparse read as a negative number, a positional with a space, an
# ambiguous prefix or an explicit value of -h are unknown options here.
OTHER_REASONS = [
    ["list", "--max-rank", "-1.5"],
    ["describe", "--bogus", "su(1,2)"],
    ["list", "--max-rank-x", "3"],
    ["list", "--formats", "json"],
    ["list", "--=3"],
    ["list", "-h=3"],
    ["list", "-5"],
    ["--format json", "list"],
    ["--help=1"],
]


@pytest.mark.parametrize("argv", [*orders(), *EDGES], ids=argv_id)
def test_reader_matches_the_argparse_parser(capsys, argv):
    got, err = outcome(capsys, argv)
    expected, reference_err = reference_outcome(argv)
    assert got == expected
    if reference_err and argv not in OTHER_REASONS:
        assert err == reference_err


# Deliberate divergences from argparse, which
# - took a negative number or a word with a space as a form, which the form
#   parser then refused with exit 2;
# - read -hx and --help=x as -h with a value and refused them at once, and
#   -hh as two -h flags;
# - refused an ambiguous prefix such as --=x before it acted on any option;
# - under Python 3.10 and 3.11, read an option after -- in its second pass
#   over the positionals, and dropped every -- from them.
# Only this reader's side is asserted: argparse's differs between versions.
@pytest.mark.parametrize(
    "argv, expected",
    [
        (["describe", "-5"], "error"),
        (["describe", "-x y"], "error"),
        (["-hx", "--help"], "help"),
        (["--help=x", "--help"], "help"),
        (["-hh"], "error"),
        (["--help", "--=x"], "help"),
        (["--", "--help"], "error"),
        (["list", "--", "--"], "error"),
    ],
    ids=argv_id,
)
def test_reader_divergences(capsys, argv, expected):
    assert outcome(capsys, argv)[0] == expected


# stdlib modules a cold describe has no use for, each several ms of start-up
UNUSED_ON_DESCRIBE = {"argparse", "gettext", "locale", "dataclasses", "inspect", "typing", "fractions", "decimal"}


def test_cold_describe_loads_no_unused_stdlib_module():
    # an isolated interpreter without site hooks, so that only lieorbits imports
    code = f"""
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
from lieorbits import cli
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = cli.main(["describe", "e8(8)", "--format", "json"])
print(code, len(out.getvalue()) > 0, sorted({UNUSED_ON_DESCRIBE!r} & set(sys.modules)))
"""
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", code, str(src)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == ["0 True []", ""]


def test_text_describe_loads_no_json():
    # json is imported on the --format json branches only
    code = """
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
import lieorbits.cli
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = lieorbits.cli.main(["describe", "g2(2)"])
print(code, out.getvalue().startswith("g2(2)"), "json" in sys.modules)
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = lieorbits.cli.main(["describe", "g2(2)", "--format", "json"])
print(code, out.getvalue().startswith("{"), "json" in sys.modules)
"""
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", code, str(src)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == ["0 True False", "0 True True", ""]


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["describe", "e8(8)", "--format", "json"], ["--help"]], ids=["describe", "help"])
def test_closed_pipe_exits_1_without_a_traceback(argv, unbuffered):
    # the reader is gone before the first write, so the write or the flush fails
    read, write = os.pipe()
    os.close(read)
    src = Path(__file__).resolve().parents[1] / "src"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"} | {"PYTHONPATH": str(src)}
    flags = ["-u"] if unbuffered else []
    try:
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "lieorbits.cli", *argv], stdout=write, stderr=subprocess.PIPE, text=True, env=env
        )
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (1, "")
