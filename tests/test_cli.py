import dataclasses
import json
import time

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
        dataclasses.replace(sd, black=frozenset({0, 2})) if sd.name == "su(1,3)" else sd for sd in good
    ]
    monkeypatch.setattr(verify_mod, "catalog", lambda max_rank: corrupted)
    code, out, _ = run(capsys, "verify", "--max-rank", "3")
    assert code == 1
    assert "su(1,3)" in out
    assert "FAIL" in out
