"""Golden snapshot: CLI output, byte for byte.

The `describe --format json` digests were recorded from the CLI in
`perfbench/reference.json`; this test reads them from there and never writes
the file.  It covers every recorded form of complex rank at most 12 and the
four large named forms.  `snapshot_digests.json`, beside this file, holds the
digests of `table1` (text and json), `verify --max-rank 12`,
`verify --max-rank 16`, `verify --max-rank 8 --format json`,
`describe --format json` for the catalog entries of rank at most 12 that the
reference file does not record, and `describe --format json` for six forms at
the rank cap, one per classical closure and two more; it is read only, too.
"""

import hashlib
import json
from pathlib import Path

import pytest

from lieorbits import cli
from lieorbits.satake import catalog

REFERENCE = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "reference.json").read_text())
NAMED_FORMS = ("e8(8)", "e8(-24)", "sl(25,R)", "su(12,13)")
SNAPSHOT_FORMS = sorted(
    name for name in REFERENCE["describe_sha256"] if REFERENCE["catalog"][name][1] <= 12 or name in NAMED_FORMS
)
COMMAND_DIGESTS = json.loads((Path(__file__).resolve().parent / "snapshot_digests.json").read_text())
# A63, B64, C64, D64 and two forms with black nodes or arrows, at MAX_RANK
RANK_CAP_FORMS = {"sl(64,R)", "so(1,128)", "sp(64,R)", "so(64,64)", "su(32,32)", "so*(128)"}


def digest_of(capsys, argv: list[str]) -> str:
    assert cli.main(argv) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


def test_snapshot_covers_the_named_forms():
    assert set(NAMED_FORMS) <= set(SNAPSHOT_FORMS)
    assert len(SNAPSHOT_FORMS) > len(NAMED_FORMS)


@pytest.mark.parametrize("name", SNAPSHOT_FORMS)
def test_describe_json_matches_recorded_digest(capsys, name):
    assert digest_of(capsys, ["describe", name, "--format", "json"]) == REFERENCE["describe_sha256"][name]


def test_command_digests_cover_the_rest_of_the_catalog():
    described = {command.split()[1] for command in COMMAND_DIGESTS if command.startswith("describe ")}
    names = {sd.name for sd in catalog(12)}
    assert described & names == names - set(SNAPSHOT_FORMS)
    assert described - names == RANK_CAP_FORMS
    assert described and {"table1", "verify --max-rank 12"} <= set(COMMAND_DIGESTS)


@pytest.mark.parametrize("command", sorted(COMMAND_DIGESTS))
def test_command_matches_recorded_digest(capsys, command):
    assert digest_of(capsys, command.split()) == COMMAND_DIGESTS[command]
