"""Golden snapshot: `describe --format json` output, byte for byte.

The SHA-256 digests were recorded from the CLI in `perfbench/reference.json`;
this test reads them from there and never writes the file.  It covers every
recorded form of complex rank at most 12 and the four large named forms.
"""

import hashlib
import json
from pathlib import Path

import pytest

from lieorbits import cli

REFERENCE = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "reference.json").read_text())
NAMED_FORMS = ("e8(8)", "e8(-24)", "sl(25,R)", "su(12,13)")
SNAPSHOT_FORMS = sorted(
    name for name in REFERENCE["describe_sha256"] if REFERENCE["catalog"][name][1] <= 12 or name in NAMED_FORMS
)


def test_snapshot_covers_the_named_forms():
    assert set(NAMED_FORMS) <= set(SNAPSHOT_FORMS)
    assert len(SNAPSHOT_FORMS) > len(NAMED_FORMS)


@pytest.mark.parametrize("name", SNAPSHOT_FORMS)
def test_describe_json_matches_recorded_digest(capsys, name):
    assert cli.main(["describe", name, "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == REFERENCE["describe_sha256"][name]
