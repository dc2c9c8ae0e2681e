"""The recorded CLI commands still give their recorded facts.

``tests/golden/cli_facts.json`` holds, per command, what
``tools/cli_outputs.py --golden`` read from it: exit code, stderr, help
text, and the verdicts, counts, periods and floats of the files it wrote.
Each command runs again here in-process through ``cli.main``. A change
that moves a fact on purpose rewrites the manifest with that tool and
names the fact.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

import cli_outputs  # noqa: E402

RECORDS = json.loads(cli_outputs.GOLDEN.read_text())


def test_the_manifest_holds_the_recorded_commands():
    want = {name: [argv, files] for name, argv, files in cli_outputs.golden_commands(ROOT)}
    assert {name: [rec["argv"], rec["files"]] for name, rec in RECORDS.items()} == want


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_command_gives_its_recorded_facts(name, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help text to the terminal
    rec = RECORDS[name]
    got = cli_outputs.command_facts(name, rec["argv"], rec["files"], tmp_path)
    assert cli_outputs.fact_mismatches(rec["facts"], got, name) == []
