"""Replays the golden corpus of CLI outputs in process.

tests/golden/outputs.json holds the sha256 of stdout, the first stderr line
and the exit code of each command of scripts/golden.py; a change that moves
any of them fails here, and `python scripts/golden.py` prints the rows that
moved (`--update` re-takes the corpus).
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("golden", ROOT / "scripts" / "golden.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

CORPUS = json.loads(golden.CORPUS.read_text())


def test_corpus_covers_every_command():
    assert [e["argv"] for e in CORPUS] == golden.COMMANDS


@pytest.mark.parametrize("entry", CORPUS, ids=[" ".join(e["argv"]) for e in CORPUS])
def test_output_matches_corpus(entry):
    new, rows = golden.capture(entry["argv"])
    assert new == entry, "\n".join(golden.moved(entry, new, rows))
