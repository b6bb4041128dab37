"""The golden CLI corpus (tests/golden/cli.jsonl) replays byte for byte."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("golden", ROOT / "scripts" / "golden.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


def test_corpus_replays_byte_for_byte():
    assert golden.replay(golden.run_in_process) == []


@pytest.mark.parametrize("field", ["stdout", "stderr", "stderr_last_line"])
def test_replay_reports_one_changed_byte(tmp_path, field):
    entries = [json.loads(line) for line in golden.CORPUS.read_text().splitlines()]
    entry = next(e for e in entries if e.get(field))
    entry[field] = entry[field][:-2] + chr(ord(entry[field][-2]) ^ 1) + entry[field][-1]
    path = tmp_path / "cli.jsonl"
    path.write_text(json.dumps(entry) + "\n")
    assert golden.replay(golden.run_in_process, path) == [entry["argv"]]
