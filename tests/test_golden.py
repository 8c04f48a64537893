"""Frozen behaviour: `diagnose` on the conformance suite and three scale-ladder
rungs must keep the digests recorded in tests/golden/diagnose_digests.json,
the CLI runs of scripts/record_golden.py must keep the stdout digests
and exit statuses recorded in tests/golden/cli_stdout_digests.json, and
its mutated model documents must keep the parse outcomes recorded in
tests/golden/parse_outcomes.json.

A diagnose mismatch means a verdict-bearing fact changed; a stdout mismatch
means report bytes changed; a parse mismatch means a document is read into
another model, gets other static defects, or is rejected with another
message.  If the change is meant, rerun
scripts/record_golden.py and explain the difference in CHANGES.md.
"""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _record_golden():
    spec = importlib.util.spec_from_file_location(
        "record_golden", ROOT / "scripts" / "record_golden.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_diagnose_digests_match_golden_record():
    record_golden = _record_golden()
    recorded = json.loads(record_golden.GOLDEN_PATH.read_text(encoding="utf-8"))
    assert len(recorded) == record_golden.SUITE_SIZE + len(record_golden.LADDER_RUNGS)
    current = record_golden.compute_digests()
    changed = sorted(k for k in recorded.keys() | current.keys() if recorded.get(k) != current.get(k))
    assert not changed, f"{len(changed)} digests changed, first: {changed[:5]}"


def test_cli_stdout_digests_match_golden_record(tmp_path):
    """Report bytes, model digest included, and `--help` texts are frozen."""
    record_golden = _record_golden()
    recorded = json.loads(record_golden.STDOUT_PATH.read_text(encoding="utf-8"))
    current = record_golden.compute_stdout_digests(tmp_path)
    changed = sorted(k for k in recorded.keys() | current.keys() if recorded.get(k) != current.get(k))
    assert not changed, f"{len(changed)} of {len(recorded)} runs changed, first: {changed[:5]}"


def test_parse_outcomes_match_golden_record():
    """Error messages, read models and static defects of mutated documents
    are frozen, and so is which fault a document with two is rejected for."""
    record_golden = _record_golden()
    recorded = json.loads(record_golden.PARSE_PATH.read_text(encoding="utf-8"))
    current = record_golden.compute_parse_outcomes()
    changed = sorted(k for k in recorded.keys() | current.keys() if recorded.get(k) != current.get(k))
    assert not changed, f"{len(changed)} of {len(recorded)} outcomes changed, first: {changed[:5]}"


def test_fresh_interpreter_stdout_matches_golden_record(tmp_path):
    """`python -m chronocheck`, the path users take, prints the recorded
    bytes: `diagnose` on each fixture, and the program's `--help`."""
    record_golden = _record_golden()
    recorded = json.loads(record_golden.STDOUT_PATH.read_text(encoding="utf-8"))
    env = dict(os.environ, COLUMNS="80")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    runs = [["diagnose", f"{name}.json"] for name in record_golden.FIXTURES] + [["--help"]]
    for name in record_golden.FIXTURES:
        (tmp_path / f"{name}.json").write_bytes(record_golden.fixture_path(name).read_bytes())
    for argv in runs:
        proc = subprocess.run(
            [sys.executable, "-m", "chronocheck", *argv], cwd=tmp_path, env=env, capture_output=True
        )
        got = {"exit": proc.returncode, "stdout": hashlib.sha256(proc.stdout).hexdigest()}
        assert got == recorded[" ".join(argv)], argv
