"""Frozen behaviour: `diagnose` on the conformance suite and three scale-ladder
rungs must keep the digests recorded in tests/golden/diagnose_digests.json.

A mismatch means a verdict-bearing fact changed.  If the change is meant,
rerun scripts/record_golden.py and explain the difference in CHANGES.md.
"""

import importlib.util
import json
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
