#!/usr/bin/env python3
"""Check that the golden records reproduce under other Python interpreters.

For each interpreter path given, run `record_golden.py`'s three
`compute_*` functions in a fresh process and a temporary directory, with
this checkout's `src/` on the path, and compare each result with its
file under tests/golden, which is only read.  Prints the number of
changed keys per interpreter and file, with the first few, and exits 1 if any key changed or
any run failed.  `record_golden.py` and `chronocheck` need only the
standard library, so any interpreter of a supported version can run them;
only the interpreters named are run, and none is searched for.

Usage:
    python scripts/check_golden.py PYTHON [PYTHON ...]
    python scripts/check_golden.py ~/.pyenv/versions/3.10.13/bin/python
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"

# Run under each interpreter: argv[1] is record_golden.py, argv[2] the
# directory that receives one JSON file per golden record, named as it.
_COMPUTE = """
import importlib.util, json, sys
from pathlib import Path
spec = importlib.util.spec_from_file_location("record_golden", sys.argv[1])
record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(record)
out = Path(sys.argv[2])
(out / "runs").mkdir()
for path, compute in (
    (record.GOLDEN_PATH, record.compute_digests),
    (record.STDOUT_PATH, lambda: record.compute_stdout_digests(out / "runs")),
    (record.PARSE_PATH, record.compute_parse_outcomes),
):
    (out / path.name).write_text(json.dumps(compute()), encoding="utf-8")
"""


def check(python: str) -> bool:
    """Print the changed keys per golden file under `python`; True iff
    every file reproduced."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory() as workdir:
        proc = subprocess.run(
            [python, "-c", _COMPUTE, str(ROOT / "scripts" / "record_golden.py"), workdir],
            cwd=workdir, env=env, capture_output=True, text=True,
        )
        if proc.returncode != 0:
            print(f"{python}: failed with exit status {proc.returncode}\n{proc.stderr}", end="")
            return False
        same = True
        for current_path in sorted(Path(workdir).glob("*.json")):
            current = json.loads(current_path.read_text(encoding="utf-8"))
            recorded = json.loads((GOLDEN / current_path.name).read_text(encoding="utf-8"))
            changed = sorted(key for key in recorded.keys() | current.keys() if recorded.get(key) != current.get(key))
            first = f", first: {changed[:3]}" if changed else ""
            print(f"{python}  {current_path.name}  {len(changed)} of {len(recorded)} keys changed{first}")
            same = same and not changed
    return same


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("pythons", nargs="+", metavar="PYTHON", help="interpreter path")
    args = parser.parse_args(argv)
    results = [check(python) for python in args.pythons]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
