"""Smoke tests of the scripts under scripts/, which call the public API."""

import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_suite_oracle_agrees(capsys):
    assert _script("run_suite").main(["--models", "20", "--oracle"]) == 0
    out = capsys.readouterr().out
    assert re.search(r"^ +oracle_disagreements +0$", out, re.MULTILINE), out


def test_render_fixtures_writes_reports_and_dot_files(tmp_path, capsys):
    assert _script("render_fixtures").main(["--out", str(tmp_path)]) == 0
    written = sorted(path.name for path in tmp_path.iterdir())
    assert written == sorted(
        f"{fixture}.{view}"
        for fixture in ("two_site", "cycle_gadget", "bd_flip")
        for view in ("diagnose.json", "influence.dot", "explore.json", "reachability.dot")
    )
    assert all((tmp_path / name).stat().st_size for name in written)
