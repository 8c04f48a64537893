"""Smoke tests of the scripts under scripts/, which call the public API."""

import importlib.util
import json
import re
import sys
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


def test_check_golden_reproduces_the_records_and_reports_a_changed_key(monkeypatch, tmp_path, capsys):
    check_golden = _script("check_golden")
    names = ("cli_stdout_digests.json", "diagnose_digests.json", "parse_outcomes.json")
    python = re.escape(sys.executable)
    assert check_golden.main([sys.executable]) == 0
    out = capsys.readouterr().out
    assert re.fullmatch("".join(rf"{python}  {name}  0 of \d+ keys changed\n" for name in names), out), out
    # a copy of the records with one entry altered fails, naming that entry
    for name in names:
        (tmp_path / name).write_bytes((check_golden.GOLDEN / name).read_bytes())
    digests = json.loads((tmp_path / "diagnose_digests.json").read_text(encoding="utf-8"))
    digests["suite:0"] = "0" * 64
    (tmp_path / "diagnose_digests.json").write_text(json.dumps(digests), encoding="utf-8")
    monkeypatch.setattr(check_golden, "GOLDEN", tmp_path)
    assert check_golden.main([sys.executable]) == 1
    out = capsys.readouterr().out
    assert re.search(rf"^{python}  diagnose_digests.json  1 of \d+ keys changed, first: \['suite:0'\]$", out, re.M), out
    assert len(re.findall(r"  0 of \d+ keys changed$", out, re.M)) == 2, out
