import errno
import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import chronocheck.chronology
import chronocheck.cli
from chronocheck.cli import main
from chronocheck.dot import influence_dot
from chronocheck.modelfile import fixture_path, load_fixture, serialize_model
from chronocheck.randmodels import random_model
from chronocheck.reachability import ExplorationLimits, check_monotonicity, explore

TWO_SITE = str(fixture_path("two_site"))
GADGET = str(fixture_path("cycle_gadget"))


def run_cli(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_diagnose_gadget_exits_one_with_full_report(capsys):
    status, out, _ = run_cli(capsys, "diagnose", GADGET)
    assert status == 1
    report = json.loads(out)
    assert report["command"] == "diagnose"
    assert report["exit_status"] == 1
    results = report["results"]
    assert results["verdict"] == "NO_CYCLE"
    assert results["gs_violations"]
    assert results["monotonicity_violations"]
    strong = [(w["e"], w["f"]) for w in results["influence"]["strong_edges"]]
    assert strong == [("b", "a")]
    assert any("a -> b" in note for note in report["notes"])


def test_chronology_two_site_exits_zero(capsys):
    status, out, _ = run_cli(capsys, "chronology", TWO_SITE)
    assert status == 0
    report = json.loads(out)
    assert report["results"]["chronology"]["precedes"] == []
    assert report["results"]["chronology"]["linear_extension"] == {"e1": 0, "e2": 1}


def test_explore_zero_event_model(tmp_path, capsys):
    path = tmp_path / "noop.json"
    path.write_text(json.dumps({"worlds": ["w"], "sites": ["s"], "events": []}))
    status, out, _ = run_cli(capsys, "explore", str(path))
    assert status == 0
    report = json.loads(out)
    assert report["results"]["exploration"]["nodes"] == 1


def test_validate_reports_static_defects(capsys):
    status, out, _ = run_cli(capsys, "validate", GADGET)
    assert status == 1
    report = json.loads(out)
    kinds = {d["kind"] for d in report["results"]["defects"]}
    assert kinds == {"static_monotonicity"}

    status, out, _ = run_cli(capsys, "validate", TWO_SITE)
    assert status == 0
    assert json.loads(out)["results"]["defects"] == []


@pytest.mark.parametrize(
    "content",
    [
        b"{not json",
        b"[" * 200_000,
        b'{"worlds": ["\xe9"], "sites": ["s"], "events": []}',
        b'{"worlds": ["a"], "measure": {"a": "1e4301"}, "sites": ["s"], "events": []}',
        b'{"worlds": ["a"], "measure": {"a": 1e4301}, "sites": ["s"], "events": []}',
        b'{"worlds": ["a"], "measure": {"a": "1e' + b"9" * 5000 + b'"}, "sites": ["s"], "events": []}',
    ],
    ids=[
        "not-json",
        "deep-nesting",
        "not-utf8",
        "long-weight-string",
        "long-weight-number",
        "long-exponent",
    ],
)
def test_parse_error_exits_two(tmp_path, capsys, content):
    path = tmp_path / "broken.json"
    path.write_bytes(content)
    status, _, err = run_cli(capsys, "diagnose", str(path))
    assert status == 2
    assert err.startswith("chronocheck: error: ") and err.count("\n") == 1
    assert "set_int_max_str_digits" not in err  # advice for programmers, not users


def test_unknown_field_exits_two(tmp_path, capsys):
    path = tmp_path / "extra.json"
    path.write_text(
        json.dumps({"worlds": ["w"], "sites": ["s"], "events": [], "wat": 1})
    )
    status, _, err = run_cli(capsys, "diagnose", str(path))
    assert status == 2
    assert "unknown fields" in err


def test_model_path_required_exactly_once(capsys):
    status, _, err = run_cli(capsys, "diagnose")
    assert status == 2
    status, _, err = run_cli(capsys, "diagnose", GADGET, "--model", GADGET)
    assert status == 2


def test_model_flag_alternative(capsys):
    status, out, _ = run_cli(capsys, "chronology", "--model", TWO_SITE)
    assert status == 0


def test_json_file_matches_stdout(tmp_path, capsys):
    json_path = tmp_path / "report.json"
    status, out, _ = run_cli(capsys, "diagnose", GADGET, "--json", str(json_path))
    assert json_path.read_text() == out


def test_unwritable_json_file_exits_two_after_printing_the_report(tmp_path, capsys):
    _, report, _ = run_cli(capsys, "diagnose", GADGET)
    status, out, err = run_cli(capsys, "diagnose", GADGET, "--json", str(tmp_path))
    assert status == 2
    assert out == report
    assert err.startswith("chronocheck: error: ") and "Is a directory" in err
    assert str(tmp_path) in err


NO_SPACE = f"chronocheck: error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"


class _FullStdout:
    """A stdout on a real descriptor whose writes fail as on a full disk."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def flush(self):
        pass

    def fileno(self):
        return self.fd


def test_failed_report_write_exits_two(monkeypatch, tmp_path, capsys):
    with open(tmp_path / "out", "wb") as fh:
        monkeypatch.setattr(sys, "stdout", _FullStdout(fh.fileno()))
        status = main(["diagnose", TWO_SITE])
        # the descriptor now reaches the null device, so the flush at exit
        # cannot fail again
        assert os.path.samestat(os.fstat(fh.fileno()), os.stat(os.devnull))
    assert status == 2
    assert capsys.readouterr().err == NO_SPACE


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True])
def test_report_into_a_full_device_exits_two(unbuffered):
    env = _env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "chronocheck", "diagnose", TWO_SITE],
            env=env, stdout=full, stderr=subprocess.PIPE, text=True,
        )
    assert proc.returncode == 2
    assert proc.stderr == NO_SPACE


def test_dot_export_gadget(tmp_path, capsys):
    dot_path = tmp_path / "influence.dot"
    run_cli(capsys, "influence", GADGET, "--dot", str(dot_path))
    dot = dot_path.read_text()
    assert '"a";' in dot and '"b";' in dot
    assert '"b" -> "a" [style=solid];' in dot
    assert '"a" -> "b" [style=dashed];' in dot
    assert dot.count("->") == 2


def test_dot_export_two_site_has_isolated_vertices(tmp_path, capsys):
    dot_path = tmp_path / "influence.dot"
    run_cli(capsys, "influence", TWO_SITE, "--dot", str(dot_path))
    dot = dot_path.read_text()
    assert '"e1";' in dot and '"e2";' in dot
    assert "->" not in dot


@pytest.mark.parametrize("command", ["validate", "trace-check"])
def test_dot_is_rejected_before_any_report(tmp_path, capsys, command):
    dot_path, json_path = tmp_path / "view.dot", tmp_path / "report.json"
    argv = [command, TWO_SITE, "--dot", str(dot_path), "--json", str(json_path)]
    if command == "trace-check":
        argv += ["--schedule", "e1,e2"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--dot" in captured.err
    assert not dot_path.exists() and not json_path.exists()


def test_influence_dot_three_chain_closure_styles():
    dot = influence_dot(
        ("x", "y", "z"),
        weak_pairs=[],
        strong_pairs=[("x", "y"), ("y", "z")],
        closure_pairs=[("x", "y"), ("y", "z"), ("x", "z")],
    )
    assert dot.count("[style=solid]") == 2
    assert dot.count("[style=dotted]") == 1
    assert '"x" -> "z" [style=dotted];' in dot


def test_strict_mode_turns_monotonicity_violation_into_hard_error(capsys):
    status, _, err = run_cli(capsys, "diagnose", GADGET, "--strict")
    assert status == 2
    assert "monotonicity violation" in err
    status, _, _ = run_cli(capsys, "diagnose", TWO_SITE, "--strict")
    assert status == 0


@pytest.mark.parametrize("command", ["explore", "diagnose"])
@pytest.mark.parametrize("source", ["cycle_gadget", "random:215"])
def test_strict_names_the_first_shrink_only_finding(tmp_path, capsys, command, source):
    # random:215 has seven findings of four causes; the first is named
    if source == "cycle_gadget":
        model, path = load_fixture(source), GADGET
    else:
        model = random_model(random.Random(215), intersect_prob=0.3, monotone_bias=0.1)
        path = tmp_path / "model.json"
        path.write_text(serialize_model(model), encoding="utf-8")
    first = check_monotonicity(explore(model))[0]
    status, out, err = run_cli(capsys, command, str(path), "--strict")
    assert (status, out) == (2, "")
    assert err == (
        f"chronocheck: error: monotonicity violation: event {first.event} adds worlds "
        f"{first.added.sorted_labels()} at site {model.sites[first.site]}\n"
    )


def test_mode_override_echoed_in_report(capsys):
    status, out, _ = run_cli(capsys, "explore", TWO_SITE, "--mode", "measure")
    assert status == 0
    report = json.loads(out)
    assert report["flags"]["mode"] == "measure"
    assert report["model"]["mode"] == "positive_measure"


def test_reports_are_stable_across_runs(capsys):
    _, first, _ = run_cli(capsys, "diagnose", GADGET)
    _, second, _ = run_cli(capsys, "diagnose", GADGET)
    assert first == second


def test_trace_check_two_site(capsys):
    status, out, _ = run_cli(
        capsys, "trace-check", TWO_SITE, "--schedule", "e1,e2", "--seed", "7"
    )
    assert status == 0
    report = json.loads(out)
    assert report["results"]["invariant"] is True
    assert report["flags"]["seed"] == 7


def test_trace_check_unknown_event_exits_two(capsys):
    status, _, err = run_cli(
        capsys, "trace-check", TWO_SITE, "--schedule", "e1,zzz"
    )
    assert status == 2
    assert "unknown event" in err


def test_trace_check_negative_swaps_exits_two(capsys):
    status, out, err = run_cli(
        capsys, "trace-check", TWO_SITE, "--schedule", "e1,e1", "--swaps", "-3"
    )
    assert (status, out) == (2, "")
    assert err == "chronocheck: error: swaps must not be negative\n"


def test_truncation_warning_present(capsys):
    status, out, _ = run_cli(capsys, "explore", GADGET, "--max-states", "2")
    report = json.loads(out)
    assert report["results"]["exploration"]["truncated"] is True
    assert any("truncated" in w for w in report["warnings"])


@pytest.mark.parametrize("command", ["influence", "chronology", "trace-check"])
def test_truncation_warning_without_exploration_summary(capsys, command):
    # these reports carry no exploration summary, yet still explore
    extra = ["--schedule", "e1,e2"] if command == "trace-check" else []
    for max_states, warned in (("3", True), ("100", False)):
        _, out, _ = run_cli(capsys, command, TWO_SITE, "--max-states", max_states, *extra)
        warnings = json.loads(out)["warnings"]
        assert any("truncated" in w for w in warnings) is warned, max_states


def _record_explorations(monkeypatch):
    """Limits of every exploration a CLI run starts."""
    calls = []
    original = chronocheck.chronology.explore

    def spy(model, limits=None, **kwargs):
        calls.append(limits)
        return original(model, limits, **kwargs)

    monkeypatch.setattr(chronocheck.chronology, "explore", spy)
    monkeypatch.setattr(chronocheck.cli, "explore", spy)
    return calls


def test_strict_diagnose_explores_once(monkeypatch, capsys):
    calls = _record_explorations(monkeypatch)
    status, _, err = run_cli(capsys, "diagnose", GADGET, "--strict")
    assert status == 2
    assert err == (
        "chronocheck: error: monotonicity violation: event a adds worlds ['1'] "
        "at site site1\n"
    )
    assert len(calls) == 1
    calls.clear()
    status, _, _ = run_cli(capsys, "diagnose", TWO_SITE, "--strict")
    assert status == 0
    assert len(calls) == 1


def test_trace_check_passes_exploration_limits(monkeypatch, capsys):
    calls = _record_explorations(monkeypatch)
    for strict in ([], ["--strict"]):
        calls.clear()
        status, out, _ = run_cli(
            capsys,
            "trace-check", TWO_SITE, "--schedule", "e1,e2", "--max-states", "7", "--max-depth", "3", *strict,
        )
        assert status == 0
        assert json.loads(out)["flags"]["max_states"] == 7
        assert calls == [ExplorationLimits(7, 3)], strict


@pytest.mark.parametrize("command", ["explore", "influence", "chronology", "diagnose"])
def test_dot_text_is_built_only_for_dot(monkeypatch, tmp_path, capsys, command):
    calls = []

    def spy(original):
        def wrapper(*args, **kwargs):
            calls.append(original.__name__)
            return original(*args, **kwargs)
        return wrapper

    for name in ("reachability_dot", "influence_dot"):
        monkeypatch.setattr(chronocheck.cli, name, spy(getattr(chronocheck.cli, name)))
    status, without_dot, _ = run_cli(capsys, command, GADGET)
    assert calls == []
    dot_path = tmp_path / "view.dot"
    assert run_cli(capsys, command, GADGET, "--dot", str(dot_path)) == (status, without_dot, "")
    assert calls == ["reachability_dot" if command == "explore" else "influence_dot"]
    assert dot_path.read_text().startswith("digraph")


ROOT = Path(__file__).resolve().parents[1]
GOLDEN_STDOUT = json.loads((ROOT / "tests" / "golden" / "cli_stdout_digests.json").read_text(encoding="utf-8"))


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def _fixtures_in(workdir):
    """Copy the bundled fixtures into `workdir`, so runs can name them by
    the relative paths the golden record uses."""
    workdir.mkdir(exist_ok=True)
    for name in ("two_site", "cycle_gadget", "bd_flip"):
        (workdir / f"{name}.json").write_bytes(fixture_path(name).read_bytes())
    return workdir


def _digest(status, out):
    return {"exit": status, "stdout": hashlib.sha256(out.encode("utf-8")).hexdigest()}


def _in_process(capsys, argv):
    try:
        status = main(argv)
    except SystemExit as exc:
        status = exc.code
    return _digest(status, capsys.readouterr().out)


def _fresh_run(argv, workdir):
    proc = subprocess.run(
        [sys.executable, "-m", "chronocheck", *argv],
        cwd=workdir, env=_env(), capture_output=True, text=True,
    )
    return _digest(proc.returncode, proc.stdout)


def test_main_reuses_the_parser_built_on_import(monkeypatch, tmp_path, capsys):
    def refuse():
        raise AssertionError("build_parser called after import")

    monkeypatch.setattr(chronocheck.cli, "build_parser", refuse)
    monkeypatch.chdir(_fixtures_in(tmp_path))
    expected = GOLDEN_STDOUT["diagnose two_site.json"]
    assert _in_process(capsys, ["diagnose", "two_site.json"]) == expected
    assert _in_process(capsys, ["diagnose", "two_site.json"]) == expected


def test_consecutive_in_process_runs_do_not_share_options(monkeypatch, tmp_path, capsys):
    """Each run prints what a fresh interpreter prints for it, so no option
    value or default carries over from one run on the shared parser to the
    next."""
    runs = [
        ["trace-check", "two_site.json", "--schedule", "e1,e2", "--swaps", "3", "--seed", "7"],
        ["diagnose", "two_site.json", "--strict", "--max-states", "3", "--json", "r.json", "--dot", "v.dot"],
        ["diagnose", "two_site.json", "--max-states", "many"],
        ["diagnose", "cycle_gadget.json"],
    ]
    workdir = _fixtures_in(tmp_path / "in-process")
    monkeypatch.chdir(workdir)
    for argv in runs:
        got = _in_process(capsys, argv)
        key = " ".join(argv)
        expected = GOLDEN_STDOUT[key] if key in GOLDEN_STDOUT else _fresh_run(argv, _fixtures_in(tmp_path / "fresh"))
        assert got == expected, key
        if "--dot" in argv:
            assert (workdir / "r.json").exists()
            assert (workdir / "v.dot").read_text().startswith("digraph")
            (workdir / "r.json").unlink()
            (workdir / "v.dot").unlink()
    # the last run would exit 2 under a leaked --strict, and print other
    # bytes under a leaked --max-states; a leaked --json or --dot would
    # write the files again
    assert not (workdir / "r.json").exists() and not (workdir / "v.dot").exists()


def test_importing_the_package_leaves_the_cli_unloaded():
    code = "import sys, chronocheck; print([m for m in ('chronocheck.cli', 'argparse') if m in sys.modules])"
    proc = subprocess.run([sys.executable, "-c", code], env=_env(), capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"
