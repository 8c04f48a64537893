#!/usr/bin/env python3
"""Record the golden digests of `diagnose` reports and of CLI stdout.

For every model of the fixed conformance suite and for three rungs of the
scale ladder, the report is reduced to a normalized projection and hashed.
The projection keeps every verdict-bearing fact (verdict, weak and strong
edges with their witnesses, chronology, cycles, monotonicity and
commutation findings) and lists consistency and branch-determinacy
violations as sets keyed by state and polarity.  Node and edge counts, and
how often a state repeats across occurrence sets, stay out, so the digests
survive a change of exploration strategy that keeps the findings.

The second record pins report bytes: the SHA-256 of stdout and the exit
status of every subcommand on the bundled fixtures and CLOCK_MODEL under
four flag sets, of `diagnose` on two ladder rungs, and of each `--help` text (80
columns).  Runs take their model by a relative path, so the `path` each
report echoes does not depend on where the checkout lives.

Usage:
    PYTHONPATH=src python scripts/record_golden.py   # rewrites both files under tests/golden/

tests/test_golden.py checks the recorded digests.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from pathlib import Path
from typing import Any, Iterator

from chronocheck import Model, TaxonomyReport, diagnose
from chronocheck.cli import main as cli_main
from chronocheck.modelfile import fixture_path, load_model, serialize_model
from chronocheck.randmodels import model_suite, random_model
from chronocheck.report import state_json, taxonomy_json

SUITE_SEED = 20250810
SUITE_SIZE = 500
LADDER_RUNGS = (8, 10, 12)
GOLDEN_PATH = Path(__file__).resolve().parents[1] / "tests" / "golden" / "diagnose_digests.json"
STDOUT_PATH = GOLDEN_PATH.with_name("cli_stdout_digests.json")
FIXTURES = ("two_site", "cycle_gadget", "bd_flip")
COMMANDS = ("validate", "explore", "influence", "chronology", "diagnose", "trace-check")
FLAG_SETS = ((), ("--mode", "measure"), ("--max-states", "3"), ("--strict",))
STDOUT_RUNGS = (8, 10)
# No bundled fixture has an edge that adds weight to the feasible set, so
# none reaches the float `info_source`/`info_target` of a clock violation.
# Here `grow` adds weight from {a} (info -0.0) and from {c} (weight 0, "inf").
CLOCK_MODEL = {
    "worlds": ["a", "b", "c"],
    "measure": {"a": 1, "b": "1/3", "c": 0},
    "sites": ["s"],
    "initial": {"s": ["a", "c"]},
    "events": [
        {"name": "drop", "kind": "intersect", "support": ["s"], "constants": {"s": ["c"]}},
        {"name": "trim", "kind": "intersect", "support": ["s"], "constants": {"s": ["a", "b"]}},
        {
            "name": "grow",
            "kind": "table",
            "support": ["s"],
            "rules": [
                {"guard": {"s": ["a"]}, "result": {"s": ["a", "b"]}},
                {"guard": {"s": ["c"]}, "result": {"s": ["a", "c"]}},
            ],
        },
    ],
}


def ladder_rung(n_events: int, attempts: int = 40) -> Model:
    """First of up to `attempts` draws from `Random("scale:N")` with exactly
    N events (the scale-ladder recipe)."""
    rng = random.Random(f"scale:{n_events}")
    for _ in range(attempts):
        model = random_model(
            rng, max_worlds=12, max_sites=4, max_events=n_events, intersect_prob=0.7
        )
        if len(model.events) == n_events:
            return model
    raise ValueError(f"no draw of scale:{n_events} has {n_events} events")


def golden_models() -> Iterator[tuple[str, Model]]:
    for index, model in enumerate(model_suite(SUITE_SEED, SUITE_SIZE)):
        yield f"suite:{index}", model
    for n_events in LADDER_RUNGS:
        yield f"scale:{n_events}", ladder_rung(n_events)


def _canonical(value: Any) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def projection(report: TaxonomyReport) -> dict[str, Any]:
    """The normalized, count-free view of one report that is digested."""
    model = report.model
    doc = taxonomy_json(report)
    gs_states = {
        _canonical(state_json(model, report.graph.node(i).state))
        for i in report.gs_violations
    }
    bd_findings = {_canonical(entry) for entry in doc["bd_violations"]}
    return {
        "verdict": doc["verdict"],
        "influence": doc["influence"],
        "chronology": doc["chronology"],
        "cycles": doc["cycles"],
        "monotonicity_violations": doc["monotonicity_violations"],
        "diamond_violations": doc["diamond_violations"],
        "gs_violations": sorted(gs_states),
        "bd_violations": sorted(bd_findings),
    }


def digest(report: TaxonomyReport) -> str:
    return hashlib.sha256(_canonical(projection(report)).encode("utf-8")).hexdigest()


def compute_digests() -> dict[str, str]:
    return {name: digest(diagnose(model)) for name, model in golden_models()}


def cli_runs(workdir: Path) -> Iterator[list[str]]:
    """Write the models into `workdir` and yield the argv of each frozen run,
    with model paths relative to `workdir`."""
    for name in FIXTURES:
        (workdir / f"{name}.json").write_bytes(fixture_path(name).read_bytes())
    (workdir / "clock.json").write_text(json.dumps(CLOCK_MODEL), encoding="utf-8")
    for name in (*FIXTURES, "clock"):
        path = workdir / f"{name}.json"
        schedule = ",".join(event.name for event in load_model(path).events)
        for command in COMMANDS:
            extra = ["--schedule", schedule] if command == "trace-check" else []
            for flags in FLAG_SETS:
                yield [command, path.name, *extra, *flags]
    for n_events in STDOUT_RUNGS:
        path = workdir / f"scale-{n_events}.json"
        path.write_text(serialize_model(ladder_rung(n_events)), encoding="utf-8")
        yield ["diagnose", path.name]
    yield ["--help"]
    for command in COMMANDS:
        yield [command, "--help"]


def _run_cli(argv: list[str]) -> dict[str, Any]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            status = cli_main(argv)
        except SystemExit as exc:  # --help
            status = exc.code
    return {"exit": status, "stdout": hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()}


def compute_stdout_digests(workdir: Path) -> dict[str, dict[str, Any]]:
    """Exit status and stdout digest of every frozen run, keyed by its
    command line; runs in `workdir`, at a terminal width of 80."""
    saved_cwd, saved_columns = os.getcwd(), os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    try:
        os.chdir(workdir)
        return {" ".join(argv): _run_cli(argv) for argv in cli_runs(workdir)}
    finally:
        os.chdir(saved_cwd)
        if saved_columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = saved_columns


def _write(path: Path, value: Any) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(value, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(value)} digests to {path}")


def main() -> int:
    _write(GOLDEN_PATH, compute_digests())
    with tempfile.TemporaryDirectory() as workdir:
        _write(STDOUT_PATH, compute_stdout_digests(Path(workdir)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
