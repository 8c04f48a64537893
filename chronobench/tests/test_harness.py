"""Tests of the benchmark harness itself.

    python3 -m pytest chronobench/tests -q
"""

from __future__ import annotations

import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402  (puts the sources on sys.path)
import tracing  # noqa: E402
import workloads  # noqa: E402
import chronocheck.model  # noqa: E402
from chronocheck import diagnose, fixture_path, load_fixture  # noqa: E402


@pytest.mark.parametrize(
    "n, percentile, value",
    [
        (10, 100.0, 10),  # too few samples for any percentile: the maximum
        (20, 50.0, 10),  # nearest rank 10 of 20 leaves exactly 10 above
        (39, 50.0, 20),  # p75 would leave only 9 above
        (40, 75.0, 30),
        (1000, 99.0, 990),
        (100_000, 99.0, 99_000),  # p99 is the highest percentile reported
    ],
)
def test_tail_percentile_is_highest_with_ten_samples_beyond(n, percentile, value):
    samples = [float(i) for i in range(n, 0, -1)]
    assert run.tail_percentile(samples) == (percentile, value)


def test_self_time_subtracts_children_once():
    ms = 1_000_000
    spans = [
        ["root", 0, 100 * ms, -1],
        ["a", 10 * ms, 40 * ms, 0],
        ["leaf", 20 * ms, 30 * ms, 1],
        ["b", 50 * ms, 70 * ms, 0],
        ["b", 80 * ms, 90 * ms, 0],
    ]
    totals = tracing.self_times(spans)
    assert totals["root"] == pytest.approx(0.040)
    assert totals["a"] == pytest.approx(0.020)
    assert totals["leaf"] == pytest.approx(0.010)
    assert totals["b"] == pytest.approx(0.030)


def test_self_time_counts_overlapping_children_as_their_union():
    ms = 1_000_000
    spans = [["root", 0, 100 * ms, -1], ["x", 10 * ms, 40 * ms, 0], ["y", 30 * ms, 60 * ms, 0]]
    assert tracing.self_times(spans)["root"] == pytest.approx(0.050)


@pytest.mark.parametrize("name", ["two_site", "cycle_gadget", "bd_flip"])
def test_fixture_projection_matches_readme(name):
    projected = workloads.projection(run.taxonomy_json(diagnose(load_fixture(name))), None)
    assert workloads.fixture_mismatches(name, projected) == []


def test_fixture_projection_is_the_same_through_the_cli():
    status, text = run.cli_op(fixture_path("cycle_gadget"))
    cli = run.Workload("wide", [], {}).project((status, text))
    api = run.Workload("suite", [], {}).project(diagnose(load_fixture("cycle_gadget")))
    assert status == 1
    assert cli == dict(api, exit_status=1)


def test_traced_operation_writes_identical_stdout():
    path = fixture_path("cycle_gadget")
    untraced = run.cli_op(path)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = tracer.call(tracing.ROOT, run.cli_op, path)
    finally:
        tracer.remove()
    assert traced == untraced
    names = {span[0] for span in tracer.spans}
    assert {"cli.main_self_s", "reachability.explore_s", "report.dumps_s"} <= names
    assert tracer.counts["model.apply_calls"] > tracer.counts["model.apply_event_calls"] > 0
    # the originals are back in place
    assert run.cli_op(path) == untraced


def test_missing_target_is_reported_absent(monkeypatch):
    monkeypatch.delattr(chronocheck.model, "EventApplier")
    tracer = tracing.Tracer()
    tracer.install()
    tracer.remove()
    assert "model.apply_calls" not in tracer.present
    assert "model.apply_event_calls" in tracer.present


def test_traced_run_reports_every_per_layer_metric():
    path = fixture_path("cycle_gadget")
    answer = workloads.projection_digest(run.Workload("wide", [], {}).project(run.cli_op(path)))
    workload = run.Workload("wide", [("cycle_gadget", path)], {"cycle_gadget": answer})
    names = list(run.per_layer_units())
    no_spawns = SimpleNamespace(spawn=lambda: None)
    result = run.measure_traced(workload, run.random.Random(0), 0.0, no_spawns, names)
    assert result["failed"] == 0
    assert sorted(result["layers"]) == sorted(set(names) - {"cli.import_s"})
    assert tracing.HOOK not in result["layers"]
