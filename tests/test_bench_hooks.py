"""The program surface that the benchmark's tracer hooks by name.

`chronobench/tracing.py` wraps functions by module and attribute path and
reports a metric as absent when its target is gone, so a renamed or
deleted target would only show up as a per-layer metric missing from
traced runs.  These tests read the tracer's tables and count hooks as
they are, without importing the benchmark package.
"""

import importlib.util
from pathlib import Path

import chronocheck.cli
from chronocheck import TransitionTable, build_influence_graphs, explore, fixture_path, load_fixture


def _tracing():
    path = Path(__file__).resolve().parents[1] / "chronobench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_hook_target_resolves_but_the_retired_one():
    tracing = _tracing()
    targets = [(module, path) for module, path, *_ in (*tracing.SPANS, *tracing.COUNTERS)]
    missing = [target for target in targets if tracing._resolve(*target) is None]
    assert missing == [("chronocheck.chronology", "find_strong_cycles")]


def test_graph_and_influence_count_hooks_on_bd_flip():
    tracing = _tracing()
    model = load_fixture("bd_flip")
    graph = explore(model)
    assert tracing._graph_counts((model,), graph) == (8, 8, 24)
    ig = build_influence_graphs(model, graph)
    assert tracing._influence_counts((model, graph), ig) == (2, 1, 1)


def test_graph_count_hook_builds_no_record_state(monkeypatch):
    # the hook runs inside the traced `explore` span, so a state it built
    # would be timed there and warm the cache of every later span
    tracing = _tracing()
    model = load_fixture("bd_flip")
    graph = explore(model)
    built = []
    state = TransitionTable.state
    monkeypatch.setattr(TransitionTable, "state", lambda table, sid: built.append(sid) or state(table, sid))
    assert tracing._graph_counts((model,), graph) == (8, 8, 24)
    assert built == []


def test_traced_diagnose_writes_the_untraced_report(capsys):
    # the hooks read the arguments and results of the calls they wrap, so
    # a signature they no longer fit shows as a changed report or count
    tracing = _tracing()
    argv = ["diagnose", str(fixture_path("bd_flip"))]
    untraced = chronocheck.cli.main(argv), capsys.readouterr().out
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = chronocheck.cli.main(argv), capsys.readouterr().out
    finally:
        tracer.remove()
    assert traced == untraced
    names = ("reachability.states", "reachability.edges", "influence.weak_edges", "influence.strong_edges")
    assert {name: tracer.counts[name] for name in names} == dict(zip(names, (8, 24, 1, 1)))
