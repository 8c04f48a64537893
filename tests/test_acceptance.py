"""Conformance suite: one test per criterion, each printing a PASS/FAIL
line (run with `pytest -s` to see them).

The randomized checks run over a fixed seeded suite of models so results
are reproducible; regenerate with scripts/run_suite.py to explore other
seeds.
"""

import json
import math
import random
import subprocess
import sys
from itertools import permutations

import pytest

from chronocheck import (
    Verdict,
    WitnessPostcheckError,
    apply_event,
    binary_witness,
    check_diamond,
    check_trace_invariance,
    closure_from_edges,
    diagnose,
    explore,
    feasible_set,
    information_content,
    load_fixture,
    measure_of,
    strong_influence,
    strong_influence_oracle,
)
from chronocheck.cli import main as cli_main
from chronocheck.modelfile import fixture_path, serialize_model
from chronocheck.randmodels import model_suite, random_model, random_schedule

SUITE_SEED = 20250810
SUITE_SIZE = 500


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[criterion {number:02d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="session")
def suite_entries():
    entries = []
    for model in model_suite(SUITE_SEED, SUITE_SIZE):
        entries.append((model, diagnose(model)))
    return entries


def test_criterion_01_independent_tightenings_fixture(capsys):
    model = load_fixture("two_site")
    report = diagnose(model)
    ok = (
        report.diamond_violations == []
        and report.gs_violations == []
        and report.monotonicity_violations == []
        and report.influence.weak_edges == {}
        and report.influence.strong_edges == {}
        and report.chronology.precedes == frozenset()
    )
    exit_code = cli_main(["diagnose", str(fixture_path("two_site"))])
    capsys.readouterr()
    ok = ok and exit_code == 0
    with capsys.disabled():
        _report(
            1,
            "independent tightenings: all checks clean, no edges, exit 0",
            ok,
            f"exit={exit_code}",
        )


def test_criterion_02_cycle_gadget_fixture(capsys):
    model = load_fixture("cycle_gadget")
    report = diagnose(model)
    graph = report.graph
    names = model.event_names
    successors = {(src, names[event]): tgt for src, event, tgt in graph.arcs}
    after_a = successors[(0, "a")]
    after_ab = successors[(after_a, "b")]
    empty_reached = graph.state(after_ab)[0].is_empty
    gs_flags_it = after_ab in report.gs_violations
    mono = [
        (v.event, graph.state(v.state)[0].sorted_labels(), v.added.sorted_labels())
        for v in report.monotonicity_violations
    ]
    mono_ok = mono == [("a", ["0"], ["1"])]
    strong = set(report.influence.strong_edges)
    edges_ok = strong == {("b", "a")}
    exit_code = cli_main(["diagnose", str(fixture_path("cycle_gadget"))])
    out = capsys.readouterr().out
    cli_report = json.loads(out)
    note_ok = any("a -> b" in note for note in cli_report["notes"])
    ok = all([empty_reached, gs_flags_it, mono_ok, edges_ok, note_ok, exit_code == 1])
    with capsys.disabled():
        _report(
            2,
            "cycle gadget: empty state via a;b flagged, b=>a only, noted, exit 1",
            ok,
            f"exit={exit_code} strong={sorted(strong)}",
        )


def test_criterion_03_oracle_equivalence(suite_entries, capsys):
    disagreements = []
    pairs_checked = 0
    for index, (model, report) in enumerate(suite_entries):
        for e, f in permutations(model.event_names, 2):
            pairs_checked += 1
            fast = strong_influence(model, report.graph, e, f)
            slow = strong_influence_oracle(model, report.graph, e, f)
            if (fast is None) != (slow is None):
                disagreements.append((index, e, f))
    ok = len(suite_entries) >= 500 and not disagreements
    with capsys.disabled():
        _report(
            3,
            "strong-witness search matches brute-force oracle",
            ok,
            f"models={len(suite_entries)} pairs={pairs_checked} "
            f"disagreements={len(disagreements)}",
        )


def test_criterion_04_binary_witness_postcheck(suite_entries, capsys):
    weak_edges = 0
    failures = []
    for index, (model, report) in enumerate(suite_entries):
        for pair, witness in report.influence.weak_edges.items():
            weak_edges += 1
            try:
                binary_witness(model, report.graph, witness)
            except WitnessPostcheckError:
                failures.append((index, pair))
    ok = not failures
    detail = f"weak_edges={weak_edges} postcheck_failures={len(failures)}"
    if failures:
        index, pair = failures[0]
        reproducer = json.dumps(
            json.loads(serialize_model(suite_entries[index][0])), separators=(",", ":")
        )
        detail += (
            f"; first failure: model {index} edge {pair[0]}->{pair[1]}; "
            f"the construction cannot separate post-update records when the "
            f"entire write-effect difference consists of worlds the "
            f"influencer already removed; reproducer: {reproducer}"
        )
    with capsys.disabled():
        _report(4, "binary witness separation post-check", ok, detail)


def test_criterion_05_clean_premises_imply_acyclic_order(suite_entries, capsys):
    counterexamples = []
    clean_models = 0
    for index, (model, report) in enumerate(suite_entries):
        if report.truncated or not report.premises_clean():
            continue
        clean_models += 1
        if report.has_strong_cycle:
            counterexamples.append(index)
            continue
        ranks = report.chronology.ranks()
        for e, f in report.chronology.precedes:
            if ranks[e] >= ranks[f]:
                counterexamples.append(index)
                break
    ok = not counterexamples
    with capsys.disabled():
        _report(
            5,
            "clean premises imply acyclic strong influence with a linear extension",
            ok,
            f"clean_untruncated_models={clean_models} "
            f"counterexamples={len(counterexamples)}",
        )


def test_criterion_06_cycles_are_explained(suite_entries, capsys):
    counterexamples = []
    cycle_models = 0
    for index, (model, report) in enumerate(suite_entries):
        if report.truncated:
            continue
        if report.has_strong_cycle:
            cycle_models += 1
            if report.premises_clean():
                counterexamples.append(index)
            if report.verdict is Verdict.THEOREM_VIOLATION_SUSPECTED:
                counterexamples.append(index)
    ok = not counterexamples
    with capsys.disabled():
        _report(
            6,
            "every strong cycle is explained by a failed premise",
            ok,
            f"cycle_models={cycle_models} counterexamples={len(counterexamples)}",
        )


def test_criterion_07_information_clock(suite_entries, capsys):
    edge_violations = 0
    edges_checked = 0
    for model, report in suite_entries:
        if report.monotonicity_violations:
            continue
        graph = report.graph
        states = [graph.state(sid) for sid in range(graph.state_count)]
        mus = [measure_of(feasible_set(state)) for state in states]
        infos = [information_content(state) for state in states]
        for src, _, tgt in graph.arcs:
            edges_checked += 1
            if mus[tgt] > mus[src]:
                edge_violations += 1
            if infos[tgt] < infos[src] - 1e-12:
                edge_violations += 1
    model = load_fixture("two_site")
    state = model.initial
    values = [information_content(state)]
    for name in ("e1", "e2"):
        state = apply_event(model.event(name), state)
        values.append(information_content(state))
    expected = [-math.log(4), -math.log(2), 0.0]
    path_ok = all(abs(v - e) <= 1e-12 for v, e in zip(values, expected))
    ok = edge_violations == 0 and path_ok
    with capsys.disabled():
        _report(
            7,
            "information clock never decreases on shrink-only models",
            ok,
            f"edges_checked={edges_checked} violations={edge_violations} "
            f"two_site_path_ok={path_ok}",
        )


def test_criterion_08_trace_invariance(capsys):
    mismatching = []
    models_checked = 0
    variants_total = 0
    index = 0
    while models_checked < 100:
        rng = random.Random(f"{SUITE_SEED}:trace:{index}")
        index += 1
        model = random_model(rng)
        # condition the sample on swaps being possible at all
        has_independent_pair = any(
            not set(e.support) & set(f.support)
            for i, e in enumerate(model.events)
            for f in model.events[i + 1 :]
        )
        if not has_independent_pair:
            continue
        if check_diamond(explore(model), model):
            continue  # only diamond-clean models enter the trace check
        schedule = random_schedule(rng, model)
        report = check_trace_invariance(model, schedule, swaps=20, seed=index)
        models_checked += 1
        variants_total += report.variants_checked
        if not report.invariant:
            mismatching.append(index - 1)
    ok = not mismatching
    with capsys.disabled():
        _report(
            8,
            "final states invariant across trace classes",
            ok,
            f"models={models_checked} variants={variants_total} "
            f"mismatches={len(mismatching)}",
        )


def test_criterion_09_closure_minimality(capsys):
    failures = 0
    rng = random.Random(f"{SUITE_SEED}:closure")
    for _ in range(100):
        n = rng.randint(2, 6)
        events = tuple(f"e{i}" for i in range(n))
        candidates = [(a, b) for a in events for b in events if a != b]
        edges = [pair for pair in candidates if rng.random() < 0.3]
        chron = closure_from_edges(events, edges)
        precedes = set(chron.precedes)

        # independent oracle: boolean matrix closure
        reach = {e: set() for e in events}
        for a, b in edges:
            reach[a].add(b)
        for k in events:
            for i in events:
                if k in reach[i]:
                    reach[i] |= reach[k]
        oracle = {(a, b) for a in events for b in reach[a]}
        if precedes != oracle:
            failures += 1
            continue
        transitive = all(
            (a, c) in precedes
            for a, b in precedes
            for b2, c in precedes
            if b == b2
        )
        contains = set(edges) <= precedes
        if not (transitive and contains):
            failures += 1
            continue
        for pair in precedes:
            trimmed = precedes - {pair}
            still_transitive = all(
                (a, c) in trimmed for a, b in trimmed for b2, c in trimmed if b == b2
            )
            still_contains = set(edges) <= trimmed
            if still_transitive and still_contains:
                failures += 1
                break
    ok = failures == 0
    with capsys.disabled():
        _report(
            9,
            "derived order equals path reachability and is minimal",
            ok,
            f"graphs=100 failures={failures}",
        )


def test_criterion_10_report_determinism(tmp_path, capsys):
    mismatches = []
    for name in ("two_site", "cycle_gadget", "bd_flip"):
        outputs = []
        for run in range(2):
            json_path = tmp_path / f"{name}-{run}.json"
            proc = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "chronocheck",
                    "diagnose",
                    str(fixture_path(name)),
                    "--json",
                    str(json_path),
                ],
                capture_output=True,
            )
            outputs.append((proc.stdout, json_path.read_bytes()))
        if outputs[0] != outputs[1]:
            mismatches.append(name)
    ok = not mismatches
    with capsys.disabled():
        _report(
            10,
            "byte-identical diagnose reports across consecutive runs",
            ok,
            f"fixtures=3 mismatches={mismatches}",
        )
