import random
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chronocheck import (
    BDViolation,
    ConsistencyMode,
    Event,
    ExplorationLimits,
    Model,
    PossibilitySpace,
    RecordState,
    Subset,
    TransitionTable,
    Verdict,
    apply_event,
    build_influence_graphs,
    check_branch_determinacy,
    check_diamond,
    check_monotonicity,
    check_trace_invariance,
    closure_from_edges,
    diagnose,
    explore,
    independent,
    load_fixture,
    occurrence_masks,
    parse_model,
    transitive_closure,
)
from chronocheck import chronology
from chronocheck.randmodels import random_model, random_schedule
from chronocheck.report import state_json, trace_json
from conftest import LANE_SHAPES, corrupt_one_event, dense_draw, draw_shaped_model, make_aligned_flip_model


def test_closure_three_chain():
    chron = closure_from_edges(("x", "y", "z"), [("x", "y"), ("y", "z")])
    assert chron.precedes == frozenset({("x", "y"), ("y", "z"), ("x", "z")})
    assert chron.acyclic
    assert chron.ranks() == {"x": 0, "y": 1, "z": 2}


def test_closure_empty_edges_ranks_lexicographically():
    chron = closure_from_edges(("q", "p"), [])
    assert chron.precedes == frozenset()
    assert chron.acyclic
    assert chron.ranks() == {"p": 0, "q": 1}


def test_closure_rejects_an_edge_with_an_unknown_event():
    for edge in (("x", "q"), ("q", "x")):
        with pytest.raises(ValueError, match=rf"edge \({edge[0]}, {edge[1]}\) references unknown events"):
            closure_from_edges(("x", "y"), [edge])


def test_closure_gadget(gadget):
    ig = build_influence_graphs(gadget, explore(gadget))
    chron = transitive_closure(ig)
    assert chron.precedes == frozenset({("b", "a")})
    assert chron.ranks() == {"b": 0, "a": 1}


def test_closure_cycle_has_no_extension():
    chron = closure_from_edges(("x", "y"), [("x", "y"), ("y", "x")])
    assert not chron.acyclic
    assert chron.linear_extension is None
    with pytest.raises(ValueError):
        chron.ranks()


def test_rank_respects_precedence():
    chron = closure_from_edges(
        ("a", "b", "c", "d"), [("b", "a"), ("a", "c"), ("b", "d")]
    )
    ranks = chron.ranks()
    for e, f in chron.precedes:
        assert ranks[e] < ranks[f]


def test_cycles_none_without_cyclic_edges(two_site, gadget):
    for model in (two_site, gadget):
        ig = build_influence_graphs(model, explore(model))
        assert transitive_closure(ig).cycles == ()


def test_cycles_two_cycle_from_aligned_flips(aligned_flip_model):
    ig = build_influence_graphs(aligned_flip_model, explore(aligned_flip_model))
    assert set(ig.strong_edges) == {("x", "y"), ("y", "x")}
    assert transitive_closure(ig).cycles == (("x", "y"),)


def test_cycles_from_edges_representative_per_component():
    chron = closure_from_edges(
        ("a", "b", "c", "d", "e", "f", "g", "h", "i", "x", "k", "j"),
        [("a", "b"), ("b", "a"), ("c", "d"), ("d", "e"), ("e", "c"), ("a", "c")]
        # the shortest loop through f is f, g, not the f, h, i found depth first
        + [("f", "h"), ("f", "g"), ("h", "i"), ("i", "f"), ("g", "f")]
        # of two equally short loops, the first declared successor's wins
        + [("x", "j"), ("x", "k"), ("j", "x"), ("k", "x")],
    )
    assert chron.cycles == (("a", "b"), ("c", "d", "e"), ("f", "g"), ("x", "k"))


def test_branch_determinacy_gadget_clean(gadget):
    graph = explore(gadget)
    ig = build_influence_graphs(gadget, graph)
    assert check_branch_determinacy(graph, ig) == []


def test_branch_determinacy_flip_model_single_violation(bd_flip):
    graph = explore(bd_flip)
    ig = build_influence_graphs(bd_flip, graph)
    assert set(ig.strong_edges) == {("e", "f")}
    violations = check_branch_determinacy(graph, ig)
    assert len(violations) == 1
    violation = violations[0]
    assert violation.polarity == "e-not-occurred"
    assert violation.expected == bd_flip.space.subset(["u"])
    assert violation.actual == bd_flip.space.subset(["v"])
    # the offending state is the one g alone reaches
    state = graph.state(violation.state)
    assert state == apply_event(bd_flip.event("g"), bd_flip.initial)
    # oracle: the offending state's post-f record really does write the
    # other branch, by direct evaluation
    f = bd_flip.event("f")
    post = apply_event(f, state)[violation.witness.site]
    assert post & violation.witness.observable == bd_flip.space.subset(["v"])


# the empty record is reached with e0, e1, e2 fired, with or without e3, so
# it is one state along two histories in which e2 has occurred
REACHED_TWICE = """{
  "worlds": ["w0", "w1", "w2", "w3"],
  "measure": {"w0": 0, "w1": 2, "w2": 2, "w3": 2},
  "sites": ["s0"],
  "consistency_mode": "positive_measure",
  "initial": {"s0": ["w0", "w1"]},
  "events": [
    {"name": "e0", "kind": "table", "support": ["s0"], "rules": [
      {"guard": {"s0": ["w0", "w2", "w3"]}, "result": {"s0": []}},
      {"guard": {"s0": ["w0", "w2", "w3"]}, "result": {"s0": ["w2", "w3"]}},
      {"guard": {}, "result": {"s0": ["w0", "w2"]}}]},
    {"name": "e1", "kind": "table", "support": ["s0"], "rules": [
      {"guard": {"s0": ["w0"]}, "result": {"s0": ["w3"]}}]},
    {"name": "e2", "kind": "intersect", "support": ["s0"], "constants": {"s0": ["w0", "w1"]}},
    {"name": "e3", "kind": "table", "support": ["s0"], "rules": [
      {"guard": {}, "result": {"s0": ["w0", "w1", "w2"]}}]}
  ]
}"""


def test_branch_determinacy_lists_each_state_once_per_polarity():
    model = parse_model(REACHED_TWICE)
    report = diagnose(model)
    empty = RecordState((model.space.empty(),))
    found = [
        (v.witness.e, v.witness.f, v.polarity, report.graph.state(v.state))
        for v in report.bd_violations
    ]
    assert found == [
        ("e2", "e1", "e-occurred", empty),
        ("e3", "e1", "e-not-occurred", empty),
    ]


def test_branch_determinacy_vacuous_without_strong_edges(two_site):
    graph = explore(two_site)
    ig = build_influence_graphs(two_site, graph)
    assert check_branch_determinacy(graph, ig) == []


def scalar_branch_determinacy(graph, ig):
    """Reference branch-determinacy check: per strong witness, every
    explored state in state order and both polarities in turn, stepped on
    the table.  It may intern states past a truncated frontier, so it runs
    after the check it is compared with."""
    if not ig.strong_edges:
        return []
    table, model = graph.table, graph.model
    packed, keep = table.packed, table.keep
    fired, unfired = occurrence_masks(graph)
    violations = []
    for witness in ig.strong_edges.values():
        e, f = model.event_names.index(witness.e), model.event_names.index(witness.f)
        context = table.supports[f] & keep
        site = witness.site
        observable, branch0, branch1 = (
            table.pack(((site, sub),)) for sub in (witness.observable, witness.branch0, witness.branch1)
        )
        base = witness.state
        expectations = (
            ("e-not-occurred", unfired, packed[base] & context, witness.branch0, branch0),
            ("e-occurred", fired, packed[table.step(base, e)] & context, witness.branch1, branch1),
        )
        for sid in range(graph.state_count):
            for polarity, on_some_path, expected_context, expected, branch in expectations:
                if not on_some_path[sid] >> e & 1 or packed[sid] & context != expected_context:
                    continue
                actual = packed[table.step(sid, f)] & observable
                if (actual ^ branch) & keep:
                    written = Subset(model.space, table.field(actual, site))
                    violations.append(BDViolation(witness, sid, polarity, expected, written))
    return violations


@settings(max_examples=200)
@given(
    seed=st.integers(0, 10**9),
    shape=st.sampled_from(LANE_SHAPES),
    limits=st.sampled_from([None, ExplorationLimits(max_states=3), ExplorationLimits(max_depth=1)]),
    mode=st.sampled_from(ConsistencyMode),
    corrupt=st.booleans(),
)
@example(seed=0, shape="aligned_flip", limits=None, mode=ConsistencyMode.NONEMPTY, corrupt=False)
@example(seed=0, shape="bd_flip", limits=None, mode=ConsistencyMode.NONEMPTY, corrupt=False)
@example(seed=0, shape="bd_flip", limits=ExplorationLimits(max_depth=1), mode=ConsistencyMode.NONEMPTY, corrupt=False)
@example(seed=0, shape="reached_twice", limits=None, mode=ConsistencyMode.POSITIVE_MEASURE, corrupt=False)
# a drawn state writes off the branch only at a zero-weight world
@example(seed=5, shape="8x1", limits=None, mode=ConsistencyMode.POSITIVE_MEASURE, corrupt=False)
def test_lane_branch_determinacy_matches_the_scalar_loop(seed, shape, limits, mode, corrupt):
    # a loadable model's write follows its support's records, so a state
    # with the witness context writes off the branch only where the two
    # differ at zero-weight worlds; a corrupted event's write does not, and
    # gives findings far more often
    rng = random.Random(seed)
    if shape == "aligned_flip":
        model = make_aligned_flip_model()
    elif shape == "bd_flip":
        model = load_fixture("bd_flip")
    elif shape == "reached_twice":
        model = parse_model(REACHED_TWICE)
    else:
        # the first of a few draws, mostly table events, with a strong edge
        for _ in range(10):
            model = replace(draw_shaped_model(rng, shape, intersect_prob=0.2), mode=mode)
            if build_influence_graphs(model, explore(model, limits)).strong_edges:
                break
    graph = explore(model, limits)
    if corrupt:
        corrupt_one_event(rng, graph)
    ig = build_influence_graphs(model, graph)
    assert check_branch_determinacy(graph, ig) == scalar_branch_determinacy(graph, ig)


def test_premise_checks_add_no_state_to_a_truncated_table(gadget, two_site):
    # a depth-1 graph leaves states unexpanded: stepping from one of them
    # would intern its successors
    for model in (gadget, two_site):
        graph = explore(model, ExplorationLimits(max_depth=1))
        assert graph.truncated
        count = len(graph.table.packed)
        check_monotonicity(graph)
        check_diamond(graph)
        check_branch_determinacy(graph, build_influence_graphs(model, graph))
        assert len(graph.table.packed) == count


def test_branch_determinacy_runs_the_occurrence_fixpoint_only_when_needed(monkeypatch, two_site, bd_flip):
    # the lane filter leaves no candidate state on two_site and on the
    # first model of the benchmark's dense workload, and some on bd_flip
    models = {"two_site": two_site, "dense": dense_draw(), "bd_flip": bd_flip}
    expected = {}
    for name, model in models.items():
        graph = explore(model)
        expected[name] = scalar_branch_determinacy(graph, build_influence_graphs(model, graph))
    calls = []
    monkeypatch.setattr(chronology, "occurrence_masks", lambda graph: calls.append(1) or occurrence_masks(graph))
    counts = {}
    for name, model in models.items():
        graph = explore(model)
        before = len(calls)
        assert check_branch_determinacy(graph, build_influence_graphs(model, graph)) == expected[name]
        counts[name] = len(calls) - before
    assert counts["two_site"] == counts["dense"] == 0
    assert counts["bd_flip"] >= 1
    assert expected["bd_flip"]


def test_trace_invariance_two_site(two_site):
    report = check_trace_invariance(TransitionTable(two_site), ["e1", "e2"])
    assert report.invariant
    assert (report.ideals_visited, report.truncated) == (4, False)
    expected = RecordState(
        (two_site.space.subset(["00", "01"]), two_site.space.subset(["00", "10"]))
    )
    assert report.table.state(report.final_state) == expected
    # the table a report holds is left out of its equality and its repr
    again = check_trace_invariance(TransitionTable(two_site), ["e1", "e2"])
    assert again.table is not report.table
    assert again == report
    assert "table" not in repr(report)


def _run_by_application(model, schedule):
    state = model.initial
    for name in schedule:
        state = apply_event(model.event(name), state)
    return state


def test_trace_report_names_states_by_graph_id(two_site, gadget):
    rng = random.Random(7)
    cases = [(two_site, ["e1", "e2", "e1"]), (gadget, ["a", "b", "a"])]
    while len(cases) < 8:
        model = random_model(rng)
        schedule = random_schedule(rng, model)
        if schedule:
            cases.append((model, schedule))
    for model, schedule in cases:
        report = check_trace_invariance(TransitionTable(model), schedule)
        table = report.table
        assert table.state(report.final_state) == _run_by_application(model, schedule)
        for variant, sid in report.state_mismatches:
            assert table.state(sid) == _run_by_application(model, variant)


def test_trace_invariance_gadget_vacuous(gadget):
    # a and b share the gadget's one site, so the schedule is its trace's
    # only linearization and the ideals are its prefixes
    report = check_trace_invariance(TransitionTable(gadget), ["a", "b"])
    assert report.invariant
    assert report.ideals_visited == 3


@pytest.mark.parametrize("n", [0, 1, 5])
def test_trace_invariance_chain_of_n_visits_n_plus_one_ideals(two_site, n):
    report = check_trace_invariance(TransitionTable(two_site), ["e1"] * n)
    assert (report.ideals_visited, report.invariant) == (n + 1, True)


@pytest.mark.parametrize("w", [1, 2, 4])
def test_trace_invariance_w_independent_events_visit_two_to_the_w_ideals(w):
    space = PossibilitySpace.create(("w0", "w1"))
    sites = tuple(f"s{i}" for i in range(w))
    events = tuple(
        Event.intersect(f"e{i}", [i], {i: space.subset(["w0"])}) for i in range(w)
    )
    model = Model(space, sites, tuple(space.full() for _ in sites), events, ConsistencyMode.NONEMPTY)
    report = check_trace_invariance(TransitionTable(model), [e.name for e in events])
    assert (report.ideals_visited, report.invariant) == (2**w, True)


def test_trace_invariance_stops_at_max_states_ideals(two_site):
    table = TransitionTable(two_site)
    schedule = ["e1", "e2", "e1", "e2"]  # (2 + 1) * (2 + 1) ideals
    assert check_trace_invariance(table, schedule, ExplorationLimits(9)).ideals_visited == 9
    report = check_trace_invariance(table, schedule, ExplorationLimits(5))
    assert (report.ideals_visited, report.truncated) == (5, True)
    assert report.state_mismatches == []
    assert not report.invariant  # a truncated pass decides nothing


def test_trace_invariance_reports_a_corrupted_successor(monkeypatch, two_site):
    table = TransitionTable(two_site)
    start = table.intern_state(two_site.initial)
    e1, e2 = (two_site.event_names.index(name) for name in ("e1", "e2"))
    after_e1 = table.step(start, e1)
    honest = table.step(after_e1, e2)
    step = table.step

    def corrupted(sid, event):
        # e1 then e2 now leads back to the initial state; e2 then e1 does not
        return start if (sid, event) == (after_e1, e2) else step(sid, event)

    monkeypatch.setattr(table, "step", corrupted)
    report = check_trace_invariance(table, ["e1", "e2"])
    assert not report.invariant
    assert report.final_state == start
    assert report.state_mismatches == [(("e2", "e1"), honest)]
    for linearization, sid in report.state_mismatches:
        replayed = start
        for name in linearization:
            replayed = table.step(replayed, two_site.event_names.index(name))
        assert replayed == sid
    written = trace_json(report)
    assert written["final_state"] == state_json(table, start)
    assert written["state_mismatches"] == [
        {"schedule": ["e2", "e1"], "final_state": {"site1": ["00", "01"], "site2": ["00", "10"]}}
    ]
    assert written["invariant"] is False


def _linearizations(events):
    """Every order of the positions of `events` that keeps each pair of
    dependent events in schedule order, by plain enumeration."""
    n = len(events)

    def extend(prefix):
        if len(prefix) == n:
            yield prefix
            return
        for j in range(n):
            if j not in prefix and all(
                i in prefix for i in range(j) if not independent(events[i], events[j])
            ):
                yield from extend(prefix + (j,))

    return extend(())


@given(seed=st.integers(0, 10**9))
def test_trace_invariance_finds_the_final_states_of_every_linearization(seed):
    rng = random.Random(seed)
    model = random_model(rng)
    schedule = random_schedule(rng, model, max_length=7)
    events = [model.event(name) for name in schedule]
    expected = {
        _run_by_application(model, [schedule[pos] for pos in order])
        for order in _linearizations(events)
    }
    report = check_trace_invariance(TransitionTable(model), schedule)
    table = report.table
    found = [report.final_state] + [sid for _, sid in report.state_mismatches]
    assert len(set(found)) == len(found)
    assert {table.state(sid) for sid in found} == expected
    assert report.invariant == (len(expected) == 1)
    for linearization, sid in report.state_mismatches:
        assert sorted(linearization) == sorted(schedule)
        assert table.state(sid) == _run_by_application(model, linearization)
    # the report does not depend on which rows exploration filled first
    assert trace_json(report) == trace_json(check_trace_invariance(explore(model).table, schedule))


def test_trace_invariance_unknown_event(two_site):
    with pytest.raises(ValueError):
        check_trace_invariance(TransitionTable(two_site), ["e1", "zzz"])


@given(seed=st.integers(0, 10**9))
def test_trace_invariance_random_intersect_models(seed):
    rng = random.Random(seed)
    model = random_model(rng, intersect_prob=1.0)
    schedule = random_schedule(rng, model)
    if not schedule:
        return
    graph = explore(model)
    assert check_diamond(graph) == []
    assert check_trace_invariance(graph.table, schedule).invariant


def test_diagnose_two_site_all_clean(two_site):
    report = diagnose(two_site)
    assert report.verdict is Verdict.NO_CYCLE
    assert report.premises_clean()
    assert not report.has_strong_cycle
    assert report.influence.weak_edges == {}
    assert report.influence.strong_edges == {}
    assert report.chronology.precedes == frozenset()
    assert not report.truncated


def test_diagnose_gadget_no_cycle_with_violations(gadget):
    report = diagnose(gadget)
    assert report.verdict is Verdict.NO_CYCLE
    assert report.gs_violations
    assert report.monotonicity_violations
    assert report.bd_violations == []
    assert set(report.influence.strong_edges) == {("b", "a")}


def test_diagnose_cycle_explained_by_consistency(emptying_flip_model):
    report = diagnose(emptying_flip_model)
    assert report.has_strong_cycle
    assert report.gs_violations
    assert report.verdict is Verdict.CYCLE_EXPLAINED


def test_diagnose_cycle_with_clean_premises_yields_suspected_verdict(
    aligned_flip_model,
):
    # a strong 2-cycle both of whose witnesses survive every premise
    # check: the classifier must escalate rather than mislabel it
    report = diagnose(aligned_flip_model)
    assert report.has_strong_cycle
    assert report.premises_clean()
    assert not report.truncated
    assert report.verdict is Verdict.THEOREM_VIOLATION_SUSPECTED


def test_diagnose_mode_override(two_site):
    report = diagnose(replace(two_site, mode=ConsistencyMode.POSITIVE_MEASURE))
    assert report.graph.model.mode is ConsistencyMode.POSITIVE_MEASURE
    assert report.verdict is Verdict.NO_CYCLE


def warshall_closure(events, edges):
    reach = {e: set() for e in events}
    for a, b in edges:
        reach[a].add(b)
    for k in events:
        for i in events:
            if k in reach[i]:
                reach[i] |= reach[k]
    return {(a, b) for a in events for b in reach[a]}


def floyd_warshall_lengths(events, edges):
    """Length of the shortest path of at least one edge between every
    ordered pair, the diagonal included (infinite when there is none)."""
    dist = {(a, b): 1 if (a, b) in edges else float("inf") for a in events for b in events}
    for k in events:
        for i in events:
            for j in events:
                dist[i, j] = min(dist[i, j], dist[i, k] + dist[k, j])
    return dist


@given(
    n_events=st.integers(2, 6),
    edge_bits=st.integers(0, 2**30),
    declared=st.permutations([f"e{i}" for i in range(6)]),
)
def test_closure_matches_warshall_oracle(n_events, edge_bits, declared):
    # a declaration order that is in general not the lexicographic one
    events = tuple(declared[:n_events])
    candidates = [(a, b) for a in events for b in events if a != b]
    edges = [pair for i, pair in enumerate(candidates) if edge_bits >> i & 1]
    chron = closure_from_edges(events, edges)
    expected = warshall_closure(events, edges)
    assert chron.precedes == frozenset(expected)
    assert chron.acyclic == all((e, e) not in expected for e in events)
    if chron.acyclic:
        ranks = chron.ranks()
        for e, f in chron.precedes:
            assert ranks[e] < ranks[f]
    assert bool(chron.cycles) == (not chron.acyclic)
    # strongly connected components of size at least two, in the order of
    # their first declared event
    components, assigned = [], set()
    for e in events:
        component = {e} | {f for f in events if (e, f) in expected and (f, e) in expected}
        if e not in assigned and len(component) >= 2:
            components.append((e, component))
        assigned |= component
    assert [cycle[0] for cycle in chron.cycles] == [anchor for anchor, _ in components]
    dist = floyd_warshall_lengths(events, edges)
    for cycle, (anchor, component) in zip(chron.cycles, components):
        assert len(set(cycle)) == len(cycle)
        assert set(cycle) <= component
        assert all(step in edges for step in zip(cycle, cycle[1:] + cycle[:1]))
        assert len(cycle) == dist[anchor, anchor]
