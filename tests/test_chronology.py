import random
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from chronocheck import (
    ConsistencyMode,
    RecordState,
    Verdict,
    apply_event,
    build_influence_graphs,
    check_branch_determinacy,
    check_trace_invariance,
    closure_from_edges,
    diagnose,
    explore,
    parse_model,
    transitive_closure,
)
from chronocheck.randmodels import random_model, random_schedule


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
    assert check_branch_determinacy(gadget, graph, ig) == []


def test_branch_determinacy_flip_model_single_violation(bd_flip):
    graph = explore(bd_flip)
    ig = build_influence_graphs(bd_flip, graph)
    assert set(ig.strong_edges) == {("e", "f")}
    violations = check_branch_determinacy(bd_flip, graph, ig)
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
    assert check_branch_determinacy(two_site, graph, ig) == []


def test_trace_invariance_two_site(two_site):
    report = check_trace_invariance(two_site, ["e1", "e2"], swaps=5, seed=1)
    assert report.invariant
    assert report.variants_checked >= 1
    expected = RecordState(
        (two_site.space.subset(["00", "01"]), two_site.space.subset(["00", "10"]))
    )
    assert report.graph.state(report.final_state) == expected
    # the graph a report holds is left out of its equality and its repr
    again = check_trace_invariance(two_site, ["e1", "e2"], swaps=5, seed=1)
    assert again.graph is not report.graph
    assert again == report
    assert "graph" not in repr(report)


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
    for index, (model, schedule) in enumerate(cases):
        report = check_trace_invariance(model, schedule, swaps=5, seed=index)
        graph = report.graph
        assert graph.state(report.final_state) == _run_by_application(model, schedule)
        for variant, sid in report.state_mismatches:
            assert graph.state(sid) == _run_by_application(model, variant)


def test_trace_invariance_gadget_vacuous(gadget):
    report = check_trace_invariance(gadget, ["a", "b"], swaps=5, seed=1)
    assert report.invariant
    assert report.variants_checked == 0


def test_trace_invariance_unknown_event(two_site):
    with pytest.raises(ValueError):
        check_trace_invariance(two_site, ["e1", "zzz"])


def test_trace_invariance_rejects_negative_swaps(two_site):
    with pytest.raises(ValueError, match="swaps must not be negative"):
        check_trace_invariance(two_site, ["e1", "e1"], swaps=-3)
    assert check_trace_invariance(two_site, ["e1", "e1"], swaps=0).invariant


@given(seed=st.integers(0, 10**9))
def test_trace_invariance_random_intersect_models(seed):
    rng = random.Random(seed)
    model = random_model(rng, intersect_prob=1.0)
    schedule = random_schedule(rng, model)
    if not schedule:
        return
    report = check_trace_invariance(model, schedule, swaps=5, seed=seed)
    assert report.diamond_violations == []
    assert report.invariant


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
    assert report.model.mode is ConsistencyMode.POSITIVE_MEASURE
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
