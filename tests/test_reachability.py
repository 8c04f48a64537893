import contextlib
import io
import json
import math
import random
from collections import deque
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chronocheck import (
    ClockViolation,
    ConsistencyMode,
    DiamondViolation,
    Event,
    ExplorationLimits,
    Model,
    MonotonicityFinding,
    PossibilitySpace,
    RecordState,
    Rule,
    Subset,
    TransitionTable,
    apply_event,
    build_influence_graphs,
    check_clock_monotone,
    check_diamond,
    check_gs,
    check_monotonicity,
    check_trace_invariance,
    diagnose,
    explore,
    feasible_set,
    independent,
    information_content,
    load_fixture,
    measure_of,
    occurrence_masks,
    strong_influence,
    strong_influence_oracle,
    weak_influence,
)
import chronocheck.cli
from chronocheck import reachability
from chronocheck.modelfile import model_from_dict
from chronocheck.randmodels import random_model
from chronocheck.report import graph_summary_json, taxonomy_json
from conftest import LANE_SHAPES, corrupt_one_event, dense_draw, draw_shaped_model, repo_module


def states_by_sequence_enumeration(model, max_len):
    """Oracle: all states produced by event sequences up to max_len,
    by direct function iteration (no graph machinery)."""
    states = {model.initial}
    frontier = {model.initial}
    for _ in range(max_len):
        nxt = set()
        for state in frontier:
            for event in model.events:
                nxt.add(apply_event(event, state))
        frontier = nxt - states
        states |= nxt
        if not frontier:
            break
    return states


def explored_states(graph):
    """Every explored state's records, in id order."""
    return [graph.state(sid) for sid in range(graph.state_count)]


def test_two_site_reaches_four_distinct_states(two_site):
    # oracle first: enumerate sequences until the state set is closed
    oracle_states = states_by_sequence_enumeration(two_site, 8)
    assert len(oracle_states) == 4
    graph = explore(two_site)
    assert set(explored_states(graph)) == oracle_states
    assert graph.state_count == 4
    assert not graph.truncated


def test_gadget_reaches_all_four_records(gadget):
    oracle_states = states_by_sequence_enumeration(gadget, 8)
    expected = {
        RecordState((gadget.space.subset(labels),))
        for labels in (["0", "1"], ["0"], ["1"], [])
    }
    assert oracle_states == expected
    graph = explore(gadget)
    assert set(explored_states(graph)) == expected


def test_zero_event_model_is_a_single_node():
    space = PossibilitySpace.create(["w"])
    model = Model(space, ("site1",), RecordState((space.full(),)), ())
    graph = explore(model)
    assert graph.state_count == 1
    assert graph.arcs == ()
    assert not graph.truncated
    assert graph.state(0) == model.initial
    assert graph.occurred_names(0) == []
    # the benchmark tracer's counting views
    assert graph.nodes == range(1)
    assert graph.edges == ()
    assert graph.distinct_states() == range(1)


def test_exploration_is_deterministic(gadget):
    first, second = explore(gadget), explore(gadget)
    count = first.state_count
    assert first.table.packed[:count] == second.table.packed[:count]
    assert (first.occurred, first.arcs, first.truncated) == (
        second.occurred,
        second.arcs,
        second.truncated,
    )


def test_exploration_limit_sets_truncated(gadget):
    graph = explore(gadget, ExplorationLimits(max_states=2, max_depth=64))
    assert graph.truncated
    assert graph.state_count == 2
    graph = explore(gadget, ExplorationLimits(max_states=100_000, max_depth=1))
    assert graph.truncated


def test_state_limit_counts_distinct_states(bd_flip):
    # bd_flip reaches 8 states along 11 distinct (state, occurred-set) pairs
    graph = explore(bd_flip, ExplorationLimits(max_states=8))
    assert not graph.truncated
    assert graph.state_count == 8
    assert explore(bd_flip, ExplorationLimits(max_states=7)).truncated


def depths_by_breadth_first_search(graph):
    """Oracle: each explored state's shortest-path length from the initial
    state, over the graph's arcs."""
    succ = [[] for _ in range(graph.state_count)]
    for src, _, tgt in graph.arcs:
        succ[src].append(tgt)
    depth = {0: 0}
    queue = deque([0])
    while queue:
        src = queue.popleft()
        for tgt in succ[src]:
            if tgt not in depth:
                depth[tgt] = depth[src] + 1
                queue.append(tgt)
    return [depth[sid] for sid in range(graph.state_count)]


@settings(max_examples=150)
@given(seed=st.integers(0, 10**9))
def test_depth_limit_cuts_the_unlimited_graph(seed):
    model = random_model(random.Random(seed), intersect_prob=0.3, monotone_bias=0.3)
    full = explore(model)
    assert not full.truncated
    depth = depths_by_breadth_first_search(full)
    for k in (1, 2, 3):
        graph = explore(model, ExplorationLimits(max_depth=k))
        # the unlimited graph's first states, in order, up to depth k
        kept = sum(d <= k for d in depth)
        assert max(depth[:kept]) <= k
        assert graph.state_count == kept
        assert graph.table.packed[:kept] == full.table.packed[:kept]
        assert graph.occurred == full.occurred[:kept]
        # every arc out of a state above depth k, and no other
        assert graph.arcs == tuple(arc for arc in full.arcs if depth[arc[0]] < k)
        assert graph.truncated == any(d >= k for d in depth)


def histories_by_path_enumeration(model):
    """Oracle: breadth-first search over (state, occurred-set) pairs by
    direct event application, so each state appears once per set of events
    that can have fired on a path to it.  Returns the pairs in the order
    they are first reached."""
    names = model.event_names
    start = (model.initial, frozenset())
    seen = {start}
    order = [start]
    queue = deque([start])
    while queue:
        state, occurred = queue.popleft()
        for name, event in zip(names, model.events):
            pair = (apply_event(event, state), occurred | {name})
            if pair not in seen:
                seen.add(pair)
                order.append(pair)
                queue.append(pair)
    return order


@settings(max_examples=150)
@given(seed=st.integers(0, 10**9))
def test_occurrence_masks_match_path_enumeration(seed):
    # free-form table writes make cycles and states reached along many
    # histories common
    model = random_model(random.Random(seed), intersect_prob=0.3, monotone_bias=0.3)
    graph = explore(model)
    fired, unfired = occurrence_masks(graph)
    histories = histories_by_path_enumeration(model)
    first = {}
    for state, occurred in histories:
        first.setdefault(state, occurred)
    # states in the order they are first reached, each with the occurred
    # set of its first history
    ids = range(graph.state_count)
    assert [(graph.state(i), frozenset(graph.occurred_names(i))) for i in ids] == list(first.items())
    index = {graph.state(i): i for i in ids}
    expect_fired = [0] * graph.state_count
    expect_unfired = [0] * graph.state_count
    for state, occurred in histories:
        for bit, name in enumerate(model.event_names):
            if name in occurred:
                expect_fired[index[state]] |= 1 << bit
            else:
                expect_unfired[index[state]] |= 1 << bit
    assert fired == expect_fired
    assert unfired == expect_unfired


def test_explore_builds_nodes_on_request(bd_flip, monkeypatch):
    built = []
    state = TransitionTable.state
    monkeypatch.setattr(TransitionTable, "state", lambda table, sid: built.append(sid) or state(table, sid))
    graph = explore(bd_flip)
    assert built == []
    assert graph.state_count == 8
    assert graph.state(3) is graph.state(3)
    assert built == [3]
    # the benchmark tracer counts these views: they are the ids and the
    # arcs, and reading them builds no state
    ids = range(graph.state_count)
    assert graph.nodes == ids
    assert graph.edges == graph.arcs
    assert len(graph.edges) == graph.arc_count == 24
    assert graph.distinct_states() == ids
    assert built == [3]
    with pytest.raises(IndexError):
        graph.state(len(graph.table.packed))
    with pytest.raises(IndexError):
        graph.occurred_names(graph.state_count)


def test_pipeline_builds_no_node(monkeypatch, tmp_path):
    # `nodes`, `edges` and `distinct_states` are only the benchmark
    # tracer's counting views: no frozen CLI run, `--dot` views included,
    # and no report reads them
    def refuse(*args):
        raise AssertionError("a benchmark counting view was used")

    monkeypatch.setattr(reachability.ReachabilityGraph, "nodes", property(refuse))
    monkeypatch.setattr(reachability.ReachabilityGraph, "edges", property(refuse))
    monkeypatch.setattr(reachability.ReachabilityGraph, "distinct_states", refuse)
    record_golden = repo_module("scripts/record_golden.py", "record_golden")
    recorded = json.loads(record_golden.STDOUT_PATH.read_text(encoding="utf-8"))
    assert record_golden.compute_stdout_digests(tmp_path) == recorded
    for name in record_golden.FIXTURES:
        taxonomy_json(diagnose(load_fixture(name)))


@pytest.mark.parametrize("name", ["bd_flip", "cycle_gadget"])
def test_diagnose_builds_only_the_nodes_it_names(name, monkeypatch):
    # the report writes a node entry (records plus occurred names) only for
    # the states its witnesses and GS violations name
    written = []
    occurred_names = reachability.ReachabilityGraph.occurred_names
    monkeypatch.setattr(
        reachability.ReachabilityGraph,
        "occurred_names",
        lambda graph, sid: written.append(sid) or occurred_names(graph, sid),
    )
    report = diagnose(load_fixture(name))
    assert written == []
    taxonomy_json(report)
    ig = report.influence
    named = {w.state for w in (*ig.weak_edges.values(), *ig.strong_edges.values())}
    named |= set(report.gs_violations)
    assert 0 < len(named) < report.graph.state_count
    assert set(written) == named


@pytest.mark.parametrize("name", ["cycle_gadget", "bd_flip", "dense", "clock"])
def test_only_the_report_builds_states_and_each_once(name, monkeypatch, tmp_path):
    # findings and witnesses name states by id, and the report writes each
    # state it names from its packed value: neither `diagnose` nor
    # `taxonomy_json` builds a `RecordState`
    built = []
    state = TransitionTable.state
    monkeypatch.setattr(TransitionTable, "state", lambda table, sid: built.append(sid) or state(table, sid))
    if name == "clock":
        # the `explore` report weighs each clock violation's two ends from
        # the weights its `ClockViolation` carries
        path = tmp_path / "clock.json"
        path.write_text(json.dumps(repo_module("scripts/record_golden.py", "record_golden").CLOCK_MODEL))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert chronocheck.cli.main(["explore", str(path)]) == 1
        assert built == []
        assert len(json.loads(out.getvalue())["results"]["clock_violations"]) == 2
        return
    model = dense_draw() if name == "dense" else load_fixture(name)
    report = diagnose(model)
    assert built == []
    written = taxonomy_json(report)
    assert built == []
    # and it did write states: the node of each weak edge, among others
    assert len(written["influence"]["weak_edges"]) == len(report.influence.weak_edges) > 0


def test_limits_must_be_positive():
    with pytest.raises(ValueError):
        ExplorationLimits(max_states=0)


def test_occurred_sets_replay_along_some_path(gadget):
    graph = explore(gadget)
    names = gadget.event_names
    # breadth-first from the initial state, collecting arc labels
    labels_by_state = {0: frozenset()}
    queue = deque([0])
    while queue:
        sid = queue.popleft()
        for src, event, tgt in graph.arcs:
            if src == sid and tgt not in labels_by_state:
                labels_by_state[tgt] = labels_by_state[sid] | {names[event]}
                queue.append(tgt)
    assert sorted(labels_by_state) == list(range(graph.state_count))
    for sid, labels in labels_by_state.items():
        assert graph.occurred_names(sid) == sorted(labels)


def findings_by_direct_application(model, graph):
    """Reference shrink-only findings: per explored arc, in arc order, and
    per supported site, the worlds the event gains under `apply_event`."""
    expected = []
    for src, index, _ in graph.arcs:
        event, source = model.events[index], graph.state(src)
        after = apply_event(event, source)
        expected += [
            MonotonicityFinding(event.name, site, after[site] - source[site], src)
            for site in event.support
            if not after[site] <= source[site]
        ]
    return expected


@given(seed=st.integers(0, 10**9))
def test_every_edge_matches_direct_application(seed):
    model = random_model(random.Random(seed))
    graph = explore(model)
    for src, event, tgt in graph.arcs:
        assert apply_event(model.events[event], graph.state(src)) == graph.state(tgt)
    assert check_monotonicity(graph) == findings_by_direct_application(model, graph)


def _remapped(model, space, remap):
    """`model` moved into `space`, every record mask passed through `remap`."""

    def moved(pairs):
        return tuple((site, Subset(space, remap(sub.mask))) for site, sub in pairs)

    events = tuple(
        replace(
            event,
            rules=tuple(Rule(moved(rule.guard), moved(rule.result)) for rule in event.rules),
            constants=moved(event.constants),
        )
        for event in model.events
    )
    initial = RecordState(tuple(Subset(space, remap(rec.mask)) for rec in model.initial))
    return Model(space, model.sites, initial, events)


WIDE = PossibilitySpace.create([f"w{i}" for i in range(40)])
ONE_WORLD = PossibilitySpace.create(["w0"])


@settings(max_examples=300)
@given(
    seed=st.integers(0, 10**9),
    truncated=st.booleans(),
    shape=st.sampled_from(["drawn", "wide", "one_world"]),
)
# five 40-world sites (200 bits), shrink-only violations, and table rules
# that guard two or more sites and match explored states
@example(seed=69, truncated=False, shape="wide")
def test_transition_table_matches_apply_event(seed, truncated, shape):
    # mostly free-form table writes, so shrink-only violations are common
    rng = random.Random(seed)
    if shape == "wide":
        # three worlds placed at the top of 40-world fields: two sites
        # already pack past 64 bits, and exact guards still match often
        model = random_model(rng, max_worlds=3, max_sites=5, intersect_prob=0.3, monotone_bias=0.3)
        model = _remapped(
            model, WIDE, lambda mask: sum(1 << 39 - i for i in range(3) if mask >> i & 1)
        )
    else:
        model = random_model(rng, max_sites=4, intersect_prob=0.3, monotone_bias=0.3)
        if shape == "one_world":
            model = _remapped(model, ONE_WORLD, lambda mask: mask & 1)
    if truncated:
        graph = explore(model, ExplorationLimits(max_states=3, max_depth=1))
    else:
        graph = explore(model)
    table = graph.table
    # every interned state, including those past a truncated frontier that
    # exploration reached but did not expand
    for sid in range(len(table.packed)):
        state = table.state(sid)
        assert table.intern_state(state) == sid
        packed = table.packed[sid]
        for site, record in enumerate(state):
            assert table.field(packed, site) == record.mask
            # the state with every record before `site` emptied
            suffix = packed & ~sum(table.site_full[:site])
            later = [s for s in range(site, len(state)) if state[s].mask]
            if later:
                assert table.first_site(suffix) == later[0]
            else:
                assert suffix == 0
        for index, event in enumerate(model.events):
            after = apply_event(event, state)
            assert table.state(table.step(sid, index)) == after
    # findings split off the packed arc ends, sites past bit 64 included
    assert check_monotonicity(graph) == findings_by_direct_application(model, graph)


def test_an_empty_first_rule_is_the_identity_at_every_state():
    # an empty guard matches every state and an empty result writes
    # nothing, so the later rule never fires
    space = PossibilitySpace.create(["0", "1", "2"])
    noop = Event.table(
        "noop", [0, 1], [Rule.of({}, {}), Rule.of({}, {0: space.subset(["0"])})]
    )
    tighten = Event.intersect("tighten", [0, 1], {0: space.subset(["1", "2"]), 1: space.subset(["2"])})
    widen = Event.table("widen", [1], [Rule.of({1: space.subset(["2"])}, {1: space.full()})])
    model = Model(space, ("a", "b"), RecordState((space.full(), space.full())), (noop, tighten, widen))
    graph = explore(model)
    assert graph.state_count > 1
    for sid in range(graph.state_count):
        state = graph.state(sid)
        assert apply_event(noop, state) == state
        assert graph.table.step(sid, 0) == sid


@settings(max_examples=200)
@given(
    seed=st.integers(0, 10**9),
    shape=st.sampled_from(LANE_SHAPES),
    truncated=st.booleans(),
)
def test_lane_kernel_matches_apply_event_lane_by_lane(seed, shape, truncated):
    rng = random.Random(seed)
    model = draw_shaped_model(rng, shape)
    space, n_sites = model.space, len(model.sites)
    support = sorted(rng.sample(range(n_sites), rng.randint(1, n_sites)))
    # an intersect event's keep mask is negative before it is cut to the
    # record bits; a table event whose first rule has an empty guard
    extra = (
        Event.intersect("keep", support, {site: space.from_mask(rng.randrange(1 << space.size)) for site in support}),
        Event.table(
            "wild",
            support,
            [Rule.of({}, {support[0]: space.from_mask(rng.randrange(1 << space.size))}), Rule.of({}, {})],
        ),
    )
    model = replace(model, events=model.events + extra)
    graph = explore(model, ExplorationLimits(max_depth=1) if truncated else None)
    table, lanes = graph.table, graph.lanes
    assert all(mask >= 0 for rules in table.rules for rule in rules for mask in rule)
    states = [graph.state(sid) for sid in range(graph.state_count)]
    for e, event in enumerate(model.events):
        after = [apply_event(event, state) for state in states]
        for sid, state in enumerate(after):
            assert lanes.lane(lanes.after(e), sid) == table.pack(enumerate(state))
        # the kernel on a value other than X: f after e, as influence runs it
        f = rng.randrange(len(model.events))
        shifted = lanes.apply(f, lanes.after(e))
        for sid, state in enumerate(after):
            assert lanes.lane(shifted, sid) == table.pack(enumerate(apply_event(model.events[f], state)))
        # nothing outside the record bits: no spare bit set, no lane past the last
        for value in (lanes.after(e), shifted):
            assert value & ~lanes.spread(table.record_bits) == 0


@settings(max_examples=200)
@given(
    seed=st.integers(0, 10**9),
    shape=st.sampled_from(LANE_SHAPES),
    limits=st.sampled_from([None, ExplorationLimits(max_states=3), ExplorationLimits(max_depth=1)]),
    mode=st.sampled_from(ConsistencyMode),
)
def test_lane_check_gs_matches_the_per_state_definition(seed, shape, limits, mode):
    # drawn spaces often weigh some worlds zero, so the two modes differ
    model = replace(draw_shaped_model(random.Random(seed), shape), mode=mode)
    graph = explore(model, limits)

    def consistent(state):
        worlds = feasible_set(state)
        if mode is ConsistencyMode.POSITIVE_MEASURE:
            return measure_of(worlds) > 0
        return bool(worlds.mask)

    expected = [sid for sid in range(graph.state_count) if not consistent(graph.state(sid))]
    assert check_gs(graph) == expected


def scalar_monotonicity(graph):
    """Reference shrink-only check: per explored arc, in arc order, and per
    supported site, the packed bits the target holds and the source lacks."""
    table = graph.table
    packed, field = table.packed, table.field
    events = graph.model.events
    return [
        MonotonicityFinding(events[event].name, site, Subset(graph.model.space, field(added, site)), src)
        for src, event, tgt in graph.arcs
        if (added := packed[tgt] & ~packed[src])
        for site in events[event].support
        if field(added, site)
    ]


def scalar_diamond(graph):
    """Reference commutation check: both orders of every independent pair
    stepped on the table at every explored state, in state order and then
    pair order.  It interns every state it steps to, so it runs after the
    check it is compared with."""
    table = graph.table
    events = graph.model.events
    pairs = [(i, j) for i, e in enumerate(events) for j in range(i + 1, len(events)) if independent(e, events[j])]
    violations = []
    for sid in range(graph.state_count):
        after = [table.row(target) for target in table.row(sid)]
        for e, f in pairs:
            f_then_e, e_then_f = after[f][e], after[e][f]
            if not table.same(f_then_e, e_then_f):
                violations.append(DiamondViolation(sid, events[e].name, events[f].name, f_then_e, e_then_f))
    return violations


PREMISE_LIMITS = st.sampled_from([None, ExplorationLimits(max_states=3), ExplorationLimits(max_depth=1)])


@settings(max_examples=200)
@given(
    seed=st.integers(0, 10**9),
    shape=st.sampled_from(LANE_SHAPES),
    limits=PREMISE_LIMITS,
    mode=st.sampled_from(ConsistencyMode),
)
def test_lane_monotonicity_matches_the_scalar_loop(seed, shape, limits, mode):
    # mostly table events, so shrink-only violations are common
    model = replace(draw_shaped_model(random.Random(seed), shape, intersect_prob=0.3), mode=mode)
    graph = explore(model, limits)
    findings = check_monotonicity(graph)
    assert findings == scalar_monotonicity(graph)
    # the clock check weighs the arcs the same scan flags
    mus = [measure_of(feasible_set(state)) for state in explored_states(graph)]
    assert check_clock_monotone(graph) == [
        ClockViolation(arc, mus[arc[0]], mus[arc[2]]) for arc in graph.arcs if mus[arc[2]] > mus[arc[0]]
    ]


@settings(max_examples=200)
@given(
    seed=st.integers(0, 10**9),
    shape=st.sampled_from(LANE_SHAPES),
    limits=PREMISE_LIMITS,
    mode=st.sampled_from(ConsistencyMode),
)
def test_lane_commutation_matches_the_scalar_loop(seed, shape, limits, mode):
    # no loadable model fails commutation, so one event is corrupted
    rng = random.Random(seed)
    model = replace(draw_shaped_model(rng, shape), mode=mode)
    graph = explore(model, limits)
    corrupt_one_event(rng, graph)
    table = graph.table
    count = len(table.packed)
    found = check_diamond(graph)
    # only the end states of a finding are new to the table
    assert len(table.packed) <= count + 2 * len(found)

    def ends(violations):
        return [(v.state, v.e, v.f, table.packed[v.f_then_e], table.packed[v.e_then_f]) for v in violations]

    expected = scalar_diamond(graph)
    assert ends(found) == ends(expected)
    # each reported end state is the state its order reaches
    names = model.event_names
    for v in found:
        e, f = names.index(v.e), names.index(v.f)
        assert v.f_then_e == table.step(table.step(v.state, f), e)
        assert v.e_then_f == table.step(table.step(v.state, e), f)


def arc_appending_explore(model, limits):
    """Reference arcs: breadth-first exploration on a table of its own that
    appends each kept row entry to a list as it goes, as `explore` did
    when the graph stored its arcs."""
    limits = limits or ExplorationLimits()
    table = TransitionTable(model)
    table.intern_state(model.initial)
    depths = [0]
    arcs = []
    for src, depth in enumerate(depths):
        if depth >= limits.max_depth:
            break
        for event, target in enumerate(table.row(src)):
            if target >= limits.max_states:
                continue
            if target == len(depths):
                depths.append(depth + 1)
            arcs.append((src, event, target))
    return tuple(arcs)


def arc_list_occurrence_masks(graph, arcs):
    """Reference fixpoint: `occurrence_masks` over an adjacency list built
    from `arcs`."""
    succ = [[] for _ in range(graph.state_count)]
    for src, event, tgt in arcs:
        succ[src].append((1 << event, tgt))
    fired = [0] * len(succ)
    unfired = [0] * len(succ)
    unfired[0] = (1 << len(graph.model.events)) - 1
    pending = [0]
    while pending:
        src = pending.pop()
        for bit, tgt in succ[src]:
            now_fired = fired[tgt] | fired[src] | bit
            now_unfired = unfired[tgt] | unfired[src] & ~bit
            if now_fired != fired[tgt] or now_unfired != unfired[tgt]:
                fired[tgt], unfired[tgt] = now_fired, now_unfired
                pending.append(tgt)
    return fired, unfired


@settings(max_examples=200)
@given(seed=st.integers(0, 10**9), shape=st.sampled_from(LANE_SHAPES), limits=PREMISE_LIMITS)
def test_arcs_read_off_the_rows_match_the_arc_appending_loop(seed, shape, limits):
    model = draw_shaped_model(random.Random(seed), shape)
    graph = explore(model, limits)
    arcs = arc_appending_explore(model, limits)
    assert graph.arcs == arcs
    assert graph_summary_json(graph)["edges"] == len(arcs)
    assert occurrence_masks(graph) == arc_list_occurrence_masks(graph, arcs)


@pytest.mark.parametrize(
    "name, limits",
    [
        ("cycle_gadget", ExplorationLimits(max_depth=1)),
        ("bd_flip", ExplorationLimits(max_states=3)),
        # the rows of bd_flip's depth-1 states lead back to explored states
        ("bd_flip", ExplorationLimits(max_depth=1)),
    ],
)
def test_rows_filled_after_exploration_add_no_arc(name, limits):
    # the arcs are read off the rows of the expanded states only, so rows
    # that later lookups fill, past the frontier or beyond it, change nothing
    model = load_fixture(name)
    graph = explore(model, limits)
    assert graph.truncated
    table = graph.table

    def read():
        count = len(table.packed)
        seen = (graph.arcs, graph_summary_json(graph)["edges"], occurrence_masks(graph))
        assert len(table.packed) == count  # reading interns no state
        return seen, count

    before, count = read()
    for sid in range(graph.expanded, graph.state_count):
        table.row(sid)
    check_trace_invariance(table, model.event_names)
    check_diamond(graph)
    after, grown = read()
    assert after == before
    assert grown > count


def test_pack_of_no_pairs_is_zero(two_site):
    assert TransitionTable(two_site).pack(()) == 0


def test_check_gs_two_site_clean(two_site):
    graph = explore(two_site)
    assert check_gs(graph) == []


def test_check_gs_gadget_flags_empty_record(gadget):
    graph = explore(gadget)
    flagged = check_gs(graph)
    assert flagged
    empty = gadget.space.empty()
    assert all(graph.state(i)[0] == empty for i in flagged)
    assert any(graph.occurred_names(i) == ["a", "b"] for i in flagged)


def test_check_gs_zero_event_model_clean():
    space = PossibilitySpace.create(["w"])
    model = Model(space, ("site1",), RecordState((space.full(),)), ())
    assert check_gs(explore(model)) == []


def test_diamond_two_site_clean(two_site):
    assert check_diamond(explore(two_site)) == []


@pytest.mark.parametrize("change", ["mode", "events"])
@pytest.mark.parametrize(
    "query",
    [build_influence_graphs, weak_influence, strong_influence, strong_influence_oracle],
    ids=lambda query: query.__name__,
)
def test_checks_refuse_a_model_in_another_mode(two_site, query, change):
    # the graph's table applies the events and judges equality in the mode
    # it was explored with, so the queries that take a model beside the
    # graph refuse one that differs in either
    graph = explore(two_site)
    if change == "mode":
        other = replace(two_site, mode=ConsistencyMode.POSITIVE_MEASURE)
    else:  # e1 keeps its name and support but intersects with other worlds
        e1 = Event.intersect("e1", [0], {0: two_site.space.subset(["00", "10"])})
        other = replace(two_site, events=(e1, *two_site.events[1:]))
    names = () if query is build_influence_graphs else ("e1", "e2")
    with pytest.raises(ValueError, match="other events or mode"):
        query(other, graph, *names)


def test_diamond_gadget_vacuous(gadget):
    # single site: no independent pair exists
    assert check_diamond(explore(gadget)) == []


def test_diamond_guarded_table_against_intersect_still_clean():
    space = PossibilitySpace.create(["0", "1"])
    overwrite = Event.table(
        "overwrite", [0], [Rule.of({0: space.full()}, {0: space.subset(["0"])})]
    )
    tighten = Event.intersect("tighten", [1], {1: space.subset(["1"])})
    model = Model(
        space,
        ("site1", "site2"),
        RecordState((space.full(), space.full())),
        (overwrite, tighten),
    )
    graph = explore(model)
    # oracle: apply both orders at every explored state directly
    for state in explored_states(graph):
        lhs = apply_event(overwrite, apply_event(tighten, state))
        rhs = apply_event(tighten, apply_event(overwrite, state))
        assert lhs == rhs
    assert check_diamond(graph) == []


def test_monotonicity_two_site_clean(two_site):
    assert check_monotonicity(explore(two_site)) == []


def test_monotonicity_gadget_finds_the_offending_rule(gadget):
    graph = explore(gadget)
    findings = check_monotonicity(graph)
    assert len(findings) == 1
    finding = findings[0]
    assert finding.event == "a"
    assert finding.site == 0
    assert graph.state(finding.state) == RecordState((gadget.space.subset(["0"]),))
    assert finding.added == gadget.space.subset(["1"])


@given(seed=st.integers(0, 10**9))
def test_monotonicity_intersect_models_always_clean(seed):
    model = random_model(random.Random(seed), intersect_prob=1.0)
    assert check_monotonicity(explore(model)) == []


def test_clock_two_site_path(two_site):
    graph = explore(two_site)
    assert check_clock_monotone(graph) == []
    state = two_site.initial
    values = [information_content(state)]
    for name in ("e1", "e2"):
        state = apply_event(two_site.event(name), state)
        values.append(information_content(state))
    assert values[0] == pytest.approx(-math.log(4), abs=1e-12)
    assert values[1] == pytest.approx(-math.log(2), abs=1e-12)
    assert values[2] == pytest.approx(0.0, abs=1e-12)


def test_clock_gadget_path_reaches_infinity(gadget):
    state = gadget.initial
    values = [information_content(state)]
    for name in ("a", "b"):
        state = apply_event(gadget.event(name), state)
        values.append(information_content(state))
    assert values[0] == pytest.approx(-math.log(2), abs=1e-12)
    assert values[1] == pytest.approx(0.0, abs=1e-12)
    assert values[2] == math.inf


def test_clock_gadget_no_backward_tick(gadget):
    # the non-monotone rewrite {0} -> {1} preserves weight, so even the
    # gadget never ticks the clock backwards
    assert check_clock_monotone(explore(gadget)) == []


def test_identity_edges_keep_clock_value(gadget):
    graph = explore(gadget)
    for src, _, tgt in graph.arcs:
        if graph.state(src) == graph.state(tgt):
            assert information_content(graph.state(src)) == information_content(graph.state(tgt))


def test_clock_fixture_builds_only_the_violating_edges(monkeypatch):
    # the clock model frozen in the golden CLI record: `grow` adds weight
    # back from {c} and from {a}; the arcs' ends are weighed from their
    # packed states, so no record state is built
    record_golden = repo_module("scripts/record_golden.py", "record_golden")
    model = model_from_dict(record_golden.CLOCK_MODEL)
    graph = explore(model)
    built = []
    state = TransitionTable.state
    monkeypatch.setattr(TransitionTable, "state", lambda table, sid: built.append(sid) or state(table, sid))
    assert check_clock_monotone(graph) == [
        # (source, event index, target): `grow` is event 2
        ClockViolation((1, 2, 0), Fraction(0), Fraction(1)),
        ClockViolation((2, 2, 4), Fraction(1), Fraction(4, 3)),
    ]
    assert built == []


@given(seed=st.integers(0, 10**9))
def test_clean_monotonicity_implies_shrinking_feasible_sets(seed):
    model = random_model(random.Random(seed))
    graph = explore(model)
    if check_monotonicity(graph):
        return
    for src, _, tgt in graph.arcs:
        assert feasible_set(graph.state(tgt)).issubset(feasible_set(graph.state(src)))
    assert check_clock_monotone(graph) == []


@given(seed=st.integers(0, 10**9))
def test_clock_ticks_exactly_when_feasible_weight_drops(seed):
    model = random_model(random.Random(seed))
    graph = explore(model)
    if check_monotonicity(graph):
        return
    mus = [measure_of(feasible_set(state)) for state in explored_states(graph)]
    infos = [information_content(state) for state in explored_states(graph)]
    for src, _, tgt in graph.arcs:
        assert (infos[tgt] > infos[src]) == (mus[tgt] < mus[src])


@given(seed=st.integers(0, 10**9))
def test_clock_check_is_the_per_arc_definition(seed):
    # shrink-only violations are common at this bias, and so are clock ones
    model = random_model(random.Random(seed), monotone_bias=0.3, measured_prob=0.5)
    graph = explore(model)
    mus = [measure_of(feasible_set(state)) for state in explored_states(graph)]
    assert check_clock_monotone(graph) == [
        ClockViolation(arc, mus[arc[0]], mus[arc[2]])
        for arc in graph.arcs
        if mus[arc[2]] > mus[arc[0]]
    ]


def test_diamond_pairs_join_at_the_same_node(two_site):
    graph = explore(two_site)
    names = two_site.event_names
    successors = {(src, names[event]): tgt for src, event, tgt in graph.arcs}
    via_e1_e2 = successors[(successors[(0, "e1")], "e2")]
    via_e2_e1 = successors[(successors[(0, "e2")], "e1")]
    assert via_e1_e2 == via_e2_e1
