import random
from dataclasses import replace
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chronocheck import (
    ConsistencyMode,
    Event,
    ExplorationLimits,
    Model,
    PossibilitySpace,
    RecordState,
    Rule,
    WitnessPostcheckError,
    apply_event,
    binary_witness,
    build_influence_graphs,
    explore,
    independent,
    load_fixture,
    measure_of,
    strong_influence,
    strong_influence_oracle,
    verify_strong_witness,
    weak_influence,
)
from chronocheck.core import mode_mask
from chronocheck.randmodels import random_model


def brute_force_weak_pairs(model, graph):
    """Oracle: all ordered pairs with a write-effect difference at some
    reachable state and shared site, by direct evaluation."""
    pairs = set()
    for e in model.events:
        for f in model.events:
            if e.name == f.name:
                continue
            shared = set(e.support) & set(f.support)
            for state in map(graph.state, range(graph.state_count)):
                shifted = apply_event(e, state)
                for site in shared:
                    d0 = state[site] - apply_event(f, state)[site]
                    d1 = shifted[site] - apply_event(f, shifted)[site]
                    if d0 != d1:
                        pairs.add((e.name, f.name))
    return pairs


def test_weak_influence_gadget_witness_values(gadget):
    graph = explore(gadget)
    assert brute_force_weak_pairs(gadget, graph) == {("a", "b"), ("b", "a")}
    witness = weak_influence(gadget, graph, "a", "b")
    assert witness is not None
    assert witness.state == 0
    assert graph.state(witness.state) == gadget.initial
    assert witness.site == 0
    assert witness.delta_without == gadget.space.subset(["1"])
    assert witness.delta_with == gadget.space.subset(["0"])


def test_weak_influence_requires_shared_site(two_site):
    graph = explore(two_site)
    assert weak_influence(two_site, graph, "e1", "e2") is None
    assert weak_influence(two_site, graph, "e2", "e1") is None


def test_pair_queries_name_an_unknown_event(two_site):
    graph = explore(two_site)
    for query in (weak_influence, strong_influence):
        with pytest.raises(ValueError, match="unknown event: 'zzz'"):
            query(two_site, graph, "e1", "zzz")


@pytest.mark.parametrize("name", ["two_site", "cycle_gadget", "bd_flip"])
def test_pair_queries_refuse_one_event_twice(name):
    # a strict order has no self-loops, and build_influence_graphs covers
    # distinct pairs only
    model = load_fixture(name)
    graph = explore(model)
    for event in model.event_names:
        for query in (weak_influence, strong_influence, strong_influence_oracle):
            with pytest.raises(ValueError, match=f"two distinct events, got '{event}' twice"):
                query(model, graph, event, event)


def test_weak_influence_identity_target_has_no_edge(gadget):
    space = gadget.space
    noop = Event.table("noop", [0], [])
    model = Model(
        space, gadget.sites, gadget.initial, gadget.events + (noop,), gadget.mode
    )
    graph = explore(model)
    assert weak_influence(model, graph, "a", "noop") is None
    assert weak_influence(model, graph, "b", "noop") is None


def test_binary_witness_gadget(gadget):
    graph = explore(gadget)
    witness = weak_influence(gadget, graph, "a", "b")
    observable = binary_witness(gadget, graph, witness)
    assert observable == gadget.space.subset(["0", "1"])
    # frozen separation check: post-b record of the full state is {0},
    # of the tightened state it is empty, so the difference within the
    # observable carries weight 1
    a, b = gadget.event("a"), gadget.event("b")
    state = graph.state(witness.state)
    post0 = apply_event(b, state)[0]
    post1 = apply_event(b, apply_event(a, state))[0]
    assert measure_of((post0 & observable) ^ (post1 & observable)) == 1


def test_binary_witness_one_sided_delta():
    space = PossibilitySpace.create(["w1", "w2"])
    e = Event.table("e", [0], [Rule.of({0: space.full()}, {0: space.subset(["w2"])})])
    f = Event.table("f", [0], [Rule.of({0: space.subset(["w2"])}, {0: space.subset([])})])
    model = Model(space, ("site1",), RecordState((space.full(),)), (e, f))
    graph = explore(model)
    witness = weak_influence(model, graph, "e", "f")
    assert witness is not None
    assert witness.delta_without == space.subset([])
    assert witness.delta_with == space.subset(["w2"])
    assert binary_witness(model, graph, witness) == space.subset(["w2"])


def test_binary_witness_fails_when_influencer_absorbs_the_difference(
    twin_intersect_model,
):
    # both events intersect with the same constant: the write effects
    # differ at the initial state, but the post-update records coincide
    # everywhere, so no observable can separate them
    model = twin_intersect_model
    graph = explore(model)
    witness = weak_influence(model, graph, "e", "f")
    assert witness is not None
    assert witness.delta_without != witness.delta_with
    with pytest.raises(WitnessPostcheckError):
        binary_witness(model, graph, witness)
    # exhaustive confirmation: no (state, observable) pair separates
    e, f = model.event("e"), model.event("f")
    for state in map(graph.state, range(graph.state_count)):
        post0 = apply_event(f, state)[0]
        post1 = apply_event(f, apply_event(e, state))[0]
        assert post0 == post1


def brute_force_strong_exists(model, graph, e_name, f_name):
    """Oracle: literal exclusive-branching search over every observable."""
    e, f = model.event(e_name), model.event(f_name)
    shared = set(e.support) & set(f.support)
    test = (
        model.space.full_mask
        if model.mode.value == "nonempty"
        else model.space.positive_mask
    )
    for state in map(graph.state, range(graph.state_count)):
        shifted = apply_event(e, state)
        for site in shared:
            p0 = apply_event(f, state)[site].mask
            p1 = apply_event(f, shifted)[site].mask
            for mask in range(1 << model.space.size):
                if (
                    p0 & p1 & mask & test == 0
                    and p0 & mask & test
                    and p1 & mask & test
                ):
                    return True
    return False


def test_strong_influence_gadget_b_to_a(gadget):
    graph = explore(gadget)
    witness = strong_influence(gadget, graph, "b", "a")
    assert witness is not None
    assert graph.state(witness.state) == gadget.initial
    assert witness.site == 0
    assert witness.observable == gadget.space.subset(["0", "1"])
    assert witness.branch0 == gadget.space.subset(["0"])
    assert witness.branch1 == gadget.space.subset(["1"])
    assert verify_strong_witness(gadget, graph, witness)


def test_verify_strong_witness_rejects_a_moved_site_or_swapped_branches(bd_flip):
    graph = explore(bd_flip)
    witness = strong_influence(bd_flip, graph, "e", "f")
    assert witness is not None and witness.site == 0
    assert verify_strong_witness(bd_flip, graph, witness)
    # e does not support site2, so the pair shares no record there
    assert not verify_strong_witness(bd_flip, graph, replace(witness, site=1))
    swapped = replace(witness, branch0=witness.branch1, branch1=witness.branch0)
    assert not verify_strong_witness(bd_flip, graph, swapped)


def test_strong_influence_gadget_a_to_b_absent(gadget):
    graph = explore(gadget)
    assert not brute_force_strong_exists(gadget, graph, "a", "b")
    assert strong_influence(gadget, graph, "a", "b") is None


def test_strong_influence_independent_events_none(two_site):
    graph = explore(two_site)
    assert strong_influence(two_site, graph, "e1", "e2") is None


def test_oracle_agrees_on_gadget_all_ordered_pairs(gadget):
    graph = explore(gadget)
    for e, f in permutations(gadget.event_names, 2):
        fast = strong_influence(gadget, graph, e, f)
        slow = strong_influence_oracle(gadget, graph, e, f)
        assert (fast is None) == (slow is None)


def test_oracle_agrees_on_two_site(two_site):
    graph = explore(two_site)
    for e, f in permutations(two_site.event_names, 2):
        assert strong_influence(two_site, graph, e, f) is None
        assert strong_influence_oracle(two_site, graph, e, f) is None


def test_oracle_none_when_posts_always_equal(twin_intersect_model):
    graph = explore(twin_intersect_model)
    assert strong_influence_oracle(twin_intersect_model, graph, "e", "f") is None
    assert strong_influence(twin_intersect_model, graph, "e", "f") is None


def test_oracle_refuses_large_spaces():
    space = PossibilitySpace.create([f"w{i}" for i in range(17)])
    model = Model(
        space,
        ("site1",),
        RecordState((space.full(),)),
        (Event.intersect("e", [0], {0: space.full()}),
         Event.intersect("f", [0], {0: space.full()})),
    )
    graph = explore(model)
    with pytest.raises(ValueError):
        strong_influence_oracle(model, graph, "e", "f")


def test_build_influence_graphs_two_site(two_site):
    ig = build_influence_graphs(two_site, explore(two_site))
    assert ig.weak_edges == {}
    assert ig.strong_edges == {}


def test_build_influence_graphs_gadget(gadget):
    ig = build_influence_graphs(gadget, explore(gadget))
    assert set(ig.weak_edges) == {("a", "b"), ("b", "a")}
    assert set(ig.strong_edges) == {("b", "a")}


def test_build_influence_graphs_single_event(gadget):
    model = Model(
        gadget.space, gadget.sites, gadget.initial, (gadget.events[0],), gadget.mode
    )
    ig = build_influence_graphs(model, explore(model))
    assert ig.weak_edges == {} and ig.strong_edges == {}


@given(seed=st.integers(0, 10**9))
def test_strong_witnesses_replay_soundly(seed):
    model = random_model(random.Random(seed))
    graph = explore(model)
    ig = build_influence_graphs(model, graph)
    for witness in ig.strong_edges.values():
        assert verify_strong_witness(model, graph, witness)


@given(seed=st.integers(0, 10**9))
def test_independent_pairs_never_acquire_edges(seed):
    model = random_model(random.Random(seed))
    graph = explore(model)
    ig = build_influence_graphs(model, graph)
    for e, f in list(ig.weak_edges) + list(ig.strong_edges):
        assert not independent(model.event(e), model.event(f))


@given(seed=st.integers(0, 10**9))
def test_weak_witness_deltas_always_differ(seed):
    model = random_model(random.Random(seed))
    graph = explore(model)
    ig = build_influence_graphs(model, graph)
    for witness in ig.weak_edges.values():
        assert witness.delta_without != witness.delta_with


def full_scan_witnesses(model, graph, e, f):
    """Reference: the first weak and the first strong witness of e before f
    as (e, f, state index, site, mask, mask) tuples, from a scan of every
    explored state in exploration order, then site order, with events
    applied through `apply_event`."""
    shared = sorted(set(e.support) & set(f.support))
    if not shared:
        return None, None
    test = mode_mask(model.space, model.mode)
    weak = strong = None
    for index, state in enumerate(map(graph.state, range(graph.state_count))):
        shifted = apply_event(e, state)
        post_f_base = apply_event(f, state)
        post_f_shifted = apply_event(f, shifted)
        for site in shared:
            p0, p1 = post_f_base[site].mask, post_f_shifted[site].mask
            if weak is None:
                delta_without = state[site].mask & ~p0
                delta_with = shifted[site].mask & ~p1
                if (delta_without ^ delta_with) & test:
                    weak = (e.name, f.name, index, site, delta_without, delta_with)
            if strong is None and p0 & ~p1 & test and p1 & ~p0 & test:
                observable = p0 ^ p1
                strong = (e.name, f.name, index, site, observable, p0 & observable, p1 & observable)
        if weak is not None and strong is not None:
            break
    return weak, strong


@settings(max_examples=300)
@given(
    seed=st.integers(0, 10**9),
    limits=st.sampled_from(
        [
            None,
            ExplorationLimits(max_states=2),
            ExplorationLimits(max_states=5),
            ExplorationLimits(max_depth=1),
            ExplorationLimits(max_depth=2),
        ]
    ),
    mode=st.sampled_from(ConsistencyMode),
    intersect_prob=st.sampled_from([0.0, 0.5, 1.0]),
)
def test_witnesses_match_full_scan(seed, limits, mode, intersect_prob):
    # zero-weight worlds are common, so the two modes compare different
    # worlds; truncated graphs leave states whose successors were never
    # explored
    model = random_model(
        random.Random(seed), max_sites=4, intersect_prob=intersect_prob, measured_prob=0.5
    )
    model = replace(model, mode=mode)
    graph = explore(model, limits)
    ig = build_influence_graphs(model, graph)
    for e in model.events:
        for f in model.events:
            if e is f:
                continue
            pair = (e.name, f.name)
            expected_weak, expected_strong = full_scan_witnesses(model, graph, e, f)
            weak, strong = ig.weak_edges.get(pair), ig.strong_edges.get(pair)
            got_weak = weak and (
                weak.e, weak.f, weak.state, weak.site, weak.delta_without.mask, weak.delta_with.mask
            )
            got_strong = strong and (
                strong.e,
                strong.f,
                strong.state,
                strong.site,
                strong.observable.mask,
                strong.branch0.mask,
                strong.branch1.mask,
            )
            assert got_weak == expected_weak
            assert got_strong == expected_strong
            for witness in (weak, strong):
                if witness is not None:
                    assert witness.state < graph.state_count  # an explored state
            assert weak_influence(model, graph, *pair) == weak
            assert strong_influence(model, graph, *pair) == strong


def test_influencer_that_moves_only_zero_weight_worlds_is_scanned():
    # e removes only the zero-weight world w0, yet f's guard reads the exact
    # record, so f writes differently with and without e: a state counts as
    # changed by e when any world of a shared record changes, weighted or not
    space = PossibilitySpace(("w0", "w1", "w2"), (0, 1, 1))
    e = Event.intersect("e", [0], {0: space.subset(["w1", "w2"])})
    f = Event.table("f", [0], [Rule.of({0: space.full()}, {0: space.subset(["w1"])})])
    model = Model(space, ("s",), RecordState((space.full(),)), (e, f), ConsistencyMode.POSITIVE_MEASURE)
    graph = explore(model)
    witness = weak_influence(model, graph, "e", "f")
    assert witness is not None
    assert (witness.state, witness.delta_without, witness.delta_with) == (
        0,
        space.subset(["w0", "w2"]),
        space.empty(),
    )
    assert full_scan_witnesses(model, graph, e, f)[0] == ("e", "f", 0, 0, 0b101, 0)


def _two_site_pair(space, e, f):
    model = Model(space, ("s0", "s1"), RecordState((space.full(), space.full())), (e, f))
    return model, explore(model)


def test_one_sided_differences_on_different_sites_are_not_strong():
    # without e, f keeps w1 at s0 and drops it at s1; with e, the reverse:
    # P0\P1 is {w1} at s0 only and P1\P0 is {w1} at s1 only, so no single
    # site carries both branches
    space = PossibilitySpace.create(["w0", "w1"])
    w0, full = space.subset(["w0"]), space.full()
    e = Event.intersect("e", [0, 1], {0: w0, 1: full})
    f = Event.table(
        "f",
        [0, 1],
        [Rule.of({0: full}, {0: full, 1: w0}), Rule.of({0: w0}, {0: w0, 1: full})],
    )
    model, graph = _two_site_pair(space, e, f)
    weak, strong = full_scan_witnesses(model, graph, e, f)
    assert strong is None
    assert strong_influence(model, graph, "e", "f") is None
    assert strong_influence_oracle(model, graph, "e", "f") is None
    assert weak == ("e", "f", 0, 1, 0b10, 0)
    witness = weak_influence(model, graph, "e", "f")
    assert (witness.state, witness.site) == (0, 1)
    assert (witness.delta_without.mask, witness.delta_with.mask) == (0b10, 0)


def test_weak_witness_names_the_first_differing_shared_site():
    # f removes w1 at both sites; e already removed it at s1 only, so the
    # write effects agree at s0 and differ at s1
    space = PossibilitySpace.create(["w0", "w1"])
    w0, full = space.subset(["w0"]), space.full()
    e = Event.intersect("e", [0, 1], {0: full, 1: w0})
    f = Event.intersect("f", [0, 1], {0: w0, 1: w0})
    model, graph = _two_site_pair(space, e, f)
    weak, strong = full_scan_witnesses(model, graph, e, f)
    assert weak == ("e", "f", 0, 1, 0b10, 0)
    assert strong is None
    witness = weak_influence(model, graph, "e", "f")
    assert (witness.state, witness.site) == (0, 1)
    assert (witness.delta_without.mask, witness.delta_with.mask) == (0b10, 0)
    assert build_influence_graphs(model, graph).weak_edges[("e", "f")] == witness
