import random
from dataclasses import replace

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import chronocheck.model
from chronocheck import (
    ConsistencyMode,
    Event,
    Model,
    PossibilitySpace,
    RecordState,
    Rule,
    apply_event,
    independent,
    load_fixture,
    validate_event_static,
)
from chronocheck.randmodels import random_model

# independent re-statement of the bundled gadget's update tables, used as
# the oracle for the event-evaluation tests below
GADGET_A = {
    frozenset({"0", "1"}): frozenset({"0"}),
    frozenset({"0"}): frozenset({"1"}),
    frozenset({"1"}): frozenset({"1"}),
}
GADGET_B = {
    frozenset({"0", "1"}): frozenset({"0"}),
    frozenset({"0"}): frozenset(),
    frozenset({"1"}): frozenset({"1"}),
}


def gadget_table_apply(table, record: frozenset) -> frozenset:
    return table.get(record, record)


def record_of(model, state) -> frozenset:
    return frozenset(state[0].labels())


def test_gadget_event_a_tightens_full_record(gadget):
    a = gadget.event("a")
    after = apply_event(a, gadget.initial)
    assert record_of(gadget, after) == gadget_table_apply(
        GADGET_A, frozenset({"0", "1"})
    )
    assert after[0] == gadget.space.subset(["0"])
    assert after[0] <= gadget.initial[0]  # shrink-only


def test_gadget_event_b_may_empty_the_record(gadget):
    b = gadget.event("b")
    state = RecordState((gadget.space.subset(["0"]),))
    after = apply_event(b, state)
    assert record_of(gadget, after) == gadget_table_apply(GADGET_B, frozenset({"0"}))
    assert after[0].is_empty
    # the empty set is a subset of {0}: shrink-only, no violation
    assert after[0] <= state[0]


def test_empty_support_event_is_identity(gadget):
    noop = Event.table("noop", [], [])
    after = apply_event(noop, gadget.initial)
    assert after == gadget.initial


def test_gadget_event_a_violates_monotonicity_at_singleton(gadget):
    a = gadget.event("a")
    state = RecordState((gadget.space.subset(["0"]),))
    after = apply_event(a, state)
    expected = gadget_table_apply(GADGET_A, frozenset({"0"}))
    assert record_of(gadget, after) == expected == frozenset({"1"})
    # a adds world 1 at its one site
    assert after[0] - state[0] == gadget.space.subset(["1"])


def test_unmatched_guard_means_identity(gadget):
    a = gadget.event("a")
    state = RecordState((gadget.space.empty(),))
    after = apply_event(a, state)
    assert after == state


def test_independence_is_support_disjointness(two_site, gadget):
    assert independent(two_site.event("e1"), two_site.event("e2"))
    assert not independent(gadget.event("a"), gadget.event("b"))
    assert not independent(gadget.event("a"), gadget.event("a"))


def test_validate_static_locality_defect():
    space = PossibilitySpace.create(["0", "1"])
    rogue = Event.table(
        "rogue", [0], [Rule.of({0: space.full()}, {1: space.subset(["0"])})]
    )
    defects = validate_event_static(rogue, 2)
    assert [d.kind for d in defects] == ["locality"]


def test_model_rejects_api_built_events_outside_its_support_or_space():
    # model files are checked as they are read; these are Model's own checks
    space = PossibilitySpace.create(["0", "1"])
    other = PossibilitySpace.create(["0", "2"])
    initial = RecordState((space.full(), space.full()))

    def model(event):
        return Model(space, ("s0", "s1"), initial, (event,))

    # a space with the same worlds and weights is the model's space
    model(Event.intersect("e", [0], {0: PossibilitySpace.create(["0", "1"]).subset(["0"])}))
    with pytest.raises(ValueError, match="event e: rule 0 writes unsupported site 1"):
        model(Event.table("e", [0], [Rule.of({}, {1: space.subset(["0"])})]))
    with pytest.raises(ValueError, match=r"event e: intersect constants cover sites \[\], support is \[0\]"):
        model(Event.intersect("e", [0], {}))
    with pytest.raises(ValueError, match="event e references a foreign possibility space"):
        model(Event.table("e", [0], [Rule.of({0: other.full()}, {})]))
    with pytest.raises(ValueError, match="initial records must live in the model's space"):
        Model(space, ("s0",), RecordState((other.full(),)), ())
    # the same worlds under other weights are another space
    heavier = PossibilitySpace.create(["0", "1"], {"0": 2})
    with pytest.raises(ValueError, match="event e references a foreign possibility space"):
        model(Event.intersect("e", [0], {0: heavier.full()}))


def test_model_rejects_api_built_structure_faults():
    space = PossibilitySpace.create(["0", "1"])
    full = space.full()
    e = Event.intersect("e", [0], {0: full})
    with pytest.raises(ValueError, match="a model needs at least one site"):
        Model(space, (), RecordState(()), ())
    with pytest.raises(ValueError, match="site names must be unique"):
        Model(space, ("s", "s"), RecordState((full, full)), ())
    with pytest.raises(ValueError, match="initial record state must cover every site"):
        Model(space, ("s0", "s1"), RecordState((full,)), ())
    with pytest.raises(ValueError, match="event names must be unique"):
        Model(space, ("s0",), RecordState((full,)), (e, e))


def test_validate_static_shadowed_rule():
    space = PossibilitySpace.create(["0", "1"])
    event = Event.table(
        "dup",
        [0],
        [
            Rule.of({0: space.full()}, {0: space.subset(["0"])}),
            Rule.of({0: space.full()}, {0: space.subset(["1"])}),
        ],
    )
    kinds = [d.kind for d in validate_event_static(event, 1)]
    assert "shadowed_rule" in kinds


def test_validate_static_wildcard_shadows_everything():
    space = PossibilitySpace.create(["0", "1"])
    event = Event.table(
        "wild",
        [0],
        [
            Rule.of({}, {0: space.subset(["0"])}),
            Rule.of({0: space.full()}, {0: space.subset(["1"])}),
        ],
    )
    kinds = [d.kind for d in validate_event_static(event, 1)]
    assert "shadowed_rule" in kinds


def test_validate_static_monotonicity_defect():
    space = PossibilitySpace.create(["0", "1"])
    event = Event.table(
        "flip", [0], [Rule.of({0: space.subset(["0"])}, {0: space.subset(["1"])})]
    )
    defects = validate_event_static(event, 1)
    assert [d.kind for d in defects] == ["static_monotonicity"]


@given(seed=st.integers(0, 10**9))
def test_locality_sites_outside_support_never_change(seed):
    rng = random.Random(seed)
    model = random_model(rng)
    state = model.initial
    for event in model.events:
        after = apply_event(event, state)
        for site in range(len(model.sites)):
            if site not in event.support:
                assert after[site] == state[site]
        state = after


@given(seed=st.integers(0, 10**9))
def test_apply_event_is_deterministic(seed):
    rng = random.Random(seed)
    model = random_model(rng)
    for event in model.events:
        assert apply_event(event, model.initial) == apply_event(event, model.initial)


@given(seed=st.integers(0, 10**9))
def test_intersect_events_are_idempotent(seed):
    rng = random.Random(seed)
    model = random_model(rng, intersect_prob=1.0)
    state = model.initial
    for event in model.events:
        once = apply_event(event, state)
        twice = apply_event(event, once)
        assert once == twice


def _static_scan(model):
    return [
        defect
        for event in model.events
        for defect in validate_event_static(event, len(model.sites))
    ]


def _assert_static_defects_are_the_scan(model):
    first, second = model.static_defects(), model.static_defects()
    assert first == _static_scan(model)
    assert second == first and second is not first
    assert replace(model, mode=ConsistencyMode.POSITIVE_MEASURE).static_defects() == first


@pytest.mark.parametrize("name", ["two_site", "cycle_gadget", "bd_flip"])
def test_static_defects_on_fixtures_are_the_per_event_scan(name):
    _assert_static_defects_are_the_scan(load_fixture(name))


@given(seed=st.integers(0, 10**9), bias=st.floats(0, 0.9))
@example(seed=2, bias=0.3)  # shadowed_rule and static_monotonicity defects
@example(seed=39, bias=0.3)
def test_static_defects_on_random_models_are_the_per_event_scan(seed, bias):
    _assert_static_defects_are_the_scan(random_model(random.Random(seed), monotone_bias=bias))


def test_static_defects_carry_soft_kinds():
    kinds = {d.kind for d in random_model(random.Random(2), monotone_bias=0.3).static_defects()}
    assert kinds == {"shadowed_rule", "static_monotonicity"}


def test_static_scan_runs_once_per_model_on_first_request(monkeypatch):
    calls = []
    original = chronocheck.model.validate_event_static

    def spy(event, site_count):
        calls.append(event.name)
        return original(event, site_count)

    monkeypatch.setattr(chronocheck.model, "validate_event_static", spy)
    model = load_fixture("cycle_gadget")
    assert calls == []  # reading a file scans nothing
    first = model.static_defects()
    assert calls == list(model.event_names)
    second = model.static_defects()
    assert calls == list(model.event_names)
    assert second == first and second is not first
    # a copy is built by `Model(...)`, which checks locality alone and
    # scans on its own first request
    copy = replace(model, mode=ConsistencyMode.POSITIVE_MEASURE)
    assert calls == list(model.event_names)
    assert copy.static_defects() == first
    copy.static_defects()
    assert calls == list(model.event_names) * 2


def test_model_rejects_a_support_site_out_of_range():
    space = PossibilitySpace.create(["0", "1"])
    event = Event.intersect("e", [1], {1: space.full()})
    assert [d.message for d in validate_event_static(event, 1)] == ["support site 1 out of range"]
    with pytest.raises(ValueError, match="event e: support site 1 out of range"):
        Model(space, ("s0",), RecordState((space.full(),)), (event,))


def test_locality_defects_come_before_soft_ones():
    space = PossibilitySpace.create(["0", "1"])
    event = Event.table(
        "e",
        [0],
        [
            Rule.of({0: space.full()}, {1: space.subset(["0"])}),
            Rule.of({0: space.full()}, {0: space.subset(["0"])}),
            Rule.of({1: space.full()}, {}),
        ],
    )
    defects = validate_event_static(event, 2)
    assert [(d.kind, d.rule_index) for d in defects] == [
        ("locality", 0),
        ("locality", 2),
        ("shadowed_rule", 1),
    ]
    assert [d.message for d in defects] == [
        "rule 0 writes unsupported site 1",
        "rule 2 guards unsupported site 1",
        "rule 1 is shadowed by rule 0",
    ]


def pairwise_shadows(event):
    """Reference scan: (rule, shadowing rule) for each rule that some
    earlier guard's constraints, a subset of its own, shadow; the lowest
    such earlier rule, found by comparing every pair."""
    guards = [frozenset((site, sub.mask) for site, sub in rule.guard) for rule in event.rules]
    return [
        (idx, next(i for i in range(idx) if guards[i] <= guard))
        for idx, guard in enumerate(guards)
        if any(guards[i] <= guard for i in range(idx))
    ]


@given(
    rules=st.lists(
        st.dictionaries(st.integers(0, 2), st.integers(0, 7), max_size=3),
        max_size=8,
    )
)
def test_shadow_index_is_the_pairwise_scan(rules):
    space = PossibilitySpace.create(["0", "1", "2"])
    event = Event.table(
        "e", [0, 1, 2], [Rule.of({s: space.from_mask(m) for s, m in g.items()}, {}) for g in rules]
    )
    found = [
        (d.rule_index, int(d.message.rsplit(" ", 1)[1]))
        for d in validate_event_static(event, 3)
        if d.kind == "shadowed_rule"
    ]
    assert found == pairwise_shadows(event)
