import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from chronocheck import (
    ConsistencyMode,
    Model,
    PossibilitySpace,
    RecordState,
    TransitionTable,
    check_gs,
    explore,
    feasible_set,
    information_content,
    measure_of,
)

NONEMPTY = ConsistencyMode.NONEMPTY
MEASURE = ConsistencyMode.POSITIVE_MEASURE


def test_space_rejects_bad_inputs():
    with pytest.raises(ValueError):
        PossibilitySpace.create([])
    with pytest.raises(ValueError):
        PossibilitySpace.create(["a", "a"])
    with pytest.raises(ValueError):
        PossibilitySpace.create(["a", ""])
    with pytest.raises(ValueError):
        PossibilitySpace.create(["a"], {"a": -1})
    with pytest.raises(ValueError):
        PossibilitySpace.create(["a", "b"], {"a": 0, "b": 0})
    with pytest.raises(ValueError):
        PossibilitySpace.create(["a"], {"nope": 1})


def _reference_space(worlds, weights):
    """The space checks as they stood before the sign tests moved to
    numerators: (weights, positive_mask, full_mask, total weight)."""
    worlds = tuple(worlds)
    weights = tuple(Fraction(w) for w in weights)
    if not worlds:
        raise ValueError("possibility space needs at least one world")
    if len(set(worlds)) != len(worlds):
        raise ValueError("world labels must be unique")
    if any(not w for w in worlds):
        raise ValueError("world labels must be nonempty strings")
    if len(weights) != len(worlds):
        raise ValueError("one weight per world required")
    if any(w < 0 for w in weights):
        raise ValueError("weights must be nonnegative")
    if sum(weights) <= 0:
        raise ValueError("total weight must be positive")
    positive = 0
    for i, w in enumerate(weights):
        if w > 0:
            positive |= 1 << i
    return weights, positive, (1 << len(worlds)) - 1, sum(weights)


def _reference_create(worlds, weights=None):
    if weights is None:
        ws = tuple(Fraction(1) for _ in worlds)
    else:
        unknown = set(weights) - set(worlds)
        if unknown:
            raise ValueError(f"weights refer to undeclared worlds: {sorted(unknown)}")
        ws = tuple(Fraction(weights.get(w, 1)) for w in worlds)
    return _reference_space(tuple(worlds), ws)


_LABELS = ["a", "b", "c", "d"]
_WEIGHTS = st.one_of(
    st.integers(-2, 4),
    st.just(0),
    st.fractions(min_value=-1, max_value=4, max_denominator=7),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-2, 9), st.integers(1, 9)),
    st.floats(-1, 4, allow_nan=False),
)


@st.composite
def _space_args(draw):
    """World labels (usually valid, sometimes empty, repeated or blank), a
    weight list (usually one per world) and an optional weight mapping."""
    worlds = draw(
        st.one_of(
            st.lists(st.sampled_from(_LABELS), min_size=1, unique=True),
            st.lists(st.sampled_from(_LABELS + [""]), max_size=4),
        )
    )
    n = len(worlds) if draw(st.booleans()) else draw(st.integers(0, 4))
    weights = draw(st.lists(_WEIGHTS, min_size=n, max_size=n))
    mapping = draw(st.none() | st.dictionaries(st.sampled_from(worlds + ["z"]), _WEIGHTS, max_size=4))
    return worlds, weights, mapping


@given(args=_space_args())
@example(args=(["a", "b", "c"], [0, "0/3", Fraction(0)], {"a": 0, "b": "0/3", "c": Fraction(0)}))
@example(args=(["a", "b", "c"], [1, -1, "2/3"], {"b": "-1/2"}))
@example(args=(["a", "b"], [0, "1/2"], None))
def test_space_matches_reference_checks(args):
    """Constructor, create(worlds, mapping) and create(worlds) give the
    reference weights, masks and total, or the reference's ValueError."""
    worlds, weights, mapping = args
    cases = [
        (lambda: PossibilitySpace(tuple(worlds), tuple(weights)), lambda: _reference_space(worlds, weights)),
        (lambda: PossibilitySpace.create(worlds, mapping), lambda: _reference_create(worlds, mapping)),
        (lambda: PossibilitySpace.create(worlds), lambda: _reference_create(worlds)),
    ]
    for build, reference in cases:
        try:
            expected = reference()
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                build()
            assert str(raised.value) == str(exc)
            continue
        space = build()
        assert (space.weights, space.positive_mask, space.full_mask, space.total_weight()) == expected
        assert all(type(w) is Fraction for w in space.weights)


def test_subset_algebra_is_exact():
    space = PossibilitySpace.create(["a", "b", "c"])
    ab = space.subset(["a", "b"])
    bc = space.subset(["b", "c"])
    assert (ab & bc).sorted_labels() == ["b"]
    assert (ab | bc).sorted_labels() == ["a", "b", "c"]
    assert (ab - bc).sorted_labels() == ["a"]
    assert (ab ^ bc).sorted_labels() == ["a", "c"]
    assert ab.complement().sorted_labels() == ["c"]
    assert space.subset(["a"]).issubset(ab)
    assert not ab.issubset(bc)
    assert "a" in ab and "c" not in ab
    with pytest.raises(ValueError):
        space.subset(["zzz"])


def test_sorted_labels_follow_label_order_not_declaration_order():
    worlds = ["w2", "w10", "\u00e9", "a", "Z"]
    space = PossibilitySpace.create(worlds)
    assert space.full().sorted_labels() == ["Z", "a", "w10", "w2", "\u00e9"]
    for mask in range(1 << len(worlds)):
        subset = space.from_mask(mask)
        assert subset.sorted_labels() == sorted(subset)
    # larger spaces, with labels out of index order
    rng = random.Random(7)
    for size in (32, 200):
        worlds = [f"w{i}" for i in range(size)]
        rng.shuffle(worlds)
        space = PossibilitySpace.create(worlds)
        for mask in (0, 1, 1 << size - 1, space.full_mask, *(rng.getrandbits(size) for _ in range(50))):
            subset = space.from_mask(mask)
            assert subset.sorted_labels() == sorted(subset)


def test_subsets_from_different_spaces_do_not_mix():
    s1 = PossibilitySpace.create(["a", "b"])
    s2 = PossibilitySpace.create(["a", "c"])
    with pytest.raises(ValueError):
        s1.subset(["a"]) & s2.subset(["a"])
    # subsets are equal only over spaces with the same worlds and weights
    assert s1.subset(["a"]) == PossibilitySpace.create(["a", "b"]).subset(["a"])
    assert s1.subset(["a"]) != s2.subset(["a"])
    assert s1.subset(["a"]) != PossibilitySpace.create(["a", "b"], {"a": 1, "b": 2}).subset(["a"])


def test_feasible_set_single_site():
    space = PossibilitySpace.create(["w0", "w1"])
    state = RecordState((space.subset(["w0"]),))
    assert feasible_set(state) == space.subset(["w0"])


def test_feasible_set_all_full_is_full():
    space = PossibilitySpace.create(["w0", "w1", "w2"])
    state = RecordState((space.full(), space.full(), space.full()))
    assert feasible_set(state) == space.full()


def test_feasible_set_two_site_tightening():
    # records after both tightenings in the bundled two-site example
    space = PossibilitySpace.create(["00", "01", "10", "11"])
    state = RecordState((space.subset(["00", "01"]), space.subset(["00", "10"])))
    assert feasible_set(state) == space.subset(["00"])


def test_feasible_set_requires_at_least_one_site():
    with pytest.raises(ValueError):
        feasible_set(RecordState(()))


def _still_model(space, records, mode):
    """A model with one site per record and no events: its only reachable
    state is the initial one."""
    sites = tuple(f"s{i}" for i in range(len(records)))
    return Model(space, sites, RecordState(tuple(records)), (), mode)


def _consistent(space, records, mode):
    return check_gs(explore(_still_model(space, records, mode))) == []


def _same(a, b, mode):
    """`TransitionTable.same` on the one-site states holding `a` and `b`,
    in a table whose model judges in `mode`."""
    table = TransitionTable(_still_model(a.space, [a], mode))
    ids = [table.intern_state(RecordState((x,))) for x in (a, b)]
    return table.same(*ids)


def test_is_consistent_modes():
    space = PossibilitySpace.create(["w0", "w1"])
    assert not _consistent(space, [space.empty()], NONEMPTY)
    assert not _consistent(space, [space.empty()], MEASURE)
    assert _consistent(space, [space.full(), space.full()], NONEMPTY)
    assert _consistent(space, [space.full(), space.full()], MEASURE)


def test_is_consistent_zero_weight_world():
    space = PossibilitySpace.create(["w0", "w1"], {"w0": 0, "w1": 1})
    assert _consistent(space, [space.subset(["w0"])], NONEMPTY)
    assert not _consistent(space, [space.subset(["w0"])], MEASURE)


def test_null_equiv_examples():
    counting = PossibilitySpace.create(["w0", "w1"])
    a = counting.subset(["w0"])
    assert _same(a, a, MEASURE)
    assert not _same(a, counting.subset(["w1"]), MEASURE)
    weighted = PossibilitySpace.create(["w0", "w1"], {"w0": 0, "w1": 1})
    both, w1 = weighted.subset(["w0", "w1"]), weighted.subset(["w1"])
    assert _same(both, w1, MEASURE)
    assert not _same(both, w1, NONEMPTY)


@given(
    masks=st.tuples(st.integers(0, 15), st.integers(0, 15), st.integers(0, 15)),
    zero_worlds=st.sets(st.integers(0, 3)),
    mode=st.sampled_from([NONEMPTY, MEASURE]),
)
def test_null_equiv_is_an_equivalence_relation(masks, zero_worlds, mode):
    worlds = ["w0", "w1", "w2", "w3"]
    weights = {w: (0 if i in zero_worlds else 1) for i, w in enumerate(worlds)}
    if not any(weights.values()):
        weights["w0"] = 1
    space = PossibilitySpace.create(worlds, weights)
    a, b, c = (space.from_mask(m) for m in masks)
    assert _same(a, a, mode)
    assert _same(a, b, mode) == _same(b, a, mode)
    if _same(a, b, mode) and _same(b, c, mode):
        assert _same(a, c, mode)


@given(
    mask_a=st.integers(0, 15),
    mask_b=st.integers(0, 15),
    zero_worlds=st.sets(st.integers(0, 3)),
)
def test_null_equiv_is_equality_under_counting(mask_a, mask_b, zero_worlds):
    counting = PossibilitySpace.create(["w0", "w1", "w2", "w3"])
    a, b = counting.from_mask(mask_a), counting.from_mask(mask_b)
    assert _same(a, b, MEASURE) == (a == b)
    # in nonempty mode every world counts, whatever its weight
    worlds = counting.worlds
    weights = {w: (0 if i in zero_worlds else 1) for i, w in enumerate(worlds)}
    weights["w0"] = 1
    weighted = PossibilitySpace.create(worlds, weights)
    a, b = weighted.from_mask(mask_a), weighted.from_mask(mask_b)
    assert _same(a, b, NONEMPTY) == (a == b)


def test_measure_of_examples():
    space = PossibilitySpace.create(["w0", "w1"])
    assert measure_of(space.empty()) == 0
    assert measure_of(space.full()) == 2
    weighted = PossibilitySpace.create(
        ["w0", "w1"], {"w0": Fraction(1, 4), "w1": Fraction(3, 4)}
    )
    assert measure_of(weighted.subset(["w0"])) == Fraction(1, 4)


@given(
    assignment=st.lists(st.integers(0, 2), min_size=5, max_size=5),
    weights=st.lists(
        st.sampled_from([0, 1, 2, Fraction(1, 3)]), min_size=5, max_size=5
    ),
)
def test_measure_is_additive_over_partitions(assignment, weights):
    worlds = [f"w{i}" for i in range(5)]
    table = dict(zip(worlds, weights))
    if not any(table.values()):
        table["w0"] = 1
    space = PossibilitySpace.create(worlds, table)
    parts = [
        space.subset([w for w, part in zip(worlds, assignment) if part == k])
        for k in range(3)
    ]
    assert sum(measure_of(p) for p in parts) == measure_of(space.full())


def test_information_content_examples():
    space = PossibilitySpace.create(["0", "1"])
    assert information_content(RecordState((space.full(),))) == pytest.approx(
        -math.log(2), abs=1e-12
    )
    assert information_content(RecordState((space.empty(),))) == math.inf
    assert information_content(RecordState((space.subset(["0"]),))) == 0.0


@pytest.mark.parametrize("exponent", [400, -400])
def test_information_content_extreme_weights(exponent):
    # 10**-400 underflows a float and 10**400 overflows one; the clock
    # value is still finite and exact to float precision
    space = PossibilitySpace.create(["0"], {"0": Fraction(10) ** exponent})
    value = information_content(RecordState((space.full(),)))
    assert value == pytest.approx(-exponent * math.log(10), rel=1e-12)

