import importlib.util
import random
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

from chronocheck import (
    ConsistencyMode,
    Event,
    ExplorationLimits,
    Model,
    PossibilitySpace,
    RecordState,
    Rule,
    Subset,
    explore,
    load_fixture,
)
from chronocheck.randmodels import random_model


@pytest.fixture
def two_site():
    return load_fixture("two_site")


@pytest.fixture
def gadget():
    return load_fixture("cycle_gadget")


@pytest.fixture
def bd_flip():
    return load_fixture("bd_flip")


def make_aligned_flip_model() -> Model:
    """Two same-site tables whose branch flips line up: running either one
    first steers the other onto the matching branch, so every premise
    check stays clean while the strong influence relation is a 2-cycle."""
    space = PossibilitySpace.create(["0", "1"])
    full, s0, s1 = space.full(), space.subset(["0"]), space.subset(["1"])
    x = Event.table(
        "x",
        [0],
        [Rule.of({0: full}, {0: s0}), Rule.of({0: s0}, {0: s0}), Rule.of({0: s1}, {0: s1})],
    )
    y = Event.table(
        "y",
        [0],
        [Rule.of({0: full}, {0: s1}), Rule.of({0: s0}, {0: s0}), Rule.of({0: s1}, {0: s1})],
    )
    return Model(space, ("site1",), RecordState((full,)), (x, y))


def make_emptying_flip_model() -> Model:
    """Mutually flipping tables whose composition drives the single record
    to the empty set: a strong cycle that global consistency explains."""
    space = PossibilitySpace.create(["0", "1", "2"])
    w = space.subset
    x = Event.table(
        "x",
        [0],
        [
            Rule.of({0: space.full()}, {0: w(["0", "2"])}),
            Rule.of({0: w(["0", "2"])}, {0: w(["0", "2"])}),
            Rule.of({0: w(["1", "2"])}, {0: w(["1", "2"])}),
        ],
    )
    y = Event.table(
        "y",
        [0],
        [
            Rule.of({0: space.full()}, {0: w(["1", "2"])}),
            Rule.of({0: w(["0", "2"])}, {0: w(["0"])}),
            Rule.of({0: w(["1", "2"])}, {0: w(["1", "2"])}),
            Rule.of({0: w(["0"])}, {0: w([])}),
        ],
    )
    return Model(space, ("site1",), RecordState((space.full(),)), (x, y))


def make_twin_intersect_model() -> Model:
    """Two events intersecting the same site with the same constant: the
    second one's write effect differs with and without the first, yet the
    post-update records never differ anywhere."""
    space = PossibilitySpace.create(["w0", "w1"])
    keep = space.subset(["w1"])
    e = Event.intersect("e", [0], {0: keep})
    f = Event.intersect("f", [0], {0: keep})
    return Model(space, ("site1",), RecordState((space.full(),)), (e, f))


def dense_draw() -> Model:
    """The first model of the benchmark's `dense` workload."""
    path = Path(__file__).resolve().parents[1] / "chronobench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.dense_model(random.Random(f"dense:{workloads.DENSE_SEED}:0"))


@pytest.fixture
def aligned_flip_model():
    return make_aligned_flip_model()


@pytest.fixture
def emptying_flip_model():
    return make_emptying_flip_model()


@pytest.fixture
def twin_intersect_model():
    return make_twin_intersect_model()


# Shapes of drawn models for the checks that run on a graph's lanes: the
# scale-ladder recipe ("wide"), and record widths (worlds x sites) that are
# a multiple of 8, where a lane's spare bit needs a whole extra byte.
LANE_SHAPES = ("drawn", "wide", "8x1", "4x2", "8x2")


def _drawn_event(rng: random.Random, name: str, space: PossibilitySpace, initial, intersect_prob: float) -> Event:
    """An intersect event, or a table event whose rules guard any number of
    supported sites: none (a wildcard), one, or several."""
    n_sites = len(initial)
    support = sorted(rng.sample(range(n_sites), rng.randint(1, n_sites)))

    def record() -> Subset:
        return space.from_mask(rng.randrange(1 << space.size))

    if rng.random() < intersect_prob:
        return Event.intersect(name, support, {site: record() for site in support})
    rules = []
    for _ in range(rng.randint(1, 3)):
        guarded = rng.sample(support, rng.randint(0, len(support)))
        # guards on records the model starts from match explored states often
        guard = {site: rng.choice((space.full(), initial[site], record())) for site in guarded}
        written = rng.sample(support, rng.randint(0, len(support)))
        rules.append(Rule.of(guard, {site: record() for site in written}))
    return Event.table(name, support, rules)


def draw_shaped_model(rng: random.Random, shape: str, intersect_prob: float = 0.5) -> Model:
    """One model of `shape` (see LANE_SHAPES); about half the draws weigh
    worlds, some of them zero, and judge in POSITIVE_MEASURE mode."""
    if shape == "drawn":
        return random_model(rng, max_sites=4, intersect_prob=intersect_prob, measured_prob=0.5)
    if shape == "wide":
        # about one seven-event ladder draw in twenty reaches more than 64
        # states: keep the first that does, or else the largest
        best = None
        for _ in range(300):
            model = random_model(rng, max_worlds=12, max_sites=4, max_events=7, intersect_prob=0.7)
            if len(model.events) == 7:
                size = explore(model, ExplorationLimits(max_states=65)).state_count
                if best is None or size > best[0]:
                    best = (size, model)
                if size > 64:
                    break
        return best[1] if best else model
    n_worlds, n_sites = map(int, shape.split("x"))
    worlds = [f"w{i}" for i in range(n_worlds)]
    if rng.random() < 0.5:
        weights = [rng.choice((0, 1, 2)) for _ in worlds]
        weights[rng.randrange(n_worlds)] = 1
        space = PossibilitySpace(tuple(worlds), tuple(weights))
        mode = ConsistencyMode.POSITIVE_MEASURE
    else:
        space = PossibilitySpace.create(worlds)
        mode = ConsistencyMode.NONEMPTY
    initial = RecordState(
        tuple(space.full() if rng.random() < 0.7 else space.from_mask(rng.randrange(1, 1 << n_worlds)) for _ in range(n_sites))
    )
    events = tuple(_drawn_event(rng, f"e{j}", space, initial, intersect_prob) for j in range(rng.randint(2, 4)))
    return Model(space, tuple(f"s{i}" for i in range(n_sites)), initial, events, mode)


def corrupt_one_event(rng: random.Random, graph) -> None:
    """Replace one event's compiled rules in `graph`'s table, after
    exploration, by random rules that write anywhere in the record bits:
    the event no longer keeps to its support, so it stops commuting with
    the events independent of it, and its write no longer follows its
    support's records.  The table forgets the rows it filled with the old
    rules, so the graph's arcs, read off the rows, follow the new ones.  No
    loadable model reaches these faults."""
    table = graph.table
    bits = table.record_bits

    def mask() -> int:
        return rng.getrandbits(bits.bit_length()) & bits

    rules = []
    for _ in range(rng.randint(1, 3)):
        guarded = rng.choice((0, mask()))
        guard = table.packed[rng.randrange(len(table.packed))] & guarded
        rules.append((guarded, guard, mask(), mask()))
    table.rules[rng.randrange(len(table.rules))] = tuple(rules)
    table._succ = [None] * len(table._succ)
