"""Seeded random model generation for the property and conformance suites.

Everything is driven by a caller-supplied `random.Random`, so a fixed seed
reproduces the exact same models across runs and platforms.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterator

from .core import ConsistencyMode, PossibilitySpace, Subset
from .events import Event, Rule
from .model import Model


def _random_mask(rng: random.Random, size: int, nonempty: bool = False) -> int:
    mask = rng.randrange(1 << size)
    if nonempty and mask == 0:
        mask = 1 << rng.randrange(size)
    return mask


def _random_subset(
    rng: random.Random, space: PossibilitySpace, nonempty: bool = False
) -> Subset:
    return space.from_mask(_random_mask(rng, space.size, nonempty))


def _submask(rng: random.Random, of: int) -> int:
    return of & rng.randrange(1 << of.bit_length()) if of else 0


def random_model(
    rng: random.Random,
    max_worlds: int = 8,
    max_sites: int = 3,
    max_events: int = 4,
    measured_prob: float = 0.2,
    intersect_prob: float = 0.5,
    monotone_bias: float = 0.7,
    full_initial_prob: float = 0.8,
) -> Model:
    """Sample one model.

    `monotone_bias` is the probability that a table rule's result at an
    exactly-guarded site is drawn as a subset of the guard (shrink-only by
    construction); the remainder are drawn freely, so a healthy share of
    models violates shrink-only writing at some reachable state.
    """
    n_worlds = rng.randint(2, max_worlds)
    worlds = tuple(f"w{i}" for i in range(n_worlds))
    if rng.random() < measured_prob:
        weights = [Fraction(rng.choice((0, 1, 1, 2))) for _ in worlds]
        if not any(weights):
            weights[rng.randrange(n_worlds)] = Fraction(1)
        space = PossibilitySpace(worlds, tuple(weights))
        mode = ConsistencyMode.POSITIVE_MEASURE
    else:
        space = PossibilitySpace.create(worlds)
        mode = ConsistencyMode.NONEMPTY

    n_sites = rng.randint(1, max_sites)
    sites = tuple(f"s{i}" for i in range(n_sites))
    if rng.random() < full_initial_prob:
        initial = tuple(space.full() for _ in sites)
    else:
        initial = tuple(_random_subset(rng, space, nonempty=True) for _ in sites)

    events = []
    for j in range(rng.randint(1, max_events)):
        support = sorted(rng.sample(range(n_sites), rng.randint(1, n_sites)))
        if rng.random() < intersect_prob:
            constants = {
                i: _random_subset(rng, space, nonempty=rng.random() < 0.9)
                for i in support
            }
            events.append(Event.intersect(f"e{j}", support, constants))
        else:
            rules = []
            for _ in range(rng.randint(1, 3)):
                guard = {}
                for i in support:
                    if rng.random() < 0.8:
                        guard[i] = _random_subset(rng, space)
                result = {}
                for i in support:
                    if rng.random() < 0.7:
                        if i in guard and rng.random() < monotone_bias:
                            result[i] = space.from_mask(_submask(rng, guard[i].mask))
                        else:
                            result[i] = _random_subset(rng, space)
                rules.append(Rule.of(guard, result))
            events.append(Event.table(f"e{j}", support, rules))
    return Model(space, sites, initial, tuple(events), mode)


def model_suite(seed: int, count: int, **kwargs) -> Iterator[Model]:
    """Deterministic stream of `count` models; model i depends only on
    (seed, i), so suites are stable under reordering or slicing."""
    for i in range(count):
        yield random_model(random.Random(f"{seed}:{i}"), **kwargs)


def random_schedule(rng: random.Random, model: Model, max_length: int = 8) -> list[str]:
    names = list(model.event_names)
    if not names:
        return []
    return [rng.choice(names) for _ in range(rng.randint(2, max_length))]
