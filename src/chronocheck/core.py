"""Finite possibility spaces, weighted subsets, and distributed record states.

A possibility space is an ordered list of world labels with a nonnegative
rational weight per world (all weights 1 gives the counting measure).
Subsets are immutable characteristic bit-vectors over that ordering, and a
record state is a per-site vector of subsets.  All arithmetic is exact:
weights are `fractions.Fraction`, and "measure zero" / "measure positive"
tests reduce to integer mask operations against the positive-weight mask,
so they never suffer float drift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import compress
from typing import Iterable, Iterator, Mapping, Sequence, Union

WeightLike = Union[Fraction, int, float, str]

_ONE = Fraction(1)  # the counting measure's weight, shared by every world
_DIGIT_FLAGS = bytes.maketrans(b"01", b"\0\1")  # binary digits as false and true bytes


class ConsistencyMode(Enum):
    """How consistency of a record state is judged: bare nonemptiness of
    the feasible set, or strictly positive total weight."""

    NONEMPTY = "nonempty"
    POSITIVE_MEASURE = "positive_measure"


@dataclass(frozen=True)
class PossibilitySpace:
    """Ordered finite set of world labels with one weight per world."""

    worlds: tuple[str, ...]
    weights: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        worlds = tuple(self.worlds)
        weights = tuple(self.weights)
        if not all(type(w) is Fraction for w in weights):
            weights = tuple(w if isinstance(w, Fraction) else Fraction(w) for w in weights)
        if not worlds:
            raise ValueError("possibility space needs at least one world")
        index = {w: i for i, w in enumerate(worlds)}
        if len(index) != len(worlds):
            raise ValueError("world labels must be unique")
        if not all(worlds):
            raise ValueError("world labels must be nonempty strings")
        if len(weights) != len(worlds):
            raise ValueError("one weight per world required")
        # A Fraction's sign is its numerator's.  With every weight
        # nonnegative, the total is positive iff some weight is nonzero, so
        # no sum of Fractions is taken.
        if any(w.numerator < 0 for w in weights):
            raise ValueError("weights must be nonnegative")
        positive = 0
        for i, w in enumerate(weights):
            if w.numerator:
                positive |= 1 << i
        if not positive:
            raise ValueError("total weight must be positive")
        object.__setattr__(self, "worlds", worlds)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "full_mask", (1 << len(worlds)) - 1)
        object.__setattr__(self, "positive_mask", positive)

    @classmethod
    def create(
        cls,
        worlds: Sequence[str],
        weights: Mapping[str, WeightLike] | None = None,
    ) -> "PossibilitySpace":
        """Build a space; omitted weights default to the counting measure."""
        worlds = tuple(worlds)
        if weights is None:
            ws = (_ONE,) * len(worlds)
        else:
            unknown = set(weights) - set(worlds)
            if unknown:
                raise ValueError(f"weights refer to undeclared worlds: {sorted(unknown)}")
            ws = tuple(weights.get(w, _ONE) for w in worlds)
        return cls(worlds, ws)

    @property
    def size(self) -> int:
        return len(self.worlds)

    def index_of(self, label: str) -> int:
        try:
            return self._index[label]  # type: ignore[attr-defined]
        except KeyError:
            raise ValueError(f"unknown world label: {label!r}") from None

    def subset(self, labels: Iterable[str]) -> "Subset":
        mask = 0
        for label in labels:
            mask |= 1 << self.index_of(label)
        return Subset(self, mask)

    def from_mask(self, mask: int) -> "Subset":
        if mask & ~self.full_mask:  # type: ignore[attr-defined]
            raise ValueError("mask has bits outside the space")
        return Subset(self, mask)

    def empty(self) -> "Subset":
        return Subset(self, 0)

    def full(self) -> "Subset":
        return Subset(self, self.full_mask)  # type: ignore[attr-defined]

    @cached_property
    def _label_ranks(self) -> tuple[tuple[str, ...], tuple[int, ...], str]:
        """The labels in label order; each world's position in that order,
        from the highest world index down, as `format(mask, spec)` writes a
        mask's bits; and that `spec`.  Computed on first use, so spaces
        that never serialize a subset do not pay for it."""
        order = sorted(range(self.size), key=self.worlds.__getitem__)
        rank = [0] * self.size
        for position, index in enumerate(order):
            rank[index] = position
        return tuple(self.worlds[i] for i in order), tuple(reversed(rank)), f"0{self.size}b"

    @cached_property
    def _labels_by_mask(self) -> dict[int, tuple[str, ...]]:
        """`labels_of` every mask asked for so far."""
        return {}

    def labels_of(self, mask: int) -> tuple[str, ...]:
        """The labels of the worlds in `mask`, in label order, kept per
        mask.  The label ranks of the set bits are picked out of the mask's
        binary digits and sorted, so a new mask costs time linear in the
        space.  Subsets, the model file writer and the report's states all
        name worlds through it."""
        cache = self._labels_by_mask
        labels = cache.get(mask)
        if labels is None:
            ordered, ranks, spec = self._label_ranks
            digits = format(mask, spec).encode().translate(_DIGIT_FLAGS)
            labels = cache[mask] = tuple([ordered[r] for r in sorted(compress(ranks, digits))])
        return labels

    def measure_mask(self, mask: int) -> Fraction:
        total = Fraction(0)
        while mask:
            low = mask & -mask
            total += self.weights[low.bit_length() - 1]
            mask ^= low
        return total

    def total_weight(self) -> Fraction:
        return self.measure_mask(self.full_mask)  # type: ignore[attr-defined]


@dataclass(frozen=True)
class Subset:
    """Immutable subset of a space's worlds, stored as a bit mask.  Two
    subsets are equal when their masks and their spaces' worlds and weights
    are."""

    space: PossibilitySpace
    mask: int

    def __hash__(self) -> int:
        return hash(self.mask)

    def _check(self, other: "Subset") -> None:
        if self.space != other.space:
            raise ValueError("subsets belong to different spaces")

    def __and__(self, other: "Subset") -> "Subset":
        self._check(other)
        return Subset(self.space, self.mask & other.mask)

    def __or__(self, other: "Subset") -> "Subset":
        self._check(other)
        return Subset(self.space, self.mask | other.mask)

    def __sub__(self, other: "Subset") -> "Subset":
        self._check(other)
        return Subset(self.space, self.mask & ~other.mask)

    def __xor__(self, other: "Subset") -> "Subset":
        self._check(other)
        return Subset(self.space, self.mask ^ other.mask)

    def complement(self) -> "Subset":
        return Subset(self.space, self.mask ^ self.space.full_mask)  # type: ignore[attr-defined]

    def issubset(self, other: "Subset") -> bool:
        self._check(other)
        return self.mask & ~other.mask == 0

    __le__ = issubset

    @property
    def is_empty(self) -> bool:
        return self.mask == 0

    def __contains__(self, label: str) -> bool:
        return bool(self.mask >> self.space.index_of(label) & 1)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __iter__(self) -> Iterator[str]:
        for i, w in enumerate(self.space.worlds):
            if self.mask >> i & 1:
                yield w

    def labels(self) -> tuple[str, ...]:
        return tuple(self)

    def sorted_labels(self) -> list[str]:
        """World labels in label order (see `PossibilitySpace.labels_of`)."""
        return list(self.space.labels_of(self.mask))

    def __repr__(self) -> str:
        return "Subset({" + ", ".join(self.sorted_labels()) + "})"


# A record state: index i holds the constraint at site i.  The alias is
# callable, so `RecordState(records)` builds one from any iterable.
RecordState = tuple[Subset, ...]


def feasible_set(state: RecordState) -> Subset:
    """Intersection of all site records."""
    if not state:
        raise ValueError("record state has no sites")
    space = state[0].space
    mask = space.full_mask  # type: ignore[attr-defined]
    for rec in state:
        mask &= rec.mask
    return Subset(space, mask)


def mode_mask(space: PossibilitySpace, mode: ConsistencyMode) -> int:
    """Worlds that count when a set is tested or two sets are compared:
    every world in NONEMPTY mode, the positive-weight worlds in
    POSITIVE_MEASURE mode."""
    if mode is ConsistencyMode.NONEMPTY:
        return space.full_mask  # type: ignore[attr-defined]
    return space.positive_mask  # type: ignore[attr-defined]


def measure_of(subset: Subset) -> Fraction:
    return subset.space.measure_mask(subset.mask)


def information_content(state: RecordState) -> float:
    """Negative natural log of the feasible set's weight; +inf at weight 0.

    A weight too small or too large for a float still gets a finite value,
    from the logarithms of its exact numerator and denominator.  Weights in
    float range keep `-log(float(weight))`, which is monotone in the weight;
    the difference of two logarithms is not, once they nearly cancel.
    """
    mu = measure_of(feasible_set(state))
    if mu == 0:
        return math.inf
    try:
        return -math.log(mu)
    except (OverflowError, ValueError):
        return -(math.log(mu.numerator) - math.log(mu.denominator))

