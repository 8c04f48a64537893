"""Event semantics: guarded update tables and constant intersections.

An event owns a support (the sites it may read and write) and an update
rule.  TABLE events match the current records at supported sites against
an ordered list of guards, first match wins, and replace the supported
records with the matched rule's result; no matching rule means identity.
INTERSECT events intersect each supported record with a fixed constant.
Shrink-only behaviour is not checked here: `reachability.check_monotonicity`
reports it as data, one `MonotonicityFinding` per explored arc and site
that adds worlds, and does not repair it, because diagnosing non-monotone
writes is part of the tool's job.  `apply_event` maps a record state to
the next one; it is the reference semantics that the transition table is
tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping

from .core import RecordState, Subset


class EventKind(Enum):
    TABLE = "table"
    INTERSECT = "intersect"


def _sorted_items(mapping: Mapping[int, Subset]) -> tuple[tuple[int, Subset], ...]:
    return tuple(sorted(mapping.items(), key=lambda kv: kv[0]))


@dataclass(frozen=True)
class Rule:
    """One guarded case of a TABLE event.

    `guard` maps site index to the exact record required there; a site
    absent from the guard is a wildcard.  `result` maps site index to the
    replacement record; unlisted supported sites keep their record.
    """

    guard: tuple[tuple[int, Subset], ...]
    result: tuple[tuple[int, Subset], ...]

    @classmethod
    def of(cls, guard: Mapping[int, Subset], result: Mapping[int, Subset]) -> "Rule":
        return cls(_sorted_items(guard), _sorted_items(result))


@dataclass(frozen=True)
class Event:
    name: str
    support: tuple[int, ...]
    kind: EventKind
    rules: tuple[Rule, ...] = ()
    constants: tuple[tuple[int, Subset], ...] = ()

    @classmethod
    def table(cls, name: str, support: Iterable[int], rules: Iterable[Rule]) -> "Event":
        return cls(name, tuple(sorted(set(support))), EventKind.TABLE, rules=tuple(rules))

    @classmethod
    def intersect(
        cls, name: str, support: Iterable[int], constants: Mapping[int, Subset]
    ) -> "Event":
        return cls(
            name,
            tuple(sorted(set(support))),
            EventKind.INTERSECT,
            constants=_sorted_items(constants),
        )


def apply_event(event: Event, state: RecordState) -> RecordState:
    """The record state one event leads to from `state`.

    Sites outside the support are never touched (the rule encoding cannot
    reference them), so locality holds by construction.  Worlds the event
    adds at a site are `apply_event(event, state)[site] - state[site]`.
    """
    records = list(state)
    if event.kind is EventKind.INTERSECT:
        for site, constant in event.constants:
            records[site] &= constant
    else:
        for rule in event.rules:
            if all(state[site].mask == required.mask for site, required in rule.guard):
                for site, replacement in rule.result:
                    records[site] = replacement
                break
    return tuple(records)


def independent(e: Event, f: Event) -> bool:
    """True iff the two events touch disjoint site sets."""
    return not set(e.support) & set(f.support)


@dataclass(frozen=True)
class StaticDefect:
    kind: str
    event: str
    message: str
    rule_index: int | None = None
    site: int | None = None


def _locality_defects(event: Event, site_count: int) -> list[StaticDefect]:
    """The locality defects of one event, which `Model(...)` refuses: support
    sites out of range, intersect constants that do not cover the support,
    and rules that guard or write an unsupported site, in that order."""
    name = event.name
    defects = [
        StaticDefect("locality", name, f"support site {site} out of range", site=site)
        for site in event.support
        if site < 0 or site >= site_count
    ]
    support = set(event.support)
    if event.kind is EventKind.INTERSECT:
        constant_sites = {site for site, _ in event.constants}
        if constant_sites != support:
            covered, supported = sorted(constant_sites), sorted(support)
            message = f"intersect constants cover sites {covered}, support is {supported}"
            defects.append(StaticDefect("locality", name, message))
        return defects
    for idx, rule in enumerate(event.rules):
        for verb, pairs in (("guards", rule.guard), ("writes", rule.result)):
            for site, _ in pairs:
                if site not in support:
                    message = f"rule {idx} {verb} unsupported site {site}"
                    defects.append(StaticDefect("locality", name, message, idx, site))
    return defects


def _soft_defects(event: Event) -> list[StaticDefect]:
    """The defects of one event that a model may hold: rules shadowed by an
    earlier guard, and results that add worlds beyond their guard.

    Earlier guards are indexed by the sites they guard, each site set
    mapping its masks to the first rule with exactly that guard.  A rule
    looks each seen site set that its own guard covers up with its masks
    there, so the work per rule is bounded by the number of distinct site
    sets seen, and no guard's subsets are enumerated."""
    defects: list[StaticDefect] = []
    if event.kind is EventKind.INTERSECT:
        return defects
    name = event.name
    seen: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}
    for idx, rule in enumerate(event.rules):
        guard_masks = {site: sub.mask for site, sub in rule.guard}
        # an earlier guard whose constraints are a subset of this one
        # matches every state this rule would match; the first such wins
        earlier = idx
        for sites, first in seen.items():
            if all(map(guard_masks.__contains__, sites)):
                earlier = min(earlier, first.get(tuple(map(guard_masks.__getitem__, sites)), idx))
        if earlier < idx:
            message = f"rule {idx} is shadowed by rule {earlier}"
            defects.append(StaticDefect("shadowed_rule", name, message, idx))
        sites = tuple(sorted(guard_masks))
        seen.setdefault(sites, {}).setdefault(tuple(map(guard_masks.__getitem__, sites)), idx)
        for site, replacement in rule.result:
            added = replacement.mask & ~guard_masks.get(site, -1)
            if added:
                labels = Subset(replacement.space, added).sorted_labels()
                message = f"rule {idx} result at site {site} adds worlds {labels} beyond its guard"
                defects.append(StaticDefect("static_monotonicity", name, message, idx, site))
    return defects


def validate_event_static(event: Event, site_count: int) -> list[StaticDefect]:
    """Schema-level defect scan for a single event.

    Reports out-of-range or unsupported site references ("locality")
    first, then rules made unreachable by an earlier guard that matches
    whenever they would ("shadowed_rule") and results that cannot be
    shrink-only given an exact guard on the same site
    ("static_monotonicity").  `Model(...)` refuses an event with a
    locality defect, so a model's `static_defects()` holds only the others.
    """
    return _locality_defects(event, site_count) + _soft_defects(event)
