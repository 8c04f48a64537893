"""Runtime model: a possibility space, named sites, an initial record
state, an event list, and the consistency mode everything is judged in.

Each check has one owner.  `Model(...)` checks the parts an API caller
hands it, locality included, and raises ValueError.  The model file
reader proves the same facts of a document, each at its field path, and
builds its `Model` through `Model._proved`, which checks nothing again.
Soft static defects refuse no model; every model scans them on its
first `static_defects()` call, however it was built.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .core import ConsistencyMode, PossibilitySpace, RecordState
from .events import Event, EventKind, StaticDefect, _locality_defects, apply_event, validate_event_static


@dataclass(frozen=True)
class Model:
    space: PossibilitySpace
    sites: tuple[str, ...]
    initial: RecordState
    events: tuple[Event, ...]
    mode: ConsistencyMode = ConsistencyMode.NONEMPTY

    def __post_init__(self) -> None:
        space = self.space
        if not self.sites:
            raise ValueError("a model needs at least one site")
        if len(set(self.sites)) != len(self.sites):
            raise ValueError("site names must be unique")
        if len(self.initial) != len(self.sites):
            raise ValueError("initial record state must cover every site")
        for rec in self.initial:
            if rec.space is not space and rec.space != space:
                raise ValueError("initial records must live in the model's space")
        by_name = {e.name: e for e in self.events}
        if len(by_name) != len(self.events):
            raise ValueError("event names must be unique")
        n = len(self.sites)
        for event in self.events:
            for defect in _locality_defects(event, n):
                raise ValueError(f"event {event.name}: {defect.message}")
            if event.kind is EventKind.INTERSECT:
                subsets = [sub for _, sub in event.constants]
            else:
                subsets = [sub for rule in event.rules for _, sub in (*rule.guard, *rule.result)]
            for sub in subsets:
                if sub.space is not space and sub.space != space:
                    raise ValueError(f"event {event.name} references a foreign possibility space")
        object.__setattr__(self, "_by_name", by_name)

    @classmethod
    def _proved(cls, space: PossibilitySpace, sites: tuple[str, ...], initial: RecordState,
                events: tuple[Event, ...], mode: ConsistencyMode) -> "Model":
        """A model of parts whose every `__post_init__` fact the caller has
        proved; sets the fields and the name index and checks nothing."""
        model = object.__new__(cls)
        model.__dict__.update(  # a frozen dataclass refuses setattr
            space=space, sites=sites, initial=initial, events=events, mode=mode,
            _by_name={e.name: e for e in events},
        )
        return model

    @cached_property
    def event_names(self) -> tuple[str, ...]:
        return tuple(e.name for e in self.events)

    @cached_property
    def _static_defects(self) -> tuple[StaticDefect, ...]:
        n = len(self.sites)
        return tuple(d for event in self.events for d in validate_event_static(event, n))

    def event(self, name: str) -> Event:
        try:
            return self._by_name[name]  # type: ignore[attr-defined]
        except KeyError:
            raise ValueError(f"unknown event: {name!r}") from None

    def static_defects(self) -> list[StaticDefect]:
        """Soft defects (shadowed rules, non-shrinking results) per event,
        in event order, as a fresh list.  Each model scans its events once,
        on the first call, whether it was read from a file or built by
        `Model(...)`, whose construction checks locality alone of the
        static defects."""
        return list(self._static_defects)


class EventApplier:
    """`apply_event` with no cache.  The engine steps the transition table
    and never calls it; the benchmark's tracer counts calls to `apply` by
    name."""

    def apply(self, event: Event, state: RecordState) -> RecordState:
        return apply_event(event, state)
