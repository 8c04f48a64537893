"""Explicit-state exploration of the transition system over record states.

Every transition comes from one `TransitionTable` per exploration.  A
record state is one int, site-major (see `MaskState`), and this module is
the only one that knows that layout.  Each event is compiled once into a
function from one packed state to the next, states are interned to integer
ids, and `TransitionTable.row` is the only engine code that applies an
event: it fills a state's successor ids under every event in one loop.
The table stores those ids and nothing else; shrink-only violations are
read off the packed source and target of an arc.  Exploration and every
check read the table and test whole states with single int operations,
against masks the table packs once: the worlds that count at every site
(`keep`) and each event's support (`supports`).  They read one site out of
a packed value only through `TransitionTable.field` and
`TransitionTable.first_site`, and pack (site, record) pairs only through
`TransitionTable.pack`.

Every finding and witness names the states it is about by table id, and
callers such as the report and the DOT view read explored states by id
and arc: a state's records come from `ReachabilityGraph.state`, built
once per id on request, and the events of the breadth-first path that
first reached it from `ReachabilityGraph.occurred_names`.  `Node`, `Edge`
and the graph's `nodes`, `edges` and `distinct_states` are only the views
the benchmark's tracer counts.

Exploration visits each distinct record state once and keeps, per state,
the event bitmask of the breadth-first path that first reached it.  Which
events have or have not fired on the way to a state is a property of the
paths into it, not of the state, so `occurrence_masks` computes it for
every state at once with a fixpoint over the explored arcs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable

from .core import RecordState, Subset, mode_mask
from .events import Event, EventKind, independent
from .model import Model

MaskState = int
"""A whole record state as one int, site-major: with W worlds, site s holds
its record's world mask in bits [s*W, (s+1)*W)."""


def compile_event(event: Event, table: TransitionTable) -> Callable[[MaskState], MaskState]:
    """The event as a function from a packed record state of `table`'s
    layout to the packed state it leads to (see `MaskState`).

    An intersect event is one AND with a keep mask that holds each
    constant at its site and all ones elsewhere.  A table rule matches when
    the state, masked to the guarded sites, equals the packed guard; its
    result clears the written sites and sets the packed replacements.  It
    agrees with `apply_event`, which stays the reference semantics.
    """
    pack, site_full = table.pack, table.site_full

    def cover(items: Iterable[tuple[int, Subset]]) -> int:
        return sum([site_full[site] for site, _ in items])

    if event.kind is EventKind.INTERSECT:
        keep = ~cover(event.constants) | pack(event.constants)

        def intersect(state: MaskState) -> MaskState:
            return state & keep

        return intersect

    rules = tuple(
        (cover(rule.guard), pack(rule.guard), ~cover(rule.result), pack(rule.result))
        for rule in event.rules
    )

    def first_match(state: MaskState) -> MaskState:
        for guarded, guard, clear, result in rules:
            if state & guarded == guard:
                return state & clear | result
        return state

    return first_match


class TransitionTable:
    """Successor state ids of every event at every record state the engine
    visits, filled one whole row on first lookup.

    States are interned to integer ids in first-seen order; `packed[sid]`
    is the state as one `MaskState` of `width` worlds per site.  `keep`
    holds the worlds that count in the model's mode at every site,
    `site_full[s]` every world of site s, and `supports[i]` every world of
    event i's supported sites.  `pack` builds a packed value from (site,
    record) pairs, and `field` and `first_site` read one site out of one.
    `state` and `intern_state` convert to and from `RecordState` at the API
    boundary.  Lookups work for any interned state, so checks may step past
    a truncated exploration frontier.
    """

    def __init__(self, model: Model) -> None:
        self.model = model
        self.width = width = model.space.size
        self._full = full = (1 << width) - 1
        self.site_full = site_full = [full << site * width for site in range(len(model.sites))]
        keep = mode_mask(model.space, model.mode)
        self.keep = sum(keep << site * width for site in range(len(model.sites)))
        self.supports = [sum(map(site_full.__getitem__, event.support)) for event in model.events]
        self.packed: list[MaskState] = []
        self._apply = [compile_event(event, self) for event in model.events]
        self._ids: dict[MaskState, int] = {}
        self._succ: list[list[int] | None] = []

    def _intern(self, packed: MaskState) -> int:
        sid = self._ids.get(packed)
        if sid is None:
            sid = self._ids[packed] = len(self.packed)
            self.packed.append(packed)
            self._succ.append(None)
        return sid

    def intern_state(self, state: RecordState) -> int:
        """Id of `state`, assigned on first sight."""
        return self._intern(self.pack(enumerate(state)))

    def row(self, sid: int) -> list[int]:
        """Successor ids of every event from `sid`, in event order.  The
        first lookup applies every event; new successors are interned in
        event order."""
        row = self._succ[sid]
        if row is None:
            state = self.packed[sid]
            ids = self._ids
            row = []
            for apply in self._apply:
                nxt = apply(state)
                target = ids.get(nxt)
                row.append(self._intern(nxt) if target is None else target)
            self._succ[sid] = row
        return row

    def step(self, sid: int, event: int) -> int:
        """Id of the state reached by event index `event` from state `sid`."""
        return self.row(sid)[event]

    def pack(self, records: Iterable[tuple[int, Subset]]) -> int:
        """Each (site, record) pair's world mask at its site, packed."""
        width = self.width
        return sum(record.mask << site * width for site, record in records)

    def field(self, value: int, site: int) -> int:
        """The world mask that packed `value` holds at `site`."""
        return value >> site * self.width & self._full

    def first_site(self, value: int) -> int:
        """The site that holds the lowest set bit of nonzero packed `value`."""
        return ((value & -value).bit_length() - 1) // self.width

    def same(self, a: int, b: int) -> bool:
        """True iff states `a` and `b` agree on every world that counts in
        the model's mode."""
        return a == b or not (self.packed[a] ^ self.packed[b]) & self.keep

    def state(self, sid: int) -> RecordState:
        """The state as a `RecordState`, built anew on every call."""
        space, packed = self.model.space, self.packed[sid]
        return tuple(Subset(space, self.field(packed, site)) for site in range(len(self.model.sites)))


@dataclass(frozen=True)
class Node:
    state: RecordState
    occurred: frozenset[str]


@dataclass(frozen=True)
class Edge:
    source: int
    event: str
    target: int


@dataclass(frozen=True)
class ExplorationLimits:
    max_states: int = 100_000
    max_depth: int = 64

    def __post_init__(self) -> None:
        if self.max_states <= 0 or self.max_depth <= 0:
            raise ValueError("exploration limits must be positive")


@dataclass(frozen=True, eq=False)
class ReachabilityGraph:
    """Explored states and transitions over one transition table.

    The explored states are table states 0 to `state_count - 1`;
    `occurred[i]` is the event bitmask of the breadth-first path that first
    reached state i.  Each arc is a (source state, event index, target
    state) triple, one per expanded state and event, except that arcs to
    states past the `max_states` limit are dropped.  `state(i)` builds
    state i's records on first request and `occurred_names(i)` names the
    events in `occurred[i]`; the feasible world masks `feasible` are built
    in full on first access.
    """

    table: TransitionTable
    occurred: tuple[int, ...]
    arcs: tuple[tuple[int, int, int], ...]
    truncated: bool
    _states: dict[int, RecordState] = field(default_factory=dict, init=False, repr=False)

    @property
    def model(self) -> Model:
        return self.table.model

    @property
    def state_count(self) -> int:
        return len(self.occurred)

    def state(self, sid: int) -> RecordState:
        """Table state `sid` as a `RecordState`, one shared value per id.
        Any id of the table resolves, so a commutation finding may name a
        state that a check stepped to past a truncated frontier."""
        state = self._states.get(sid)
        if state is None:
            state = self._states[sid] = self.table.state(sid)
        return state

    def occurred_names(self, sid: int) -> list[str]:
        """Sorted names of the events on the breadth-first path that first
        reached explored state `sid`."""
        occ = self.occurred[sid]
        return sorted(name for i, name in enumerate(self.model.event_names) if occ >> i & 1)

    @cached_property
    def nodes(self) -> tuple[Node, ...]:
        """Every explored state as a `Node`, for the benchmark's tracer."""
        occurred = map(frozenset, map(self.occurred_names, range(self.state_count)))
        return tuple(map(Node, self.distinct_states(), occurred))

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        """Every arc as an `Edge`, for the benchmark's tracer."""
        names = self.model.event_names
        return tuple(Edge(src, names[event], tgt) for src, event, tgt in self.arcs)

    @cached_property
    def feasible(self) -> tuple[int, ...]:
        """Per explored state, the world mask of the worlds that every
        site's record allows, folded out of the packed int once per graph."""
        table = self.table
        packed = table.packed[: self.state_count]
        feasible = packed
        for site in range(1, len(self.model.sites)):
            shift = site * table.width
            feasible = [f & p >> shift for f, p in zip(feasible, packed)]
        return tuple(f & self.model.space.full_mask for f in feasible)

    def table_for(self, model: Model) -> TransitionTable:
        """The graph's transition table, checked to apply `model`'s events
        and to judge in `model`'s mode."""
        if (model.events, model.mode) != (self.model.events, self.model.mode):
            raise ValueError("the graph was explored from a model with other events or mode")
        return self.table

    def distinct_states(self) -> tuple[RecordState, ...]:
        """Record states in first-seen order, for the benchmark's tracer."""
        return tuple(map(self.state, range(self.state_count)))


def explore(model: Model, limits: ExplorationLimits | None = None) -> ReachabilityGraph:
    """Breadth-first closure of the initial state under all events.

    Events are expanded in declaration order, so two runs produce the same
    state and arc ordering, and the table assigns ids in the order states
    are first reached.  `max_states` bounds the distinct states kept and
    `max_depth` the length of the shortest path to an expanded state.
    States are kept exactly as the events write them, zero-weight worlds
    included.
    """
    limits = limits or ExplorationLimits()
    table = TransitionTable(model)
    table.intern_state(model.initial)
    occurred: list[int] = [0]
    depths: list[int] = [0]
    arcs: list[tuple[int, int, int]] = []
    truncated = False
    for src, depth in enumerate(depths):  # visits the states appended below too
        if depth >= limits.max_depth:  # ids are breadth-first, so depths never decrease
            truncated = True
            break
        for event, target in enumerate(table.row(src)):
            if target >= limits.max_states:
                truncated = True
                continue
            if target == len(depths):  # ids are handed out in this order
                occurred.append(occurred[src] | 1 << event)
                depths.append(depth + 1)
            arcs.append((src, event, target))
    return ReachabilityGraph(table, tuple(occurred), tuple(arcs), truncated)


def occurrence_masks(graph: ReachabilityGraph) -> tuple[list[int], list[int]]:
    """Per explored state, the event bitmask fired on some explored path to
    it and the event bitmask not fired on some explored path to it."""
    succ: list[list[tuple[int, int]]] = [[] for _ in graph.occurred]
    for src, event, tgt in graph.arcs:
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


def check_gs(graph: ReachabilityGraph) -> list[int]:
    """Indices of explored states that are not globally consistent under
    the model's consistency mode."""
    test = mode_mask(graph.model.space, graph.model.mode)
    return [sid for sid, worlds in enumerate(graph.feasible) if not worlds & test]


@dataclass(frozen=True)
class DiamondViolation:
    """Independent events e and f that lead from table state `state` to
    different states (`f_then_e`, `e_then_f`) in the two orders."""

    state: int
    e: str
    f: str
    f_then_e: int
    e_then_f: int


def check_diamond(graph: ReachabilityGraph, model: Model) -> list[DiamondViolation]:
    """Compare both application orders of every independent pair at every
    explored state; a mismatch is a commutation failure."""
    table = graph.table_for(model)
    events = model.events
    pairs = [
        (i, j)
        for i, e in enumerate(events)
        for j in range(i + 1, len(events))
        if independent(e, events[j])
    ]
    violations: list[DiamondViolation] = []
    if not pairs:
        return violations
    row = table.row
    for sid in range(graph.state_count):
        after = [row(target) for target in row(sid)]
        for e, f in pairs:
            f_then_e = after[f][e]
            e_then_f = after[e][f]
            if f_then_e == e_then_f or table.same(f_then_e, e_then_f):
                continue
            violations.append(DiamondViolation(sid, events[e].name, events[f].name, f_then_e, e_then_f))
    return violations


@dataclass(frozen=True)
class MonotonicityFinding:
    """Worlds an event added back to a site record instead of removing,
    with the table id of the state the event was applied to."""

    event: str
    site: int
    added: Subset
    state: int


def check_monotonicity(graph: ReachabilityGraph) -> list[MonotonicityFinding]:
    """Shrink-only violations on the explored arcs, one entry per
    (event, site, source state), in arc order and then support order.  An
    arc's added worlds are the target's packed bits that its source lacks."""
    table = graph.table
    packed, field = table.packed, table.field
    events = graph.model.events
    space = graph.model.space
    return [
        MonotonicityFinding(events[event].name, site, Subset(space, field(added, site)), src)
        for src, event, tgt in graph.arcs
        if (added := packed[tgt] & ~packed[src])
        for site in events[event].support
        if field(added, site)
    ]


@dataclass(frozen=True)
class ClockViolation:
    """An explored (source, event index, target) arc along which the
    feasible set's weight grows from `mu_source` to `mu_target`."""

    arc: tuple[int, int, int]
    mu_source: Fraction
    mu_target: Fraction


def check_clock_monotone(graph: ReachabilityGraph) -> list[ClockViolation]:
    """Arcs along which the feasible set gains weight, i.e. the
    information clock ticks backwards.  Empty whenever no edge violates
    shrink-only writing."""
    space = graph.model.space
    mus = [space.measure_mask(worlds) for worlds in graph.feasible]
    return [
        ClockViolation((src, event, tgt), mus[src], mus[tgt])
        for src, event, tgt in graph.arcs
        if mus[tgt] > mus[src]
    ]
