"""Explicit-state exploration of the transition system over record states.

Every transition comes from one `TransitionTable` per exploration: record
states are interned as tuples of integer world masks, each event is
compiled once into a function on those tuples, and `TransitionTable.step`
is the only engine code that applies an event.  Exploration and every
check read the table; `Subset` and `RecordState` values are built only for
the graph's nodes, witnesses and findings.

Nodes pair a record state with the set of events executed at least once on
the way there; the pair is the dedup key.  Keeping occurrence flags in the
node identity costs up to a 2^|events| blowup but is what lets the
branch-determinacy check distinguish histories in which a given event has
or has not already fired.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .core import RecordState, Subset, mode_mask
from .events import MaskState, MaskViolations, MonotonicityViolation, compile_event, independent
from .model import Model


class TransitionTable:
    """Successor state ids and shrink-only violations of every event at every
    record state the engine visits, filled on first lookup.

    States are interned to integer ids in first-seen order; `masks[sid]`
    holds one world mask per site.  Lookups work for any interned state, so
    checks may step past a truncated exploration frontier.
    """

    def __init__(self, model: Model) -> None:
        self.model = model
        self.masks: list[MaskState] = []
        self._apply = [compile_event(event) for event in model.events]
        self._ids: dict[MaskState, int] = {}
        self._succ: list[list[int]] = []
        self._violations: list[list[MaskViolations]] = []
        self._states: dict[int, RecordState] = {}

    def _intern(self, masks: MaskState) -> int:
        sid = self._ids.get(masks)
        if sid is None:
            sid = len(self.masks)
            self._ids[masks] = sid
            self.masks.append(masks)
            self._succ.append([-1] * len(self._apply))
            self._violations.append([()] * len(self._apply))
        return sid

    def intern_state(self, state: RecordState) -> int:
        """Id of `state`, assigned on first sight."""
        return self._intern(tuple(rec.mask for rec in state))

    def step(self, sid: int, event: int) -> int:
        """Id of the state reached by event index `event` from state `sid`."""
        target = self._succ[sid][event]
        if target < 0:
            nxt, added = self._apply[event](self.masks[sid])
            target = self._intern(nxt)
            self._succ[sid][event] = target
            self._violations[sid][event] = added
        return target

    def row(self, sid: int) -> list[int]:
        """Successor ids of every event from `sid`, in event order."""
        row = self._succ[sid]
        if -1 in row:
            for event in range(len(row)):
                self.step(sid, event)
        return row

    def violations(self, sid: int, event: int) -> MaskViolations:
        """(site, added mask) pairs for every shrink-only violation of the step."""
        self.step(sid, event)
        return self._violations[sid][event]

    def same(self, a: int, b: int, keep: int) -> bool:
        """True iff states `a` and `b` agree on every world in `keep`."""
        return a == b or all(not (x ^ y) & keep for x, y in zip(self.masks[a], self.masks[b]))

    def state(self, sid: int) -> RecordState:
        """The state as a `RecordState`, one shared value per id."""
        state = self._states.get(sid)
        if state is None:
            space = self.model.space
            state = RecordState(tuple(Subset(space, mask) for mask in self.masks[sid]))
            self._states[sid] = state
        return state


@dataclass(frozen=True)
class Node:
    state: RecordState
    occurred: frozenset[str]


@dataclass(frozen=True)
class Edge:
    source: int
    event: str
    target: int
    violations: tuple[MonotonicityViolation, ...]


@dataclass(frozen=True)
class ExplorationLimits:
    max_nodes: int = 100_000
    max_depth: int = 64

    def __post_init__(self) -> None:
        if self.max_nodes <= 0 or self.max_depth <= 0:
            raise ValueError("exploration limits must be positive")


@dataclass(frozen=True, eq=False)
class ReachabilityGraph:
    """Explored nodes and edges over one transition table.

    Node i is the table state `node_states[i]` together with the bitmask
    `node_occurred[i]` of event indices that have occurred; each arc is a
    (source node, event index, target node) triple.  `nodes` carries the
    same nodes as values; `edges` is built from the arcs on first access.
    """

    table: TransitionTable
    nodes: tuple[Node, ...]
    node_states: tuple[int, ...]
    node_occurred: tuple[int, ...]
    arcs: tuple[tuple[int, int, int], ...]
    truncated: bool

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ReachabilityGraph):
            return NotImplemented
        return (self.nodes, self.edges, self.truncated) == (
            other.nodes,
            other.edges,
            other.truncated,
        )

    @property
    def model(self) -> Model:
        return self.table.model

    @property
    def initial(self) -> Node:
        return self.nodes[0]

    @cached_property
    def first_nodes(self) -> dict[int, int]:
        """Node index of the first node of each distinct state id, in
        first-seen order."""
        first: dict[int, int] = {}
        for idx, sid in enumerate(self.node_states):
            first.setdefault(sid, idx)
        return first

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        names = self.model.event_names
        space = self.model.space
        table = self.table
        violations: dict[tuple[int, int], tuple[MonotonicityViolation, ...]] = {}
        edges = []
        for src, event, tgt in self.arcs:
            key = (self.node_states[src], event)
            found = violations.get(key)
            if found is None:
                found = tuple(
                    MonotonicityViolation(names[event], site, Subset(space, added))
                    for site, added in table.violations(*key)
                )
                violations[key] = found
            edges.append(Edge(src, names[event], tgt, found))
        return tuple(edges)

    def table_for(self, model: Model) -> TransitionTable:
        """The graph's transition table, checked to apply `model`'s events."""
        if model.events != self.model.events:
            raise ValueError("the graph was explored from a model with other events")
        return self.table

    def distinct_states(self) -> tuple[RecordState, ...]:
        """Record states in first-seen order, each listed once."""
        return tuple(self.table.state(sid) for sid in self.first_nodes)


def _feasible(masks: MaskState) -> int:
    feasible = -1
    for mask in masks:
        feasible &= mask
    return feasible


def explore(model: Model, limits: ExplorationLimits | None = None) -> ReachabilityGraph:
    """Breadth-first closure of the initial node under all events.

    Events are expanded in declaration order, so two runs produce the same
    node and edge ordering.  States are kept exactly as the events write
    them, zero-weight worlds included.
    """
    limits = limits or ExplorationLimits()
    table = TransitionTable(model)
    n_events = len(model.events)
    init = table.intern_state(model.initial)
    states: list[int] = [init]
    occurred: list[int] = [0]
    depths: list[int] = [0]
    index: dict[int, int] = {init << n_events: 0}
    arcs: list[tuple[int, int, int]] = []
    truncated = False
    queue: deque[int] = deque([0])
    while queue:
        src = queue.popleft()
        if depths[src] >= limits.max_depth:
            if n_events:
                truncated = True
            continue
        occ = occurred[src]
        depth = depths[src] + 1
        for event, target in enumerate(table.row(states[src])):
            target_occ = occ | 1 << event
            key = target << n_events | target_occ
            tgt = index.get(key)
            if tgt is None:
                if len(states) >= limits.max_nodes:
                    truncated = True
                    continue
                tgt = len(states)
                index[key] = tgt
                states.append(target)
                occurred.append(target_occ)
                depths.append(depth)
                queue.append(tgt)
            arcs.append((src, event, tgt))
    names = model.event_names
    occurred_sets: dict[int, frozenset[str]] = {}
    nodes = []
    for sid, occ in zip(states, occurred):
        names_fired = occurred_sets.get(occ)
        if names_fired is None:
            names_fired = frozenset(n for i, n in enumerate(names) if occ >> i & 1)
            occurred_sets[occ] = names_fired
        nodes.append(Node(table.state(sid), names_fired))
    return ReachabilityGraph(
        table, tuple(nodes), tuple(states), tuple(occurred), tuple(arcs), truncated
    )


def check_gs(graph: ReachabilityGraph) -> list[int]:
    """Indices of explored nodes whose state is not globally consistent
    under the model's consistency mode."""
    test = mode_mask(graph.model.space, graph.model.mode)
    masks = graph.table.masks
    inconsistent = {sid for sid in graph.first_nodes if not _feasible(masks[sid]) & test}
    return [i for i, sid in enumerate(graph.node_states) if sid in inconsistent]


@dataclass(frozen=True)
class DiamondViolation:
    state: RecordState
    e: str
    f: str
    f_then_e: RecordState
    e_then_f: RecordState


def check_diamond(graph: ReachabilityGraph, model: Model) -> list[DiamondViolation]:
    """Compare both application orders of every independent pair at every
    explored state; a mismatch is a commutation failure."""
    table = graph.table_for(model)
    keep = mode_mask(model.space, model.mode)
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
    step = table.step
    for sid in graph.first_nodes:
        for e, f in pairs:
            f_then_e = step(step(sid, f), e)
            e_then_f = step(step(sid, e), f)
            if table.same(f_then_e, e_then_f, keep):
                continue
            violations.append(
                DiamondViolation(
                    table.state(sid),
                    events[e].name,
                    events[f].name,
                    table.state(f_then_e),
                    table.state(e_then_f),
                )
            )
    return violations


@dataclass(frozen=True)
class MonotonicityFinding:
    event: str
    site: int
    added: Subset
    state: RecordState


def check_monotonicity(graph: ReachabilityGraph) -> list[MonotonicityFinding]:
    """Union of violations recorded on edges, one entry per
    (event, site, source state)."""
    table = graph.table
    names = graph.model.event_names
    space = graph.model.space
    events = range(len(names))
    pending = {
        (sid, event)
        for sid in graph.first_nodes
        for event in events
        if table.violations(sid, event)
    }
    findings: list[MonotonicityFinding] = []
    node_states = graph.node_states
    for src, event, _ in graph.arcs:
        if not pending:
            break
        key = (node_states[src], event)
        if key in pending:
            pending.remove(key)
            for site, added in table.violations(*key):
                findings.append(
                    MonotonicityFinding(
                        names[event], site, Subset(space, added), table.state(key[0])
                    )
                )
    return findings


@dataclass(frozen=True)
class ClockViolation:
    edge: Edge
    mu_source: Fraction
    mu_target: Fraction


def check_clock_monotone(graph: ReachabilityGraph) -> list[ClockViolation]:
    """Edges along which the feasible set gains weight, i.e. the
    information clock ticks backwards.  Empty whenever no edge violates
    shrink-only writing."""
    space = graph.model.space
    masks = graph.table.masks
    mus = {sid: space.measure_mask(_feasible(masks[sid])) for sid in graph.first_nodes}
    node_states = graph.node_states
    violations = []
    for idx, (src, _, tgt) in enumerate(graph.arcs):
        mu_source, mu_target = mus[node_states[src]], mus[node_states[tgt]]
        if mu_target > mu_source:
            violations.append(ClockViolation(graph.edges[idx], mu_source, mu_target))
    return violations
