"""Chronology derivation and the escape-taxonomy diagnosis.

The strict order `precedes` is the transitive closure of the strong
influence edges.  When it is acyclic, a linear extension assigns every
event a rank consistent with the order; when it is not, one shortest loop
per strongly connected component represents the strong cycles.
`closure_from_edges` derives all of these from one adjacency and one
reachability map.  `diagnose` runs the whole pipeline into a
`TaxonomyReport`, whose verdict is derived from the chronology and the
premise findings alone: no strong cycle, a cycle explained by at least one
failed premise (consistency, commutation, shrink-only writing, branch
determinacy), or a cycle that none of the premise checks accounts for.
Every per-state premise check runs on the graph's lanes
(`reachability.Lanes`), branch determinacy here included, and none steps
past the explored states.
`check_trace_invariance` decides, in one pass over the ideals of a
schedule's dependence order, whether every reordering of the schedule
within its trace reaches the same state; it steps a transition table
alone, explores nothing, and its report names the states it reached by
table id.
The other checks take the explored graph and read the model it was
explored from as `graph.model`; only `diagnose` starts from a model.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Sequence

from .core import Subset
from .events import independent
from .influence import InfluenceGraph, StrongWitness, build_influence_graphs
from .model import Model
from .reachability import (
    DiamondViolation,
    ExplorationLimits,
    MonotonicityFinding,
    ReachabilityGraph,
    TransitionTable,
    check_diamond,
    check_gs,
    check_monotonicity,
    explore,
    occurrence_masks,
)


@dataclass(frozen=True)
class Chronology:
    events: tuple[str, ...]
    precedes: frozenset[tuple[str, str]]
    acyclic: bool
    linear_extension: tuple[tuple[str, int], ...] | None
    cycles: tuple[tuple[str, ...], ...]

    def ranks(self) -> dict[str, int]:
        if self.linear_extension is None:
            raise ValueError("no linear extension: the strong graph is cyclic")
        return dict(self.linear_extension)


def closure_from_edges(
    events: Sequence[str], edges: Iterable[tuple[str, str]]
) -> Chronology:
    """The one analysis of an edge set: its transitive closure and whether
    it is acyclic, then either a rank map with ties broken lexicographically
    by event name, or one representative cycle per strongly connected
    component of size at least two, each the shortest loop through the
    component's first event in declaration order.

    Everything is derived from one de-duplicated adjacency, sorted by
    declaration order, and one reachability map over it."""
    events = tuple(events)
    order = {e: i for i, e in enumerate(events)}
    successors: dict[str, set[str]] = {e: set() for e in events}
    for src, dst in edges:
        if src not in successors or dst not in order:
            raise ValueError(f"edge ({src}, {dst}) references unknown events")
        successors[src].add(dst)
    adjacency = {e: sorted(targets, key=order.__getitem__) for e, targets in successors.items()}
    reach: dict[str, set[str]] = {}
    for start in events:
        seen: set[str] = set()
        stack = list(adjacency[start])
        while stack:
            node = stack.pop()
            if node not in seen:
                seen.add(node)
                stack.extend(adjacency[node])
        reach[start] = seen  # successors via paths of length >= 1
    precedes = frozenset((src, dst) for src in events for dst in reach[src])
    acyclic = all(e not in reach[e] for e in events)
    extension = None
    cycles: list[tuple[str, ...]] = []
    if acyclic:
        indegree = dict.fromkeys(events, 0)
        for targets in adjacency.values():
            for dst in targets:
                indegree[dst] += 1
        ready = [e for e in events if indegree[e] == 0]
        heapq.heapify(ready)
        ranks: list[tuple[str, int]] = []
        while ready:
            event = heapq.heappop(ready)
            ranks.append((event, len(ranks)))
            for nxt in adjacency[event]:
                indegree[nxt] -= 1
                if indegree[nxt] == 0:
                    heapq.heappush(ready, nxt)
        extension = tuple(ranks)
    else:
        assigned: set[str] = set()
        for anchor in events:
            if anchor in reach[anchor] and anchor not in assigned:
                assigned |= {e for e in reach[anchor] if anchor in reach[e]}
                cycles.append(_shortest_loop(anchor, adjacency))
    return Chronology(events, precedes, acyclic, extension, tuple(cycles))


def _shortest_loop(anchor: str, adjacency: dict[str, list[str]]) -> tuple[str, ...]:
    """Shortest path anchor -> ... -> anchor, found breadth first with
    successors in adjacency order; `anchor` must reach itself."""
    parents = {anchor: anchor}
    queue = deque([anchor])
    while True:
        node = queue.popleft()
        if anchor in adjacency[node]:
            break
        for nxt in adjacency[node]:
            if nxt not in parents:
                parents[nxt] = node
                queue.append(nxt)
    path = [node]
    while path[-1] != anchor:
        path.append(parents[path[-1]])
    return tuple(reversed(path))


def transitive_closure(ig: InfluenceGraph) -> Chronology:
    return closure_from_edges(ig.events, ig.strong_edges.keys())


@dataclass(frozen=True)
class BDViolation:
    """A state, by table id, whose branch constraint at the witness site
    differs from the witness branch of its polarity."""

    witness: StrongWitness
    state: int
    polarity: str  # "e-occurred" or "e-not-occurred"
    expected: Subset
    actual: Subset


def check_branch_determinacy(graph: ReachabilityGraph, ig: InfluenceGraph) -> list[BDViolation]:
    """For each strong witness, find every explored state whose records at
    the influenced event's support match the witness context, with the
    influencer fired on some path to the state or not fired on some path,
    and whose written branch constraint disagrees with the witness branch.
    Findings are state-major per witness, and a state is listed at most
    once per witness and polarity.

    The lanes give the states where the context matches and the write is
    off the branch (`_off_branch`).  Only if some state is left does the
    event-occurrence fixpoint (`occurrence_masks`) run, once, and it is
    read for those states alone."""
    if not ig.strong_edges:
        return []
    violations: list[BDViolation] = []
    fired = unfired = None
    space, names = graph.model.space, graph.model.event_names
    for witness in ig.strong_edges.values():
        candidates = _off_branch(graph, witness)
        if candidates and fired is None:
            fired, unfired = occurrence_masks(graph)
        e = names.index(witness.e)
        for sid, occurred, written in candidates:
            if (fired if occurred else unfired)[sid] >> e & 1:
                polarity = "e-occurred" if occurred else "e-not-occurred"
                expected = witness.branch1 if occurred else witness.branch0
                violations.append(BDViolation(witness, sid, polarity, expected, Subset(space, written)))
    return violations


def _off_branch(graph: ReachabilityGraph, witness: StrongWitness) -> list[tuple[int, int, int]]:
    """(state, occurred, written) triples in state order, `occurred` 0 for
    the e-not-occurred polarity and 1 for e-occurred: the explored states
    whose records on f's support, at the worlds that count, equal the
    witness state's (after e, for e-occurred), and where f writes `written`
    on the observable, which differs from that polarity's witness branch at
    a counted world."""
    table, lanes = graph.table, graph.lanes
    names, keep = table.model.event_names, table.keep
    e, f = names.index(witness.e), names.index(witness.f)
    # f's records with only the worlds that count, as one packed mask
    context = table.supports[f] & keep
    # the observable and both branches, packed once at the witness site
    site = witness.site
    observable, branch0, branch1 = (
        table.pack(((site, sub),))
        for sub in (witness.observable, witness.branch0, witness.branch1)
    )
    base = witness.state
    contexts = (table.packed[base] & context, lanes.lane(lanes.after(e), base) & context)
    at_context = lanes.x & lanes.spread(context)
    written = lanes.after(f) & lanes.spread(observable)
    counted = lanes.spread(keep)
    found = []
    for occurred, (expected, branch) in enumerate(zip(contexts, (branch0, branch1))):
        matching = lanes.nonzero(at_context ^ lanes.spread(expected)) ^ lanes.rep
        off = lanes.nonzero((written ^ lanes.spread(branch)) & counted)
        found += [(sid, occurred) for sid in lanes.flagged(matching & off, 0)]
    if not found:
        return []
    found.sort()
    values = lanes.read(written, [sid for sid, _ in found])
    return [(sid, occurred, table.field(value, site)) for (sid, occurred), value in zip(found, values)]


@dataclass
class TraceInvarianceReport:
    """`final_state` and the state of each `state_mismatches` entry are ids
    of `table`, the transition table the pass stepped; `table.state(id)`
    builds the records of one.  A `truncated` pass stopped before the full
    ideal and decides nothing."""

    schedule: tuple[str, ...]
    final_state: int
    ideals_visited: int
    truncated: bool
    state_mismatches: list[tuple[tuple[str, ...], int]]
    table: TransitionTable = field(compare=False, repr=False)

    @property
    def invariant(self) -> bool:
        return not (self.truncated or self.state_mismatches)


def check_trace_invariance(
    table: TransitionTable, schedule: Sequence[str], limits: ExplorationLimits | None = None
) -> TraceInvarianceReport:
    """Decide whether every reordering of `schedule` within its trace, one
    that keeps each pair of dependent events in order, reaches the state
    the schedule reaches, compared exactly.

    Every such linearization passes through the ideals (downsets) of the
    schedule's dependence order, where positions i < j are ordered when
    their events are not independent.  One breadth-first pass over the
    ideals, each a bitmask of positions, keeps the table ids each ideal
    reaches with the first linearization that reached each id; positions
    are tried in ascending order, so that linearization is deterministic.
    The full ideal's ids other than the schedule's own are the mismatches.
    The pass visits at most `limits.max_states` ideals and reports
    `truncated` when it stops early.  Everything runs on `table`, from its
    model's initial state; rows it has not filled yet are filled on first
    step, so a fresh table and an explored graph's table give equal reports.
    """
    limits = limits or ExplorationLimits()
    model = table.model
    schedule = tuple(schedule)
    # raises on unknown names
    indices = [model.events.index(model.event(name)) for name in schedule]
    events = [model.events[i] for i in indices]
    start = final = table.intern_state(model.initial)
    for event in indices:
        final = table.step(final, event)
    # the earlier positions that position j must follow
    before = [
        sum(1 << i for i in range(j) if not independent(events[i], events[j]))
        for j in range(len(events))
    ]
    reached = {0: {start: ()}}
    ideals = [0]  # visited in insertion order, by size; the full ideal comes last
    for visited, ideal in enumerate(ideals):
        if visited == limits.max_states:
            return TraceInvarianceReport(schedule, final, visited, True, [], table)
        here = reached.pop(ideal)
        for pos, event in enumerate(indices):
            if ideal >> pos & 1 or before[pos] & ~ideal:
                continue
            nxt = ideal | 1 << pos
            if nxt not in reached:
                ideals.append(nxt)
            targets = reached.setdefault(nxt, {})
            for sid, path in here.items():
                targets.setdefault(table.step(sid, event), path + (pos,))
    # `here` holds the full ideal's ids now
    mismatches = [
        (tuple(schedule[pos] for pos in path), sid) for sid, path in here.items() if sid != final
    ]
    return TraceInvarianceReport(schedule, final, len(ideals), False, mismatches, table)


class Verdict(Enum):
    NO_CYCLE = "NO_CYCLE"
    CYCLE_EXPLAINED = "CYCLE_EXPLAINED"
    THEOREM_VIOLATION_SUSPECTED = "THEOREM_VIOLATION_SUSPECTED"


@dataclass
class TaxonomyReport:
    graph: ReachabilityGraph
    influence: InfluenceGraph
    chronology: Chronology
    gs_violations: list[int]
    diamond_violations: list[DiamondViolation]
    monotonicity_violations: list[MonotonicityFinding]
    bd_violations: list[BDViolation]

    @property
    def truncated(self) -> bool:
        return self.graph.truncated

    @property
    def has_strong_cycle(self) -> bool:
        return not self.chronology.acyclic

    def premises_clean(self) -> bool:
        return not (
            self.gs_violations
            or self.diamond_violations
            or self.monotonicity_violations
            or self.bd_violations
        )

    @property
    def verdict(self) -> Verdict:
        """No strong cycle; a cycle with some failed premise to explain it;
        or a cycle that no premise check accounts for."""
        if self.chronology.acyclic:
            return Verdict.NO_CYCLE
        if self.premises_clean():
            return Verdict.THEOREM_VIOLATION_SUSPECTED
        return Verdict.CYCLE_EXPLAINED


def diagnose(model: Model, limits: ExplorationLimits | None = None) -> TaxonomyReport:
    """Full pipeline: explore, check all four premises, build influence
    graphs and derive the chronology; the report's `verdict` classifies the
    outcome.

    Consistency is judged under `model.mode`.  All checks always run, so the
    report is complete even when an early premise already fails.
    """
    graph = explore(model, limits)
    monotonicity = check_monotonicity(graph)
    diamonds = check_diamond(graph)
    gs = check_gs(graph)
    ig = build_influence_graphs(model, graph)
    bd = check_branch_determinacy(graph, ig)
    return TaxonomyReport(
        graph=graph,
        influence=ig,
        chronology=transitive_closure(ig),
        gs_violations=gs,
        diamond_violations=diamonds,
        monotonicity_violations=monotonicity,
        bd_violations=bd,
    )
