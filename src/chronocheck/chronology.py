"""Chronology derivation and the escape-taxonomy diagnosis.

The strict order `precedes` is the transitive closure of the strong
influence edges.  When it is acyclic, a linear extension assigns every
event a rank consistent with the order.  `diagnose` runs the whole
pipeline and classifies the model: no strong cycle, a cycle explained by
at least one failed premise (consistency, commutation, shrink-only
writing, branch determinacy), or a cycle that none of the premise checks
accounts for.
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

from .core import RecordState, Subset, mode_mask
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

    def rank(self, event: str) -> int:
        if self.linear_extension is None:
            raise ValueError("no linear extension: the strong graph is cyclic")
        for name, rank in self.linear_extension:
            if name == event:
                return rank
        raise ValueError(f"unknown event: {event!r}")

    def ranks(self) -> dict[str, int]:
        if self.linear_extension is None:
            raise ValueError("no linear extension: the strong graph is cyclic")
        return dict(self.linear_extension)


@dataclass
class CycleReport:
    cycles: list[tuple[str, ...]]

    @property
    def has_cycle(self) -> bool:
        return bool(self.cycles)


def _reachability(
    events: Sequence[str], edges: Iterable[tuple[str, str]]
) -> dict[str, set[str]]:
    adjacency: dict[str, list[str]] = {e: [] for e in events}
    order = {e: i for i, e in enumerate(events)}
    for src, dst in edges:
        if src not in adjacency or dst not in order:
            raise ValueError(f"edge ({src}, {dst}) references unknown events")
        adjacency[src].append(dst)
    for targets in adjacency.values():
        targets.sort(key=order.__getitem__)
    reach: dict[str, set[str]] = {}
    for start in events:
        seen: set[str] = set()
        queue = deque(adjacency[start])
        while queue:
            node = queue.popleft()
            if node in seen:
                continue
            seen.add(node)
            queue.extend(adjacency[node])
        reach[start] = seen  # successors via paths of length >= 1
    return reach


def closure_from_edges(
    events: Sequence[str], edges: Iterable[tuple[str, str]]
) -> Chronology:
    """Transitive closure of an edge set plus, when acyclic, a rank map
    with ties broken lexicographically by event name."""
    events = tuple(events)
    edge_list = list(edges)
    reach = _reachability(events, edge_list)
    precedes = frozenset(
        (src, dst) for src in events for dst in events if dst in reach[src]
    )
    acyclic = all(e not in reach[e] for e in events)
    extension = None
    if acyclic:
        indegree = {e: 0 for e in events}
        successors: dict[str, set[str]] = {e: set() for e in events}
        for src, dst in edge_list:
            if dst not in successors[src]:
                successors[src].add(dst)
                indegree[dst] += 1
        ready = [e for e in events if indegree[e] == 0]
        heapq.heapify(ready)
        ranks: list[tuple[str, int]] = []
        while ready:
            event = heapq.heappop(ready)
            ranks.append((event, len(ranks)))
            for nxt in sorted(successors[event]):
                indegree[nxt] -= 1
                if indegree[nxt] == 0:
                    heapq.heappush(ready, nxt)
        extension = tuple(ranks)
    return Chronology(events, precedes, acyclic, extension)


def cycles_from_edges(
    events: Sequence[str], edges: Iterable[tuple[str, str]]
) -> list[tuple[str, ...]]:
    """One representative cycle per strongly connected component of size
    at least two, each found as the shortest loop through the component's
    first event in declaration order."""
    events = tuple(events)
    edge_list = list(edges)
    reach = _reachability(events, edge_list)
    order = {e: i for i, e in enumerate(events)}
    adjacency: dict[str, list[str]] = {e: [] for e in events}
    for src, dst in edge_list:
        adjacency[src].append(dst)
    for targets in adjacency.values():
        targets.sort(key=order.__getitem__)
    assigned: set[str] = set()
    cycles: list[tuple[str, ...]] = []
    for anchor in events:
        if anchor in assigned or anchor not in reach[anchor]:
            continue
        component = {
            e for e in events if e in reach[anchor] and anchor in reach[e]
        } | {anchor}
        assigned |= component
        # shortest path anchor -> ... -> anchor inside the component
        parents: dict[str, str] = {}
        queue = deque([anchor])
        found = None
        visited = {anchor}
        while queue and found is None:
            node = queue.popleft()
            for nxt in adjacency[node]:
                if nxt not in component:
                    continue
                if nxt == anchor:
                    found = node
                    break
                if nxt not in visited:
                    visited.add(nxt)
                    parents[nxt] = node
                    queue.append(nxt)
        assert found is not None, "component member must close a loop"
        path = [found]
        while path[-1] != anchor:
            path.append(parents[path[-1]])
        cycles.append(tuple(reversed(path)))
    return cycles


def find_strong_cycles(ig: InfluenceGraph) -> CycleReport:
    return CycleReport(cycles_from_edges(ig.events, ig.strong_edges.keys()))


def transitive_closure(ig: InfluenceGraph) -> Chronology:
    return closure_from_edges(ig.events, ig.strong_edges.keys())


@dataclass(frozen=True)
class BDViolation:
    witness: StrongWitness
    state: RecordState
    polarity: str  # "e-occurred" or "e-not-occurred"
    expected: Subset
    actual: Subset


def check_branch_determinacy(
    model: Model, graph: ReachabilityGraph, ig: InfluenceGraph
) -> list[BDViolation]:
    """For each strong witness, scan every explored state whose records at
    the influenced event's support match the witness context, with the
    influencer fired on some path to the state or not fired on some path,
    and require the written branch constraint to agree with the witness
    branch.  A state is listed at most once per witness and polarity."""
    table = graph.table_for(model)
    fired, unfired = occurrence_masks(graph)
    violations: list[BDViolation] = []
    for witness in ig.strong_edges.values():
        violations.extend(_branch_violations(model, table, witness, fired, unfired))
    return violations


def _branch_violations(
    model: Model,
    table: TransitionTable,
    witness: StrongWitness,
    fired: list[int],
    unfired: list[int],
) -> list[BDViolation]:
    keep = mode_mask(model.space, model.mode)
    masks = table.masks
    e, f = model.event_names.index(witness.e), model.event_names.index(witness.f)
    support_f = model.events[f].support
    site, observable = witness.site, witness.observable.mask

    def context(sid: int) -> tuple[int, ...]:
        return tuple(masks[sid][s] & keep for s in support_f)

    base = witness.node_index
    expectations = (
        ("e-not-occurred", unfired, context(base), witness.branch0),
        ("e-occurred", fired, context(table.step(base, e)), witness.branch1),
    )
    violations = []
    for sid in range(len(fired)):
        for polarity, on_some_path, expected_context, expected in expectations:
            if not on_some_path[sid] >> e & 1 or context(sid) != expected_context:
                continue
            actual = masks[table.step(sid, f)][site] & observable
            if (actual ^ expected.mask) & keep:
                violations.append(
                    BDViolation(
                        witness, table.state(sid), polarity, expected, Subset(model.space, actual)
                    )
                )
    return violations


@dataclass
class TraceInvarianceReport:
    schedule: tuple[str, ...]
    seed: int
    final_state: RecordState
    variants_checked: int
    state_mismatches: list[tuple[tuple[str, ...], RecordState]]
    diamond_violations: list[DiamondViolation]

    @property
    def invariant(self) -> bool:
        return not (self.state_mismatches or self.diamond_violations)


def check_trace_invariance(
    model: Model,
    schedule: Sequence[str],
    swaps: int = 20,
    seed: int = 0,
    graph: ReachabilityGraph | None = None,
) -> TraceInvarianceReport:
    """Run a schedule, then every single swap of adjacent independent
    events plus seeded random chains of such swaps, and verify the final
    record state is unchanged.

    Influence edges are defined over the model's reachable states, which do
    not depend on a schedule, so they are not compared across variants.  A
    model that fails the commutation check cannot be trace-invariant, so in
    that case the commutation failures are reported and no variants are
    attempted.  `graph` is the model's explored graph; when it is omitted,
    the check explores the model once, with the default limits.
    """
    events = [model.event(name) for name in schedule]  # raises on unknown names
    if graph is None:
        graph = explore(model)
    diamonds = check_diamond(graph, model)
    schedule = tuple(schedule)
    table = graph.table
    final = _run_schedule(model, table, schedule)
    if diamonds:
        return TraceInvarianceReport(schedule, seed, table.state(final), 0, [], diamonds)

    variants: list[tuple[str, ...]] = []
    for k in range(len(events) - 1):
        if independent(events[k], events[k + 1]):
            swapped = list(schedule)
            swapped[k], swapped[k + 1] = swapped[k + 1], swapped[k]
            variants.append(tuple(swapped))
    rng = random.Random(seed)
    for _ in range(swaps):
        seq = list(schedule)
        for _ in range(max(1, len(seq))):
            positions = [
                k
                for k in range(len(seq) - 1)
                if independent(model.event(seq[k]), model.event(seq[k + 1]))
            ]
            if not positions:
                break
            k = rng.choice(positions)
            seq[k], seq[k + 1] = seq[k + 1], seq[k]
        variants.append(tuple(seq))

    unique_variants: list[tuple[str, ...]] = []
    for variant in variants:
        if variant != schedule and variant not in unique_variants:
            unique_variants.append(variant)

    keep = mode_mask(model.space, model.mode)
    state_mismatches: list[tuple[tuple[str, ...], RecordState]] = []
    for variant in unique_variants:
        variant_final = _run_schedule(model, table, variant)
        if not table.same(variant_final, final, keep):
            state_mismatches.append((variant, table.state(variant_final)))
    return TraceInvarianceReport(
        schedule, seed, table.state(final), len(unique_variants), state_mismatches, []
    )


def _run_schedule(model: Model, table: TransitionTable, schedule: Sequence[str]) -> int:
    sid = table.intern_state(model.initial)
    for name in schedule:
        sid = table.step(sid, model.event_names.index(name))
    return sid


class Verdict(Enum):
    NO_CYCLE = "NO_CYCLE"
    CYCLE_EXPLAINED = "CYCLE_EXPLAINED"
    THEOREM_VIOLATION_SUSPECTED = "THEOREM_VIOLATION_SUSPECTED"


@dataclass
class TaxonomyReport:
    model: Model
    graph: ReachabilityGraph
    influence: InfluenceGraph
    chronology: Chronology
    cycles: CycleReport
    has_strong_cycle: bool
    gs_violations: list[int]
    diamond_violations: list[DiamondViolation]
    monotonicity_violations: list[MonotonicityFinding]
    bd_violations: list[BDViolation]
    verdict: Verdict
    truncated: bool

    def premises_clean(self) -> bool:
        return not (
            self.gs_violations
            or self.diamond_violations
            or self.monotonicity_violations
            or self.bd_violations
        )

    def any_violations(self) -> bool:
        return not self.premises_clean()


def diagnose(model: Model, limits: ExplorationLimits | None = None) -> TaxonomyReport:
    """Full pipeline: explore, check all four premises, build influence
    graphs, detect strong cycles, and classify the outcome.

    Consistency is judged under `model.mode`.  All checks always run, so the
    report is complete even when an early premise already fails.
    """
    graph = explore(model, limits)
    monotonicity = check_monotonicity(graph)
    diamonds = check_diamond(graph, model)
    gs = check_gs(graph)
    ig = build_influence_graphs(model, graph)
    cycles = find_strong_cycles(ig)
    bd = check_branch_determinacy(model, graph, ig)
    chronology = transitive_closure(ig)
    if not cycles.has_cycle:
        verdict = Verdict.NO_CYCLE
    elif gs or diamonds or monotonicity or bd:
        verdict = Verdict.CYCLE_EXPLAINED
    else:
        verdict = Verdict.THEOREM_VIOLATION_SUSPECTED
    return TaxonomyReport(
        model=model,
        graph=graph,
        influence=ig,
        chronology=chronology,
        cycles=cycles,
        has_strong_cycle=cycles.has_cycle,
        gs_violations=gs,
        diamond_violations=diamonds,
        monotonicity_violations=monotonicity,
        bd_violations=bd,
        verdict=verdict,
        truncated=graph.truncated,
    )
