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
`check_trace_invariance` runs a schedule and its reorderings on the
transition table, and its report names the states it reached by id.
"""

from __future__ import annotations

import heapq
import random
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


def check_branch_determinacy(
    model: Model, graph: ReachabilityGraph, ig: InfluenceGraph
) -> list[BDViolation]:
    """For each strong witness, scan every explored state whose records at
    the influenced event's support match the witness context, with the
    influencer fired on some path to the state or not fired on some path,
    and require the written branch constraint to agree with the witness
    branch.  A state is listed at most once per witness and polarity."""
    table = graph.table_for(model)
    if not ig.strong_edges:
        return []
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
    packed, keep = table.packed, table.keep
    e, f = model.event_names.index(witness.e), model.event_names.index(witness.f)
    # f's records with only the worlds that count, as one packed mask
    context = table.supports[f] & keep
    # the observable and both branches, packed once at the witness site
    site = witness.site
    observable, branch0, branch1 = (
        table.pack(((site, sub),))
        for sub in (witness.observable, witness.branch0, witness.branch1)
    )
    base = witness.state
    expectations = (
        ("e-not-occurred", unfired, packed[base] & context, witness.branch0, branch0),
        ("e-occurred", fired, packed[table.step(base, e)] & context, witness.branch1, branch1),
    )
    violations = []
    for sid in range(len(fired)):
        for polarity, on_some_path, expected_context, expected, branch in expectations:
            if not on_some_path[sid] >> e & 1 or packed[sid] & context != expected_context:
                continue
            actual = packed[table.step(sid, f)] & observable
            if (actual ^ branch) & keep:
                violations.append(
                    BDViolation(
                        witness,
                        sid,
                        polarity,
                        expected,
                        Subset(model.space, table.field(actual, site)),
                    )
                )
    return violations


@dataclass
class TraceInvarianceReport:
    """`final_state`, the state of each `state_mismatches` entry and the
    states of `diamond_violations` are ids of `graph`, the explored graph
    the check read; `graph.state(id)` builds the records of one."""

    schedule: tuple[str, ...]
    seed: int
    final_state: int
    variants_checked: int
    state_mismatches: list[tuple[tuple[str, ...], int]]
    diamond_violations: list[DiamondViolation]
    graph: ReachabilityGraph = field(compare=False, repr=False)

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
    the check explores the model once, with the default limits.  A
    negative `swaps` raises `ValueError`.
    """
    if swaps < 0:
        raise ValueError("swaps must not be negative")
    for name in schedule:
        model.event(name)  # raises on unknown names
    if graph is None:
        graph = explore(model)
    diamonds = check_diamond(graph, model)
    schedule = tuple(schedule)
    table = graph.table
    final = _run_schedule(model, table, schedule)
    if diamonds:
        return TraceInvarianceReport(schedule, seed, final, 0, [], diamonds, graph)

    def swappable(seq: Sequence[str]) -> list[int]:
        """Positions k where events seq[k] and seq[k + 1] are independent."""
        return [
            k
            for k in range(len(seq) - 1)
            if independent(model.event(seq[k]), model.event(seq[k + 1]))
        ]

    variants: list[tuple[str, ...]] = []
    for k in swappable(schedule):
        seq = list(schedule)
        seq[k], seq[k + 1] = seq[k + 1], seq[k]
        variants.append(tuple(seq))
    rng = random.Random(seed)
    for _ in range(swaps):
        seq = list(schedule)
        for _ in range(max(1, len(seq))):
            positions = swappable(seq)
            if not positions:
                break
            k = rng.choice(positions)
            seq[k], seq[k + 1] = seq[k + 1], seq[k]
        variants.append(tuple(seq))
    unique_variants = [variant for variant in dict.fromkeys(variants) if variant != schedule]

    state_mismatches: list[tuple[tuple[str, ...], int]] = []
    for variant in unique_variants:
        variant_final = _run_schedule(model, table, variant)
        if not table.same(variant_final, final):
            state_mismatches.append((variant, variant_final))
    return TraceInvarianceReport(
        schedule, seed, final, len(unique_variants), state_mismatches, [], graph
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
    diamonds = check_diamond(graph, model)
    gs = check_gs(graph)
    ig = build_influence_graphs(model, graph)
    bd = check_branch_determinacy(model, graph, ig)
    return TaxonomyReport(
        model=model,
        graph=graph,
        influence=ig,
        chronology=transitive_closure(ig),
        gs_violations=gs,
        diamond_violations=diamonds,
        monotonicity_violations=monotonicity,
        bd_violations=bd,
    )
