"""JSON-friendly serialization of states, witnesses, violations, and the
full command report.  Field order is fixed so equal inputs produce
byte-identical documents.

Witnesses and findings name states by table id.  The writers take the
explored graph, read the model's site and event names from `graph.model`,
and resolve only the ids they write: a state's labels through
`state_json`, which reads each site's world mask off the table's packed
value and names it through `PossibilitySpace.labels_of`, so it builds no
`RecordState` and no `Subset`; and the events on the path that first
reached an explored state through `ReachabilityGraph.occurred_names`.
Only `clock_json` builds records, to weigh an arc's two ends.
`trace_json` hands `state_json` the transition table its pass stepped."""

from __future__ import annotations

import math
from typing import Any

from .chronology import BDViolation, Chronology, TaxonomyReport, TraceInvarianceReport
from .core import information_content
from .influence import InfluenceGraph, StrongWitness, WeakWitness
from .modelfile import dumps_indented
from .reachability import (
    ClockViolation,
    DiamondViolation,
    MonotonicityFinding,
    ReachabilityGraph,
    TransitionTable,
)


def state_json(graph: ReachabilityGraph | TransitionTable, sid: int) -> dict[str, list[str]]:
    """Each site's world labels at table state `sid`, read off its packed
    value."""
    table = graph.table if isinstance(graph, ReachabilityGraph) else graph
    model, value, field = table.model, table.packed[sid], table.field
    labels_of = model.space.labels_of
    return {name: list(labels_of(field(value, site))) for site, name in enumerate(model.sites)}


def node_json(graph: ReachabilityGraph, sid: int) -> dict[str, Any]:
    return {"state": state_json(graph, sid), "occurred": graph.occurred_names(sid)}


def _info_json(value: float) -> Any:
    return "inf" if math.isinf(value) else value


def weak_witness_json(graph: ReachabilityGraph, w: WeakWitness) -> dict[str, Any]:
    return {
        "e": w.e,
        "f": w.f,
        "site": graph.model.sites[w.site],
        "node": node_json(graph, w.state),
        "delta_without": w.delta_without.sorted_labels(),
        "delta_with": w.delta_with.sorted_labels(),
    }


def strong_witness_json(graph: ReachabilityGraph, w: StrongWitness) -> dict[str, Any]:
    return {
        "e": w.e,
        "f": w.f,
        "site": graph.model.sites[w.site],
        "node": node_json(graph, w.state),
        "observable": w.observable.sorted_labels(),
        "branch0": w.branch0.sorted_labels(),
        "branch1": w.branch1.sorted_labels(),
    }


def monotonicity_json(graph: ReachabilityGraph, finding: MonotonicityFinding) -> dict[str, Any]:
    return {
        "event": finding.event,
        "site": graph.model.sites[finding.site],
        "added": finding.added.sorted_labels(),
        "state": state_json(graph, finding.state),
    }


def monotonicity_causes_json(
    graph: ReachabilityGraph, findings: list[MonotonicityFinding]
) -> list[dict[str, Any]]:
    """One entry per (event, site) cause of `findings`: the fields of its
    first finding, then `count`, the number of its findings; entries keep
    the order of their first findings."""
    causes: dict[tuple[str, int], dict[str, Any]] = {}
    for finding in findings:
        key = (finding.event, finding.site)
        if key in causes:
            causes[key]["count"] += 1
        else:
            causes[key] = {**monotonicity_json(graph, finding), "count": 1}
    return list(causes.values())


def diamond_json(graph: ReachabilityGraph, violation: DiamondViolation) -> dict[str, Any]:
    return {
        "e": violation.e,
        "f": violation.f,
        "state": state_json(graph, violation.state),
        "f_then_e": state_json(graph, violation.f_then_e),
        "e_then_f": state_json(graph, violation.e_then_f),
    }


def clock_json(graph: ReachabilityGraph, v: ClockViolation) -> dict[str, Any]:
    src, event, tgt = v.arc
    return {
        "event": graph.model.event_names[event],
        "source": node_json(graph, src),
        "target": node_json(graph, tgt),
        "mu_source": str(v.mu_source),
        "mu_target": str(v.mu_target),
        "info_source": _info_json(information_content(graph.state(src))),
        "info_target": _info_json(information_content(graph.state(tgt))),
    }


def bd_violation_json(graph: ReachabilityGraph, v: BDViolation) -> dict[str, Any]:
    return {
        "e": v.witness.e,
        "f": v.witness.f,
        "site": graph.model.sites[v.witness.site],
        "polarity": v.polarity,
        "state": state_json(graph, v.state),
        "expected": v.expected.sorted_labels(),
        "actual": v.actual.sorted_labels(),
    }


def influence_json(graph: ReachabilityGraph, ig: InfluenceGraph) -> dict[str, Any]:
    return {
        "weak_edges": [weak_witness_json(graph, w) for w in ig.weak_edges.values()],
        "strong_edges": [strong_witness_json(graph, w) for w in ig.strong_edges.values()],
    }


def chronology_json(chronology: Chronology) -> dict[str, Any]:
    order = {name: i for i, name in enumerate(chronology.events)}
    precedes = sorted(chronology.precedes, key=lambda p: (order[p[0]], order[p[1]]))
    extension: Any = None
    if chronology.linear_extension is not None:
        extension = {name: rank for name, rank in chronology.linear_extension}
    return {
        "acyclic": chronology.acyclic,
        "precedes": [[a, b] for a, b in precedes],
        "linear_extension": extension,
    }


def cycles_json(
    graph: ReachabilityGraph, ig: InfluenceGraph, cycles: tuple[tuple[str, ...], ...]
) -> list[dict]:
    out = []
    for cycle in cycles:
        edges = []
        for i, src in enumerate(cycle):
            dst = cycle[(i + 1) % len(cycle)]
            edges.append(strong_witness_json(graph, ig.strong_edges[(src, dst)]))
        out.append({"events": list(cycle), "edges": edges})
    return out


def graph_summary_json(graph: ReachabilityGraph) -> dict[str, Any]:
    return {
        "nodes": graph.state_count,
        "edges": graph.arc_count,
        "truncated": graph.truncated,
    }


def taxonomy_json(report: TaxonomyReport) -> dict[str, Any]:
    graph = report.graph
    return {
        "verdict": report.verdict.value,
        "has_strong_cycle": report.has_strong_cycle,
        "truncated": report.truncated,
        "exploration": graph_summary_json(graph),
        "gs_violations": [node_json(graph, i) for i in report.gs_violations],
        "diamond_violations": [diamond_json(graph, v) for v in report.diamond_violations],
        "monotonicity_violations": monotonicity_causes_json(graph, report.monotonicity_violations),
        "bd_violations": [bd_violation_json(graph, v) for v in report.bd_violations],
        "influence": influence_json(graph, report.influence),
        "chronology": chronology_json(report.chronology),
        "cycles": cycles_json(graph, report.influence, report.chronology.cycles),
    }


def trace_json(report: TraceInvarianceReport) -> dict[str, Any]:
    table = report.table
    return {
        "schedule": list(report.schedule),
        "ideals_visited": report.ideals_visited,
        "truncated": report.truncated,
        "final_state": state_json(table, report.final_state),
        "state_mismatches": [
            {"schedule": list(schedule), "final_state": state_json(table, state)}
            for schedule, state in report.state_mismatches
        ],
        "invariant": report.invariant,
    }


def influence_notes(ig: InfluenceGraph) -> list[str]:
    """Surface pairs with weak but no strong influence: a dependence was
    observed, but no reachable state yields two nonempty exclusive branch
    constraints on any observable."""
    notes = []
    for pair in ig.weak_edges:
        if pair not in ig.strong_edges:
            notes.append(
                f"weak influence {pair[0]} -> {pair[1]} has no strong-influence "
                "witness: no reachable state gives two disjoint nontrivial "
                "branch constraints on any observable"
            )
    return notes


def dumps_report(report: dict[str, Any]) -> str:
    return dumps_indented(report)
