"""JSON-friendly serialization of states, witnesses, violations, and the
full command report.  Field order is fixed so equal inputs produce
byte-identical documents.

Witnesses and findings name states by table id.  The writers take the
explored graph and resolve only the ids they write: records through
`ReachabilityGraph.state`, which builds each state's records once per
graph, and the events on the path that first reached an explored state
through `ReachabilityGraph.occurred_names`."""

from __future__ import annotations

import math
from typing import Any

from .chronology import BDViolation, Chronology, TaxonomyReport, TraceInvarianceReport
from .core import RecordState, information_content
from .influence import InfluenceGraph, StrongWitness, WeakWitness
from .model import Model
from .modelfile import dumps_indented
from .reachability import (
    ClockViolation,
    DiamondViolation,
    MonotonicityFinding,
    ReachabilityGraph,
)


def state_json(model: Model, state: RecordState) -> dict[str, list[str]]:
    return {model.sites[i]: rec.sorted_labels() for i, rec in enumerate(state)}


def node_json(model: Model, graph: ReachabilityGraph, sid: int) -> dict[str, Any]:
    return {"state": state_json(model, graph.state(sid)), "occurred": graph.occurred_names(sid)}


def _info_json(value: float) -> Any:
    return "inf" if math.isinf(value) else value


def weak_witness_json(model: Model, graph: ReachabilityGraph, w: WeakWitness) -> dict[str, Any]:
    return {
        "e": w.e,
        "f": w.f,
        "site": model.sites[w.site],
        "node": node_json(model, graph, w.state),
        "delta_without": w.delta_without.sorted_labels(),
        "delta_with": w.delta_with.sorted_labels(),
    }


def strong_witness_json(model: Model, graph: ReachabilityGraph, w: StrongWitness) -> dict[str, Any]:
    return {
        "e": w.e,
        "f": w.f,
        "site": model.sites[w.site],
        "node": node_json(model, graph, w.state),
        "observable": w.observable.sorted_labels(),
        "branch0": w.branch0.sorted_labels(),
        "branch1": w.branch1.sorted_labels(),
    }


def monotonicity_json(
    model: Model, graph: ReachabilityGraph, finding: MonotonicityFinding
) -> dict[str, Any]:
    return {
        "event": finding.event,
        "site": model.sites[finding.site],
        "added": finding.added.sorted_labels(),
        "state": state_json(model, graph.state(finding.state)),
    }


def monotonicity_causes_json(
    model: Model, graph: ReachabilityGraph, findings: list[MonotonicityFinding]
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
            causes[key] = {**monotonicity_json(model, graph, finding), "count": 1}
    return list(causes.values())


def diamond_json(
    model: Model, graph: ReachabilityGraph, violation: DiamondViolation
) -> dict[str, Any]:
    return {
        "e": violation.e,
        "f": violation.f,
        "state": state_json(model, graph.state(violation.state)),
        "f_then_e": state_json(model, graph.state(violation.f_then_e)),
        "e_then_f": state_json(model, graph.state(violation.e_then_f)),
    }


def clock_json(model: Model, graph: ReachabilityGraph, v: ClockViolation) -> dict[str, Any]:
    src, event, tgt = v.arc
    return {
        "event": model.event_names[event],
        "source": node_json(model, graph, src),
        "target": node_json(model, graph, tgt),
        "mu_source": str(v.mu_source),
        "mu_target": str(v.mu_target),
        "info_source": _info_json(information_content(graph.state(src))),
        "info_target": _info_json(information_content(graph.state(tgt))),
    }


def bd_violation_json(model: Model, graph: ReachabilityGraph, v: BDViolation) -> dict[str, Any]:
    return {
        "e": v.witness.e,
        "f": v.witness.f,
        "site": model.sites[v.witness.site],
        "polarity": v.polarity,
        "state": state_json(model, graph.state(v.state)),
        "expected": v.expected.sorted_labels(),
        "actual": v.actual.sorted_labels(),
    }


def influence_json(model: Model, graph: ReachabilityGraph, ig: InfluenceGraph) -> dict[str, Any]:
    return {
        "weak_edges": [weak_witness_json(model, graph, w) for w in ig.weak_edges.values()],
        "strong_edges": [
            strong_witness_json(model, graph, w) for w in ig.strong_edges.values()
        ],
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
    model: Model,
    graph: ReachabilityGraph,
    ig: InfluenceGraph,
    cycles: tuple[tuple[str, ...], ...],
) -> list[dict]:
    out = []
    for cycle in cycles:
        edges = []
        for i, src in enumerate(cycle):
            dst = cycle[(i + 1) % len(cycle)]
            edges.append(strong_witness_json(model, graph, ig.strong_edges[(src, dst)]))
        out.append({"events": list(cycle), "edges": edges})
    return out


def graph_summary_json(graph: ReachabilityGraph) -> dict[str, Any]:
    return {
        "nodes": graph.state_count,
        "edges": len(graph.arcs),
        "truncated": graph.truncated,
    }


def taxonomy_json(report: TaxonomyReport) -> dict[str, Any]:
    model, graph = report.model, report.graph
    return {
        "verdict": report.verdict.value,
        "has_strong_cycle": report.has_strong_cycle,
        "truncated": report.truncated,
        "exploration": graph_summary_json(graph),
        "gs_violations": [node_json(model, graph, i) for i in report.gs_violations],
        "diamond_violations": [
            diamond_json(model, graph, v) for v in report.diamond_violations
        ],
        "monotonicity_violations": monotonicity_causes_json(
            model, graph, report.monotonicity_violations
        ),
        "bd_violations": [bd_violation_json(model, graph, v) for v in report.bd_violations],
        "influence": influence_json(model, graph, report.influence),
        "chronology": chronology_json(report.chronology),
        "cycles": cycles_json(model, graph, report.influence, report.chronology.cycles),
    }


def trace_json(model: Model, report: TraceInvarianceReport) -> dict[str, Any]:
    graph = report.graph
    return {
        "schedule": list(report.schedule),
        "seed": report.seed,
        "variants_checked": report.variants_checked,
        "final_state": state_json(model, graph.state(report.final_state)),
        "state_mismatches": [
            {"schedule": list(schedule), "final_state": state_json(model, graph.state(state))}
            for schedule, state in report.state_mismatches
        ],
        "diamond_violations": [
            diamond_json(model, graph, v) for v in report.diamond_violations
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
