"""The text of every command report, written straight from the engine's
state ids and masks.  Field order is fixed so equal inputs produce
byte-identical documents: each report is `json.dumps(report, indent=2)`
plus a newline, laid out list by list and object by object through
`modelfile._block`, without building the dictionary.

Witnesses and findings name states by table id.  A `ReportWriter` is
bound to one explored graph, or to the transition table a trace-check
pass stepped, and writes only the ids its entries name: a state's labels
read off the table's packed value through `table.field` and
`PossibilitySpace.labels_of`, and the events on the path that first
reached an explored state through `ReachabilityGraph.occurred_names`.
It builds no `RecordState` and no `Subset`.  For the one report it
writes, it keeps the text of each state and of each explored state's
node entry per (id, indentation), of each world list per (mask,
indentation), and each quoted site and event name.  A clock entry's
information values come from the weights its `ClockViolation` carries.

`dumps_report` lays out a whole command report, envelope included; each
command handler hands it its results as a function of the line they
start on.  `taxonomy_json`, `state_json`, `diamond_json`,
`monotonicity_json`, `trace_json` and `graph_summary_json` are that text
parsed back, for the API and tests."""

from __future__ import annotations

import math
from json import loads
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Callable, Iterable

from .chronology import BDViolation, Chronology, TaxonomyReport, TraceInvarianceReport
from .core import information_of
from .influence import InfluenceGraph, StrongWitness, WeakWitness
from .model import Model
from .modelfile import _block
from .reachability import (
    ClockViolation,
    DiamondViolation,
    MonotonicityFinding,
    ReachabilityGraph,
    TransitionTable,
)


def _object(newline: str, **fields: str) -> str:
    """An object whose values are written out as `fields`, in order,
    starting on the line of `newline`; each value was written to start on
    the line of `newline + "  "`."""
    return _block([f'"{key}": {text}' for key, text in fields.items()], newline, "{}")


def _scalar(value: str | bool | int | None) -> str:
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _info(value: float) -> str:
    return '"inf"' if math.isinf(value) else repr(value)


class ReportWriter:
    """Writes the entries of one report about `source`, an explored graph
    or a transition table (see the module docstring).  Every method takes
    `newline`, a line break plus the indentation of the line its text
    starts on, and returns that text.  Node entries need a graph."""

    def __init__(self, source: ReachabilityGraph | TransitionTable):
        graph = source if isinstance(source, ReachabilityGraph) else None
        self.graph = graph
        self.table = table = source.table if graph is not None else source
        model = table.model
        self._labels_of = model.space.labels_of
        self._sites = [_quote(name) for name in model.sites]
        self._site_keys = [name + ": " for name in self._sites]
        self._names = {name: _quote(name) for name in model.event_names}
        self._states: dict[tuple[int, str], str] = {}
        self._nodes: dict[tuple[int, str], str] = {}
        self._worlds: dict[tuple[int, str], str] = {}

    def _list(self, write: Callable[[Any, str], str], items: Iterable[Any], newline: str) -> str:
        inner = newline + "  "
        return _block([write(item, inner) for item in items], newline, "[]")

    def _names_list(self, names: Iterable[str], newline: str) -> str:
        return _block([self._names[name] for name in names], newline, "[]")

    def worlds(self, mask: int, newline: str) -> str:
        """The labels of the worlds in `mask`, in label order."""
        key = (mask, newline)
        text = self._worlds.get(key)
        if text is None:
            text = self._worlds[key] = _block(map(_quote, self._labels_of(mask)), newline, "[]")
        return text

    def state(self, sid: int, newline: str) -> str:
        """Each site's world labels at table state `sid`."""
        key = (sid, newline)
        text = self._states.get(key)
        if text is None:
            table, worlds, inner = self.table, self.worlds, newline + "  "
            value, field = table.packed[sid], table.field
            parts = [name + worlds(field(value, site), inner) for site, name in enumerate(self._site_keys)]
            text = self._states[key] = _block(parts, newline, "{}")
        return text

    def node(self, sid: int, newline: str) -> str:
        """Explored state `sid` and the sorted names of the events on the
        path that first reached it."""
        key = (sid, newline)
        text = self._nodes.get(key)
        if text is None:
            inner = newline + "  "
            occurred = self._names_list(self.graph.occurred_names(sid), inner)
            text = self._nodes[key] = _object(newline, state=self.state(sid, inner), occurred=occurred)
        return text

    def weak(self, w: WeakWitness, newline: str) -> str:
        inner, worlds = newline + "  ", self.worlds
        return _object(
            newline,
            e=self._names[w.e],
            f=self._names[w.f],
            site=self._sites[w.site],
            node=self.node(w.state, inner),
            delta_without=worlds(w.delta_without.mask, inner),
            delta_with=worlds(w.delta_with.mask, inner),
        )

    def strong(self, w: StrongWitness, newline: str) -> str:
        inner, worlds = newline + "  ", self.worlds
        return _object(
            newline,
            e=self._names[w.e],
            f=self._names[w.f],
            site=self._sites[w.site],
            node=self.node(w.state, inner),
            observable=worlds(w.observable.mask, inner),
            branch0=worlds(w.branch0.mask, inner),
            branch1=worlds(w.branch1.mask, inner),
        )

    def monotonicity(self, finding: MonotonicityFinding, newline: str, **count: str) -> str:
        """A shrink-only finding, then `count` if given."""
        inner = newline + "  "
        return _object(
            newline,
            event=self._names[finding.event],
            site=self._sites[finding.site],
            added=self.worlds(finding.added.mask, inner),
            state=self.state(finding.state, inner),
            **count,
        )

    def monotonicity_causes(self, findings: list[MonotonicityFinding], newline: str) -> str:
        """One entry per (event, site) cause of `findings`: the fields of its
        first finding, then `count`, the number of its findings; entries keep
        the order of their first findings."""
        causes: dict[tuple[str, int], list] = {}
        for finding in findings:
            cause = causes.get((finding.event, finding.site))
            if cause is None:
                causes[finding.event, finding.site] = [finding, 1]
            else:
                cause[1] += 1
        inner = newline + "  "
        entries = [self.monotonicity(first, inner, count=str(n)) for first, n in causes.values()]
        return _block(entries, newline, "[]")

    def diamond(self, v: DiamondViolation, newline: str) -> str:
        inner, state = newline + "  ", self.state
        return _object(
            newline,
            e=self._names[v.e],
            f=self._names[v.f],
            state=state(v.state, inner),
            f_then_e=state(v.f_then_e, inner),
            e_then_f=state(v.e_then_f, inner),
        )

    def clock(self, v: ClockViolation, newline: str) -> str:
        src, event, tgt = v.arc
        inner = newline + "  "
        return _object(
            newline,
            event=self._names[self.table.model.event_names[event]],
            source=self.node(src, inner),
            target=self.node(tgt, inner),
            mu_source=_quote(str(v.mu_source)),
            mu_target=_quote(str(v.mu_target)),
            info_source=_info(information_of(v.mu_source)),
            info_target=_info(information_of(v.mu_target)),
        )

    def bd_violation(self, v: BDViolation, newline: str) -> str:
        inner, worlds = newline + "  ", self.worlds
        return _object(
            newline,
            e=self._names[v.witness.e],
            f=self._names[v.witness.f],
            site=self._sites[v.witness.site],
            polarity=_quote(v.polarity),
            state=self.state(v.state, inner),
            expected=worlds(v.expected.mask, inner),
            actual=worlds(v.actual.mask, inner),
        )

    def summary(self, newline: str) -> str:
        graph = self.graph
        return _object(
            newline,
            nodes=str(graph.state_count),
            edges=str(graph.arc_count),
            truncated=_scalar(graph.truncated),
        )

    def influence(self, ig: InfluenceGraph, newline: str) -> str:
        inner = newline + "  "
        return _object(
            newline,
            weak_edges=self._list(self.weak, ig.weak_edges.values(), inner),
            strong_edges=self._list(self.strong, ig.strong_edges.values(), inner),
        )

    def chronology(self, chronology: Chronology, newline: str) -> str:
        inner = newline + "  "
        order = {name: i for i, name in enumerate(chronology.events)}
        precedes = sorted(chronology.precedes, key=lambda p: (order[p[0]], order[p[1]]))
        extension = "null"
        if chronology.linear_extension is not None:
            ranks = [self._names[name] + ": " + str(rank) for name, rank in chronology.linear_extension]
            extension = _block(ranks, inner, "{}")
        return _object(
            newline,
            acyclic=_scalar(chronology.acyclic),
            precedes=self._list(self._names_list, precedes, inner),
            linear_extension=extension,
        )

    def cycles(self, ig: InfluenceGraph, cycles: tuple[tuple[str, ...], ...], newline: str) -> str:
        def cycle_text(cycle: tuple[str, ...], newline: str) -> str:
            edges = [ig.strong_edges[src, cycle[(i + 1) % len(cycle)]] for i, src in enumerate(cycle)]
            inner = newline + "  "
            return _object(newline, events=self._names_list(cycle, inner), edges=self._list(self.strong, edges, inner))

        return self._list(cycle_text, cycles, newline)

    def taxonomy(self, report: TaxonomyReport, newline: str) -> str:
        """The results of `diagnose`."""
        inner = newline + "  "
        ig = report.influence
        return _object(
            newline,
            verdict=_quote(report.verdict.value),
            has_strong_cycle=_scalar(report.has_strong_cycle),
            truncated=_scalar(report.truncated),
            exploration=self.summary(inner),
            gs_violations=self._list(self.node, report.gs_violations, inner),
            diamond_violations=self._list(self.diamond, report.diamond_violations, inner),
            monotonicity_violations=self.monotonicity_causes(report.monotonicity_violations, inner),
            bd_violations=self._list(self.bd_violation, report.bd_violations, inner),
            influence=self.influence(ig, inner),
            chronology=self.chronology(report.chronology, inner),
            cycles=self.cycles(ig, report.chronology.cycles, inner),
        )

    def explore(
        self,
        gs: list[int],
        monotonicity: list[MonotonicityFinding],
        diamonds: list[DiamondViolation],
        clock: list[ClockViolation],
        newline: str,
    ) -> str:
        """The results of `explore`."""
        inner = newline + "  "
        return _object(
            newline,
            exploration=self.summary(inner),
            gs_violations=self._list(self.node, gs, inner),
            monotonicity_violations=self.monotonicity_causes(monotonicity, inner),
            diamond_violations=self._list(self.diamond, diamonds, inner),
            clock_violations=self._list(self.clock, clock, inner),
        )

    def chronology_results(self, ig: InfluenceGraph, chronology: Chronology, newline: str) -> str:
        """The results of `chronology`."""
        inner = newline + "  "
        return _object(
            newline,
            chronology=self.chronology(chronology, inner),
            cycles=self.cycles(ig, chronology.cycles, inner),
            strong_edges=self._list(self._names_list, ig.strong_edges, inner),
        )

    def trace(self, report: TraceInvarianceReport, newline: str) -> str:
        """The results of `trace-check`."""
        inner = newline + "  "

        def mismatch(entry: tuple[tuple[str, ...], int], newline: str) -> str:
            schedule, sid = entry
            return _object(
                newline,
                schedule=self._names_list(schedule, newline + "  "),
                final_state=self.state(sid, newline + "  "),
            )

        return _object(
            newline,
            schedule=self._names_list(report.schedule, inner),
            ideals_visited=str(report.ideals_visited),
            truncated=_scalar(report.truncated),
            final_state=self.state(report.final_state, inner),
            state_mismatches=self._list(mismatch, report.state_mismatches, inner),
            invariant=_scalar(report.invariant),
        )


def validate_results(model: Model, newline: str) -> str:
    """The results of `validate`: the model's static defects and sizes."""
    inner = newline + "  "
    defects = [
        _object(
            inner + "  ",
            kind=_quote(d.kind),
            event=_quote(d.event),
            message=_quote(d.message),
            rule_index=_scalar(d.rule_index),
        )
        for d in model.static_defects()
    ]
    return _object(
        newline,
        defects=_block(defects, inner, "[]"),
        events=str(len(model.events)),
        sites=str(len(model.sites)),
        worlds=str(model.space.size),
    )


def state_json(graph: ReachabilityGraph | TransitionTable, sid: int) -> dict[str, list[str]]:
    """Each site's world labels at table state `sid`, read off its packed
    value."""
    return loads(ReportWriter(graph).state(sid, "\n"))


def monotonicity_json(graph: ReachabilityGraph, finding: MonotonicityFinding) -> dict[str, Any]:
    return loads(ReportWriter(graph).monotonicity(finding, "\n"))


def diamond_json(graph: ReachabilityGraph, violation: DiamondViolation) -> dict[str, Any]:
    return loads(ReportWriter(graph).diamond(violation, "\n"))


def graph_summary_json(graph: ReachabilityGraph) -> dict[str, Any]:
    return loads(ReportWriter(graph).summary("\n"))


def taxonomy_json(report: TaxonomyReport) -> dict[str, Any]:
    return loads(ReportWriter(report.graph).taxonomy(report, "\n"))


def trace_json(report: TraceInvarianceReport) -> dict[str, Any]:
    return loads(ReportWriter(report.table).trace(report, "\n"))


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
    """The text of a command report: `json.dumps(report, indent=2)` plus a
    newline, where `report["results"]` is a function that writes the
    results object from the line it starts on (a `ReportWriter` method or
    `validate_results`).  The other values are strings, None, bools, ints,
    lists of strings, and objects of those scalars."""
    parts = []
    for key, value in report.items():
        if callable(value):
            text = value("\n  ")
        elif isinstance(value, dict):
            text = _block([_quote(k) + ": " + _scalar(v) for k, v in value.items()], "\n  ", "{}")
        elif isinstance(value, list):
            text = _block(map(_quote, value), "\n  ", "[]")
        else:
            text = _scalar(value)
        parts.append(_quote(key) + ": " + text)
    return _block(parts, "\n", "{}") + "\n"
