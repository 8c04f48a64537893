"""Graphviz DOT emitters with stable vertex and edge ordering."""

from __future__ import annotations

from typing import Iterable, Sequence

from .model import Model
from .reachability import ReachabilityGraph


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def influence_dot(
    events: Sequence[str],
    weak_pairs: Iterable[tuple[str, str]],
    strong_pairs: Iterable[tuple[str, str]],
    closure_pairs: Iterable[tuple[str, str]] = (),
) -> str:
    """Events as vertices; strong edges solid, weak-only edges dashed,
    closure-only pairs dotted."""
    order = {name: i for i, name in enumerate(events)}

    def ordered(pairs: Iterable[tuple[str, str]]) -> list[tuple[str, str]]:
        return sorted(set(pairs), key=lambda p: (order[p[0]], order[p[1]]))

    strong = set(strong_pairs)
    weak_only = ordered(p for p in weak_pairs if p not in strong)
    closure_only = ordered(p for p in closure_pairs if p not in strong and p[0] != p[1])
    lines = ["digraph influence {", "  rankdir=LR;"]
    for name in events:
        lines.append(f"  {_quote(name)};")
    for a, b in ordered(strong):
        lines.append(f"  {_quote(a)} -> {_quote(b)} [style=solid];")
    for a, b in weak_only:
        lines.append(f"  {_quote(a)} -> {_quote(b)} [style=dashed];")
    for a, b in closure_only:
        lines.append(f"  {_quote(a)} -> {_quote(b)} [style=dotted];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _label(parts: Sequence[str]) -> str:
    escaped = [p.replace("\\", "\\\\").replace('"', '\\"') for p in parts]
    return '"' + "\\n".join(escaped) + '"'


def reachability_dot(model: Model, graph: ReachabilityGraph) -> str:
    """One vertex per explored state, labeled with its records and the
    events on the path that first reached it; edges carry event names."""
    lines = ["digraph reachability {"]
    for sid in range(graph.state_count):
        parts = [
            f"{model.sites[i]}={{{', '.join(rec.sorted_labels())}}}"
            for i, rec in enumerate(graph.state(sid))
        ]
        parts.append(f"occ={{{', '.join(graph.occurred_names(sid))}}}")
        lines.append(f"  n{sid} [label={_label(parts)}];")
    names = graph.model.event_names
    for src, event, tgt in graph.arcs:
        lines.append(f"  n{src} -> n{tgt} [label={_quote(names[event])}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
