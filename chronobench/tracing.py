"""Spans and counters recorded from benchmark code, around calls into the
program's modules.

`Tracer.install` replaces public functions where their callers look them
up (for example `chronocheck.chronology.explore`, the name `diagnose`
calls) with wrappers that record a span or bump a counter, and `remove`
puts the originals back.  Nothing in the program is edited.  A target
that no longer exists is skipped and its metrics are reported as absent.
"""

from __future__ import annotations

import importlib
import json
from collections import Counter
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable

# The root span around one timed operation; its self time is the part of
# the operation that no traced call covers.
ROOT = "op.untraced_s"
# The span around a hook's own work.  It is left out of the per-layer
# metrics, so harness work does not land in the self time of the program's
# spans.
HOOK = "trace.hook"


def _graph_counts(args: tuple, graph: Any) -> tuple[int, ...]:
    return len(graph.nodes), len(graph.distinct_states()), len(graph.edges)


def _influence_counts(args: tuple, ig: Any) -> tuple[int, ...]:
    supports = [set(e.support) for e in args[0].events]
    disjoint = sum(1 for i, a in enumerate(supports) for j, b in enumerate(supports) if i != j and not a & b)
    return disjoint, len(ig.weak_edges), len(ig.strong_edges)


def _report_bytes(args: tuple, text: str) -> tuple[int, ...]:
    return (len(text),)  # json.dumps escapes non-ASCII, so characters are bytes


# (module, attribute path, span name, optional hook on the call's result).
# The span name is the metric its self time is reported under; a hook is a
# function of (args, result) and the names of the counters it adds its
# results to.
SPANS: tuple[tuple[str, str, str, tuple[Callable, tuple[str, ...]] | None], ...] = (
    ("chronocheck.cli", "main", "cli.main_self_s", None),
    ("chronocheck", "load_model", "modelfile.load_s", None),
    ("chronocheck", "diagnose", "chronology.diagnose_s", None),
    ("chronocheck.cli", "load_model", "modelfile.load_s", None),
    ("chronocheck.cli", "model_digest", "modelfile.digest_s", None),
    ("chronocheck.cli", "diagnose", "chronology.diagnose_s", None),
    (
        "chronocheck.chronology",
        "explore",
        "reachability.explore_s",
        (_graph_counts, ("reachability.nodes", "reachability.states", "reachability.edges")),
    ),
    ("chronocheck.chronology", "check_gs", "reachability.premises_s", None),
    ("chronocheck.chronology", "check_monotonicity", "reachability.premises_s", None),
    ("chronocheck.chronology", "check_diamond", "reachability.diamond_s", None),
    (
        "chronocheck.chronology",
        "build_influence_graphs",
        "influence.build_s",
        (_influence_counts, ("influence.pairs_disjoint", "influence.weak_edges", "influence.strong_edges")),
    ),
    ("chronocheck.chronology", "check_branch_determinacy", "chronology.bd_s", None),
    ("chronocheck.chronology", "transitive_closure", "chronology.order_s", None),
    ("chronocheck.chronology", "find_strong_cycles", "chronology.order_s", None),
    ("chronocheck.report", "taxonomy_json", "report.taxonomy_json_s", None),
    ("chronocheck.report", "dumps_report", "report.dumps_s", (_report_bytes, ("report.bytes",))),
)

# (module, attribute path, counter name): calls are counted, not timed.
# `build_influence_graphs` runs one weak and one strong check per ordered
# pair it examines, so influence.pairs_examined counts both.
COUNTERS: tuple[tuple[str, str, str], ...] = (
    ("chronocheck.model", "EventApplier.apply", "model.apply_calls"),
    ("chronocheck.model", "apply_event", "model.apply_event_calls"),
    ("chronocheck.influence", "weak_influence", "influence.pairs_examined"),
    ("chronocheck.influence", "strong_influence", "influence.pairs_examined"),
)


def _resolve(module: str, path: str) -> tuple[Any, str] | None:
    """(owner, attribute) for a dotted attribute path, or None if gone."""
    owner: Any = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if not hasattr(owner, attr):
        return None
    return owner, attr


class Tracer:
    """Spans (name, start ns, end ns, parent index) and counters, in memory."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []
        self.present: set[str] = {ROOT}  # opened by the benchmark itself

    def call(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Run `fn` inside a span called `name`."""
        index = len(self.spans)
        self.spans.append([name, 0, 0, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self.spans[index][1] = start
            self.spans[index][2] = end

    def _span_wrapper(self, name: str, fn: Callable, hook: tuple[Callable, tuple[str, ...]] | None) -> Callable:
        if hook is None:
            return lambda *args, **kwargs: self.call(name, fn, *args, **kwargs)
        count, counters = hook

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            result = self.call(name, fn, *args, **kwargs)
            values = self.call(HOOK, count, args, result)
            for counter, value in zip(counters, values):
                self.counts[counter] += value
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every target that exists; remember which metrics they feed."""
        for module, path, name, hook in SPANS:
            target = _resolve(module, path)
            if target is not None:
                owner, attr = target
                self._patch(owner, attr, self._span_wrapper(name, getattr(owner, attr), hook))
                self.present.add(name)
                self.present.update(hook[1] if hook else ())
        for module, path, name in COUNTERS:
            target = _resolve(module, path)
            if target is not None:
                owner, attr = target
                self._patch(owner, attr, self._count_wrapper(name, getattr(owner, attr)))
                self.present.add(name)

    def _patch(self, owner: Any, attr: str, replacement: Callable) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


def self_times(spans: list[list[Any]]) -> Counter:
    """Per span name, the sum over its spans of duration minus the part of
    the span's interval that its child spans cover, in seconds."""
    children: dict[int, list[tuple[int, int]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    totals: Counter = Counter()
    for index, (name, start, end, _parent) in enumerate(spans):
        covered = 0
        reach = start
        for child_start, child_end in sorted(children.get(index, ())):
            lo, hi = max(child_start, reach, start), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        totals[name] += (end - start - covered) / 1e9
    return totals
