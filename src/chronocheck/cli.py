"""Command-line interface.

Subcommands: validate, explore, influence, chronology, diagnose,
trace-check.  Every run prints one JSON report to stdout; --json writes
the same document to a file and --dot, which validate and trace-check do
not accept, writes a Graphviz view.  The explore, influence, chronology
and diagnose handlers explore the loaded model once and hand the graph,
which carries the model, to each check and report writer; only
`build_influence_graphs` takes the model beside it.  trace-check steps
one transition table over the ideals of the schedule's dependence order:
a fresh one, or under --strict, whose shrink-only check needs the
explored graph, that graph's table.  Each handler returns its view as a
function, so the DOT text is built only when --dot is given, and whether
its run was truncated (the exploration, or trace-check's pass over the
ideals, which --max-states also bounds), which the report lists as a
warning.  A handler's results are a function too: a `ReportWriter`
method (or `validate_results`) that writes the results text from the
line it starts on, called by `dumps_report`, which lays out the whole
report without building its dictionary.  Exit codes: 0 clean, 1
violations found (listed in the report), 2 a run that cannot be judged
(a usage, parse or write error, or a --strict finding).

The argument parser is built once per process, when this module is
imported, and every `main` call reuses it; `import chronocheck` does not
import this module.  The model file reader owns the checks of the file,
and reports each fault with its field path; `--mode` rebuilds the read
model with the other mode and checks nothing again.  Static defects,
which `validate` lists and every subcommand repeats as warnings, are
scanned once per run, when they are first asked for.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import partial
from typing import Any, Sequence

from .chronology import check_trace_invariance, diagnose, transitive_closure
from .core import ConsistencyMode
from .dot import influence_dot, reachability_dot
from .influence import build_influence_graphs
from .model import Model
from .modelfile import ModelFormatError, load_model, model_digest
from .reachability import (
    ExplorationLimits,
    MonotonicityFinding,
    ReachabilityGraph,
    TransitionTable,
    check_clock_monotone,
    check_diamond,
    check_gs,
    check_monotonicity,
    explore,
)
from . import report as report_mod

_MODES = {"nonempty": ConsistencyMode.NONEMPTY, "measure": ConsistencyMode.POSITIVE_MEASURE}


def build_parser() -> argparse.ArgumentParser:
    # Options shared by subcommands, each defined once in a parent parser.
    # --strict has its own parent so that --dot keeps its place before it.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("model_path", nargs="?", metavar="MODEL", help="model file path")
    common.add_argument("--model", dest="model_flag", help="model file path (alternative to the positional)")
    common.add_argument("--mode", choices=sorted(_MODES), default=None, help="override the model's consistency mode")
    common.add_argument("--max-states", type=int, default=ExplorationLimits.max_states, help="exploration state limit")
    common.add_argument("--max-depth", type=int, default=ExplorationLimits.max_depth, help="exploration depth limit")
    common.add_argument("--json", dest="json_path", help="also write the report to this file")
    view = argparse.ArgumentParser(add_help=False)
    view.add_argument("--dot", dest="dot_path", help="write a Graphviz view to this file")
    strict = argparse.ArgumentParser(add_help=False)
    strict.add_argument("--strict", action="store_true", help="treat monotonicity violations as hard errors")

    commands = [
        ("validate", "static checks only"),
        ("explore", "reachability plus consistency, monotonicity, commutation, and clock checks"),
        ("influence", "weak and strong influence edges with witnesses"),
        ("chronology", "derived order, ranks, and strong cycles"),
        ("diagnose", "full premise check and escape classification"),
        ("trace-check", "schedule invariance over every reordering of independent events"),
    ]
    parser = argparse.ArgumentParser(
        prog="chronocheck",
        # given, not generated: Python versions wrap a generated usage line
        # differently.  Subcommands would take it as their prog, so they
        # are given theirs.
        usage="%(prog)s [-h] {" + ",".join(name for name, _ in commands) + "} ...",
        description=(
            "Finite-model checker for distributed record systems with "
            "monotone local updates"
        ),
    )
    parser.set_defaults(dot_path=None)
    sub = parser.add_subparsers(dest="command", required=True, prog=parser.prog)
    for name, text in commands:
        has_view = name not in ("validate", "trace-check")
        sp = sub.add_parser(name, help=text, parents=[common, view, strict] if has_view else [common, strict])
        if name == "trace-check":
            sp.add_argument("--schedule", required=True, help="comma-separated event names")
    return parser


# Built once per process, when this module is imported; `import chronocheck`
# does not import it, so API users never pay for argparse.
_PARSER = build_parser()


def _load(args: argparse.Namespace) -> tuple[Model, str]:
    paths = [p for p in (args.model_path, args.model_flag) if p]
    if len(paths) != 1:
        raise ModelFormatError("provide the model path exactly once (positional or --model)")
    model = load_model(paths[0])
    if args.mode is not None:
        # the reader proved every part; only the mode changes
        model = Model._proved(model.space, model.sites, model.initial, model.events, _MODES[args.mode])
    return model, paths[0]


def _limits(args: argparse.Namespace) -> ExplorationLimits:
    return ExplorationLimits(args.max_states, args.max_depth)


def _flags(args: argparse.Namespace) -> dict[str, Any]:
    flags: dict[str, Any] = {
        "mode": args.mode,
        "max_states": args.max_states,
        "max_depth": args.max_depth,
        "strict": args.strict,
    }
    if args.command == "trace-check":
        flags["schedule"] = args.schedule
    return flags


def _check_strict(graph: ReachabilityGraph, args: argparse.Namespace, findings: list[MonotonicityFinding]) -> None:
    if args.strict and findings:
        first = findings[0]
        raise ValueError(
            f"monotonicity violation: event {first.event} adds worlds "
            f"{first.added.sorted_labels()} at site {graph.model.sites[first.site]}"
        )


def _explored(model: Model, args: argparse.Namespace) -> ReachabilityGraph:
    graph = explore(model, _limits(args))
    if args.strict:
        _check_strict(graph, args, check_monotonicity(graph))
    return graph


def _cmd_validate(model: Model, args: argparse.Namespace):
    results = partial(report_mod.validate_results, model)
    return results, bool(model.static_defects()), [], None, False


def _cmd_explore(model: Model, args: argparse.Namespace):
    graph = explore(model, _limits(args))
    mono = check_monotonicity(graph)
    _check_strict(graph, args, mono)
    gs = check_gs(graph)
    diamonds = check_diamond(graph)
    clock = check_clock_monotone(graph)
    results = partial(report_mod.ReportWriter(graph).explore, gs, mono, diamonds, clock)
    violations = bool(gs or mono or diamonds or clock)
    return results, violations, [], lambda: reachability_dot(graph), graph.truncated


def _cmd_influence(model: Model, args: argparse.Namespace):
    graph = _explored(model, args)
    ig = build_influence_graphs(model, graph)
    results = partial(report_mod.ReportWriter(graph).influence, ig)
    notes = report_mod.influence_notes(ig)
    return results, False, notes, lambda: influence_dot(
        ig.events, ig.weak_edges, ig.strong_edges
    ), graph.truncated


def _cmd_chronology(model: Model, args: argparse.Namespace):
    graph = _explored(model, args)
    ig = build_influence_graphs(model, graph)
    chron = transitive_closure(ig)
    results = partial(report_mod.ReportWriter(graph).chronology_results, ig, chron)
    notes = report_mod.influence_notes(ig)
    return results, not chron.acyclic, notes, lambda: influence_dot(
        ig.events, ig.weak_edges, ig.strong_edges, chron.precedes
    ), graph.truncated


def _cmd_diagnose(model: Model, args: argparse.Namespace):
    taxonomy = diagnose(model, _limits(args))
    _check_strict(taxonomy.graph, args, taxonomy.monotonicity_violations)
    results = partial(report_mod.ReportWriter(taxonomy.graph).taxonomy, taxonomy)
    ig, precedes = taxonomy.influence, taxonomy.chronology.precedes
    notes = report_mod.influence_notes(ig)
    violations = not taxonomy.premises_clean() or taxonomy.has_strong_cycle
    return results, violations, notes, lambda: influence_dot(
        ig.events, ig.weak_edges, ig.strong_edges, precedes
    ), taxonomy.truncated


def _cmd_trace_check(model: Model, args: argparse.Namespace):
    if args.strict:
        graph = _explored(model, args)
        table, truncated = graph.table, graph.truncated
    else:
        table, truncated = TransitionTable(model), False
    schedule = [name.strip() for name in args.schedule.split(",") if name.strip()]
    trace = check_trace_invariance(table, schedule, _limits(args))
    results = partial(report_mod.ReportWriter(table).trace, trace)
    return results, bool(trace.state_mismatches), [], None, truncated or trace.truncated


_HANDLERS = {
    "validate": _cmd_validate,
    "explore": _cmd_explore,
    "influence": _cmd_influence,
    "chronology": _cmd_chronology,
    "diagnose": _cmd_diagnose,
    "trace-check": _cmd_trace_check,
}


def _write_stdout(text: str) -> None:
    """Write and flush `text`.  If stdout itself fails, point its descriptor at
    the null device, or the interpreter's flush at exit fails again (status 120)."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError:
        with open(os.devnull, "wb") as null:
            os.dup2(null.fileno(), sys.stdout.fileno())
        raise


def main(argv: Sequence[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        model, path = _load(args)
        results, violations, notes, view, truncated = _HANDLERS[args.command](model, args)
        exit_status = 1 if violations else 0
        warnings = []
        if truncated:
            warnings.append("truncated at --max-states: results are partial")
        for defect in model.static_defects():
            warnings.append(f"static defect [{defect.kind}] {defect.event}: {defect.message}")
        report = {
            "command": args.command,
            "model": {
                "path": path,
                "digest": model_digest(model),
                "worlds": model.space.size,
                "sites": len(model.sites),
                "events": len(model.events),
                "mode": model.mode.value,
            },
            "flags": _flags(args),
            "results": results,
            "warnings": warnings,
            "notes": notes,
            "exit_status": exit_status,
        }
        text = report_mod.dumps_report(report)
        _write_stdout(text)
        if args.json_path:
            with open(args.json_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        if args.dot_path:
            with open(args.dot_path, "w", encoding="utf-8") as fh:
                fh.write(view())
    except (OSError, ValueError) as exc:
        print(f"chronocheck: error: {exc}", file=sys.stderr)
        return 2
    return exit_status


if __name__ == "__main__":
    raise SystemExit(main())
