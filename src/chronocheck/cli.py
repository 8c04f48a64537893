"""Command-line interface.

Subcommands: validate, explore, influence, chronology, diagnose,
trace-check.  Every run prints one JSON report to stdout; --json writes
the same document to a file and --dot, which validate and trace-check do
not accept, writes a Graphviz view.  Each handler returns its view as a
function, so the DOT text is built only when --dot is given, and whether
its exploration was truncated, which the report lists as a warning.  Exit
codes: 0 clean, 1 violations found (listed in the report), 2 a run that
cannot be judged (a usage, parse or write error, or a --strict finding).

The argument parser is built once per process, when this module is
imported, and every `main` call reuses it; `import chronocheck` does not
import this module.  Static defects, which `validate` lists and every
subcommand repeats as warnings, are found once, when the `Model` is
constructed.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
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

    parser = argparse.ArgumentParser(
        prog="chronocheck",
        description=(
            "Finite-model checker for distributed record systems with "
            "monotone local updates"
        ),
    )
    parser.set_defaults(dot_path=None)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in [
        ("validate", "static checks only"),
        ("explore", "reachability plus consistency, monotonicity, commutation, and clock checks"),
        ("influence", "weak and strong influence edges with witnesses"),
        ("chronology", "derived order, ranks, and strong cycles"),
        ("diagnose", "full premise check and escape classification"),
        ("trace-check", "schedule invariance under swaps of adjacent independent events"),
    ]:
        has_view = name not in ("validate", "trace-check")
        sp = sub.add_parser(name, help=text, parents=[common, view, strict] if has_view else [common, strict])
        if name == "trace-check":
            sp.add_argument("--schedule", required=True, help="comma-separated event names")
            sp.add_argument("--swaps", type=int, default=20, help="random swap chains to try")
            sp.add_argument("--seed", type=int, default=0, help="seed for the swap chains")
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
        model = replace(model, mode=_MODES[args.mode])
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
        flags.update(schedule=args.schedule, swaps=args.swaps, seed=args.seed)
    return flags


def _check_strict(model: Model, args: argparse.Namespace, findings: list[MonotonicityFinding]) -> None:
    if args.strict and findings:
        first = findings[0]
        raise ValueError(
            f"monotonicity violation: event {first.event} adds worlds "
            f"{first.added.sorted_labels()} at site {model.sites[first.site]}"
        )


def _explored(model: Model, args: argparse.Namespace) -> ReachabilityGraph:
    graph = explore(model, _limits(args))
    if args.strict:
        _check_strict(model, args, check_monotonicity(graph))
    return graph


def _cmd_validate(model: Model, args: argparse.Namespace):
    defects = model.static_defects()
    results = {
        "defects": [
            {
                "kind": d.kind,
                "event": d.event,
                "message": d.message,
                "rule_index": d.rule_index,
            }
            for d in defects
        ],
        "events": len(model.events),
        "sites": len(model.sites),
        "worlds": model.space.size,
    }
    return results, bool(defects), [], None, False


def _cmd_explore(model: Model, args: argparse.Namespace):
    graph = explore(model, _limits(args))
    mono = check_monotonicity(graph)
    _check_strict(model, args, mono)
    gs = check_gs(graph)
    diamonds = check_diamond(graph, model)
    clock = check_clock_monotone(graph)
    results = {
        "exploration": report_mod.graph_summary_json(graph),
        "gs_violations": [report_mod.node_json(model, graph, i) for i in gs],
        "monotonicity_violations": report_mod.monotonicity_causes_json(model, graph, mono),
        "diamond_violations": [report_mod.diamond_json(model, graph, v) for v in diamonds],
        "clock_violations": [report_mod.clock_json(model, graph, v) for v in clock],
    }
    violations = bool(gs or mono or diamonds or clock)
    return results, violations, [], lambda: reachability_dot(model, graph), graph.truncated


def _cmd_influence(model: Model, args: argparse.Namespace):
    graph = _explored(model, args)
    ig = build_influence_graphs(model, graph)
    results = report_mod.influence_json(model, graph, ig)
    notes = report_mod.influence_notes(ig)
    return results, False, notes, lambda: influence_dot(
        ig.events, ig.weak_edges, ig.strong_edges
    ), graph.truncated


def _cmd_chronology(model: Model, args: argparse.Namespace):
    graph = _explored(model, args)
    ig = build_influence_graphs(model, graph)
    chron = transitive_closure(ig)
    results = {
        "chronology": report_mod.chronology_json(chron),
        "cycles": report_mod.cycles_json(model, graph, ig, chron.cycles),
        "strong_edges": [list(pair) for pair in ig.strong_edges],
    }
    notes = report_mod.influence_notes(ig)
    return results, not chron.acyclic, notes, lambda: influence_dot(
        ig.events, ig.weak_edges, ig.strong_edges, chron.precedes
    ), graph.truncated


def _cmd_diagnose(model: Model, args: argparse.Namespace):
    taxonomy = diagnose(model, _limits(args))
    _check_strict(model, args, taxonomy.monotonicity_violations)
    results = report_mod.taxonomy_json(taxonomy)
    ig, precedes = taxonomy.influence, taxonomy.chronology.precedes
    notes = report_mod.influence_notes(ig)
    violations = not taxonomy.premises_clean() or taxonomy.has_strong_cycle
    return results, violations, notes, lambda: influence_dot(
        ig.events, ig.weak_edges, ig.strong_edges, precedes
    ), taxonomy.truncated


def _cmd_trace_check(model: Model, args: argparse.Namespace):
    graph = _explored(model, args)
    schedule = [name.strip() for name in args.schedule.split(",") if name.strip()]
    trace = check_trace_invariance(model, schedule, swaps=args.swaps, seed=args.seed, graph=graph)
    results = report_mod.trace_json(model, trace)
    return results, not trace.invariant, [], None, graph.truncated


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
            warnings.append("exploration truncated: results cover the explored region only")
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
