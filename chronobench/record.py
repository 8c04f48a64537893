#!/usr/bin/env python3
"""Record the answers chronobench/run.py checks against.

    python3 chronobench/record.py

Run from the root of a source checkout, at a commit whose verdicts are
trusted.  For every workload it writes the inputs, and it records their
digest and the projection digest of every model's `diagnose` report in a
new answers.json.
Before writing, it checks:

- the three bundled fixtures against the outcomes the README gives them;
- every model's strong edges against `strong_influence_oracle`, the
  brute-force search, for each event pair whose enumeration
  (distinct states x shared sites x 2^worlds) stays within ORACLE_BUDGET;
  pairs over the budget are counted as skipped.

It also prints the traced stage split of the ROADMAP's scale:12 ladder
rung, which is too slow (about 12 s) to be one of the timed models.
"""

from __future__ import annotations

import json
import sys
from itertools import permutations
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parent)]

import run  # noqa: E402  (puts the sources on sys.path)
import tracing  # noqa: E402
import workloads  # noqa: E402
from chronocheck import (  # noqa: E402
    diagnose,
    explore,
    load_fixture,
    load_model,
    strong_influence,
    strong_influence_oracle,
)
from chronocheck.modelfile import serialize_model  # noqa: E402

ORACLE_BUDGET = 2_000_000


def oracle_check(path: Path) -> tuple[int, int, list[str]]:
    """(pairs checked, pairs skipped, disagreements) for one model file."""
    model = load_model(path)
    graph = explore(model)
    states = len(graph.distinct_states())
    checked = skipped = 0
    disagreements = []
    for e, f in permutations(model.event_names, 2):
        shared = set(model.event(e).support) & set(model.event(f).support)
        if states * len(shared) * 2**model.space.size > ORACLE_BUDGET:
            skipped += 1
            continue
        fast = strong_influence(model, graph, e, f)
        slow = strong_influence_oracle(model, graph, e, f)
        checked += 1
        if (fast is None) != (slow is None):
            disagreements.append(f"{path.stem}: {e} => {f}: fast={fast is not None} oracle={slow is not None}")
    return checked, skipped, disagreements


def main() -> int:
    problems = []
    for name in ("two_site", "cycle_gadget", "bd_flip"):
        projected = workloads.projection(run.taxonomy_json(diagnose(load_fixture(name))), None)
        problems += workloads.fixture_mismatches(name, projected)

    answers = {}
    for name in workloads.WORKLOADS:
        inputs = workloads.write_inputs(name, run.WORK / name)
        workload = run.Workload(name, inputs, {})
        projections = {}
        checked = skipped = 0
        for model_name, path in inputs:
            projected = workload.project(workload.op(path))
            if projected["truncated"]:
                problems.append(f"{model_name}: exploration truncated at the default limits")
            projections[model_name] = workloads.projection_digest(projected)
            pair_checked, pair_skipped, disagreements = oracle_check(path)
            checked += pair_checked
            skipped += pair_skipped
            problems += disagreements
        print(f"{name}: {len(inputs)} models, oracle checked {checked} event pairs, skipped {skipped}")
        answers[name] = {
            "inputs_sha256": workloads.inputs_digest(inputs),
            "oracle_pairs_checked": checked,
            "oracle_pairs_skipped": skipped,
            "projections": projections,
        }

    print_stage_split()

    if problems:
        print("not recorded:", *problems, sep="\n  ", file=sys.stderr)
        return 1
    run.ANSWERS.write_text(json.dumps(answers, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def print_stage_split() -> None:
    path = run.WORK / "scale-12.json"
    path.write_text(serialize_model(workloads.ladder_rung("scale:12", 12)), encoding="utf-8")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.call(tracing.ROOT, run.cli_op, path)
    finally:
        tracer.remove()
    print("scale-12, one traced `chronocheck diagnose`:")
    for name, seconds in sorted(tracing.self_times(tracer.spans).items()):
        print(f"  {name:28s} {seconds:.3f} s")
    for name, count in sorted(tracer.counts.items()):
        print(f"  {name:28s} {count}")


if __name__ == "__main__":
    raise SystemExit(main())
