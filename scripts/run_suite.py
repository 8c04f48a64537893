#!/usr/bin/env python3
"""Run the randomized model suite and summarize what the checker finds.

Useful for exploring seeds beyond the fixed one in the conformance suite:
how often strong cycles appear, how they are explained, how often the
binary-witness construction fails its separation post-check, and whether
the oracle ever disagrees with the fast strong-influence search.

Usage:
    python scripts/run_suite.py --models 500 --seed 20250810 [--oracle]
    python scripts/run_suite.py --dump-gaps gaps/   # save suspect models
"""

from __future__ import annotations

import argparse
import sys
import time
from collections import Counter
from itertools import permutations
from pathlib import Path

from chronocheck import (
    Verdict,
    WitnessPostcheckError,
    binary_witness,
    diagnose,
    strong_influence,
    strong_influence_oracle,
)
from chronocheck.modelfile import serialize_model
from chronocheck.randmodels import model_suite


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--models", type=int, default=500)
    parser.add_argument("--seed", type=int, default=20250810)
    parser.add_argument("--oracle", action="store_true", help="also cross-check the witness oracle")
    parser.add_argument("--dump-gaps", metavar="DIR", help="write models with unexplained cycles here")
    args = parser.parse_args(argv)

    started = time.time()
    stats: Counter = Counter()
    gap_models = []
    for index, model in enumerate(model_suite(args.seed, args.models)):
        report = diagnose(model)
        stats["models"] += 1
        stats["truncated"] += report.truncated
        stats["premises_clean"] += report.premises_clean()
        stats["gs_violating"] += bool(report.gs_violations)
        stats["monotonicity_violating"] += bool(report.monotonicity_violations)
        stats["bd_violating"] += bool(report.bd_violations)
        stats["weak_edges"] += len(report.influence.weak_edges)
        stats["strong_edges"] += len(report.influence.strong_edges)
        if report.has_strong_cycle:
            stats["strong_cycles"] += 1
            stats[f"verdict_{report.verdict.value}"] += 1
            if report.verdict is Verdict.THEOREM_VIOLATION_SUSPECTED:
                gap_models.append((index, model))
        for witness in report.influence.weak_edges.values():
            try:
                binary_witness(report.graph, witness)
                stats["postcheck_ok"] += 1
            except WitnessPostcheckError:
                stats["postcheck_failed"] += 1
        if args.oracle:
            for e, f in permutations(model.event_names, 2):
                fast = strong_influence(model, report.graph, e, f)
                slow = strong_influence_oracle(model, report.graph, e, f)
                stats["oracle_pairs"] += 1
                stats["oracle_disagreements"] += (fast is None) != (slow is None)

    elapsed = time.time() - started
    print(f"suite seed={args.seed} models={args.models} ({elapsed:.1f}s)")
    for key in sorted(stats):
        print(f"  {key:28s} {stats[key]}")
    if gap_models:
        print(f"  unexplained cycles in {len(gap_models)} models")
        if args.dump_gaps:
            out = Path(args.dump_gaps)
            out.mkdir(parents=True, exist_ok=True)
            for index, model in gap_models:
                (out / f"gap_{args.seed}_{index}.json").write_text(serialize_model(model))
            print(f"  wrote reproducers to {out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
