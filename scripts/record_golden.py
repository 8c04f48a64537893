#!/usr/bin/env python3
"""Record the golden digests of `diagnose` reports.

For every model of the fixed conformance suite and for three rungs of the
scale ladder, the report is reduced to a normalized projection and hashed.
The projection keeps every verdict-bearing fact (verdict, weak and strong
edges with their witnesses, chronology, cycles, monotonicity and
commutation findings) and lists consistency and branch-determinacy
violations as sets keyed by state and polarity.  Node and edge counts, and
how often a state repeats across occurrence sets, stay out, so the digests
survive a change of exploration strategy that keeps the findings.

Usage:
    PYTHONPATH=src python scripts/record_golden.py   # rewrites tests/golden/diagnose_digests.json

tests/test_golden.py checks the recorded digests.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path
from typing import Any, Iterator

from chronocheck import Model, TaxonomyReport, diagnose
from chronocheck.randmodels import model_suite, random_model
from chronocheck.report import state_json, taxonomy_json

SUITE_SEED = 20250810
SUITE_SIZE = 500
LADDER_RUNGS = (8, 10, 12)
GOLDEN_PATH = Path(__file__).resolve().parents[1] / "tests" / "golden" / "diagnose_digests.json"


def ladder_rung(n_events: int, attempts: int = 40) -> Model:
    """First of up to `attempts` draws from `Random("scale:N")` with exactly
    N events (the scale-ladder recipe)."""
    rng = random.Random(f"scale:{n_events}")
    for _ in range(attempts):
        model = random_model(
            rng, max_worlds=12, max_sites=4, max_events=n_events, intersect_prob=0.7
        )
        if len(model.events) == n_events:
            return model
    raise ValueError(f"no draw of scale:{n_events} has {n_events} events")


def golden_models() -> Iterator[tuple[str, Model]]:
    for index, model in enumerate(model_suite(SUITE_SEED, SUITE_SIZE)):
        yield f"suite:{index}", model
    for n_events in LADDER_RUNGS:
        yield f"scale:{n_events}", ladder_rung(n_events)


def _canonical(value: Any) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def projection(report: TaxonomyReport) -> dict[str, Any]:
    """The normalized, count-free view of one report that is digested."""
    model = report.model
    doc = taxonomy_json(report)
    gs_states = {
        _canonical(state_json(model, report.graph.nodes[i].state))
        for i in report.gs_violations
    }
    bd_findings = {_canonical(entry) for entry in doc["bd_violations"]}
    return {
        "verdict": doc["verdict"],
        "influence": doc["influence"],
        "chronology": doc["chronology"],
        "cycles": doc["cycles"],
        "monotonicity_violations": doc["monotonicity_violations"],
        "diamond_violations": doc["diamond_violations"],
        "gs_violations": sorted(gs_states),
        "bd_violations": sorted(bd_findings),
    }


def digest(report: TaxonomyReport) -> str:
    return hashlib.sha256(_canonical(projection(report)).encode("utf-8")).hexdigest()


def compute_digests() -> dict[str, str]:
    return {name: digest(diagnose(model)) for name, model in golden_models()}


def main() -> int:
    digests = compute_digests()
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(digests, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
