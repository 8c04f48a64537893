"""Benchmark inputs and the report projection checked against recorded answers.

Each workload is a fixed list of named models generated from a fixed seed.
The benchmark writes them to model files, and the program under test sees
only those files.  `inputs_digest` hashes the files, so a change to the
generators (for example in `chronocheck.randmodels`) cannot silently change
what is measured: the digest stops matching the recorded one.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path
from typing import Any

from chronocheck.core import PossibilitySpace, RecordState, Subset
from chronocheck.events import Event, Rule
from chronocheck.model import Model
from chronocheck.modelfile import serialize_model
from chronocheck.randmodels import model_suite, random_model

WORKLOADS = ("suite", "wide", "dense")

# Generator seeds.  The benchmark's --seed only orders the operations within
# a pass; the models themselves are fixed so that they can be checked
# against the answers recorded in answers.json.
SUITE_SEED = 20250810
WIDE_SEED = 20250811
DENSE_SEED = 20250812

# Sizes.  The wide and dense models take tens of milliseconds each, so that
# a run repeats every model often enough for its fastest repetition to be
# steady; 40 models leave ten above the p75 tail.
SUITE_MODELS = 500
WIDE_MODELS = 40
WIDE_EVENTS = 7
DENSE_MODELS = 40
DENSE_EVENTS = (5, 6)


def ladder_rung(tag: str, n_events: int, attempts: int = 40) -> Model:
    """The ROADMAP scale-ladder recipe: the first of up to `attempts` draws
    from `random.Random(tag)` that has exactly `n_events` events."""
    rng = random.Random(tag)
    for _ in range(attempts):
        model = random_model(
            rng, max_worlds=12, max_sites=4, max_events=n_events, intersect_prob=0.7
        )
        if len(model.events) == n_events:
            return model
    raise ValueError(f"no draw of {tag!r} has {n_events} events")


def dense_model(rng: random.Random) -> Model:
    """Many worlds and sites, few events.  Intersections keep each world with
    high probability and the table events write unconditionally, so most
    writes lead to a state not seen before and the explored graph has few
    nodes per distinct state."""
    space = PossibilitySpace.create(tuple(f"w{i}" for i in range(16)))
    sites = tuple(f"s{i}" for i in range(4))
    initial = RecordState(tuple(space.full() for _ in sites))

    def keep_most() -> Subset:
        return space.from_mask(sum(1 << w for w in range(space.size) if rng.random() < 0.88))

    events = []
    for j in range(rng.randint(*DENSE_EVENTS)):
        if rng.random() < 0.25:
            site = rng.randrange(len(sites))
            events.append(Event.table(f"e{j}", [site], [Rule.of({}, {site: keep_most()})]))
        else:
            support = rng.sample(range(len(sites)), rng.randint(1, 2))
            events.append(Event.intersect(f"e{j}", support, {s: keep_most() for s in support}))
    return Model(space, sites, initial, tuple(events))


def models(workload: str) -> list[tuple[str, Model]]:
    """The workload's named models in their fixed order."""
    if workload == "suite":
        return [(f"suite-{i:03d}", m) for i, m in enumerate(model_suite(SUITE_SEED, SUITE_MODELS))]
    if workload == "wide":
        return [
            (f"wide-{i:02d}", ladder_rung(f"wide:{WIDE_SEED}:{i}", WIDE_EVENTS, attempts=1000))
            for i in range(WIDE_MODELS)
        ]
    if workload == "dense":
        return [
            (f"dense-{i:02d}", dense_model(random.Random(f"dense:{DENSE_SEED}:{i}")))
            for i in range(DENSE_MODELS)
        ]
    raise ValueError(f"unknown workload: {workload!r}")


def write_inputs(workload: str, directory: Path) -> list[tuple[str, Path]]:
    """Write the workload's model files into `directory`; (name, path) pairs."""
    directory.mkdir(parents=True, exist_ok=True)
    out = []
    for name, model in models(workload):
        path = directory / f"{name}.json"
        path.write_text(serialize_model(model), encoding="utf-8")
        out.append((name, path))
    return out


def inputs_digest(inputs: list[tuple[str, Path]]) -> str:
    digest = hashlib.sha256()
    for name, path in inputs:
        digest.update(name.encode("utf-8") + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


PREMISES = (
    ("consistency", "gs_violations"),
    ("commutation", "diamond_violations"),
    ("shrink_only", "monotonicity_violations"),
    ("branch_determinacy", "bd_violations"),
)


def projection(results: dict[str, Any], exit_status: int | None) -> dict[str, Any]:
    """The parts of a `diagnose` report that must not change.

    `results` is the `results` object of a diagnose report.  Exploration
    counts and per-node violation lists are left out on purpose: planned
    engine changes alter them without changing any verdict.  `exit_status`
    is None on the Python API path, which has no exit status.
    """
    chronology = results["chronology"]
    return {
        "verdict": results["verdict"],
        "exit_status": exit_status,
        "truncated": results["truncated"],
        "premises_failed": [name for name, key in PREMISES if results[key]],
        "weak_edges": sorted([w["e"], w["f"]] for w in results["influence"]["weak_edges"]),
        "strong_edges": sorted([w["e"], w["f"]] for w in results["influence"]["strong_edges"]),
        "precedes": sorted(chronology["precedes"]),
        "ranks": chronology["linear_extension"],
        "cycles": [c["events"] for c in results["cycles"]],
    }


def projection_digest(projected: dict[str, Any]) -> str:
    text = json.dumps(projected, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def fixture_mismatches(name: str, projected: dict[str, Any]) -> list[str]:
    """Differences between a bundled fixture's projection and the outcome
    the README gives for it."""
    failed = set(projected["premises_failed"])
    if name == "two_site":  # everything clean, no order forced
        ok = not failed and not projected["strong_edges"] and not projected["precedes"]
        ok = ok and projected["verdict"] == "NO_CYCLE"
    elif name == "cycle_gadget":  # consistency and shrink-only fail; b => a
        ok = {"consistency", "shrink_only"} <= failed and ["b", "a"] in projected["strong_edges"]
    elif name == "bd_flip":  # branch determinacy fails
        ok = "branch_determinacy" in failed
    else:
        raise ValueError(f"no recorded outcome for fixture {name!r}")
    return [] if ok else [f"fixture {name}: {json.dumps(projected)}"]
