#!/usr/bin/env python3
"""Record the golden digests of `diagnose` reports and of CLI stdout.

For every model of the fixed conformance suite and for three rungs of the
scale ladder, the report is reduced to a normalized projection and hashed.
The projection keeps every verdict-bearing fact (verdict, weak and strong
edges with their witnesses, chronology, cycles, monotonicity and
commutation findings) and lists consistency and branch-determinacy
violations as sets keyed by state and polarity.  Node and edge counts, and
how often a state repeats across occurrence sets, stay out, so the digests
survive a change of exploration strategy that keeps the findings.

The second record pins report bytes: the SHA-256 of stdout and the exit
status of every subcommand on the bundled fixtures and CLOCK_MODEL under
four flag sets, of `diagnose` on two ladder rungs, and of each `--help` text (80
columns).  Each subcommand with a Graphviz view runs once more per model
and flag set with `--dot`, and its entry also holds the SHA-256 of the DOT
file, or null when the run wrote none.  Runs take their model and DOT
file by a relative path, so the `path` each report echoes does not depend
on where the checkout lives.

The third record pins how model files are read: the outcome of
`parse_model` on seeded mutations of each bundled fixture and of each
suite model's serialization.  Mutations drop required keys, give fields
wrong types, add unknown keys, labels and sites, repeat labels and
support sites, name sites outside an event's support, and break kinds,
modes and weights; some documents get two mutations, so the order in
which faults are checked is pinned too.  An outcome is the
`ModelFormatError` text, or the model digest and the static defects of
the model read.

Usage:
    PYTHONPATH=src python scripts/record_golden.py   # rewrites the three files under tests/golden/

tests/test_golden.py checks the recorded digests.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from pathlib import Path
from typing import Any, Iterator

from chronocheck import Model, ModelFormatError, TaxonomyReport, diagnose, parse_model
from chronocheck.cli import main as cli_main
from chronocheck.modelfile import fixture_path, load_model, model_digest, serialize_model
from chronocheck.randmodels import model_suite, random_model
from chronocheck.report import monotonicity_json, state_json, taxonomy_json

SUITE_SEED = 20250810
SUITE_SIZE = 500
LADDER_RUNGS = (8, 10, 12)
GOLDEN_PATH = Path(__file__).resolve().parents[1] / "tests" / "golden" / "diagnose_digests.json"
STDOUT_PATH = GOLDEN_PATH.with_name("cli_stdout_digests.json")
PARSE_PATH = GOLDEN_PATH.with_name("parse_outcomes.json")
FIXTURES = ("two_site", "cycle_gadget", "bd_flip")
COMMANDS = ("validate", "explore", "influence", "chronology", "diagnose", "trace-check")
DOT_COMMANDS = ("explore", "influence", "chronology", "diagnose")
DOT_FILE = "view.dot"
FLAG_SETS = ((), ("--mode", "measure"), ("--max-states", "3"), ("--strict",))
STDOUT_RUNGS = (8, 10)
# No bundled fixture has an edge that adds weight to the feasible set, so
# none reaches the float `info_source`/`info_target` of a clock violation.
# Here `grow` adds weight from {a} (info -0.0) and from {c} (weight 0, "inf").
CLOCK_MODEL = {
    "worlds": ["a", "b", "c"],
    "measure": {"a": 1, "b": "1/3", "c": 0},
    "sites": ["s"],
    "initial": {"s": ["a", "c"]},
    "events": [
        {"name": "drop", "kind": "intersect", "support": ["s"], "constants": {"s": ["c"]}},
        {"name": "trim", "kind": "intersect", "support": ["s"], "constants": {"s": ["a", "b"]}},
        {
            "name": "grow",
            "kind": "table",
            "support": ["s"],
            "rules": [
                {"guard": {"s": ["a"]}, "result": {"s": ["a", "b"]}},
                {"guard": {"s": ["c"]}, "result": {"s": ["a", "c"]}},
            ],
        },
    ],
}


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
    """The normalized, count-free view of one report that is digested.
    Shrink-only findings are listed one by one, as the API gives them, not
    grouped by cause as the report writes them."""
    model = report.model
    doc = taxonomy_json(report)
    graph = report.graph
    gs_states = {_canonical(state_json(model, graph.state(i))) for i in report.gs_violations}
    bd_findings = {_canonical(entry) for entry in doc["bd_violations"]}
    return {
        "verdict": doc["verdict"],
        "influence": doc["influence"],
        "chronology": doc["chronology"],
        "cycles": doc["cycles"],
        "monotonicity_violations": [
            monotonicity_json(model, graph, f) for f in report.monotonicity_violations
        ],
        "diamond_violations": doc["diamond_violations"],
        "gs_violations": sorted(gs_states),
        "bd_violations": sorted(bd_findings),
    }


def digest(report: TaxonomyReport) -> str:
    return hashlib.sha256(_canonical(projection(report)).encode("utf-8")).hexdigest()


def compute_digests() -> dict[str, str]:
    return {name: digest(diagnose(model)) for name, model in golden_models()}


def cli_runs(workdir: Path) -> Iterator[list[str]]:
    """Write the models into `workdir` and yield the argv of each frozen run,
    with model paths relative to `workdir`."""
    for name in FIXTURES:
        (workdir / f"{name}.json").write_bytes(fixture_path(name).read_bytes())
    (workdir / "clock.json").write_text(json.dumps(CLOCK_MODEL), encoding="utf-8")
    for name in (*FIXTURES, "clock"):
        path = workdir / f"{name}.json"
        schedule = ",".join(event.name for event in load_model(path).events)
        for command in COMMANDS:
            extra = ["--schedule", schedule] if command == "trace-check" else []
            for flags in FLAG_SETS:
                yield [command, path.name, *extra, *flags]
            if command in DOT_COMMANDS:
                for flags in FLAG_SETS:
                    yield [command, path.name, "--dot", DOT_FILE, *flags]
    for n_events in STDOUT_RUNGS:
        path = workdir / f"scale-{n_events}.json"
        path.write_text(serialize_model(ladder_rung(n_events)), encoding="utf-8")
        yield ["diagnose", path.name]
    yield ["--help"]
    for command in COMMANDS:
        yield [command, "--help"]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run_cli(argv: list[str]) -> dict[str, Any]:
    """Exit status and stdout digest of one run in the working directory;
    with `--dot`, also the DOT file's digest, or None if the run wrote none."""
    dot = Path(DOT_FILE)
    dot.unlink(missing_ok=True)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            status = cli_main(argv)
        except SystemExit as exc:  # --help
            status = exc.code
    result = {"exit": status, "stdout": _sha256(out.getvalue().encode("utf-8"))}
    if "--dot" in argv:
        result["dot"] = _sha256(dot.read_bytes()) if dot.exists() else None
    return result


def compute_stdout_digests(workdir: Path) -> dict[str, dict[str, Any]]:
    """Exit status and stdout digest of every frozen run, keyed by its
    command line; runs in `workdir`, at a terminal width of 80."""
    saved_cwd, saved_columns = os.getcwd(), os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    try:
        os.chdir(workdir)
        return {" ".join(argv): _run_cli(argv) for argv in cli_runs(workdir)}
    finally:
        os.chdir(saved_cwd)
        if saved_columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = saved_columns


# --- parse outcomes ---------------------------------------------------------

REQUIRED_KEYS = {"top": ("worlds", "sites", "events"), "event": ("name", "kind", "support"), "rule": ("guard", "result")}
WRONG_VALUES = (7, -1.5, "x", [], {}, None, True, ["w"], {"x": 1})


def _events(doc: dict) -> list[dict]:
    events = doc.get("events")
    return [e for e in events if isinstance(e, dict)] if isinstance(events, list) else []


def _rules(doc: dict) -> list[dict]:
    return [
        rule
        for event in _events(doc)
        if isinstance(event.get("rules"), list)
        for rule in event["rules"]
        if isinstance(rule, dict)
    ]


def _site_maps(doc: dict) -> list[dict]:
    """Every site-to-world-list map: initial records, guards, results and
    intersect constants."""
    maps = [doc["initial"]] if isinstance(doc.get("initial"), dict) else []
    maps += [e["constants"] for e in _events(doc) if isinstance(e.get("constants"), dict)]
    maps += [r[key] for r in _rules(doc) for key in ("guard", "result") if isinstance(r.get(key), dict)]
    return maps


def _slots(value: Any) -> Iterator[tuple[Any, Any]]:
    """(container, key) of every value nested in `value`."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield value, key
        yield from _slots(item)


def _some_map(doc: dict, rng: random.Random) -> dict:
    maps = _site_maps(doc)
    if maps:
        return rng.choice(maps)
    doc["initial"] = {}
    return doc["initial"]


def _some_event(doc: dict, rng: random.Random) -> dict:
    events = _events(doc)
    if events:
        return rng.choice(events)
    event = {"name": "added", "kind": "intersect", "support": [], "constants": {}}
    doc.setdefault("events", []).append(event)
    return event


def _drop_key(doc: dict, rng: random.Random) -> None:
    owners = [(doc, "top")] + [(e, "event") for e in _events(doc)] + [(r, "rule") for r in _rules(doc)]
    owner, kind = rng.choice(owners)
    keys = [key for key in REQUIRED_KEYS[kind] if key in owner]
    if keys:
        del owner[rng.choice(keys)]


def _wrong_type(doc: dict, rng: random.Random) -> None:
    container, key = rng.choice(list(_slots(doc)))
    old = container[key]
    container[key] = rng.choice([v for v in WRONG_VALUES if type(v) is not type(old)])


def _unknown_key(doc: dict, rng: random.Random) -> None:
    rng.choice([doc, *_events(doc), *_rules(doc)])["bogus"] = 1


def _world_list(doc: dict, rng: random.Random) -> list:
    lists = [m[k] for m in _site_maps(doc) for k in m if isinstance(m[k], list)]
    if lists:
        return rng.choice(lists)
    doc["initial"] = {"x": []}
    return doc["initial"]["x"]


def _unknown_world(doc: dict, rng: random.Random) -> None:
    labels = _world_list(doc, rng)
    labels.insert(rng.randint(0, len(labels)), "zz")


def _duplicate_world(doc: dict, rng: random.Random) -> None:
    labels = _world_list(doc, rng)
    label = rng.choice(labels) if labels else "zz"
    labels.insert(rng.randint(0, len(labels)), label)


def _unknown_site(doc: dict, rng: random.Random) -> None:
    if rng.random() < 0.25:
        support = _some_event(doc, rng).get("support")
        if isinstance(support, list):
            support.insert(rng.randint(0, len(support)), "zz")
            return
    _some_map(doc, rng)["zz"] = []


def _duplicate_support(doc: dict, rng: random.Random) -> None:
    support = _some_event(doc, rng).get("support")
    if isinstance(support, list) and support:
        support.append(rng.choice(support))


def _unsupported_site(doc: dict, rng: random.Random) -> None:
    """A declared site outside its event's support, in a guard, a result
    or intersect constants; the site is added to the model if every
    declared site is supported."""
    event = _some_event(doc, rng)
    support = event.get("support") if isinstance(event.get("support"), list) else []
    sites = doc.get("sites") if isinstance(doc.get("sites"), list) else []
    outside = [site for site in sites if site not in support]
    if not outside:
        outside = ["s_extra"]
        if isinstance(doc.get("sites"), list):
            doc["sites"].append("s_extra")
    rules = [r for r in event.get("rules", ()) if isinstance(r, dict)] if isinstance(event.get("rules"), list) else []
    maps = [r[key] for r in rules for key in ("guard", "result") if isinstance(r.get(key), dict)]
    if isinstance(event.get("constants"), dict):
        maps.append(event["constants"])
    if maps:
        rng.choice(maps)[rng.choice(outside)] = []


def _uncovered_constant(doc: dict, rng: random.Random) -> None:
    """An intersect event whose constants miss a supported site."""
    intersects = [e for e in _events(doc) if isinstance(e.get("constants"), dict)]
    if not intersects:
        return
    constants = rng.choice(intersects)["constants"]
    if constants:
        del constants[rng.choice(sorted(constants))]


def _no_name(doc: dict, rng: random.Random) -> None:
    """An event with four allowed keys and no name."""
    event = _some_event(doc, rng)
    event.pop("name", None)
    event.setdefault("rules", [])
    event.setdefault("constants", {})


def _bad_kind(doc: dict, rng: random.Random) -> None:
    _some_event(doc, rng)["kind"] = rng.choice(("merge", "TABLE", ""))


def _bad_mode(doc: dict, rng: random.Random) -> None:
    doc["consistency_mode"] = rng.choice(("sometimes", "NONEMPTY", 0))


def _bad_weight(doc: dict, rng: random.Random) -> None:
    worlds = doc.get("worlds") if isinstance(doc.get("worlds"), list) else []
    label = rng.choice(worlds) if worlds and isinstance(worlds[0], str) else "w0"
    measure = doc.setdefault("measure", {})
    if isinstance(measure, dict):
        measure[label] = rng.choice((True, False, -1, "-1/3"))


def _shuffle(doc: dict, rng: random.Random) -> None:
    """Reorder every world list, support list and site map; the model read
    must not change."""
    for labels in [m[k] for m in _site_maps(doc) for k in m]:
        rng.shuffle(labels)
    for event in _events(doc):
        rng.shuffle(event["support"])
    for site_map in _site_maps(doc):
        items = list(site_map.items())
        rng.shuffle(items)
        site_map.clear()
        site_map.update(items)


MUTATIONS = {
    "drop-key": _drop_key,
    "wrong-type": _wrong_type,
    "unknown-key": _unknown_key,
    "unknown-world": _unknown_world,
    "duplicate-world": _duplicate_world,
    "unknown-site": _unknown_site,
    "duplicate-support": _duplicate_support,
    "unsupported-site": _unsupported_site,
    "uncovered-constant": _uncovered_constant,
    "no-name": _no_name,
    "bad-kind": _bad_kind,
    "bad-mode": _bad_mode,
    "bad-weight": _bad_weight,
    "shuffle": _shuffle,
}
FIXTURE_ROUNDS = 3


def parse_documents() -> Iterator[tuple[str, str]]:
    """(name, text) of every document whose parse outcome is recorded.  Each
    fixture gets every mutation FIXTURE_ROUNDS times; each suite model gets
    one mutation and one pair of mutations, drawn from `Random(name)`."""
    sources = [(name, fixture_path(name).read_text(encoding="utf-8")) for name in FIXTURES]
    sources += [
        (f"suite:{index}", serialize_model(model))
        for index, model in enumerate(model_suite(SUITE_SEED, SUITE_SIZE))
    ]
    for source, text in sources:
        plans = [()]
        if source in FIXTURES:
            plans += [(kind,) for kind in MUTATIONS for _ in range(FIXTURE_ROUNDS)]
        else:
            rng = random.Random(f"parse:{source}")
            plans += [(rng.choice(list(MUTATIONS)),), tuple(rng.sample(list(MUTATIONS), 2))]
        for number, plan in enumerate(plans):
            name = ":".join((source, str(number), *plan))
            doc = json.loads(text)
            rng = random.Random(name)
            for kind in plan:
                MUTATIONS[kind](doc, rng)
            yield name, json.dumps(doc)


def parse_outcome(text: str) -> dict[str, Any]:
    try:
        model = parse_model(text)
    except ModelFormatError as exc:
        return {"error": str(exc)}
    defects = [[d.kind, d.event, d.message, d.rule_index, d.site] for d in model.static_defects()]
    return {"digest": model_digest(model), "defects": defects}


def compute_parse_outcomes() -> dict[str, dict[str, Any]]:
    return {name: parse_outcome(text) for name, text in parse_documents()}


def _write(path: Path, value: dict[str, Any], entry_per_line: bool = False) -> None:
    """Write `value` as JSON; with `entry_per_line`, each entry on a line of
    its own, so that the diff of a re-record names each changed entry."""
    if entry_per_line:
        entries = (f"  {json.dumps(key)}: {json.dumps(item)}" for key, item in value.items())
        text = "{\n" + ",\n".join(entries) + "\n}"
    else:
        text = json.dumps(value, indent=2)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text + "\n", encoding="utf-8")
    print(f"wrote {len(value)} entries to {path}")


def main() -> int:
    _write(GOLDEN_PATH, compute_digests())
    with tempfile.TemporaryDirectory() as workdir:
        _write(STDOUT_PATH, compute_stdout_digests(Path(workdir)))
    _write(PARSE_PATH, compute_parse_outcomes(), entry_per_line=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
