"""The report writes shrink-only findings grouped by cause, while the API
keeps every finding, writes a commutation finding's three states, and
writes each state from its packed value as the records would read.

Every command's stdout is `json.dumps(reference, indent=2)` plus a
newline, where the reference report is built by the dictionary builders
kept below (`reference_*`): the report's definition, which the writer
keeps while writing the text straight from state ids and masks."""

import contextlib
import io
import json
import math
import random
import tempfile
from dataclasses import replace
from pathlib import Path

from hypothesis import example, given
from hypothesis import strategies as st

from chronocheck import (
    ConsistencyMode,
    TransitionTable,
    build_influence_graphs,
    check_clock_monotone,
    check_diamond,
    check_gs,
    check_monotonicity,
    check_trace_invariance,
    diagnose,
    explore,
    information_content,
    load_fixture,
    load_model,
    transitive_closure,
)
from chronocheck.cli import main
from chronocheck.modelfile import model_digest, model_from_dict, serialize_model
from chronocheck.randmodels import random_model
from chronocheck.reachability import ExplorationLimits
from chronocheck.report import ReportWriter, diamond_json, influence_notes, monotonicity_json, state_json, taxonomy_json
from conftest import LABELS, corrupt_one_event, draw_shaped_model, relabelled, repo_module

CLOCK_MODEL = repo_module("scripts/record_golden.py", "record_golden").CLOCK_MODEL


# --- the report's definition: the dictionary builders the writer replaced ---


def reference_state_json(table, sid):
    """A state's entry as its records read."""
    sites = table.model.sites
    return {sites[i]: rec.sorted_labels() for i, rec in enumerate(table.state(sid))}


def reference_node_json(graph, sid):
    return {"state": reference_state_json(graph.table, sid), "occurred": graph.occurred_names(sid)}


def _info_json(value):
    return "inf" if math.isinf(value) else value


def reference_weak_witness_json(graph, w):
    return {
        "e": w.e,
        "f": w.f,
        "site": graph.model.sites[w.site],
        "node": reference_node_json(graph, w.state),
        "delta_without": w.delta_without.sorted_labels(),
        "delta_with": w.delta_with.sorted_labels(),
    }


def reference_strong_witness_json(graph, w):
    return {
        "e": w.e,
        "f": w.f,
        "site": graph.model.sites[w.site],
        "node": reference_node_json(graph, w.state),
        "observable": w.observable.sorted_labels(),
        "branch0": w.branch0.sorted_labels(),
        "branch1": w.branch1.sorted_labels(),
    }


def reference_monotonicity_json(graph, finding):
    return {
        "event": finding.event,
        "site": graph.model.sites[finding.site],
        "added": finding.added.sorted_labels(),
        "state": reference_state_json(graph.table, finding.state),
    }


def reference_monotonicity_causes_json(graph, findings):
    causes = {}
    for finding in findings:
        key = (finding.event, finding.site)
        if key in causes:
            causes[key]["count"] += 1
        else:
            causes[key] = {**reference_monotonicity_json(graph, finding), "count": 1}
    return list(causes.values())


def reference_diamond_json(graph, violation):
    return {
        "e": violation.e,
        "f": violation.f,
        "state": reference_state_json(graph.table, violation.state),
        "f_then_e": reference_state_json(graph.table, violation.f_then_e),
        "e_then_f": reference_state_json(graph.table, violation.e_then_f),
    }


def reference_clock_json(graph, v):
    src, event, tgt = v.arc
    return {
        "event": graph.model.event_names[event],
        "source": reference_node_json(graph, src),
        "target": reference_node_json(graph, tgt),
        "mu_source": str(v.mu_source),
        "mu_target": str(v.mu_target),
        "info_source": _info_json(information_content(graph.table.state(src))),
        "info_target": _info_json(information_content(graph.table.state(tgt))),
    }


def reference_bd_violation_json(graph, v):
    return {
        "e": v.witness.e,
        "f": v.witness.f,
        "site": graph.model.sites[v.witness.site],
        "polarity": v.polarity,
        "state": reference_state_json(graph.table, v.state),
        "expected": v.expected.sorted_labels(),
        "actual": v.actual.sorted_labels(),
    }


def reference_influence_json(graph, ig):
    return {
        "weak_edges": [reference_weak_witness_json(graph, w) for w in ig.weak_edges.values()],
        "strong_edges": [reference_strong_witness_json(graph, w) for w in ig.strong_edges.values()],
    }


def reference_chronology_json(chronology):
    order = {name: i for i, name in enumerate(chronology.events)}
    precedes = sorted(chronology.precedes, key=lambda p: (order[p[0]], order[p[1]]))
    extension = None
    if chronology.linear_extension is not None:
        extension = {name: rank for name, rank in chronology.linear_extension}
    return {
        "acyclic": chronology.acyclic,
        "precedes": [[a, b] for a, b in precedes],
        "linear_extension": extension,
    }


def reference_cycles_json(graph, ig, cycles):
    out = []
    for cycle in cycles:
        edges = []
        for i, src in enumerate(cycle):
            dst = cycle[(i + 1) % len(cycle)]
            edges.append(reference_strong_witness_json(graph, ig.strong_edges[(src, dst)]))
        out.append({"events": list(cycle), "edges": edges})
    return out


def reference_graph_summary_json(graph):
    return {"nodes": graph.state_count, "edges": graph.arc_count, "truncated": graph.truncated}


def reference_taxonomy_json(report):
    graph = report.graph
    return {
        "verdict": report.verdict.value,
        "has_strong_cycle": report.has_strong_cycle,
        "truncated": report.truncated,
        "exploration": reference_graph_summary_json(graph),
        "gs_violations": [reference_node_json(graph, i) for i in report.gs_violations],
        "diamond_violations": [reference_diamond_json(graph, v) for v in report.diamond_violations],
        "monotonicity_violations": reference_monotonicity_causes_json(graph, report.monotonicity_violations),
        "bd_violations": [reference_bd_violation_json(graph, v) for v in report.bd_violations],
        "influence": reference_influence_json(graph, report.influence),
        "chronology": reference_chronology_json(report.chronology),
        "cycles": reference_cycles_json(graph, report.influence, report.chronology.cycles),
    }


def reference_trace_json(report):
    table = report.table
    return {
        "schedule": list(report.schedule),
        "ideals_visited": report.ideals_visited,
        "truncated": report.truncated,
        "final_state": reference_state_json(table, report.final_state),
        "state_mismatches": [
            {"schedule": list(schedule), "final_state": reference_state_json(table, state)}
            for schedule, state in report.state_mismatches
        ],
        "invariant": report.invariant,
    }


def reference_results(command, model, limits, strict, schedule):
    """(results, violations, notes, truncated) of one command, or None when
    `strict` refuses a shrink-only finding."""
    if command == "validate":
        defects = model.static_defects()
        results = {
            "defects": [
                {"kind": d.kind, "event": d.event, "message": d.message, "rule_index": d.rule_index} for d in defects
            ],
            "events": len(model.events),
            "sites": len(model.sites),
            "worlds": model.space.size,
        }
        return results, bool(defects), [], False
    if command == "diagnose":
        taxonomy = diagnose(model, limits)
        if strict and taxonomy.monotonicity_violations:
            return None
        violations = not taxonomy.premises_clean() or taxonomy.has_strong_cycle
        return reference_taxonomy_json(taxonomy), violations, influence_notes(taxonomy.influence), taxonomy.truncated
    if command == "trace-check" and not strict:
        trace = check_trace_invariance(TransitionTable(model), schedule, limits)
        return reference_trace_json(trace), bool(trace.state_mismatches), [], trace.truncated
    graph = explore(model, limits)
    mono = check_monotonicity(graph)
    if strict and mono:
        return None
    if command == "explore":
        gs, diamonds, clock = check_gs(graph), check_diamond(graph), check_clock_monotone(graph)
        results = {
            "exploration": reference_graph_summary_json(graph),
            "gs_violations": [reference_node_json(graph, i) for i in gs],
            "monotonicity_violations": reference_monotonicity_causes_json(graph, mono),
            "diamond_violations": [reference_diamond_json(graph, v) for v in diamonds],
            "clock_violations": [reference_clock_json(graph, v) for v in clock],
        }
        return results, bool(gs or mono or diamonds or clock), [], graph.truncated
    if command == "trace-check":
        trace = check_trace_invariance(graph.table, schedule, limits)
        truncated = graph.truncated or trace.truncated
        return reference_trace_json(trace), bool(trace.state_mismatches), [], truncated
    ig = build_influence_graphs(model, graph)
    if command == "influence":
        return reference_influence_json(graph, ig), False, influence_notes(ig), graph.truncated
    chron = transitive_closure(ig)
    results = {
        "chronology": reference_chronology_json(chron),
        "cycles": reference_cycles_json(graph, ig, chron.cycles),
        "strong_edges": [list(pair) for pair in ig.strong_edges],
    }
    return results, not chron.acyclic, influence_notes(ig), graph.truncated


def reference_report(command, path, flags):
    """The report `main([command, path, *flags])` prints, as a dictionary,
    or None when it prints none."""
    model = load_model(path)
    mode = flags[1] if flags[:1] == ("--mode",) else None
    if mode is not None:
        model = replace(model, mode={"measure": ConsistencyMode.POSITIVE_MEASURE, "nonempty": ConsistencyMode.NONEMPTY}[mode])
    limits = ExplorationLimits(int(flags[1])) if flags[:1] == ("--max-states",) else ExplorationLimits()
    strict = "--strict" in flags
    schedule = list(model.event_names)
    outcome = reference_results(command, model, limits, strict, schedule)
    if outcome is None:
        return None
    results, violations, notes, truncated = outcome
    warnings = ["truncated at --max-states: results are partial"] if truncated else []
    warnings += [f"static defect [{d.kind}] {d.event}: {d.message}" for d in model.static_defects()]
    report_flags = {"mode": mode, "max_states": limits.max_states, "max_depth": limits.max_depth, "strict": strict}
    if command == "trace-check":
        report_flags["schedule"] = ",".join(schedule)
    return {
        "command": command,
        "model": {
            "path": str(path),
            "digest": model_digest(model),
            "worlds": model.space.size,
            "sites": len(model.sites),
            "events": len(model.events),
            "mode": model.mode.value,
        },
        "flags": report_flags,
        "results": results,
        "warnings": warnings,
        "notes": notes,
        "exit_status": 1 if violations else 0,
    }


COMMANDS = ("validate", "explore", "influence", "chronology", "diagnose", "trace-check")
FLAG_SETS = ((), ("--mode", "measure"), ("--mode", "nonempty"), ("--max-states", "3"), ("--strict",))


@st.composite
def _report_models(draw):
    model = random_model(random.Random(draw(st.integers(0, 10**9))), measured_prob=draw(st.sampled_from((0.0, 1.0))))
    if draw(st.booleans()):
        unique = lambda n, labels=LABELS: st.lists(labels, min_size=n, max_size=n, unique=True)  # noqa: E731
        worlds = draw(unique(model.space.size))
        sites = draw(unique(len(model.sites), LABELS.filter(str.strip)))
        names = draw(unique(len(model.events), LABELS.filter(lambda name: "," not in name and name.strip() == name)))
        model = relabelled(model, worlds, sites, names)
    return model


@given(_report_models(), st.sampled_from(FLAG_SETS))
@example(load_fixture("two_site"), ())
@example(load_fixture("cycle_gadget"), ())
@example(load_fixture("cycle_gadget"), ("--max-states", "3"))
@example(load_fixture("bd_flip"), ())
@example(model_from_dict(CLOCK_MODEL), ())
@example(draw_shaped_model(random.Random(0), "wide"), ())
def test_every_report_is_its_reference_dictionary(model, flags):
    with tempfile.TemporaryDirectory() as workdir:
        path = Path(workdir) / "model.json"
        path.write_text(serialize_model(model), encoding="utf-8")
        schedule = ",".join(model.event_names)
        for command in COMMANDS:
            extra = ["--schedule", schedule] if command == "trace-check" else []
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                status = main([command, str(path), *extra, *flags])
            expected = reference_report(command, path, flags)
            if expected is None:
                assert (status, out.getvalue()) == (2, "")
            else:
                assert out.getvalue() == json.dumps(expected, indent=2) + "\n"
                assert status == expected["exit_status"]


def test_a_corrupted_graph_writes_its_commutation_findings_and_trace_mismatches(two_site):
    # no loadable model fails commutation or reaches two states over one
    # trace, so one event is corrupted
    graph = explore(two_site)
    corrupt_one_event(random.Random(0), graph)
    diamonds = check_diamond(graph)
    report = diagnose(two_site)
    report = replace(report, graph=graph, diamond_violations=diamonds)
    trace = check_trace_invariance(graph.table, ["e2", "e1"])
    assert diamonds and trace.state_mismatches
    writer = ReportWriter(graph)
    assert writer.taxonomy(report, "\n") == json.dumps(reference_taxonomy_json(report), indent=2)
    assert writer.trace(trace, "\n") == json.dumps(reference_trace_json(trace), indent=2)


def _assert_one_entry_per_cause(model):
    report = diagnose(model)
    findings = report.monotonicity_violations
    entries = taxonomy_json(report)["monotonicity_violations"]
    causes = [(f.event, model.sites[f.site]) for f in findings]
    # one entry per distinct (event, site), in order of first occurrence
    assert [(e["event"], e["site"]) for e in entries] == list(dict.fromkeys(causes))
    assert sum(e["count"] for e in entries) == len(findings)
    for entry in entries:
        cause = (entry["event"], entry["site"])
        first = findings[causes.index(cause)]
        expected = {**monotonicity_json(report.graph, first), "count": causes.count(cause)}
        assert entry == expected
        assert list(entry) == list(expected)


@given(seed=st.integers(0, 10**9))
@example(seed=91)  # 32 findings of 3 causes, interleaved
@example(seed=215)  # 7 findings of 4 causes over 3 events
def test_report_writes_each_shrink_only_cause_once(seed):
    model = random_model(random.Random(seed), intersect_prob=0.3, monotone_bias=0.1)
    _assert_one_entry_per_cause(model)


def test_gadget_report_writes_its_shrink_only_cause_once():
    _assert_one_entry_per_cause(load_fixture("cycle_gadget"))


def test_diamond_json_writes_the_three_states_of_a_finding(two_site):
    # no loadable model fails commutation, so one event is corrupted
    graph = explore(two_site)
    corrupt_one_event(random.Random(0), graph)
    found = check_diamond(graph)
    assert len(found) == 4
    for v in found:
        states = {key: state_json(graph, getattr(v, key)) for key in ("state", "f_then_e", "e_then_f")}
        entry = diamond_json(graph, v)
        assert entry == {"e": v.e, "f": v.f, **states}
        assert list(entry) == ["e", "f", "state", "f_then_e", "e_then_f"]
    full = ["00", "01", "10", "11"]
    assert diamond_json(graph, found[0]) == {
        "e": "e1",
        "f": "e2",
        "state": {"site1": full, "site2": full},
        "f_then_e": {"site1": ["00", "01"], "site2": full},
        "e_then_f": {"site1": ["00", "01", "10"], "site2": full},
    }


@given(
    st.builds(
        lambda seed, measured: random_model(random.Random(seed), measured_prob=measured),
        st.integers(0, 10**9),
        st.sampled_from((0.0, 1.0)),
    )
)
@example(load_fixture("two_site"))
@example(load_fixture("cycle_gadget"))
@example(load_fixture("bd_flip"))
def test_state_json_reads_each_state_as_its_records(model):
    graph = explore(model)
    for sid in range(len(graph.table.packed)):  # every explored id, and any id past a truncated frontier
        expected = reference_state_json(graph.table, sid)
        for source in (graph, graph.table):
            entry = state_json(source, sid)
            assert entry == expected
            assert list(entry) == list(expected)
