"""The report writes shrink-only findings grouped by cause, while the API
keeps every finding, writes a commutation finding's three states, and
writes each state from its packed value as the records would read."""

import random

from hypothesis import example, given
from hypothesis import strategies as st

from chronocheck import check_diamond, diagnose, explore, load_fixture
from chronocheck.randmodels import random_model
from chronocheck.report import diamond_json, monotonicity_json, state_json, taxonomy_json
from conftest import corrupt_one_event


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


def _state_by_records(graph, sid):
    """A state's entry as the report wrote it from the state's records."""
    sites = graph.model.sites
    return {sites[i]: rec.sorted_labels() for i, rec in enumerate(graph.state(sid))}


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
        expected = _state_by_records(graph, sid)
        for source in (graph, graph.table):
            entry = state_json(source, sid)
            assert entry == expected
            assert list(entry) == list(expected)
