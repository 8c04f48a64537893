"""The report writes shrink-only findings grouped by cause, while the API
keeps every finding."""

import random

from hypothesis import example, given
from hypothesis import strategies as st

from chronocheck import diagnose, load_fixture
from chronocheck.randmodels import random_model
from chronocheck.report import monotonicity_json, taxonomy_json


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
