"""Arbitrary JSON documents and bytes never escape the parser or the CLI as
an exception: `parse_model` yields a `Model` or a `ModelFormatError`, and
the CLI exits 0, 1 or 2."""

import contextlib
import io
import json

from hypothesis import example, given
from hypothesis import strategies as st

from chronocheck import Model, ModelFormatError, parse_model
from chronocheck.cli import main

# schema field names and values, so that some documents get past the first
# checks and reach the deeper ones
SCHEMA_WORDS = (
    "worlds", "measure", "sites", "initial", "consistency_mode", "events", "name", "kind",
    "support", "rules", "constants", "guard", "result", "table", "intersect", "nonempty",
    "positive_measure", "w0", "w1", "s0", "s1", "1/3", "1e4301",
)
words = st.sampled_from(SCHEMA_WORDS)
scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4) | words
documents = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(words | st.text(max_size=4), children, max_size=6),
    max_leaves=20,
)

# near-valid documents: the right keys and labels from small pools, so about
# half of them parse and the CLI runs exploration and every check on them
WORLDS = ("w0", "w1", "w2")
SITES = ("s0", "s1")
world_lists = st.lists(st.sampled_from(WORLDS), max_size=3, unique=True)
site_maps = st.dictionaries(st.sampled_from(SITES), world_lists, max_size=2)
supports = st.lists(st.sampled_from(SITES), min_size=1, max_size=2, unique=True)
intersect_events = supports.flatmap(
    lambda support: st.fixed_dictionaries(
        {
            "kind": st.just("intersect"),
            "support": st.just(support),
            "constants": st.fixed_dictionaries({site: world_lists for site in support}),
        }
    )
)
table_events = st.fixed_dictionaries(
    {
        "kind": st.just("table"),
        "support": supports,
        "rules": st.lists(st.fixed_dictionaries({"guard": site_maps, "result": site_maps}), max_size=2),
    }
)
near_valid = st.fixed_dictionaries(
    {
        "worlds": st.lists(st.sampled_from(WORLDS), min_size=1, max_size=3, unique=True),
        "sites": st.permutations(SITES),
        "events": st.lists(intersect_events | table_events, max_size=3).map(
            lambda events: [dict(event, name=f"e{i}") for i, event in enumerate(events)]
        ),
    },
    optional={
        "measure": st.dictionaries(st.sampled_from(WORLDS), st.integers(0, 2) | st.just("1/2")),
        "initial": site_maps,
        "consistency_mode": st.sampled_from(("nonempty", "positive_measure")),
    },
)

REPRODUCERS = (
    b"[" * 200_000,
    b'{"worlds": ["\xe9"], "sites": ["s"], "events": []}',
    b'{"worlds": ["a"], "measure": {"a": "1e4301"}, "sites": ["s"], "events": []}',
    b'{"worlds": ["a"], "measure": {"a": 1e4301}, "sites": ["s"], "events": []}',
    b'{"worlds": ["a"], "measure": {"a": 1e-4301}, "sites": ["s"], "events": []}',
)


def _doc(*events, **fields):
    return {"worlds": ["w0", "w1"], "sites": ["s0", "s1"], "events": list(events), **fields}


def _table(**fields):
    return {"name": "e", "kind": "table", "support": ["s0"], "rules": [], **fields}


@given(documents)
@example({"worlds": ["a"], "measure": {"a": "1e4301"}, "sites": ["s"], "events": []})
@example({"worlds": ["a"], "measure": {"a": "1e-4301"}, "sites": ["s"], "events": []})
# shapes that a reader taking shortcuts past the schema checks could miss
@example(_doc({"kind": "table", "support": ["s0"], "rules": [], "constants": {}}))
@example(_doc(_table(rules=[{"guard": {}}])))
@example(_doc(_table(support="s0")))
@example(_doc(_table(rules=[{"guard": {"s0": ["w0", "w0", "zz"]}, "result": {}}])))
@example(_doc(initial={"s0": "w0"}))
def test_parse_model_returns_model_or_format_error(document):
    try:
        model = parse_model(json.dumps(document))
    except ModelFormatError:
        return
    assert isinstance(model, Model)


def _cli_statuses(path):
    statuses = []
    for command in ("validate", "diagnose"):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            statuses.append(main([command, str(path), "--max-states", "50"]))
    return statuses


@given(documents)
def test_cli_exit_status_on_arbitrary_documents(tmp_path_factory, document):
    path = tmp_path_factory.getbasetemp() / "fuzz-document.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    assert set(_cli_statuses(path)) <= {0, 1, 2}


@given(near_valid)
def test_cli_exit_status_on_near_valid_documents(tmp_path_factory, document):
    path = tmp_path_factory.getbasetemp() / "fuzz-near-valid.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    assert set(_cli_statuses(path)) <= {0, 1, 2}


@given(st.binary(max_size=200))
@example(REPRODUCERS[0])
@example(REPRODUCERS[1])
@example(REPRODUCERS[2])
@example(REPRODUCERS[3])
@example(REPRODUCERS[4])
def test_cli_exit_status_on_arbitrary_bytes(tmp_path_factory, content):
    path = tmp_path_factory.getbasetemp() / "fuzz-bytes.json"
    path.write_bytes(content)
    statuses = _cli_statuses(path)
    assert set(statuses) <= {0, 1, 2}
    if content in REPRODUCERS:
        assert statuses == [2, 2]
