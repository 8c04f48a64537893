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

REPRODUCERS = (
    b"[" * 200_000,
    b'{"worlds": ["\xe9"], "sites": ["s"], "events": []}',
    b'{"worlds": ["a"], "measure": {"a": "1e4301"}, "sites": ["s"], "events": []}',
    b'{"worlds": ["a"], "measure": {"a": 1e4301}, "sites": ["s"], "events": []}',
    b'{"worlds": ["a"], "measure": {"a": 1e-4301}, "sites": ["s"], "events": []}',
)


@given(documents)
@example({"worlds": ["a"], "measure": {"a": "1e4301"}, "sites": ["s"], "events": []})
@example({"worlds": ["a"], "measure": {"a": "1e-4301"}, "sites": ["s"], "events": []})
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
