import json
import math
import os
import random
import re
import sys
import time
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chronocheck import (
    ConsistencyMode,
    EventKind,
    Model,
    ModelFormatError,
    PossibilitySpace,
    fixture_path,
    load_fixture,
    load_model,
    model_digest,
    parse_model,
    serialize_model,
)
from chronocheck.modelfile import _block, model_from_dict, model_to_dict
from chronocheck.randmodels import model_suite, random_model
from conftest import LABELS, relabelled


def test_two_site_fixture_structure(two_site):
    assert two_site.space.worlds == ("00", "01", "10", "11")
    assert two_site.sites == ("site1", "site2")
    assert two_site.mode is ConsistencyMode.NONEMPTY
    assert [e.kind for e in two_site.events] == [EventKind.INTERSECT] * 2
    assert two_site.event("e1").support == (0,)
    assert two_site.event("e2").support == (1,)
    assert dict(two_site.event("e1").constants)[0] == two_site.space.subset(["00", "01"])
    assert all(w == 1 for w in two_site.space.weights)
    assert all(rec == two_site.space.full() for rec in two_site.initial)


def test_gadget_fixture_structure(gadget):
    assert gadget.space.worlds == ("0", "1")
    assert gadget.sites == ("site1",)
    a = gadget.event("a")
    assert a.kind is EventKind.TABLE
    assert len(a.rules) == 3
    assert dict(a.rules[1].guard)[0] == gadget.space.subset(["0"])
    assert dict(a.rules[1].result)[0] == gadget.space.subset(["1"])


def test_bd_flip_fixture_structure(bd_flip):
    assert bd_flip.mode is ConsistencyMode.POSITIVE_MEASURE
    assert bd_flip.space.weights == (Fraction(1), Fraction(1), Fraction(0))


def _base_doc():
    return {
        "worlds": ["0", "1"],
        "sites": ["site1"],
        "events": [
            {
                "name": "e",
                "kind": "intersect",
                "support": ["site1"],
                "constants": {"site1": ["0"]},
            }
        ],
    }


def _parse(doc):
    return parse_model(json.dumps(doc))


def test_parse_minimal_document_defaults():
    model = _parse(_base_doc())
    assert model.mode is ConsistencyMode.NONEMPTY
    assert model.initial[0] == model.space.full()
    assert all(w == 1 for w in model.space.weights)


def test_parse_rejects_unknown_top_level_field():
    doc = _base_doc()
    doc["bogus"] = True
    with pytest.raises(ModelFormatError, match=r"\$: unknown fields.*bogus"):
        _parse(doc)


def test_parse_rejects_unknown_event_field():
    doc = _base_doc()
    doc["events"][0]["extra"] = 1
    with pytest.raises(ModelFormatError, match=r"events\[0\]"):
        _parse(doc)


def test_parse_rejects_undeclared_site_in_support():
    doc = _base_doc()
    doc["events"][0]["support"] = ["nowhere"]
    with pytest.raises(ModelFormatError, match="unknown site"):
        _parse(doc)


def test_parse_rejects_rule_writing_undeclared_site():
    doc = _base_doc()
    doc["events"] = [
        {
            "name": "e",
            "kind": "table",
            "support": ["site1"],
            "rules": [{"guard": {}, "result": {"elsewhere": ["0"]}}],
        }
    ]
    with pytest.raises(ModelFormatError, match="unknown site"):
        _parse(doc)


def test_parse_rejects_rule_outside_support():
    doc = _base_doc()
    doc["sites"] = ["site1", "site2"]
    doc["events"] = [
        {
            "name": "e",
            "kind": "table",
            "support": ["site1"],
            "rules": [{"guard": {}, "result": {"site2": ["0"]}}],
        }
    ]
    with pytest.raises(ModelFormatError, match="unsupported site"):
        _parse(doc)


def test_parse_rejects_undeclared_world():
    doc = _base_doc()
    doc["events"][0]["constants"] = {"site1": ["7"]}
    with pytest.raises(ModelFormatError, match="unknown world label"):
        _parse(doc)


def test_parse_rejects_negative_weight():
    doc = _base_doc()
    doc["measure"] = {"0": -1}
    with pytest.raises(ModelFormatError, match="nonnegative"):
        _parse(doc)


def test_parse_rejects_zero_total_weight():
    doc = _base_doc()
    doc["measure"] = {"0": 0, "1": 0}
    with pytest.raises(ModelFormatError, match="total weight"):
        _parse(doc)


def test_parse_rejects_empty_worlds():
    doc = _base_doc()
    doc["worlds"] = []
    with pytest.raises(ModelFormatError, match="at least one world"):
        _parse(doc)


def test_parse_rejects_empty_world_label_at_worlds():
    # the model has no measure, so the error must not name one
    with pytest.raises(ModelFormatError, match=r"\$\.worlds: world labels must be nonempty"):
        parse_model('{"worlds": [""], "sites": ["s"], "events": []}')


def _set(**fields):
    return lambda doc: doc.update(fields)


def _set_event(**fields):
    return lambda doc: doc["events"][0].update(fields)


def _event(**fields):
    return _set(events=[dict({"name": "e", "support": ["site1"]}, **fields)])


def _two_sites(**fields):
    def edit(doc):
        _event(**fields)(doc)
        doc["sites"] = ["site1", "site2"]

    return edit


def _rule(guard, result):
    return _two_sites(kind="table", rules=[{"guard": guard, "result": result}])


@pytest.mark.parametrize(
    "edit, path",
    [
        (_set(worlds=["0", 1]), "$.worlds"),
        (_set(worlds=["0", "1", "0"]), "$.worlds"),
        (_set(measure=[1, 1]), "$.measure"),
        (_set(sites=[]), "$.sites"),
        (_set(sites=["site1", "site1"]), "$.sites"),
        # a --strict message or a DOT label would name such a site as nothing
        (_set(sites=["site1", ""]), "$.sites"),
        (_set(sites=["site1", " \t"]), "$.sites"),
        (_set(initial=[]), "$.initial"),
        (_set(events={}), "$.events"),
        (_set_event(name=""), "$.events[0].name"),
        (_set_event(name=7), "$.events[0].name"),
        (_set_event(kind="table"), "$.events[0]"),
        (_event(kind="table", rules={}), "$.events[0].rules"),
        (_set_event(rules=[]), "$.events[0]"),
        (_event(kind="intersect"), "$.events[0]"),
        (_set_event(kind="merge"), "$.events[0].kind"),
        # a locality fault names the field and the site as the file does
        (_rule({"site2": ["0"]}, {}), "$.events[0].rules[0].guard.site2"),
        (_rule({}, {"site2": ["0"]}), "$.events[0].rules[0].result.site2"),
        (_two_sites(kind="intersect", support=["site1", "site2"], constants={"site1": ["0"]}), "$.events[0].constants"),
    ],
    ids=[
        "worlds-not-strings",
        "duplicate-worlds",
        "measure-not-object",
        "no-sites",
        "duplicate-sites",
        "empty-site-name",
        "blank-site-name",
        "initial-not-object",
        "events-not-list",
        "empty-event-name",
        "event-name-not-string",
        "table-with-constants",
        "rules-not-list",
        "intersect-with-rules",
        "intersect-without-constants",
        "unknown-kind",
        "guard-outside-support",
        "result-outside-support",
        "constants-miss-a-supported-site",
    ],
)
def test_parse_rejections_name_their_path(edit, path):
    # any document yields a Model or a ModelFormatError that names where it is wrong
    doc = _base_doc()
    edit(doc)
    with pytest.raises(ModelFormatError, match=re.escape(path) + ": "):
        _parse(doc)


def test_fixture_path_rejects_an_unknown_name():
    with pytest.raises(ValueError, match="no bundled fixture named 'nope'"):
        fixture_path("nope")


def test_parse_rejects_duplicate_event_names():
    doc = _base_doc()
    doc["events"].append(dict(doc["events"][0]))
    with pytest.raises(ModelFormatError, match="duplicate event name"):
        _parse(doc)


def test_parse_rejects_intersect_constants_not_covering_support():
    doc = _base_doc()
    doc["events"][0]["constants"] = {}
    with pytest.raises(ModelFormatError, match="constants cover"):
        _parse(doc)


def test_parse_rejects_bad_mode():
    doc = _base_doc()
    doc["consistency_mode"] = "sometimes"
    with pytest.raises(ModelFormatError, match="consistency_mode"):
        _parse(doc)


def test_parse_rejects_non_finite_weight():
    with pytest.raises(ModelFormatError, match="bad weight"):
        parse_model(
            '{"worlds": ["0"], "sites": ["s"], "events": [], "measure": {"0": Infinity}}'
        )
    # a literal whose exponent is too long to expand is still checked for syntax
    doc = _base_doc()
    doc["measure"] = {"0": "x1e99999999"}
    with pytest.raises(ModelFormatError) as info:
        _parse(doc)
    assert str(info.value) == "$.measure.0: bad weight: Invalid literal for Fraction: 'x1e99999999'"


def test_parse_rejects_boolean_weight():
    doc = _base_doc()
    doc["measure"] = {"0": True}
    with pytest.raises(ModelFormatError, match=r"\$\.measure\.0: bad weight"):
        _parse(doc)


def test_parse_rejects_duplicate_labels_in_world_list():
    doc = _base_doc()
    doc["events"][0]["constants"] = {"site1": ["0", "0"]}
    with pytest.raises(
        ModelFormatError, match=r"\$\.events\[0\]\.constants\.site1: duplicate world labels"
    ):
        _parse(doc)


def test_parse_rejects_duplicate_sites_in_support():
    doc = _base_doc()
    doc["events"][0]["support"] = ["site1", "site1"]
    with pytest.raises(ModelFormatError, match=r"\$\.events\[0\]\.support: duplicate sites"):
        _parse(doc)


def _rejection_within(seconds, doc):
    start = time.perf_counter()
    with pytest.raises(ModelFormatError) as info:
        _parse(doc)
    assert time.perf_counter() - start < seconds
    return str(info.value)


def test_long_repeated_label_lists_are_rejected_in_linear_time():
    # A quadratic scan takes about a minute on each of these lists.
    doc = _base_doc()
    doc["worlds"] = ["w0", "w1"]
    doc["events"][0]["constants"] = {"site1": ["w1", "w0"] + ["w1"] * 100_000 + ["w0"]}
    message = "$.events[0].constants.site1: duplicate world labels: ['w0', 'w1']"
    assert _rejection_within(5, doc) == message
    doc = _base_doc()
    doc["events"][0]["support"] = ["site1"] * 100_000
    assert _rejection_within(5, doc) == "$.events[0].support: duplicate sites: ['site1']"


def test_many_measured_worlds_are_read_in_linear_time():
    worlds = [f"w{i}" for i in range(50_000)]
    doc = {"worlds": worlds, "sites": ["s"], "events": [], "measure": dict.fromkeys(worlds, "1/2")}
    start = time.perf_counter()
    model = _parse(doc)
    assert time.perf_counter() - start < 5
    assert model.space.weights == (Fraction(1, 2),) * 50_000
    doc["measure"]["nope"] = 1
    doc["measure"]["also_nope"] = 1
    assert _rejection_within(5, doc) == "$.measure.nope: unknown world: 'nope'"


def _growth(prepare, n, repeats=5):
    """Best-of-`repeats` time of the work for 4n over that for n.
    `prepare(size)` builds fresh input of that size, outside the timing,
    and returns the work to time.  Each repeat times both sizes in turn, so
    a spell of slow host time lasting seconds slows both sizes, not one."""
    best = {n: math.inf, 4 * n: math.inf}
    for _ in range(repeats):
        for size in best:
            work = prepare(size)
            start = time.perf_counter()
            work()
            best[size] = min(best[size], time.perf_counter() - start)
    return best[4 * n] / best[n]


def test_an_event_over_many_sites_is_read_in_linear_time():
    # each site of a site map is checked against the event's support; a
    # scan of the support per site read 32,000 sites in 2.3 s, 14 times
    # the time for 8,000
    def one_event(size):
        sites = [f"s{i}" for i in range(size)]
        event = {"name": "e", "kind": "intersect", "support": sites, "constants": dict.fromkeys(sites, ["w0"])}
        text = json.dumps({"worlds": ["w0", "w1"], "sites": sites, "events": [event]})
        return lambda: parse_model(text)

    assert _growth(one_event, 4_000) < 8


def test_a_subset_of_many_worlds_is_digested_in_linear_time():
    # a label test of every world against the whole mask digested half of
    # 320,000 worlds in 4.0 s, 19 times the time for 80,000
    def half_the_worlds(size):
        space = PossibilitySpace.create([f"w{i}" for i in range(size)])
        model = Model(space, ("s",), (space.from_mask(int("01" * (size // 2), 2)),), ())
        return lambda: model_digest(model)

    assert _growth(half_the_worlds, 80_000, repeats=3) < 8


def test_a_table_event_with_many_rules_is_scanned_in_linear_time():
    # each guard was compared with every earlier guard; a two-site event
    # with 4,000 rules, no guard a subset of another, was scanned in about
    # 16 times the time for 1,000
    worlds = [f"w{i}" for i in range(6)]

    def labels(mask):
        return [w for i, w in enumerate(worlds) if mask >> i & 1]

    def many_rules(size):
        rules = [{"guard": {"s0": labels(i // 64), "s1": labels(i % 64)}, "result": {}} for i in range(size)]
        event = {"name": "e", "kind": "table", "support": ["s0", "s1"], "rules": rules}
        model = parse_model(json.dumps({"worlds": worlds, "sites": ["s0", "s1"], "events": [event]}))
        return model.static_defects

    assert _growth(many_rules, 1_000) < 8


def test_parse_rejects_invalid_json():
    with pytest.raises(ModelFormatError, match="invalid JSON"):
        parse_model("{nope")


def test_parse_rejects_a_byte_order_mark_as_json_loads_does():
    doc = '\ufeff{"worlds": ["0"], "sites": ["s"], "events": []}'
    with pytest.raises(ModelFormatError) as info:
        parse_model(doc)
    message = "invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"
    assert str(info.value) == message


def _read_as_text(path):
    """Reference reader: the file through a text-mode stream, strict UTF-8
    with universal newlines."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ModelFormatError(f"{path}: not UTF-8 text: {exc}") from None
    return parse_model(text)


def _outcome(load, path):
    try:
        model = load(path)
    except Exception as exc:
        return type(exc), str(exc)
    return model_digest(model), model.static_defects()


class _PathLike:
    def __init__(self, path):
        self.path = path

    def __fspath__(self):
        return str(self.path)


_PATH_FORMS = (str, Path, _PathLike)
_DOC = (
    b'{"worlds": ["0", "1"],%s"sites": ["s"],%s'
    b'"events": [{"name": "e", "kind": "table", "support": ["s"], "rules": []}]}'
)


@settings(max_examples=150)
@given(data=st.binary(max_size=200), form=st.sampled_from(_PATH_FORMS))
@example(data=_DOC % (b"\r\n", b"\r\n"), form=str)
@example(data=_DOC % (b"\r", b" "), form=Path)
@example(data=_DOC % (b"\r\r\n", b"\n\r"), form=_PathLike)
@example(data=b'{\r\n\r"worlds": [],\n\r\n"sites": x}', form=str)  # positions after mixed breaks
@example(data=b'{"worlds": ["a\rb"],\r\n "sites": ["s"], "events": []}', form=str)  # CR inside a string
@example(data=b"\xef\xbb\xbf" + _DOC % (b" ", b" "), form=str)  # UTF-8 byte order mark
@example(data=b'{"worlds": ["\xff"]}\r\n', form=Path)  # invalid UTF-8
@example(data=b"\r\n\xe2\x82", form=str)  # truncated UTF-8 sequence at the end
@example(data=b"", form=str)
def test_load_model_reads_as_the_text_stream_did(data, form, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "differential_read.json"
    path.write_bytes(data)  # a new file each time: truncating one can be slow
    try:
        arg = form(path)
        assert _outcome(load_model, arg) == _outcome(_read_as_text, arg)
    finally:
        path.unlink()


@pytest.mark.parametrize("form", _PATH_FORMS, ids=["str", "Path", "PathLike"])
def test_load_model_fails_on_a_missing_file_or_a_directory_as_before(form, tmp_path):
    for path in (tmp_path / "missing.json", tmp_path):
        arg = form(path)
        outcome = _outcome(load_model, arg)
        assert issubclass(outcome[0], OSError)
        assert outcome == _outcome(_read_as_text, arg)


def test_load_model_refuses_a_file_descriptor_and_leaves_it_open():
    fd = os.open(fixture_path("two_site"), os.O_RDONLY)
    try:
        with pytest.raises(TypeError):
            load_model(fd)
        os.fstat(fd)  # raises if `load_model` closed it
    finally:
        os.close(fd)


def test_load_model_reads_every_fixture_without_a_text_stream(monkeypatch, tmp_path):
    # one binary read and a decode per file, and a CRLF or CR copy of each
    # bundled fixture reads as the LF original
    def refuse(*args, **kwargs):
        raise AssertionError("a text-mode read was used")

    monkeypatch.setattr(Path, "read_text", refuse)
    fixtures = sorted(fixture_path("two_site").parent.glob("*.json"))
    assert len(fixtures) >= 3
    for original in fixtures:
        data = original.read_bytes()
        assert b"\n" in data and b"\r" not in data
        digest = model_digest(load_model(original))
        for newline in (b"\r\n", b"\r"):
            copy = tmp_path / f"{newline.hex()}_{original.name}"
            copy.write_bytes(data.replace(b"\n", newline))
            assert model_digest(load_model(copy)) == digest


@pytest.mark.parametrize("quote", ['"', ""], ids=["string", "number"])
def test_weight_digits_stop_at_the_integer_string_limit(quote):
    limit = sys.get_int_max_str_digits()

    def weight(literal):
        doc = '{"worlds": ["0", "1"], "sites": ["s"], "events": [], "measure": {"0": 1, "1": %s}}'
        return parse_model(doc % f"{quote}{literal}{quote}").space.weights[1]

    assert weight(f"1e{limit - 1}") == 10 ** (limit - 1)
    assert weight(f"1e-{limit - 1}") == Fraction(1, 10 ** (limit - 1))
    assert weight("0e10000000") == 0  # a zero mantissa is not expanded
    for literal in (f"1e{limit}", f"1e-{limit}", "1e10000000", "25e-10000000"):
        with pytest.raises(ModelFormatError, match=f"needs more than {limit} digits"):
            weight(literal)


def test_weights_parse_exactly():
    doc = _base_doc()
    doc["measure"] = {"0": 0.1, "1": "1/3"}
    model = _parse(doc)
    assert model.space.weights == (Fraction(1, 10), Fraction(1, 3))


def test_round_trip_fixtures():
    for name in ("two_site", "cycle_gadget", "bd_flip"):
        model = load_fixture(name)
        assert parse_model(serialize_model(model)) == model


def test_round_trip_random_models():
    for seed in range(40):
        model = random_model(random.Random(seed))
        assert parse_model(serialize_model(model)) == model


def _assert_read_model_is_the_api_model(model):
    """The reader builds its model without `Model(...)`'s checks; what it
    builds must be what `Model(...)` builds from the same parts."""
    read = parse_model(serialize_model(model))
    built = Model(model.space, model.sites, model.initial, model.events, model.mode)
    for field in fields(Model):
        assert getattr(read, field.name) == getattr(built, field.name), field.name
    assert read.event_names == built.event_names
    for name in built.event_names:
        assert read.event(name) == built.event(name)
    with pytest.raises(ValueError, match="unknown event: 'no such event'"):
        read.event("no such event")
    assert read.static_defects() == built.static_defects()


def test_read_suite_models_are_the_api_models():
    for model in model_suite(20250810, 500):
        _assert_read_model_is_the_api_model(model)


@pytest.mark.parametrize("name", ["two_site", "cycle_gadget", "bd_flip"])
def test_read_fixtures_are_the_api_models(name):
    _assert_read_model_is_the_api_model(load_fixture(name))


@given(seed=st.integers(0, 10**9), bias=st.floats(0, 0.9))
@example(seed=2, bias=0.3)  # shadowed_rule and static_monotonicity defects
@example(seed=39, bias=0.3)
def test_read_random_models_are_the_api_models(seed, bias):
    _assert_read_model_is_the_api_model(random_model(random.Random(seed), monotone_bias=bias))


def test_digest_is_stable_and_distinguishes_models(two_site, gadget):
    assert model_digest(two_site) == model_digest(two_site)
    assert model_digest(two_site) != model_digest(gadget)


def reference_model_to_dict(model):
    """The canonical dictionary form as it was built before the writer
    wrote the text from the masks: the definition `serialize_model` keeps."""

    def weight_json(weight):
        return int(weight) if weight.denominator == 1 else str(weight)

    out = {"worlds": list(model.space.worlds)}
    if any(w != 1 for w in model.space.weights):
        out["measure"] = {label: weight_json(w) for label, w in zip(model.space.worlds, model.space.weights)}
    out["sites"] = list(model.sites)
    if model.mode is not ConsistencyMode.NONEMPTY:
        out["consistency_mode"] = model.mode.value
    full = model.space.full()
    initial = {model.sites[i]: rec.sorted_labels() for i, rec in enumerate(model.initial) if rec != full}
    if initial:
        out["initial"] = initial
    events = []
    for event in model.events:
        raw = {"name": event.name, "kind": event.kind.value, "support": [model.sites[i] for i in event.support]}
        if event.kind is EventKind.TABLE:
            raw["rules"] = [
                {
                    "guard": {model.sites[i]: sub.sorted_labels() for i, sub in rule.guard},
                    "result": {model.sites[i]: sub.sorted_labels() for i, sub in rule.result},
                }
                for rule in event.rules
            ]
        else:
            raw["constants"] = {model.sites[i]: sub.sorted_labels() for i, sub in event.constants}
        events.append(raw)
    out["events"] = events
    return out


def _ordered(value):
    """`value` with every dict turned into its list of items, so that two
    equal results compare equal only if their keys come in the same order."""
    if isinstance(value, dict):
        return [(key, _ordered(item)) for key, item in value.items()]
    if isinstance(value, list):
        return [_ordered(item) for item in value]
    return value


@st.composite
def _written_models(draw):
    rng = random.Random(draw(st.integers(0, 10**9)))
    model = random_model(
        rng,
        measured_prob=draw(st.sampled_from((0.0, 1.0))),
        full_initial_prob=draw(st.sampled_from((0.0, 0.8))),
        intersect_prob=draw(st.sampled_from((0.0, 0.5, 1.0))),
    )
    if draw(st.booleans()):
        unique = lambda n, labels=LABELS: st.lists(labels, min_size=n, max_size=n, unique=True)  # noqa: E731
        worlds = draw(unique(model.space.size))
        sites = draw(unique(len(model.sites), LABELS.filter(str.strip)))
        names = draw(unique(len(model.events)))
        model = relabelled(model, worlds, sites, names)
    return model


def _doc_model(doc):
    return model_from_dict({"worlds": ["a", "b", "c"], "sites": ["s", "t"], "events": [], **doc})


_PLAIN_EVENT = {"name": "e", "kind": "intersect", "support": ["s"], "constants": {"s": ["a"]}}


@given(_written_models())
# a weight of "1/3" and a weight of 0, in positive_measure mode
@example(_doc_model({"measure": {"a": "1/3", "b": 0}, "consistency_mode": "positive_measure", "events": [_PLAIN_EVENT]}))
# a non-full initial record, and an empty one
@example(_doc_model({"initial": {"t": ["c", "a"], "s": []}, "events": [_PLAIN_EVENT]}))
@example(_doc_model({}))  # no events
@example(_doc_model({"events": [{"name": "e", "kind": "table", "support": ["s", "t"], "rules": []}]}))
# an empty guard, an empty result, an empty record, and a constant-free
# intersect event over no sites
@example(
    _doc_model(
        {
            "events": [
                {"name": "e", "kind": "table", "support": ["t"], "rules": [
                    {"guard": {}, "result": {"t": []}},
                    {"guard": {"t": []}, "result": {}},
                ]},
                {"name": "f", "kind": "intersect", "support": [], "constants": {}},
            ]
        }
    )
)
# non-ASCII labels, and labels that hold '"', '\\' or ',[]{}'
@example(
    model_from_dict(
        {
            "worlds": ["\u00e9", 'q"', "b\\s", ",[]{}", "\u2603"],
            "measure": {"\u00e9": 2, 'q"': "3/7"},
            "sites": ['s"1', "s\\2", "{s,3}"],
            "initial": {'s"1': ["\u2603", ",[]{}"]},
            "events": [
                {"name": "\u00e9v\"", "kind": "table", "support": ['s"1', "{s,3}"], "rules": [
                    {"guard": {"{s,3}": ["b\\s", 'q"']}, "result": {'s"1': ["\u00e9"]}},
                ]},
                {"name": "[e]", "kind": "intersect", "support": ["s\\2"], "constants": {"s\\2": [",[]{}", "\u00e9"]}},
            ],
        }
    )
)
@example(load_fixture("two_site"))
@example(load_fixture("cycle_gadget"))
@example(load_fixture("bd_flip"))
def test_the_writer_keeps_the_canonical_form(model):
    expected = reference_model_to_dict(model)
    assert serialize_model(model) == json.dumps(expected, indent=2) + "\n"
    assert _ordered(model_to_dict(model)) == _ordered(expected)


# Any code point, lone surrogates included, plus the characters JSON escapes.
_TEXT = st.text(st.characters(exclude_categories=()) | st.sampled_from('"\\\x00\x1f\x7f\u2028'), max_size=6)
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**40), max_value=10**40)
    | st.floats()
    | _TEXT
)
_JSON = st.recursive(
    _SCALARS,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=3).map(tuple)
    | st.lists(_TEXT, max_size=4)
    | st.dictionaries(_TEXT, children, max_size=4),
    max_leaves=24,
)


def _laid_out(value, newline="\n"):
    """`value` written through `_block`, one list or object at a time."""
    inner = newline + "  "
    if isinstance(value, dict):
        return _block([json.dumps(key) + ": " + _laid_out(item, inner) for key, item in value.items()], newline, "{}")
    if isinstance(value, (list, tuple)):
        return _block([_laid_out(item, inner) for item in value], newline, "[]")
    return json.dumps(value)


@settings(max_examples=150)
@given(_JSON)
@example({"": [], "k": {}, "\u00e9\"\\\n": [-0.0, 1e300, 0.1, -(2**70), True, False, None]})
@example([{}, [], [[]], [{}], "", ["\u2603", "\\"]])
def test_block_lays_out_lists_and_objects_as_json_dumps(value):
    assert _laid_out(value) == json.dumps(value, indent=2)
