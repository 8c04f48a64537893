"""Model file format: a single strict JSON document.

Schema::

    {
      "worlds": ["w0", "w1", ...],            # required, unique labels
      "measure": {"w0": 1, "w1": "1/3", ...}, # optional; default weight 1
      "sites": ["site1", ...],                # required, at least one
      "initial": {"site1": ["w0", ...]},      # optional; default all worlds
      "consistency_mode": "nonempty",         # or "positive_measure"
      "events": [
        {"name": "e", "kind": "intersect",
         "support": ["site1"],
         "constants": {"site1": ["w0"]}},
        {"name": "f", "kind": "table",
         "support": ["site1"],
         "rules": [
           {"guard": {"site1": ["w0", "w1"]},  # omitted site = wildcard
            "result": {"site1": ["w0"]}}
         ]}
      ]
    }

Weights may be JSON integers, decimals, or strings like "1/3"; they are
parsed as exact rationals.  A number whose exact numerator or denominator
needs more digits than `sys.get_int_max_str_digits()`, the limit
`json.loads` applies to integer literals, is rejected.  Subsets are
written as lists of world labels and serialized back sorted.  Unknown keys
anywhere are rejected.

The reader walks a document once.  Each world list becomes a mask in one
loop over the space's label index, and an error's field path is built
only when it is raised: only a value that the loop cannot account for
pays for naming what is wrong, by a second walk that checks it in the
documented order.  So the first fault a document holds is the one
reported, whatever the shortcut.  The reader owns a document's checks,
so the model it builds is not checked again, and reading a document
scans no static defects.

The writer, `serialize_model`, writes the canonical text from the
model's masks: `json.dumps(..., indent=2)` of the canonical dictionary,
plus a newline, without building the dictionary.  `model_to_dict` parses
that text back, so there is one canonical form, and `model_digest`
hashes it.  `_block` lays out each of its lists and objects; the report
writer (`chronocheck.report`) writes every command report through it
too, so no generic writer walks a built dictionary.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import sys
from collections import Counter
from fractions import Fraction
from importlib import resources
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import Any, Iterable

from .core import ConsistencyMode, PossibilitySpace, Subset
from .events import Event, EventKind, Rule
from .model import Model


class ModelFormatError(ValueError):
    """Raised for syntactic or schema errors in a model file."""


def _err(path: str, message: str) -> ModelFormatError:
    return ModelFormatError(f"{path}: {message}")


def _require_keys(obj: dict, allowed: set[str], required: set[str], path: str) -> None:
    if not isinstance(obj, dict):
        raise _err(path, f"expected an object, got {type(obj).__name__}")
    unknown = obj.keys() - allowed
    if unknown:
        raise _err(path, f"unknown fields: {sorted(unknown)}")
    missing = required - obj.keys()
    if missing:
        raise _err(path, f"missing required fields: {sorted(missing)}")


def _string_list(value: Any, path: str) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise _err(path, "expected a list of strings")
    return value


def _unique(labels: list[str], path: str, what: str) -> list[str]:
    if len(set(labels)) != len(labels):
        duplicates = sorted(label for label, n in Counter(labels).items() if n > 1)
        raise _err(path, f"duplicate {what}: {duplicates}")
    return labels


def _subset(space: PossibilitySpace, value: Any, path: str) -> Subset:
    labels = _unique(_string_list(value, path), path, "world labels")
    try:
        return space.subset(labels)
    except ValueError as exc:
        raise _err(path, str(exc)) from None


def _site_subset_map(
    space: PossibilitySpace, sites: dict[str, int], allowed: dict[str, int], value: Any, path: str
) -> tuple[tuple[int, Subset], ...]:
    """(site, record) pairs of a map from site names to world lists, sorted
    by site.  `sites` maps every declared site name to its index, and
    `allowed` the names the map may use; one lookup per entry checks both."""
    if not isinstance(value, dict):
        raise _err(path, "expected an object mapping site names to world lists")
    index = space._index  # type: ignore[attr-defined]
    pairs = []
    for site_name, labels in value.items():
        site = allowed.get(site_name)
        if site is None:
            if site_name in sites:
                raise _err(f"{path}.{site_name}", f"unsupported site {site_name!r}")
            raise _err(f"{path}.{site_name}", f"unknown site: {site_name!r}")
        # a list of distinct known labels is resolved here; `_subset` walks
        # anything else again and names its fault
        mask = 0
        if type(labels) is list:
            for label in labels:
                i = index.get(label) if type(label) is str else None
                if i is None or mask >> i & 1:
                    break
                mask |= 1 << i
            else:
                pairs.append((site, Subset(space, mask)))
                continue
        pairs.append((site, _subset(space, labels, f"{path}.{site_name}")))
    pairs.sort()  # sites are distinct, so records are never compared
    return tuple(pairs)


_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def _rational(text: str) -> Fraction:
    """Exact value of a decimal literal or of a string such as "1/3".

    Raises ValueError when the numerator or denominator needs more digits
    than integer string conversion allows.  The exponent is checked before
    it is expanded, so a literal such as 1e10000000 costs nothing.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # no limit before 3.10.7
    found = _EXPONENT.search(text)
    # compared by length first, so an exponent longer than the limit is
    # never converted
    exponent = found.group(1).lstrip("+-").replace("_", "").lstrip("0") if found else ""
    too_far = len(exponent) > len(str(3 * limit)) or int(exponent or "0") > 3 * limit
    if limit and too_far:
        # int() caps the mantissa at `limit` digits on each side of the
        # point, so only a zero mantissa leaves few enough digits; the same
        # literal with exponent 0 checks the syntax
        try:
            mantissa = Fraction(text[: found.start()] + "e0")
        except ValueError:
            raise ValueError(f"Invalid literal for Fraction: {text!r}") from None
        if mantissa:
            raise ValueError(f"exponent out of range: the exact value needs more than {limit} digits")
        return Fraction(0)
    value = Fraction(text)
    try:
        str(value)  # refuses a numerator or denominator past the limit
    except ValueError:
        raise ValueError(f"exact value needs more than {limit} digits") from None
    return value


# One decoder for every document: `json.loads` builds a new one on each call
# that passes it a keyword such as `parse_float`.
_DECODER = json.JSONDecoder(parse_float=_rational)


def parse_model(text: str) -> Model:
    """Parse and validate a model document; raises ModelFormatError with a
    field path on any problem."""
    try:
        if text.startswith("\ufeff"):  # `json.loads` refuses a BOM; `decode` alone does not
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        obj = _DECODER.decode(text)
    except (ValueError, RecursionError) as exc:
        raise ModelFormatError(f"invalid JSON: {exc}") from None
    return model_from_dict(obj)


def model_from_dict(obj: Any) -> Model:
    _require_keys(
        obj,
        {"worlds", "measure", "sites", "initial", "events", "consistency_mode"},
        {"worlds", "sites", "events"},
        "$",
    )
    worlds = _string_list(obj["worlds"], "$.worlds")
    if not worlds:
        raise _err("$.worlds", "at least one world required")
    known = set(worlds)
    if len(known) != len(worlds):
        raise _err("$.worlds", "world labels must be unique")
    if not all(worlds):
        raise _err("$.worlds", "world labels must be nonempty strings")

    weights = None
    if "measure" in obj:
        raw = obj["measure"]
        if not isinstance(raw, dict):
            raise _err("$.measure", "expected an object mapping worlds to weights")
        weights = {}
        for label, value in raw.items():
            if label not in known:
                raise _err(f"$.measure.{label}", f"unknown world: {label!r}")
            if isinstance(value, bool):
                raise _err(f"$.measure.{label}", "bad weight: booleans are not weights")
            try:
                weight = _rational(value) if isinstance(value, str) else Fraction(value)
            except (ValueError, TypeError, ZeroDivisionError, OverflowError) as exc:
                raise _err(f"$.measure.{label}", f"bad weight: {exc}") from None
            if weight < 0:
                raise _err(f"$.measure.{label}", "weights must be nonnegative")
            weights[label] = weight
    try:
        space = PossibilitySpace.create(worlds, weights)
    except ValueError as exc:
        raise _err("$.measure", str(exc)) from None

    sites = _string_list(obj["sites"], "$.sites")
    if not sites:
        raise _err("$.sites", "at least one site required")
    if len(set(sites)) != len(sites):
        raise _err("$.sites", "site names must be unique")
    if not all(name.strip() for name in sites):
        raise _err("$.sites", "site names must not be empty or blank")
    site_index = {name: i for i, name in enumerate(sites)}

    mode = ConsistencyMode.NONEMPTY
    if "consistency_mode" in obj:
        raw_mode = obj["consistency_mode"]
        try:
            mode = ConsistencyMode(raw_mode)
        except ValueError:
            raise _err(
                "$.consistency_mode",
                f"expected 'nonempty' or 'positive_measure', got {raw_mode!r}",
            ) from None

    records = [space.full()] * len(sites)
    if "initial" in obj:
        by_site = _site_subset_map(space, site_index, site_index, obj["initial"], "$.initial")
        for idx, subset in by_site:
            records[idx] = subset
    initial = tuple(records)

    if not isinstance(obj["events"], list):
        raise _err("$.events", "expected a list")
    events: list[Event] = []
    seen_names: set[str] = set()
    for pos, raw_event in enumerate(obj["events"]):
        try:
            events.append(_event(raw_event, space, sites, site_index, seen_names))
        except ModelFormatError as exc:
            raise ModelFormatError(f"$.events[{pos}]{exc}") from None

    # every fact `Model(...)` checks has been proved above, at its path
    return Model._proved(space, tuple(sites), initial, tuple(events), mode)


_EVENT_FIELDS = frozenset({"name", "kind", "support", "rules", "constants"})
_EVENT_REQUIRED = frozenset({"name", "kind", "support"})
_RULE_FIELDS = frozenset({"guard", "result"})


def _event(
    raw: Any,
    space: PossibilitySpace,
    sites: list[str],
    site_index: dict[str, int],
    seen_names: set[str],
) -> Event:
    """One event of the `events` list.  Error paths are relative to the
    event; the caller prefixes its position."""
    _require_keys(raw, _EVENT_FIELDS, _EVENT_REQUIRED, "")
    name = raw["name"]
    if not isinstance(name, str) or not name:
        raise _err(".name", "expected a nonempty string")
    if name in seen_names:
        raise _err(".name", f"duplicate event name: {name!r}")
    seen_names.add(name)
    support_names = _unique(_string_list(raw["support"], ".support"), ".support", "sites")
    allowed = {}  # the names the event's site maps may use
    for site_name in support_names:
        if site_name not in site_index:
            raise _err(".support", f"unknown site: {site_name!r}")
        allowed[site_name] = site_index[site_name]
    support = tuple(sorted(allowed.values()))
    kind = raw["kind"]
    if kind == "table":
        if "constants" in raw:
            raise _err("", "table events take 'rules', not 'constants'")
        raw_rules = raw.get("rules")
        if not isinstance(raw_rules, list):
            raise _err(".rules", "expected a list")
        rules = []
        for rpos, raw_rule in enumerate(raw_rules):
            try:
                _require_keys(raw_rule, _RULE_FIELDS, _RULE_FIELDS, "")
                guard = _site_subset_map(space, site_index, allowed, raw_rule["guard"], ".guard")
                result = _site_subset_map(space, site_index, allowed, raw_rule["result"], ".result")
            except ModelFormatError as exc:
                raise ModelFormatError(f".rules[{rpos}]{exc}") from None
            rules.append(Rule(guard, result))
        return Event(name, support, EventKind.TABLE, rules=tuple(rules))
    if kind == "intersect":
        if "rules" in raw:
            raise _err("", "intersect events take 'constants', not 'rules'")
        raw_constants = raw.get("constants")
        if raw_constants is None:
            raise _err("", "intersect events require 'constants'")
        constants = _site_subset_map(space, site_index, allowed, raw_constants, ".constants")
        if len(constants) != len(support):
            covered = [sites[site] for site, _ in constants]
            supported = [sites[site] for site in support]
            message = f"intersect constants cover sites {covered}, support is {supported}"
            raise _err(".constants", message)
        return Event(name, support, EventKind.INTERSECT, constants=constants)
    raise _err(".kind", f"expected 'table' or 'intersect', got {kind!r}")


def model_to_dict(model: Model) -> dict:
    """Canonical dictionary form; defaults (counting measure, full initial
    records, nonempty mode) are omitted.  It is the parsed canonical text,
    so the two forms cannot drift apart."""
    return json.loads(serialize_model(model))


def _block(parts: Iterable[str], newline: str, brackets: str) -> str:
    """`json.dumps(..., indent=2)`'s layout of a list or object
    (`brackets` is "[]" or "{}") whose items are written out as the
    nonempty `parts`, starting on the line whose break and indentation
    are `newline`.  The model writer and the report writer lay out every
    list and object through it."""
    inner = newline + "  "
    text = ("," + inner).join(parts)
    return brackets[0] + inner + text + newline + brackets[1] if text else brackets


def serialize_model(model: Model) -> str:
    """The canonical text of `model`: `json.dumps(..., indent=2)` of its
    canonical dictionary form (see `model_to_dict`), plus a newline,
    written straight from the model's masks.  Keys come in a fixed order,
    world lists in label order and weights as integers or "p/q" strings.  The text of each distinct
    world mask at each indentation is built once per call."""
    space, sites, full = model.space, model.sites, model.space.full_mask  # type: ignore[attr-defined]
    labels_of = space.labels_of
    quoted = [_quote(site) for site in sites]
    keys = [name + ": " for name in quoted]
    lists: dict[tuple[int, str], str] = {}

    def records(pairs: Iterable[tuple[int, Subset]], newline: str) -> str:
        # a map from site names to world lists, on the line of `newline`
        inner = newline + "  "
        parts = []
        for site, record in pairs:
            mask = record.mask
            text = lists.get((mask, inner))
            if text is None:
                text = lists[mask, inner] = _block(map(_quote, labels_of(mask)), inner, "[]")
            parts.append(keys[site] + text)
        return _block(parts, newline, "{}")

    out = ['{\n  "worlds": ', _block(map(_quote, space.worlds), "\n  ", "[]")]
    if any(w != 1 for w in space.weights):
        weights = [
            _quote(label) + ": " + (str(w.numerator) if w.denominator == 1 else _quote(str(w)))
            for label, w in zip(space.worlds, space.weights)
        ]
        out += [',\n  "measure": ', _block(weights, "\n  ", "{}")]
    out += [',\n  "sites": ', _block(quoted, "\n  ", "[]")]
    if model.mode is not ConsistencyMode.NONEMPTY:
        out += [',\n  "consistency_mode": ', _quote(model.mode.value)]
    initial = [(site, record) for site, record in enumerate(model.initial) if record.mask != full]
    if initial:
        out += [',\n  "initial": ', records(initial, "\n  ")]
    events = []
    for event in model.events:
        head = (
            '{\n      "name": ' + _quote(event.name)
            + ',\n      "kind": ' + _quote(event.kind.value)
            + ',\n      "support": ' + _block([quoted[site] for site in event.support], "\n      ", "[]")
        )
        if event.kind is EventKind.TABLE:
            rules = [
                '{\n          "guard": ' + records(rule.guard, "\n          ")
                + ',\n          "result": ' + records(rule.result, "\n          ") + "\n        }"
                for rule in event.rules
            ]
            body = ',\n      "rules": ' + _block(rules, "\n      ", "[]")
        else:
            body = ',\n      "constants": ' + records(event.constants, "\n      ")
        events.append(head + body + "\n    }")
    out += [',\n  "events": ', _block(events, "\n  ", "[]"), "\n}\n"]
    return "".join(out)


def model_digest(model: Model) -> str:
    return hashlib.sha256(serialize_model(model).encode("utf-8")).hexdigest()


def load_model(path: str | os.PathLike[str]) -> Model:
    """Read and parse the model file at `path`.

    The file is read as strict UTF-8 with universal newlines, as
    `Path.read_text` reads it: a CRLF or lone CR line break reads as LF.
    One unbuffered binary read and a decode cost less than a text-mode
    stream, and line breaks are translated only when the text holds a CR.
    `os.fspath` refuses an int, so a file descriptor is neither read nor
    closed.
    """
    with open(os.fspath(path), "rb", buffering=0) as file:
        data = file.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ModelFormatError(f"{path}: not UTF-8 text: {exc}") from None
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return parse_model(text)


def fixture_path(name: str) -> Path:
    """Path of a bundled example model (name without the .json suffix)."""
    path = Path(str(resources.files("chronocheck").joinpath("fixtures", f"{name}.json")))
    if not path.exists():
        raise ValueError(f"no bundled fixture named {name!r}")
    return path


def load_fixture(name: str) -> Model:
    return load_model(fixture_path(name))
