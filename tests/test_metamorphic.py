"""Metamorphic properties: `diagnose` on a model and on a renamed, padded or
split copy of it must agree on every fact the copy cannot change.

A permutation of the worlds moves every bit of every packed field; one of
the sites moves whole fields, across bit 64 in the `wide` shape; one of the
event declaration order changes the exploration order and so every state
id.  Facts are compared by world, site and event names, never by index;
findings name their states by id, and the records of those states are
compared.  A split world's copy and a renamed event are read back under
the original's names.
"""

import random
from collections import Counter

from hypothesis import assume, given
from hypothesis import strategies as st

from chronocheck import ConsistencyMode, diagnose
from chronocheck.modelfile import model_from_dict, model_to_dict
from chronocheck.randmodels import random_model


def drawn(seed, shape):
    """One model from `seed`.  "probe" draws the probe population's recipe;
    "wide" puts at most three worlds at the top of 40-world fields of up to
    five sites (200 bits), as the transition-table test does."""
    rng = random.Random(seed)
    if shape == "probe":
        return random_model(
            rng,
            intersect_prob=rng.choice((0, 0.3, 0.5)),
            monotone_bias=rng.choice((0.3, 0.7, 1.0)),
            max_events=rng.choice((3, 4, 5)),
        )
    model = random_model(rng, max_worlds=3, max_sites=5, intersect_prob=0.3, monotone_bias=0.3)
    padding = [f"pad{i}" for i in range(40 - model.space.size)]
    # every record named, so that no record holds a padding world
    initial = {name: record.sorted_labels() for name, record in zip(model.sites, model.initial)}
    return rebuilt(model, worlds=padding + list(model.space.worlds), initial=initial)


def rebuilt(model, **fields):
    """`model` read back from its model-file form with `fields` replaced."""
    return model_from_dict(dict(model_to_dict(model), **fields))


def facts(model, witnesses=False, of=None, alias=None):
    """What `diagnose(model)` finds, by name, restricted to the sites and
    events of `of` (default: `model`).  With `witnesses`, also each
    witness's state id and site.  `alias` maps world labels and event names
    of `model` to the names the facts are given under."""
    report = diagnose(model)
    names = model.sites
    sites = (of or model).sites
    events = set((of or model).event_names)
    alias = alias or {}

    def name(label):
        return alias.get(label, label)

    def labels(subset):
        return tuple(sorted(set(map(name, subset.sorted_labels()))))

    def ours(pairs):
        return {(name(e), name(f)): (e, f) for e, f in pairs if events.issuperset((e, f))}

    def state(records):
        by_name = dict(zip(names, records))
        return tuple((site, labels(by_name[site])) for site in sorted(sites))

    ig = report.influence
    graph = report.graph
    found = {
        "verdict": report.verdict,
        "weak": set(ours(ig.weak_edges)),
        "strong": set(ours(ig.strong_edges)),
        "precedes": set(ours(report.chronology.precedes)),
        "inconsistent": len(report.gs_violations),
        "shrink_only": Counter(
            (name(f.event), names[f.site], labels(f.added), state(graph.state(f.state)))
            for f in report.monotonicity_violations
        ),
        "bd": Counter(
            (name(v.witness.e), name(v.witness.f), v.polarity, state(graph.state(v.state)))
            for v in report.bd_violations
            if events.issuperset((v.witness.e, v.witness.f))
        ),
        "state_count": report.graph.state_count,
    }
    if witnesses:
        for kind, edges in (("weak", ig.weak_edges), ("strong", ig.strong_edges)):
            found[f"{kind}_witnesses"] = {
                pair: (edges[key].state, names[edges[key].site]) for pair, key in ours(edges).items()
            }
    return found


seeds = st.integers(0, 10**9)
shapes = st.sampled_from(("probe", "wide"))


@given(seed=seeds, shape=shapes, data=st.data())
def test_permuting_worlds_keeps_every_fact(seed, shape, data):
    model = drawn(seed, shape)
    worlds = data.draw(st.permutations(model.space.worlds))
    assert facts(rebuilt(model, worlds=worlds), witnesses=True) == facts(model, witnesses=True)


@given(seed=seeds, shape=shapes, data=st.data())
def test_permuting_sites_keeps_every_fact_but_the_witnesses(seed, shape, data):
    model = drawn(seed, shape)
    sites = data.draw(st.permutations(model.sites))
    assert facts(rebuilt(model, sites=sites)) == facts(model)


@given(seed=seeds, shape=shapes, data=st.data())
def test_permuting_events_keeps_every_fact_but_the_witnesses(seed, shape, data):
    model = drawn(seed, shape)
    events = data.draw(st.permutations(model_to_dict(model)["events"]))
    assert facts(rebuilt(model, events=events)) == facts(model)


@given(seed=seeds, shape=shapes)
def test_an_idle_site_keeps_the_facts_of_the_original_events(seed, shape):
    model = drawn(seed, shape)
    padded = rebuilt(model, sites=[*model.sites, "idle"])
    assert facts(padded, witnesses=True, of=model) == facts(model, witnesses=True)


@given(seed=seeds, shape=shapes)
def test_a_ruleless_event_keeps_the_facts_of_the_original_events(seed, shape):
    model = drawn(seed, shape)
    noop = {"name": "noop", "kind": "table", "support": [model.sites[0]], "rules": []}
    padded = rebuilt(model, events=[*model_to_dict(model)["events"], noop])
    # strong edges into the identity event exist (its post-records are the
    # records e leaves), but none leave it, so the original events' facts
    # and the verdict stay
    assert facts(padded, witnesses=True, of=model) == facts(model, witnesses=True)


@given(seed=seeds, shape=shapes)
def test_measured_mode_with_unit_weights_keeps_every_fact(seed, shape):
    # with every weight 1, a world counts in measured mode exactly when it
    # counts in nonempty mode
    model = drawn(seed, shape)
    assume(model.mode is ConsistencyMode.NONEMPTY)
    measured = rebuilt(
        model,
        consistency_mode="positive_measure",
        measure={world: 1 for world in model.space.worlds},
    )
    assert measured.mode is ConsistencyMode.POSITIVE_MEASURE
    assert facts(measured, witnesses=True) == facts(model, witnesses=True)


@given(seed=seeds, data=st.data())
def test_splitting_a_world_keeps_every_fact(seed, data):
    # two copies with the same membership in every record, guard, result and
    # constant, each with half the weight, read as the one world they split
    model = drawn(seed, "probe")
    world = data.draw(st.sampled_from(model.space.worlds))
    doc = model_to_dict(model)

    def twins(records):
        return {site: [*labels, "copy"] if world in labels else labels for site, labels in records.items()}

    events = []
    for event in doc["events"]:
        if "constants" in event:
            events.append(dict(event, constants=twins(event["constants"])))
        else:
            rules = [{"guard": twins(r["guard"]), "result": twins(r["result"])} for r in event["rules"]]
            events.append(dict(event, rules=rules))
    weights = dict(zip(model.space.worlds, model.space.weights))
    weights[world] = weights["copy"] = weights[world] / 2
    split = rebuilt(
        model,
        worlds=[*model.space.worlds, "copy"],
        measure={label: str(weight) for label, weight in weights.items()},
        initial=twins(doc.get("initial", {})),
        events=events,
    )
    assert facts(split, witnesses=True, alias={"copy": world}) == facts(model, witnesses=True)


@given(seed=seeds)
def test_renaming_events_against_their_sorted_order_keeps_every_fact(seed):
    # ranks break ties by name, so the linear extension may change; the
    # order `precedes` may not
    model = drawn(seed, "probe")
    ranked = sorted(model.event_names)
    new = {name: f"r{len(ranked) - rank:02d}" for rank, name in enumerate(ranked)}
    events = [dict(event, name=new[event["name"]]) for event in model_to_dict(model)["events"]]
    renamed = rebuilt(model, events=events)
    back = {name: old for old, name in new.items()}
    assert facts(renamed, witnesses=True, alias=back) == facts(model, witnesses=True)
