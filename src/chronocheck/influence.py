"""Detection of weak and strong operational influence with replayable
witnesses.

Weak influence e -> f: some reachable state and shared site where running
e first changes the set of worlds f rules out there.  Strong influence
e => f: running e first flips which of two disjoint, nontrivial branch
constraints f writes on some observable at a shared site.  Witness search
is deterministic (exploration order of states, then site index), so
reports are reproducible.  A witness names its state by table id;
`ReachabilityGraph.state` gives the records on request.

The four queries take the model beside its explored graph and refuse,
through `ReachabilityGraph.table_for`, a graph explored from a model with
other events or mode; the post-checks `binary_witness` and
`verify_strong_witness` read the graph's own model.

An event reads and writes only its support.  So at a state where e leaves
every site it shares with f unchanged, e leaves all of f's support
unchanged, f writes the same records with or without e, and neither kind
of witness can sit there.  The search therefore computes, once per graph,
which sites each event changes at each explored state, and scans for a
pair (e, f) only the states where e changes a shared site.

The scan reads the packed states of the graph's `TransitionTable` (see
`reachability`), and both tests run on whole states, masked with the
table's `supports` and `keep`: the weak test over every shared site in
one expression, its witness site the table's `first_site` of the
difference; the strong test gated by two whole-state ANDs and then
checked per site with the table's `field`, because both one-sided
differences must lie on the same site.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import Subset, measure_of, mode_mask
from .events import Event, apply_event
from .model import Model
from .reachability import ReachabilityGraph

ORACLE_MAX_WORLDS = 16


class WitnessPostcheckError(RuntimeError):
    """A constructed observable failed its required separation property."""


@dataclass(frozen=True)
class WeakWitness:
    e: str
    f: str
    state: int
    site: int
    delta_without: Subset
    delta_with: Subset


@dataclass(frozen=True)
class StrongWitness:
    e: str
    f: str
    state: int
    site: int
    observable: Subset
    branch0: Subset
    branch1: Subset


@dataclass
class InfluenceGraph:
    events: tuple[str, ...]
    weak_edges: dict[tuple[str, str], WeakWitness]
    strong_edges: dict[tuple[str, str], StrongWitness]


_Changes = list[tuple[int, int, list[int], list[int]]]


def _changed_sites(graph: ReachabilityGraph, events: Sequence[int]) -> list[_Changes]:
    """Per event index in `events`, one (state, packed state xor successor,
    successor row of the state, successor row of the event's target) entry
    for every explored state where the event changes some site, in
    exploration order.  The rows are filled here, so the witness scan reads
    them directly."""
    table = graph.table
    packed = table.packed
    changes: list[_Changes] = [[] for _ in events]
    for sid in range(graph.state_count):
        base = packed[sid]
        row = table.row(sid)
        for entries, event in zip(changes, events):
            target = row[event]
            if target != sid:  # interned: a different id is a different state
                entries.append((sid, base ^ packed[target], row, table.row(target)))
    return changes


def _influence(
    graph: ReachabilityGraph, e: int, f: int, changes: _Changes
) -> tuple[WeakWitness | None, StrongWitness | None]:
    """First weak and first strong witness for event index e before f,
    found in one scan of e's change entries (`changes`, from
    `_changed_sites`), in exploration order, then site order.  Both callers
    dismiss pairs with disjoint supports before the scan: `_single_pair`
    before it builds e's entries, `build_influence_graphs` after it has
    built every event's entries in one pass over the states.
    """
    table, model = graph.table, graph.model
    shared = table.supports[e] & table.supports[f]
    test = table.keep & shared
    field = table.field
    packed = table.packed
    space = model.space
    e_name, f_name = model.event_names[e], model.event_names[f]
    weak: WeakWitness | None = None
    strong: StrongWitness | None = None
    for sid, moved, row, shifted_row in changes:
        if not moved & shared:
            continue
        base = packed[sid]
        shifted = packed[row[e]]
        p0 = packed[row[f]]
        p1 = packed[shifted_row[f]]
        if weak is None:
            delta_without = base & ~p0
            delta_with = shifted & ~p1
            differ = (delta_without ^ delta_with) & test
            if differ:
                site = table.first_site(differ)
                weak = WeakWitness(
                    e_name,
                    f_name,
                    sid,
                    site,
                    Subset(space, field(delta_without, site)),
                    Subset(space, field(delta_with, site)),
                )
        if strong is None:
            only0 = p0 & ~p1 & test
            only1 = p1 & ~p0 & test
            if only0 and only1:
                for site in model.events[e].support:
                    if field(only0, site) and field(only1, site):
                        observable = field(p0 ^ p1, site)
                        strong = StrongWitness(
                            e_name,
                            f_name,
                            sid,
                            site,
                            Subset(space, observable),
                            Subset(space, field(p0, site) & observable),
                            Subset(space, field(p1, site) & observable),
                        )
                        break
        if weak is not None and strong is not None:
            break
    return weak, strong


def _pair(graph: ReachabilityGraph, e_name: str, f_name: str) -> tuple[Event, Event]:
    """The two named events of the graph's model, which influence needs to
    be distinct."""
    if e_name == f_name:
        raise ValueError(f"influence needs two distinct events, got {e_name!r} twice")
    return graph.model.event(e_name), graph.model.event(f_name)


def _single_pair(
    graph: ReachabilityGraph, e_name: str, f_name: str
) -> tuple[WeakWitness | None, StrongWitness | None]:
    """`_influence` for one pair, with change entries built for e only."""
    _pair(graph, e_name, f_name)  # raises on an unknown or repeated name
    names = graph.model.event_names
    e, f = names.index(e_name), names.index(f_name)
    supports = graph.table.supports
    if not supports[e] & supports[f]:
        return None, None
    return _influence(graph, e, f, _changed_sites(graph, (e,))[0])


def weak_influence(
    model: Model, graph: ReachabilityGraph, e_name: str, f_name: str
) -> WeakWitness | None:
    """First witness that executing e changes f's write effect at a shared
    site, or None.  Pairs with disjoint supports are dismissed outright."""
    graph.table_for(model)
    return _single_pair(graph, e_name, f_name)[0]


def binary_witness(graph: ReachabilityGraph, witness: WeakWitness) -> Subset:
    """Observable built as the symmetric difference of the two write
    effects, post-verified to separate the two post-f records with
    positive weight at the witness state of `graph`.  Raises
    WitnessPostcheckError when the construction does not separate them,
    which happens exactly when the entire write difference consists of
    worlds the influencer removed itself."""
    model = graph.model
    observable = witness.delta_with ^ witness.delta_without
    e, f = model.event(witness.e), model.event(witness.f)
    base = graph.state(witness.state)
    post0 = apply_event(f, base)[witness.site]
    post1 = apply_event(f, apply_event(e, base))[witness.site]
    separation = (post0 & observable) ^ (post1 & observable)
    if measure_of(separation) == 0:
        raise WitnessPostcheckError(
            f"observable {observable.sorted_labels()} does not separate the "
            f"post-{witness.f} records at state {witness.state} "
            f"(site {model.sites[witness.site]})"
        )
    return observable


def strong_influence(
    model: Model, graph: ReachabilityGraph, e_name: str, f_name: str
) -> StrongWitness | None:
    """First strong-influence witness in deterministic order, or None.

    For a candidate (state, site) let P0 be f's post-record without a
    prior e and P1 with one.  Some observable carries two disjoint
    nontrivial branches iff both one-sided differences P0\\P1 and P1\\P0
    are nonempty (carry weight, in measured mode): their union is then
    such an observable, and conversely any observable B with disjoint
    nontrivial branches meets both differences.  The emitted witness uses
    the canonical observable P0 xor P1.
    """
    graph.table_for(model)
    return _single_pair(graph, e_name, f_name)[1]


def strong_influence_oracle(
    model: Model,
    graph: ReachabilityGraph,
    e_name: str,
    f_name: str,
) -> StrongWitness | None:
    """Literal brute-force witness search enumerating every observable.

    Kept deliberately naive as the independent cross-check for
    strong_influence: it applies events through `apply_event`, not the
    transition table.  Like `strong_influence`, it refuses a graph explored
    from a model with other events or mode, and it refuses spaces with
    more than ORACLE_MAX_WORLDS worlds because it enumerates all
    2^|worlds| observables.
    """
    graph.table_for(model)
    size = model.space.size
    if size > ORACLE_MAX_WORLDS:
        raise ValueError(
            f"oracle enumeration infeasible: {size} worlds > {ORACLE_MAX_WORLDS}"
        )
    e, f = _pair(graph, e_name, f_name)
    shared = sorted(set(e.support) & set(f.support))
    if not shared:
        return None
    test = mode_mask(model.space, model.mode)
    n_masks = 1 << size
    for sid in range(graph.state_count):
        base = graph.state(sid)
        post_f_base = apply_event(f, base)
        post_f_shifted = apply_event(f, apply_event(e, base))
        for site in shared:
            p0 = post_f_base[site].mask
            p1 = post_f_shifted[site].mask
            both = p0 & p1
            for mask in range(n_masks):
                if (
                    both & mask & test == 0
                    and p0 & mask & test
                    and p1 & mask & test
                ):
                    observable = model.space.from_mask(mask)
                    return StrongWitness(
                        e.name,
                        f.name,
                        sid,
                        site,
                        observable,
                        model.space.from_mask(p0 & mask),
                        model.space.from_mask(p1 & mask),
                    )
    return None


def verify_strong_witness(graph: ReachabilityGraph, witness: StrongWitness) -> bool:
    """Re-derive a strong witness from its state in `graph` and check its
    claims."""
    model = graph.model
    e, f = model.event(witness.e), model.event(witness.f)
    if witness.site not in set(e.support) & set(f.support):
        return False
    base = graph.state(witness.state)
    p0 = apply_event(f, base)[witness.site]
    p1 = apply_event(f, apply_event(e, base))[witness.site]
    test = mode_mask(model.space, model.mode)
    b = witness.observable
    if (p0 & b) != witness.branch0 or (p1 & b) != witness.branch1:
        return False
    exclusive = (witness.branch0.mask & witness.branch1.mask) & test == 0
    nontrivial = bool(witness.branch0.mask & test) and bool(witness.branch1.mask & test)
    return exclusive and nontrivial


def build_influence_graphs(model: Model, graph: ReachabilityGraph) -> InfluenceGraph:
    """Weak and strong edges for every ordered pair of distinct events."""
    names = model.event_names
    supports = graph.table_for(model).supports
    weak: dict[tuple[str, str], WeakWitness] = {}
    strong: dict[tuple[str, str], StrongWitness] = {}
    for e, changes in enumerate(_changed_sites(graph, range(len(names)))):
        for f in range(len(names)):
            if f == e or not changes or not supports[e] & supports[f]:
                continue
            w, s = _influence(graph, e, f, changes)
            if w is not None:
                weak[(names[e], names[f])] = w
            if s is not None:
                strong[(names[e], names[f])] = s
    return InfluenceGraph(names, weak, strong)
