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

The search runs on the graph's lanes (`reachability.Lanes`): X holds every
explored state, one lane each, and the graph keeps `e(X)` per event, which
is E when e is the influencer and P0 when e is the influenced event.  Per
ordered pair it computes P1 = f(E) with the lane kernel, and then
- the weak lanes `((X & ~P0) ^ (E & ~P1)) & rep(test)`, where `test` holds
  the worlds that count on the shared sites;
- the strong lanes, where one site field is nonzero in both one-sided
  differences `P0 & ~P1` and `P1 & ~P0` (masked the same way), found with
  a per-field carry test.
The lowest set bit of each gives the first witness: its lane is the state
and its field the site.  A pair is skipped when e moves no world of f's
support at any explored state, weighted or not, since f's guards read
zero-weight worlds too.  No state is stepped to on the way, so influence
adds no state to the graph's table.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _influence(graph: ReachabilityGraph, e: int, f: int) -> tuple[WeakWitness | None, StrongWitness | None]:
    """First weak and first strong witness for event index e before f, in
    exploration order, then site order, from one pass over the graph's
    lanes (see the module docstring)."""
    table, lanes = graph.table, graph.lanes
    x, shifted = lanes.x, lanes.after(e)
    shared = table.supports[e] & table.supports[f]
    # e can move zero-weight worlds only, and f's guards still read them,
    # so the gate is on every world of the shared sites
    if not (x ^ shifted) & lanes.spread(shared):
        return None, None
    test = lanes.spread(table.keep & shared)
    p0 = lanes.after(f)
    p1 = lanes.apply(f, shifted)
    weak: WeakWitness | None = None
    strong: StrongWitness | None = None
    delta_without = x & ~p0
    delta_with = shifted & ~p1
    differ = (delta_without ^ delta_with) & test
    model = table.model
    field, space, names = table.field, model.space, model.event_names
    if differ:
        sid = lanes.first(differ)
        site = table.first_site(lanes.lane(differ, sid))
        weak = WeakWitness(
            names[e],
            names[f],
            sid,
            site,
            Subset(space, field(lanes.lane(delta_without, sid), site)),
            Subset(space, field(lanes.lane(delta_with, sid), site)),
        )
    apart = (p0 ^ p1) & test
    only0, only1 = apart & p0, apart & p1
    if only0 and only1:
        both = lanes.nonempty_fields(only0) & lanes.nonempty_fields(only1)
        if both:
            sid = lanes.first(both)
            site = table.first_site(lanes.lane(both, sid))
            post0, post1 = field(lanes.lane(p0, sid), site), field(lanes.lane(p1, sid), site)
            observable = post0 ^ post1
            strong = StrongWitness(
                names[e],
                names[f],
                sid,
                site,
                Subset(space, observable),
                Subset(space, post0 & observable),
                Subset(space, post1 & observable),
            )
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
    """`_influence` for one named pair; pairs with disjoint supports are
    dismissed outright."""
    _pair(graph, e_name, f_name)  # raises on an unknown or repeated name
    names = graph.model.event_names
    e, f = names.index(e_name), names.index(f_name)
    supports = graph.table.supports
    if not supports[e] & supports[f]:
        return None, None
    return _influence(graph, e, f)


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
    lanes = graph.lanes
    for e in range(len(names)):
        if lanes.after(e) == lanes.x:  # e changes no explored state
            continue
        for f in range(len(names)):
            if f == e or not supports[e] & supports[f]:
                continue
            w, s = _influence(graph, e, f)
            if w is not None:
                weak[(names[e], names[f])] = w
            if s is not None:
                strong[(names[e], names[f])] = s
    return InfluenceGraph(names, weak, strong)
