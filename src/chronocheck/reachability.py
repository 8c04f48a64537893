"""Explicit-state exploration of the transition system over record states.

Every transition comes from one `TransitionTable` per exploration.  A
record state is one int, site-major (see `MaskState`), and this module is
the only one that knows that layout.  Each event is compiled once
(`compile_event`) into packed masks: an intersect event is one rule whose
empty guard matches every state and whose clear mask keeps the constants,
and a table rule is a (guarded, guard, clear, result) tuple.  Those masks
are the one compilation of an event.  `TransitionTable.row` applies them
to one state, filling the state's successor ids under every event in one
loop, and `Lanes.apply` applies them to every explored state at once.
States are interned to integer ids; the table stores those ids and nothing
else, and its rows are the one store of transitions (see
`ReachabilityGraph`).  Shrink-only violations are read off the packed
source and target of a flagged arc.  Checks test whole states with single
int operations, against masks the table packs once: the worlds that count
at every site (`keep`) and each event's support (`supports`).  They read
one site out of a packed value only through `TransitionTable.field` and
`TransitionTable.first_site`, and pack (site, record) pairs only through
`TransitionTable.pack`.

The lane layout puts every explored state of a graph into one int
(`ReachabilityGraph.lanes`, built by `explore`): state i sits in lane i,
bits [i*L, (i+1)*L), where L is the record width W*S (W worlds, S sites)
rounded up to whole bytes with at least one spare bit above it.  One
multiplication by REP, the int with bit 0 of every lane set, copies a mask
into every lane, so one big-int operation tests every explored state (SIMD
within a register: Lamport, CACM 18(8), 1975; Warren, Hacker's Delight,
ch. 6).  Adding all ones to a lane's record bits carries into its spare bit
iff they are nonzero, which `Lanes.nonzero` tests for every lane at once.
A guarded rule matches the lanes where the guarded records xor the guard
are zero; the first matching rule wins.  Flagged lanes are read with one
`to_bytes`, so a check costs one scan plus work per finding.

Every per-state premise check runs on the lanes, as does the influence
search (see `influence`): `check_gs` ANDs the site fields of every lane
together and flags the lanes where no counted world is left;
`check_monotonicity` flags, per event, the lanes where `after(e) & ~x` is
nonzero, and `check_clock_monotone` weighs only those arcs; `check_diamond`
compares both orders of each independent pair on every lane; and the
branch-determinacy check in `chronology` filters states the same way.  No
premise check steps past the explored states: the only states one interns
are the two end states of a commutation finding.

Every finding and witness names the states it is about by table id, and
callers such as the report and the DOT view read explored states by id
and arc: a state's records come from `ReachabilityGraph.state`, built
once per id on request, and the events of the breadth-first path that
first reached it from `ReachabilityGraph.occurred_names`.  The report
writes a state's labels from `TransitionTable.packed` and `field`; only
its clock entries, the DOT view and the reference post-checks and oracle
build a `RecordState`, and exploration, the premise checks and influence
build none.  The graph's `nodes`, `edges` and `distinct_states` are the
counting views of the benchmark's tracer: the explored ids and `arcs`.

Exploration visits each distinct record state once and keeps, per state,
the event bitmask of the breadth-first path that first reached it.  Which
events have or have not fired on the way to a state is a property of the
paths into it, not of the state, so `occurrence_masks` computes it for
every state at once with a fixpoint over the explored rows; branch
determinacy runs it only when the lanes leave a candidate state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import compress, repeat
from typing import Iterable

from .core import RecordState, Subset, mode_mask
from .events import Event, EventKind
from .model import Model

MaskState = int
"""A whole record state as one int, site-major: with W worlds, site s holds
its record's world mask in bits [s*W, (s+1)*W)."""


CompiledRule = tuple[int, int, int, int]
"""One guarded case of an event as packed masks (guarded, guard, clear,
result): a state matches when `state & guarded == guard`, and a match leads
to `state & clear | result`."""


def compile_event(event: Event, table: TransitionTable) -> tuple[CompiledRule, ...]:
    """The event as masks of `table`'s layout (see `MaskState`): its rules
    in match order, the first match wins and no match is the identity.

    A table rule guards the sites its guard names, clears the sites its
    result names and sets the packed replacements.  An intersect event is
    one rule with an empty guard, which matches every state, and a clear
    mask that holds each constant at its site and all ones elsewhere.  Every
    mask is cut to the record bits, so a lane kernel can copy it into each
    lane.  `TransitionTable.row` applies these masks to one state and
    `Lanes.apply` to every explored state at once; both agree with
    `apply_event`, which stays the reference semantics.
    """
    pack, site_full, record_bits = table.pack, table.site_full, table.record_bits

    def cover(items: Iterable[tuple[int, Subset]]) -> int:
        mask = 0
        for site, _ in items:
            mask |= site_full[site]
        return mask

    if event.kind is EventKind.INTERSECT:
        return ((0, 0, record_bits & ~cover(event.constants) | pack(event.constants), 0),)
    return tuple(
        (cover(rule.guard), pack(rule.guard), record_bits & ~cover(rule.result), pack(rule.result))
        for rule in event.rules
    )


class TransitionTable:
    """Successor state ids of every event at every record state the engine
    visits, filled one whole row on first lookup.

    States are interned to integer ids in first-seen order; `packed[sid]`
    is the state as one `MaskState` of `width` worlds per site, and
    `rules[i]` is event i compiled by `compile_event`.  `keep` holds the
    worlds that count in the model's mode at every site, `record_bits`
    every world of every site, `site_full[s]` every world of site s, and
    `supports[i]` every world of event i's supported sites.  `pack` builds
    a packed value from (site, record) pairs, and `field` and `first_site`
    read one site out of one.
    `state` and `intern_state` convert to and from `RecordState` at the API
    boundary.  Lookups work for any interned state; exploration fills the
    rows of the states it expands, and no premise check fills another.
    """

    def __init__(self, model: Model) -> None:
        self.model = model
        self.width = width = model.space.size
        self._full = full = (1 << width) - 1
        self.record_bits = (1 << width * len(model.sites)) - 1
        self.site_full = site_full = [full << site * width for site in range(len(model.sites))]
        counts = mode_mask(model.space, model.mode)
        keep = 0
        for site in range(len(model.sites)):
            keep |= counts << site * width
        self.keep = keep
        supports = []
        for event in model.events:
            support = 0
            for site in event.support:
                support |= site_full[site]
            supports.append(support)
        self.supports = supports
        self.packed: list[MaskState] = []
        self.rules = [compile_event(event, self) for event in model.events]
        self._ids: dict[MaskState, int] = {}
        self._succ: list[list[int] | None] = []

    def _intern(self, packed: MaskState) -> int:
        sid = self._ids.get(packed)
        if sid is None:
            sid = self._ids[packed] = len(self.packed)
            self.packed.append(packed)
            self._succ.append(None)
        return sid

    def intern_state(self, state: RecordState) -> int:
        """Id of `state`, assigned on first sight."""
        return self._intern(self.pack(enumerate(state)))

    def row(self, sid: int) -> list[int]:
        """Successor ids of every event from `sid`, in event order.  The
        first lookup applies every event; new successors are interned in
        event order."""
        row = self._succ[sid]
        if row is None:
            state = self.packed[sid]
            ids = self._ids
            row = []
            for rules in self.rules:
                for guarded, guard, clear, result in rules:
                    if state & guarded == guard:
                        nxt = state & clear | result
                        break
                else:
                    nxt = state
                target = ids.get(nxt)
                row.append(self._intern(nxt) if target is None else target)
            self._succ[sid] = row
        return row

    def step(self, sid: int, event: int) -> int:
        """Id of the state reached by event index `event` from state `sid`."""
        return self.row(sid)[event]

    def pack(self, records: Iterable[tuple[int, Subset]]) -> int:
        """Each (site, record) pair's world mask at its site, packed."""
        width = self.width
        value = 0
        for site, record in records:
            value |= record.mask << site * width
        return value

    def field(self, value: int, site: int) -> int:
        """The world mask that packed `value` holds at `site`."""
        return value >> site * self.width & self._full

    def first_site(self, value: int) -> int:
        """The site that holds the lowest set bit of nonzero packed `value`."""
        return ((value & -value).bit_length() - 1) // self.width

    def same(self, a: int, b: int) -> bool:
        """True iff states `a` and `b` agree on every world that counts in
        the model's mode."""
        return a == b or not (self.packed[a] ^ self.packed[b]) & self.keep

    def state(self, sid: int) -> RecordState:
        """The state as a `RecordState`, built anew on every call."""
        space, packed = self.model.space, self.packed[sid]
        return tuple(Subset(space, self.field(packed, site)) for site in range(len(self.model.sites)))


class Lanes:
    """Table states 0 to `count - 1` in one int `x`, one lane per state, and
    each event applied to every lane at once.

    State i sits in bits [i*size, (i+1)*size).  `size` is the table's
    record width `bits` rounded up to whole bytes with at least one spare
    bit above it, so a lane can carry out of its records without reaching
    the next lane.  `rep` holds bit 0 of every lane, and `spread(mask)`, one
    multiplication by it, copies a mask of one lane into every lane.
    `apply(event, value)` applies the event's compiled rules to every lane
    of `value`, and `after(event)` keeps `apply(event, x)` per event.
    `nonzero` flags the lanes with any record bit set, and `first`, `lane`,
    `read` and `flagged` read lanes back out.
    """

    def __init__(self, table: TransitionTable, count: int) -> None:
        self.table = table
        self.count = count
        self.bits = bits = table.record_bits.bit_length()
        nbytes = bits // 8 + 1
        self.size = 8 * nbytes
        self.x = int.from_bytes(b"".join([p.to_bytes(nbytes, "little") for p in table.packed[:count]]), "little")
        self.rep = rep = int.from_bytes(b"\1".ljust(nbytes, b"\0") * count, "little")
        self._records = table.record_bits * rep
        # the top bit of every site field: bit width - 1 of each field
        self._tops = (table.record_bits // table.site_full[0] << table.width - 1) * rep
        self._rules: list[list[CompiledRule] | None] = [None] * len(table.rules)
        self._after: list[int | None] = [None] * len(table.rules)

    def spread(self, mask: int) -> int:
        """`mask`, below bit `size`, in every lane."""
        return mask * self.rep

    def apply(self, event: int, value: int) -> int:
        """Event index `event` applied to every lane of `value` at once.

        A guarded rule matches a lane iff the lane's guarded records xor the
        guard are zero, that is iff `nonzero` leaves the lane's bit 0 clear.
        `(hit << bits) - hit` widens the matching lanes' bit 0 to their
        record bits; `unmatched` keeps the lanes no earlier rule matched, so
        the first match wins.
        """
        rules = self._rules[event]
        if rules is None:
            rep = self.rep
            rules = self._rules[event] = [
                (guarded * rep, guard * rep, clear * rep, result * rep)
                for guarded, guard, clear, result in self.table.rules[event]
            ]
        if not rules:
            return value
        guarded, guard, clear, result = rules[0]
        if not guarded:  # an empty first guard matches every lane
            return value & clear | result
        bits, nonzero = self.bits, self.nonzero
        out, unmatched = value, self.rep
        for guarded, guard, clear, result in rules:
            hit = unmatched & ~nonzero((value & guarded) ^ guard) if guarded else unmatched
            if hit:
                out ^= ((value & clear | result) ^ value) & ((hit << bits) - hit)
                unmatched ^= hit
                if not unmatched:
                    break
        return out

    def after(self, event: int) -> int:
        """`apply(event, x)`: every state's successor under the event."""
        value = self._after[event]
        if value is None:
            value = self._after[event] = self.apply(event, self.x)
        return value

    def nonzero(self, value: int) -> int:
        """Bit 0 of every lane of `value` whose record bits are not all
        zero; `value` has no bit outside the record bits.  Adding all ones
        to a lane's records carries into its spare bit iff they are
        nonzero."""
        return (value + self._records) >> self.bits & self.rep

    def nonempty_fields(self, value: int) -> int:
        """The top bit of every site field of every lane of `value` that is
        nonzero: adding all ones to a field's low bits carries into its top
        bit iff they are nonzero."""
        tops = self._tops
        low = self._records ^ tops
        return ((value & low) + low | value) & tops

    def first(self, value: int) -> int:
        """The lane that holds the lowest set bit of nonzero `value`."""
        return ((value & -value).bit_length() - 1) // self.size

    def lane(self, value: int, index: int) -> MaskState:
        """The record bits of lane `index` of `value`, as a packed state."""
        return value >> index * self.size & self.table.record_bits

    def read(self, value: int, indices: list[int]) -> list[MaskState]:
        """The record bits of each lane in `indices` of `value`, read with
        one `to_bytes`, not one shift of `value` per lane."""
        step, record_bits = self.size // 8, self.table.record_bits
        data = value.to_bytes(self.count * step, "little")
        return [int.from_bytes(data[i * step : (i + 1) * step], "little") & record_bits for i in indices]

    def flagged(self, flags: int, bit: int) -> list[int]:
        """Indices of the lanes whose bit `bit` is set in `flags`, which has
        no other bit set: one `to_bytes` and a scan of every lane's byte."""
        if not flags:
            return []
        step = self.size // 8
        data = flags.to_bytes(self.count * step, "little")
        return list(compress(range(self.count), data[bit // 8 :: step]))


@dataclass(frozen=True)
class ExplorationLimits:
    max_states: int = 100_000
    max_depth: int = 64

    def __post_init__(self) -> None:
        if self.max_states <= 0 or self.max_depth <= 0:
            raise ValueError("exploration limits must be positive")


@dataclass(frozen=True, eq=False)
class ReachabilityGraph:
    """Explored states and transitions over one transition table.  `model`
    is the model the table was compiled from; every check reads it there.

    The explored states are table states 0 to `state_count - 1`;
    `occurred[i]` is the event bitmask of the breadth-first path that first
    reached state i.  Exploration filled the table rows of states 0 to
    `expanded - 1`, and those rows hold every transition: an arc is a
    (source state, event index, target state) triple, one per expanded
    state and event, except that arcs to states past the `max_states` limit
    (ids from `state_count` on) are dropped.  `arcs` lists them and
    `arc_count` counts them, both read off the rows on every access, so a
    row filled after exploration adds no arc.  `state(i)` builds
    state i's records on first request and `occurred_names(i)` names the
    events in `occurred[i]`, in a name order sorted once per graph.
    `lanes`, every explored state in one int, is built by `explore`.
    `nodes` and `distinct_states()` are the explored ids and `edges` is
    `arcs`: the views the benchmark's tracer counts.
    """

    table: TransitionTable
    occurred: tuple[int, ...]
    expanded: int
    truncated: bool
    lanes: Lanes = field(repr=False)
    _states: dict[int, RecordState] = field(default_factory=dict, init=False, repr=False)

    @property
    def model(self) -> Model:
        return self.table.model

    @property
    def state_count(self) -> int:
        return len(self.occurred)

    @property
    def arcs(self) -> tuple[tuple[int, int, int], ...]:
        """Every arc, source-major and then in event order, built anew on
        each access."""
        count, row = self.state_count, self.table.row
        return tuple(
            (src, event, tgt) for src in range(self.expanded) for event, tgt in enumerate(row(src)) if tgt < count
        )

    @property
    def arc_count(self) -> int:
        """`len(arcs)`, counted off the rows without building an arc."""
        count, row = self.state_count, self.table.row
        arcs = 0
        for src in range(self.expanded):
            for tgt in row(src):
                if tgt < count:
                    arcs += 1
        return arcs

    def state(self, sid: int) -> RecordState:
        """Table state `sid` as a `RecordState`, one shared value per id.
        Any id of the table resolves, so a commutation finding may name an
        end state past a truncated frontier."""
        state = self._states.get(sid)
        if state is None:
            state = self._states[sid] = self.table.state(sid)
        return state

    @cached_property
    def _names_in_order(self) -> tuple[tuple[str, int], ...]:
        """(event name, event bit) of every event, sorted by name."""
        return tuple(sorted((name, 1 << i) for i, name in enumerate(self.model.event_names)))

    def occurred_names(self, sid: int) -> list[str]:
        """Sorted names of the events on the breadth-first path that first
        reached explored state `sid`."""
        occ = self.occurred[sid]
        return [name for name, bit in self._names_in_order if occ & bit]

    @property
    def nodes(self) -> range:
        """The explored state ids, for the benchmark's tracer."""
        return range(self.state_count)

    @property
    def edges(self) -> tuple[tuple[int, int, int], ...]:
        """`arcs`, for the benchmark's tracer."""
        return self.arcs

    def table_for(self, model: Model) -> TransitionTable:
        """The graph's transition table, checked to apply `model`'s events
        and to judge in `model`'s mode: the guard of the influence queries,
        the only functions that take a model beside its graph."""
        if (model.events, model.mode) != (self.model.events, self.model.mode):
            raise ValueError("the graph was explored from a model with other events or mode")
        return self.table

    def distinct_states(self) -> range:
        """The explored state ids, for the benchmark's tracer."""
        return range(self.state_count)


def explore(model: Model, limits: ExplorationLimits | None = None) -> ReachabilityGraph:
    """Breadth-first closure of the initial state under all events.

    Events are expanded in declaration order, so two runs produce the same
    state and arc ordering, and the table assigns ids in the order states
    are first reached.  `max_states` bounds the distinct states kept and
    `max_depth` the length of the shortest path to an expanded state.
    States are kept exactly as the events write them, zero-weight worlds
    included.
    """
    limits = limits or ExplorationLimits()
    table = TransitionTable(model)
    table.intern_state(model.initial)
    occurred: list[int] = [0]
    depths: list[int] = [0]
    truncated = False
    for src, depth in enumerate(depths):  # visits the states appended below too
        if depth >= limits.max_depth:  # ids are breadth-first, so depths never decrease
            truncated = True
            break
        for event, target in enumerate(table.row(src)):
            if target >= limits.max_states:
                truncated = True
            elif target == len(depths):  # ids are handed out in this order
                occurred.append(occurred[src] | 1 << event)
                depths.append(depth + 1)
    else:  # every explored state was expanded
        src = len(depths)
    return ReachabilityGraph(table, tuple(occurred), src, truncated, Lanes(table, len(occurred)))


def occurrence_masks(graph: ReachabilityGraph) -> tuple[list[int], list[int]]:
    """Per explored state, the event bitmask fired on some explored path to
    it and the event bitmask not fired on some explored path to it: a
    fixpoint that walks the arcs in the expanded states' rows."""
    count, expanded, row = graph.state_count, graph.expanded, graph.table.row
    fired = [0] * count
    unfired = [0] * count
    unfired[0] = (1 << len(graph.model.events)) - 1
    pending = [0]
    while pending:
        src = pending.pop()
        if src >= expanded:
            continue
        for event, tgt in enumerate(row(src)):
            if tgt >= count:
                continue
            bit = 1 << event
            now_fired = fired[tgt] | fired[src] | bit
            now_unfired = unfired[tgt] | unfired[src] & ~bit
            if now_fired != fired[tgt] or now_unfired != unfired[tgt]:
                fired[tgt], unfired[tgt] = now_fired, now_unfired
                pending.append(tgt)
    return fired, unfired


def check_gs(graph: ReachabilityGraph) -> list[int]:
    """Indices of explored states that are not globally consistent under
    the model's consistency mode.

    On the graph's lanes: the sites' records are ANDed into each lane's
    first field, which is masked to the worlds that count, and the lanes
    where `nonzero` finds no counted world left are the inconsistent
    states."""
    table, lanes = graph.table, graph.lanes
    width, x = table.width, lanes.x
    feasible = x
    for site in range(1, len(table.site_full)):
        feasible &= x >> site * width
    # `keep`'s first field holds the worlds that count
    counted = feasible & lanes.spread(table.keep & table.site_full[0])
    return lanes.flagged(lanes.nonzero(counted) ^ lanes.rep, 0)


@dataclass(frozen=True)
class DiamondViolation:
    """Independent events e and f that lead from table state `state` to
    different states (`f_then_e`, `e_then_f`) in the two orders."""

    state: int
    e: str
    f: str
    f_then_e: int
    e_then_f: int


def check_diamond(graph: ReachabilityGraph) -> list[DiamondViolation]:
    """Compare both application orders of every independent pair at every
    explored state; a mismatch up to the model's mode is a commutation
    failure.  Findings are state-major, then in pair order.

    Per pair, `apply(e, after(f))` and `apply(f, after(e))` hold both
    orders at every lane at once, and the lanes that differ on a counted
    world are the findings.  Only a finding's two end states are interned,
    so the check adds no other state to the table."""
    table = graph.table
    supports = table.supports
    # independent events are those with disjoint supports
    pairs = [
        (i, j)
        for i, support in enumerate(supports)
        for j in range(i + 1, len(supports))
        if not support & supports[j]
    ]
    if not pairs:
        return []
    events, lanes = graph.model.events, graph.lanes
    keep = lanes.spread(table.keep)
    found: list[tuple[int, int, MaskState, MaskState]] = []  # (state, pair, f then e, e then f)
    for index, (e, f) in enumerate(pairs):
        f_then_e, e_then_f = lanes.apply(e, lanes.after(f)), lanes.apply(f, lanes.after(e))
        flags = lanes.nonzero((f_then_e ^ e_then_f) & keep)
        if flags:
            sids = lanes.flagged(flags, 0)
            found += zip(sids, repeat(index), lanes.read(f_then_e, sids), lanes.read(e_then_f, sids))
    violations = []
    for sid, index, f_then_e, e_then_f in sorted(found):
        e, f = pairs[index]
        violations.append(
            DiamondViolation(sid, events[e].name, events[f].name, table._intern(f_then_e), table._intern(e_then_f))
        )
    return violations


def _grown_arcs(graph: ReachabilityGraph) -> list[tuple[int, int, int]]:
    """The explored arcs whose target holds a packed bit that its source
    lacks, in arc order.

    Per event, `after(event) & ~x` flags the lanes at which the event adds
    a bit back.  A flagged (state, event) pair is an arc iff the state is
    below `graph.expanded` and its target is explored; exploration filled
    those states' rows, so reading a target interns nothing."""
    lanes = graph.lanes
    x, after = lanes.x, lanes.after
    pairs = []
    for event in range(len(graph.table.rules)):
        grown = after(event) & ~x
        if grown:
            pairs += [(sid, event) for sid in lanes.flagged(lanes.nonzero(grown), 0)]
    if not pairs:
        return []
    pairs.sort()
    expanded, count, row = graph.expanded, graph.state_count, graph.table.row
    grown_arcs = []
    for sid, event in pairs:
        if sid >= expanded:
            break
        target = row(sid)[event]
        if target < count:
            grown_arcs.append((sid, event, target))
    return grown_arcs


@dataclass(frozen=True)
class MonotonicityFinding:
    """Worlds an event added back to a site record instead of removing,
    with the table id of the state the event was applied to."""

    event: str
    site: int
    added: Subset
    state: int


def check_monotonicity(graph: ReachabilityGraph) -> list[MonotonicityFinding]:
    """Shrink-only violations on the explored arcs, one entry per
    (event, site, source state), in arc order and then support order.  An
    arc's added worlds are the target's packed bits that its source lacks;
    the arcs that add any come from one scan of the graph's lanes
    (`_grown_arcs`), and findings with equal added worlds share one
    `Subset`."""
    table = graph.table
    packed, field = table.packed, table.field
    events = graph.model.events
    space = graph.model.space
    subsets: dict[int, Subset] = {}
    findings = []
    for src, event, tgt in _grown_arcs(graph):
        added = packed[tgt] & ~packed[src]
        name = events[event].name
        for site in events[event].support:
            mask = field(added, site)
            if mask:
                subset = subsets.get(mask)
                if subset is None:
                    subset = subsets[mask] = Subset(space, mask)
                findings.append(MonotonicityFinding(name, site, subset, src))
    return findings


@dataclass(frozen=True)
class ClockViolation:
    """An explored (source, event index, target) arc along which the
    feasible set's weight grows from `mu_source` to `mu_target`."""

    arc: tuple[int, int, int]
    mu_source: Fraction
    mu_target: Fraction


def check_clock_monotone(graph: ReachabilityGraph) -> list[ClockViolation]:
    """Arcs along which the feasible set gains weight, i.e. the
    information clock ticks backwards.  Only the arcs that the shrink-only
    scan flags (`_grown_arcs`) are weighed: on any other arc the target's
    feasible set is a subset of the source's, so its weight cannot grow.
    An end's feasible set is the AND of its packed site fields.  Empty
    whenever no edge violates shrink-only writing."""
    table = graph.table
    packed, field, measure = table.packed, table.field, graph.model.space.measure_mask
    grown = _grown_arcs(graph)
    mus = {}
    for sid in {sid for src, _, tgt in grown for sid in (src, tgt)}:
        value = packed[sid]
        feasible = field(value, 0)
        for site in range(1, len(table.site_full)):
            feasible &= field(value, site)
        mus[sid] = measure(feasible)
    return [
        ClockViolation((src, event, tgt), mus[src], mus[tgt])
        for src, event, tgt in grown
        if mus[tgt] > mus[src]
    ]
