"""Entity store and temporal model.

Time is a dimensionless non-negative integer tick. A quantity is live on the
half-open interval [created_at, terminated_at); a missing terminated_at means
the quantity is still live. Terminated entities are never deleted: they stay
in the store with historical status and keep answering queries about the past.
"""

from __future__ import annotations

import gc
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain, compress, islice
from typing import TYPE_CHECKING, Iterable, Iterator, KeysView, NamedTuple, Sequence

from .errors import (
    DuplicateId,
    DuplicateKind,
    NoLifetimeOverlap,
    NotLiveAt,
    OverlappingInterval,
    SameKindSubQuantity,
    SelfAdjacency,
    SubQuantityNotIncluded,
    UnknownAdjacency,
    UnknownGranuleKind,
    UnknownKind,
    UnknownObject,
    UnknownQuantity,
)

if TYPE_CHECKING:
    from .events import CreatedEntry, EventRec
    from .provenance import _Index

QUANTITY_KIND = "quantityKind"
OBJECT_KIND = "objectKind"

STATUS_LIVE = "live"
STATUS_TERMINATED = "terminated"
STATUS_NOT_YET_CREATED = "not-yet-created"

MIN_GRANULES = 2


@contextmanager
def collector_paused() -> Iterator[None]:
    """Pause the cyclic collector; on exit, leave it enabled or disabled as it was found."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@dataclass(frozen=True)
class KindDecl:
    """A declared type: either a kind of quantity or a kind of object.

    ``requires`` lists object kinds of which every instance quantity must have
    at least one granule; it is only meaningful for quantity kinds.
    """

    name: str
    meta: str
    requires: frozenset[str] = frozenset()


class ObjectInst(NamedTuple):
    id: str
    kind: str
    created_at: int


@dataclass(slots=True)
class QuantityInst:
    """An individual portion of matter.

    The granule set is fixed at creation; any change of parts is modelled as
    termination plus creation of new quantities.
    """

    id: str
    kind: str
    created_at: int
    granules: frozenset[str]
    creation_event: str
    terminated_at: int | None = None

    def live_at(self, t: int) -> bool:
        return self.created_at <= t and (self.terminated_at is None or t < self.terminated_at)

    def status_at(self, t: int) -> str:
        if t < self.created_at:
            return STATUS_NOT_YET_CREATED
        if self.terminated_at is not None and t >= self.terminated_at:
            return STATUS_TERMINATED
        return STATUS_LIVE

    def overlaps(self, other: "QuantityInst") -> bool:
        """Whether the two lifetimes share at least one tick."""
        ends = [q.terminated_at for q in (self, other) if q.terminated_at is not None]
        return max(self.created_at, other.created_at) < min(ends, default=float("inf"))

    def missing_from(self, whole: "QuantityInst") -> frozenset[str]:
        """A2: the granules of this part that ``whole`` lacks.

        Empty when the two lifetimes never overlap: the inclusion only binds
        worlds where both quantities are live.
        """
        return self.granules - whole.granules if self.overlaps(whole) else frozenset()


@dataclass(slots=True)
class AdjacencyInterval:
    """A symmetric external-connection edge, active over [start, end).

    Endpoints are stored normalized (a < b). ``end`` is None while the edge
    is open-ended.
    """

    a: str
    b: str
    start: int
    end: int | None = None

    def active_at(self, t: int) -> bool:
        return self.start <= t and (self.end is None or t < self.end)


@dataclass(frozen=True)
class SubQuantityAssertion:
    part: str
    whole: str


@dataclass(frozen=True)
class WorldView:
    """Immutable snapshot of one world (time slice); structurally comparable.

    Every known entity appears with its status; past entities are kept with
    historical status rather than dropped.
    """

    at: int
    objects: tuple[tuple[str, str], ...]
    quantities: tuple[tuple[str, str], ...]
    granule_of: tuple[tuple[str, str], ...]
    adjacency: tuple[tuple[str, str], ...]
    subquantities: tuple[tuple[str, str], ...]


def count_clusters(edges: Iterable[tuple[str, str]]) -> tuple[int, KeysView[str]]:
    """The number of connected clusters among the endpoints of ``edges``, and
    those endpoints: union-find by root links, where each union of two roots
    joins two clusters, so clusters = endpoints - unions. Builds no clusters."""
    parent: dict[str, str] = {}
    unions = 0
    for a, b in edges:
        a, b = parent.setdefault(a, a), parent.setdefault(b, b)
        while a != parent[a]:
            parent[a] = a = parent[parent[a]]  # path halving
        while b != parent[b]:
            parent[b] = b = parent[parent[b]]
        if a != b:
            parent[a] = b
            unions += 1
    return len(parent) - unions, parent.keys()


@dataclass
class StoreIndex:
    """Lookups for the engine's writes: every event id, granule → ids of every
    quantity that ever held it, and stored pair → its intervals in list order.

    Invalidation rule, shared by every derived index of a knowledge base: the
    store only grows. Events, quantities and intervals are appended, never
    replaced or removed; only ``terminated_at`` and ``end`` change, in place,
    and reads take them afresh. So an index is current while it has seen all of
    each store part it derives from, and catching up derives the unseen tails
    only. Here ``counts`` holds the lengths of ``kb.events``, ``kb.quantities``
    and ``kb.adjacency`` seen. ``catch_up`` indexes appends made outside the
    kernel (imports, stores built field by field). A kernel write catches up
    once, before its checks, which read the index as it stands; then it hands
    each record it appends to ``add``, so the next record's checks see it.
    """

    event_ids: set[str] = field(default_factory=set)
    holders: dict[str, list[str]] = field(default_factory=dict)
    intervals: dict[tuple[str, str], list[AdjacencyInterval]] = field(default_factory=dict)
    counts: tuple[int, int, int] = (0, 0, 0)

    def catch_up(self, kb: "KnowledgeBase") -> "StoreIndex":
        if self.counts != (len(kb.events), len(kb.quantities), len(kb.adjacency)):
            n_events, n_quantities, n_intervals = self.counts
            new = islice(reversed(kb.quantities.values()), len(kb.quantities) - n_quantities)
            self.add(kb, kb.events[n_events:], new, kb.adjacency[n_intervals:])
        return self

    def add(self, kb: "KnowledgeBase", events: Iterable["EventRec"],
            quantities: Iterable["QuantityInst | CreatedEntry"], intervals: Iterable[AdjacencyInterval]) -> None:
        """Index records just appended to ``kb``, its only unseen ones; a quantity as its record or entry."""
        for ev in events:
            self.event_ids.add(ev.id)
        for q in quantities:
            for g in q.granules:
                self.holders.setdefault(g, []).append(q.id)
        for iv in intervals:
            self.intervals.setdefault((iv.a, iv.b), []).append(iv)
        self.counts = (len(kb.events), len(kb.quantities), len(kb.adjacency))


@dataclass
class WorldColumns:
    """Sorted columns for world reads, each a group of aligned lists: object ids
    and their ``created_at``; quantity ids and their records; the granule rows
    of every quantity (granules, holder ids), sorted by granule and then id;
    and every interval with its pair, the store index's own key tuple, sorted
    by pair and in list order within one.

    Invalidation rule: see ``StoreIndex``. A group is current while it covers
    all of its source: ``kb.objects``, ``kb.quantities`` or ``kb.adjacency``.
    A read rebuilds the groups it reads after their source has grown; writes,
    catch-ups and loads build none. The rows of a few new quantities are
    merged into a copy, not sorted again.
    """

    objects: tuple[Sequence[str], Sequence[int]] = ((), ())
    quantities: tuple[Sequence[str], Sequence[QuantityInst]] = ((), ())
    rows: tuple[Sequence[str], Sequence[str]] = ((), ())
    rows_cover: int = 0  # how many of ``kb.quantities``, in store order, ``rows`` holds
    pairs: tuple[Sequence[tuple[str, str]], Sequence[AdjacencyInterval]] = ((), ())

    def object_columns(self, kb: "KnowledgeBase") -> tuple[Sequence[str], Sequence[int]]:
        if len(kb.objects) != len(self.objects[0]):
            ids = sorted(kb.objects)
            self.objects = ids, [kb.objects[o].created_at for o in ids]
        return self.objects

    def quantity_columns(self, kb: "KnowledgeBase") -> tuple[Sequence[str], Sequence[QuantityInst]]:
        quantities, ids = kb.quantities, self.quantities[0]
        if len(quantities) != len(ids):
            # the old ids are one sorted run, so sorting in the store's new tail is about linear
            ids = sorted([*ids, *islice(reversed(quantities), len(quantities) - len(ids))])
            self.quantities = ids, list(map(quantities.__getitem__, ids))
        return self.quantities

    def granule_rows(self, kb: "KnowledgeBase") -> tuple[Sequence[str], Sequence[str]]:
        quantities, (granules, holders) = kb.quantities, self.rows
        new = list(islice(reversed(quantities), len(quantities) - self.rows_cover))
        if not new:
            return self.rows
        # merge new rows up to an eighth of the old ones; past that, sorting all is cheaper
        if sum(len(quantities[qid].granules) for qid in new) * 8 <= len(granules):
            # each new row goes after the rows that sort before it
            old_granules, old_holders, granules, holders, done = granules, holders, [], [], 0
            for g, qid in sorted((g, qid) for qid in new for g in quantities[qid].granules):
                lo = bisect_left(old_granules, g, done)
                at = bisect_right(old_holders, qid, lo, bisect_right(old_granules, g, lo))
                granules += old_granules[done:at]
                holders += old_holders[done:at]
                granules.append(g)
                holders.append(qid)
                done = at
            granules += old_granules[done:]
            holders += old_holders[done:]
        else:
            granules, holders = [], []
            for qid, q in zip(*self.quantity_columns(kb)):
                granules += q.granules
                holders += [qid] * len(q.granules)
            # a stable sort by granule keeps each granule's holders in id order
            order = sorted(range(len(granules)), key=granules.__getitem__)
            granules, holders = [granules[i] for i in order], [holders[i] for i in order]
        self.rows, self.rows_cover = (granules, holders), len(quantities)
        return self.rows

    def pair_columns(self, kb: "KnowledgeBase") -> tuple[Sequence[tuple[str, str]],
                                                         Sequence[AdjacencyInterval]]:
        if len(kb.adjacency) != len(self.pairs[0]):
            by_pair = kb.store_index.catch_up(kb).intervals
            keys = sorted(by_pair)
            lists = list(map(by_pair.__getitem__, keys))
            intervals = list(chain.from_iterable(lists))
            if len(intervals) > len(keys):  # a pair's key, once for each of its intervals
                keys = [pair for pair, pair_intervals in zip(keys, lists) for _ in pair_intervals]
            self.pairs = keys, intervals
        return self.pairs


@dataclass
class KnowledgeBase:
    """Typed entity store plus the append-only event log; world views are immutable snapshots.

    The kernel methods here and the event engine check every write and keep `store_index`
    current; `canonical.doc_to_kb` fills the store directly, unchecked. Both only append, so the
    store only grows, the invalidation rule of every derived index (see `StoreIndex`).
    """

    kinds: dict[str, KindDecl] = field(default_factory=dict)
    objects: dict[str, ObjectInst] = field(default_factory=dict)
    quantities: dict[str, QuantityInst] = field(default_factory=dict)
    adjacency: list[AdjacencyInterval] = field(default_factory=list)
    subquantities: set[SubQuantityAssertion] = field(default_factory=set)
    events: list["EventRec"] = field(default_factory=list)
    provenance_index: "_Index | None" = field(default=None, init=False, repr=False, compare=False)
    store_index: StoreIndex = field(default_factory=StoreIndex, init=False, repr=False, compare=False)
    world_columns: WorldColumns = field(default_factory=WorldColumns, init=False, repr=False, compare=False)

    # -- declarations ------------------------------------------------------

    def declare_kind(self, decl: KindDecl) -> KindDecl:
        """Register a kind declaration; requirements must already resolve."""
        if decl.name in self.kinds:
            raise DuplicateKind(f"kind '{decl.name}' already declared")
        if decl.meta not in (QUANTITY_KIND, OBJECT_KIND):
            raise ValueError(f"unknown meta '{decl.meta}' for kind '{decl.name}'")
        if decl.meta == OBJECT_KIND and decl.requires:
            raise ValueError(f"object kind '{decl.name}' cannot require granule kinds")
        for req in sorted(decl.requires):
            if not self.has_kind(req, OBJECT_KIND):
                raise UnknownGranuleKind(
                    f"kind '{decl.name}' requires '{req}', which is not a declared object kind"
                )
        self.kinds[decl.name] = decl
        return decl

    def has_kind(self, name: str, meta: str) -> bool:
        """A1: ``name`` is a declared kind of meta-kind ``meta``."""
        decl = self.kinds.get(name)
        return decl is not None and decl.meta == meta

    def declare_object_kind(self, name: str) -> KindDecl:
        return self.declare_kind(KindDecl(name, OBJECT_KIND))

    def declare_quantity_kind(self, name: str, requires: Iterable[str] = ()) -> KindDecl:
        return self.declare_kind(KindDecl(name, QUANTITY_KIND, frozenset(requires)))

    def create_object(self, object_id: str, kind: str, at: int) -> ObjectInst:
        """Bring an object into existence from ``at`` onward: a batch of one."""
        return self.create_objects([(object_id, kind, at)])[0]

    def create_objects(self, objects: Iterable[tuple[str, str, int]]) -> list[ObjectInst]:
        """Create each ``(id, kind, at)`` in turn, as many ``create_object`` calls would.

        One catch-up, then each record's checks against the store and the
        records before it. At the first record that fails, the ones before it
        stay created and its error is raised, so ``len(kb.objects)`` grew by the
        failing record's position.
        """
        self.store_index.catch_up(self)  # the write's one catch-up
        store, created = self.objects, []
        for object_id, kind, at in objects:
            self._check_time(at)
            self._check_fresh(object_id)
            if not self.has_kind(kind, OBJECT_KIND):
                raise UnknownKind(f"'{kind}' is not a declared object kind")
            store[object_id] = obj = ObjectInst(object_id, kind, at)
            created.append(obj)
        return created

    # -- adjacency ---------------------------------------------------------

    def assert_adjacency(self, a: str, b: str, start: int) -> None:
        """Open a symmetric adjacency edge active from ``start``: a batch of one."""
        self.assert_intervals([(a, b, start, None)])

    def assert_intervals(self, intervals: Iterable[tuple[str, str, int, int | None]]) -> None:
        """Open each ``(a, b, start, end)`` in turn and close it at ``end`` unless
        that is None, as ``assert_adjacency`` and then ``retract_adjacency`` would.

        One catch-up, then each record's checks against the pair's indexed
        intervals, which hold the batch's earlier ones; a record that passes is
        appended and indexed at once. At the first record that fails, the ones
        before it stay opened (and closed) and its error is raised, so
        ``len(kb.adjacency)`` grew by the failing record's position.
        """
        index = self.store_index.catch_up(self)  # the write's one catch-up
        for a, b, start, end in intervals:
            self._check_time(start)
            if a == b:
                raise SelfAdjacency(f"object '{a}' cannot be adjacent to itself")
            self._object(a, start)
            self._object(b, start)
            if b < a:
                a, b = b, a
            for iv in index.intervals.get((a, b), ()):
                # a new interval is open-ended, so it overlaps anything not closed by start
                if iv.end is None or iv.end > start:
                    raise OverlappingInterval(
                        f"adjacency {a}-{b} from t{start} would overlap the interval "
                        f"starting at t{iv.start}"
                    )
            iv = AdjacencyInterval(a, b, start)
            if end is not None:
                # every earlier interval of the pair is closed by start, so only this one can close
                self._check_time(end)
                self._close((a, b), (iv,), end)
            self.adjacency.append(iv)
            index.add(self, (), (), (iv,))

    def retract_adjacency(self, a: str, b: str, end: int) -> None:
        """Close the open adjacency interval for the pair at ``end``."""
        self._check_time(end)
        self._object(a)
        self._object(b)
        a, b, intervals = self._pair(a, b)
        self._close((a, b), intervals, end)

    @staticmethod
    def _close(pair: tuple[str, str], intervals: Iterable[AdjacencyInterval], end: int) -> None:
        """Close the first of the pair's ``intervals`` that is open and starts before ``end``."""
        for iv in intervals:
            if iv.end is None and iv.start < end:
                iv.end = end
                return
        raise UnknownAdjacency(f"no open adjacency {pair[0]}-{pair[1]} active before t{end}")

    def adjacent_at(self, a: str, b: str, t: int) -> bool:
        return any(iv.active_at(t) for iv in self._pair(a, b)[2])

    def adjacency_at(self, t: int) -> list[tuple[str, str]]:
        """Normalized pairs active at ``t``, sorted and deduplicated: the
        index's own key tuples, in the order of the world columns."""
        pairs, intervals = self.world_columns.pair_columns(self)
        active = [pair for pair, iv in zip(pairs, intervals)
                  if iv.start <= t and (iv.end is None or t < iv.end)]
        if len(self.store_index.intervals) < len(intervals):
            active = list(dict.fromkeys(active))  # a pair's overlapping intervals, once
        return active

    # -- sub-quantity assertions --------------------------------------------

    def assert_subquantity(self, part: str, whole: str) -> None:
        """Assert that ``part`` is a sub-quantity of ``whole`` (idempotent).

        The two are of distinct kinds, their lifetimes overlap, and every
        granule of ``part`` is a granule of ``whole`` (A2).
        """
        p = self._quantity(part)
        w = self._quantity(whole)
        if p.kind == w.kind:
            raise SameKindSubQuantity(
                f"sub-quantity requires distinct kinds; '{part}' and '{whole}' are both '{p.kind}'"
            )
        if not p.overlaps(w):
            raise NoLifetimeOverlap(f"lifetimes of '{part}' and '{whole}' do not overlap")
        missing = p.missing_from(w)
        if missing:
            raise SubQuantityNotIncluded(
                f"granule(s) {', '.join(sorted(missing))} of sub-quantity '{part}' "
                f"are not granules of whole '{whole}'"
            )
        self.subquantities.add(SubQuantityAssertion(part, whole))

    # -- reads ---------------------------------------------------------------

    def granules_of(self, quantity_id: str, t: int) -> frozenset[str]:
        """The fixed granule set of a quantity, readable while it is live."""
        q = self._quantity(quantity_id)
        if not q.live_at(t):
            raise NotLiveAt(quantity_id, t)
        return q.granules

    def granule_types(self, quantity_id: str) -> frozenset[str]:
        """Object kinds instantiated by at least one granule of the quantity."""
        q = self._quantity(quantity_id)
        kinds = {self.objects[g].kind for g in q.granules if g in self.objects}
        return frozenset(kinds)

    def live_quantities_at(self, t: int) -> list[QuantityInst]:
        return [q for q in self.world_columns.quantity_columns(self)[1] if q.live_at(t)]

    def holders_of(self, object_id: str, t: int) -> list[QuantityInst]:
        """Quantities live at ``t`` that have the object as a granule, in id order."""
        held = sorted(self.store_index.catch_up(self).holders.get(object_id, ()))
        return [self.quantities[qid] for qid in held if self.quantities[qid].live_at(t)]

    def world_at(self, t: int) -> WorldView:
        """Deterministic snapshot of the world at ``t``; pure."""
        return WorldView(t, *map(tuple, self._world_rows(t)))

    def _world_rows(self, t: int) -> tuple[Iterable[tuple[str, str]], ...]:
        """The rows of ``world_at(t)``: objects, quantities, granule_of,
        adjacency and subquantities, each a one-pass iterable in order.

        Apart from the few sub-quantity rows, rows are zipped from columns or
        are the store index's own pair tuples, so a caller that unpacks each
        row allocates no tuple per row. Row tuples kept alive while a large
        world renders would set off full cyclic collections of the whole heap.
        """
        self._check_time(t)
        object_ids, created = self.world_columns.object_columns(self)
        quantity_ids, records = self.world_columns.quantity_columns(self)
        granules, holders = self.world_columns.granule_rows(self)
        statuses = [q.status_at(t) for q in records]
        live_ids = {qid for qid, status in zip(quantity_ids, statuses) if status == STATUS_LIVE}
        live_rows = list(map(live_ids.__contains__, holders))
        return (
            zip(object_ids, [STATUS_LIVE if c <= t else STATUS_NOT_YET_CREATED for c in created]),
            zip(quantity_ids, statuses),
            zip(compress(granules, live_rows), compress(holders, live_rows)),
            self.adjacency_at(t),
            sorted((s.part, s.whole) for s in self.subquantities
                   if s.part in live_ids and s.whole in live_ids),
        )

    def change_points(self) -> list[int]:
        """Sorted distinct time points at which any stored state changes."""
        spans = [(iv.start, iv.end) for iv in self.adjacency]
        spans += [(q.created_at, q.terminated_at) for q in self.quantities.values()]
        points = {ev.at for ev in self.events} | {o.created_at for o in self.objects.values()}
        points.update(chain.from_iterable(spans))
        points.discard(None)  # an open end
        return sorted(points)

    # -- internals -----------------------------------------------------------

    def _quantity(self, quantity_id: str) -> QuantityInst:
        q = self.quantities.get(quantity_id)
        if q is None:
            raise UnknownQuantity(f"unknown quantity '{quantity_id}'")
        return q

    def _object(self, object_id: str, t: int | None = None) -> ObjectInst:
        """The object, which must exist, and exist at ``t`` when that is given."""
        o = self.objects.get(object_id)
        if o is None:
            raise UnknownObject(f"unknown object '{object_id}'")
        if t is not None and o.created_at > t:
            raise UnknownObject(f"object '{object_id}' does not exist at t{t}")
        return o

    def _pair(self, a: str, b: str) -> tuple[str, str, Iterable[AdjacencyInterval]]:
        """The pair as stored (a < b) and its intervals, after a catch-up."""
        if b < a:
            a, b = b, a
        return a, b, self.store_index.catch_up(self).intervals.get((a, b), ())

    def _check_fresh(self, entity_id: str) -> None:
        """Raise unless the id is unused; the write has caught the index up."""
        if entity_id in self.objects or entity_id in self.quantities or entity_id in self.store_index.event_ids:
            raise DuplicateId(f"id '{entity_id}' is already in use")

    @staticmethod
    def _check_time(t: int) -> None:
        # an exact int, the common case, skips both isinstance calls
        if type(t) is not int and (isinstance(t, bool) or not isinstance(t, int)) or t < 0:
            raise ValueError(f"time points are non-negative integers, got {t!r}")
