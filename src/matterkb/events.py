"""Append-only event log and the state transitions that move matter.

Events are the sole mutation path for quantities: a creation event brings one
quantity into existence from free objects, a granule transfer terminates its
donor quantities and creates inheritor quantities from their granules. Every
historical relation derived later points back at one of these records.

Both go through one checked write, ``apply_events``, which takes a batch
of records; a creation or a transfer alone is a batch of one. In the write a
creation is the event without donors: it needs no donor and inherits no
granule, and a granule that a live quantity of its kind holds makes it
``GranuleNotFree`` instead of a provenance violation. The record's kind is
read only to refuse a malformed creation, an unknown kind, or a transfer that
names no donor or no created quantity.
"""

from __future__ import annotations

from operator import attrgetter, itemgetter
from typing import Iterable, NamedTuple, Sequence

from .errors import (
    DonorNotLive,
    DuplicateGranuleAssignment,
    GranuleNotFree,
    GranuleProvenanceViolation,
    NonMonotonicTime,
    ReplayError,
    TooFewGranules,
    UnknownKind,
)
from .model import MIN_GRANULES, KnowledgeBase, OBJECT_KIND, QUANTITY_KIND, QuantityInst

CREATION = "creation"
GRANULE_TRANSFER = "granuleTransfer"


class CreatedEntry(NamedTuple):
    """Description of one quantity to create: id, kind, and its granule set."""

    id: str
    kind: str
    granules: frozenset[str]

    @staticmethod
    def of(quantity_id: str, kind: str, granules: Iterable[str]) -> "CreatedEntry":
        return CreatedEntry(quantity_id, kind, frozenset(granules))


class EventRec(NamedTuple):
    """One record of the append-only log; timestamps strictly increase."""

    id: str
    at: int
    kind: str
    donors: frozenset[str]
    created: tuple[CreatedEntry, ...]
    discarded: frozenset[str]


def apply_creation(
    kb: KnowledgeBase,
    entry: CreatedEntry,
    at: int,
    event_id: str | None = None,
) -> EventRec:
    """Create one quantity from free objects; appends a creation event: a batch of one."""
    if event_id is None:
        event_id = f"create-{entry.id}"
    return apply_events(kb, [EventRec(event_id, at, CREATION, frozenset(), (entry,), frozenset())])[0]


def apply_transfer(
    kb: KnowledgeBase,
    donors: Iterable[str],
    created: Sequence[CreatedEntry],
    at: int,
    discarded: Iterable[str] = (),
    event_id: str | None = None,
) -> EventRec:
    """Terminate the donors and create the inheritors in one event: a batch of one.

    Every granule of every created quantity must come from a donor or be a
    free object; each donor granule lands in at most one created set (or in
    ``discarded``, or is implicitly freed).
    """
    if event_id is None:
        event_id = f"e{len(kb.events)}"
    event = EventRec(event_id, at, GRANULE_TRANSFER, frozenset(donors), tuple(created), frozenset(discarded))
    return apply_events(kb, [event])[0]


def apply_events(kb: KnowledgeBase, events: Iterable[EventRec]) -> list[EventRec]:
    """Check each event record and apply it in turn, as many single writes would.

    The engine's only append to ``kb.events``. One catch-up, then each
    record's checks against the store and the records before it; a transfer's
    created entries are taken in id order. At the first record that fails, the
    ones before it stay applied and its error is raised, so ``len(kb.events)``
    grew by the failing record's position. The write keeps ``kb.store_index``
    current (see ``model.StoreIndex``).
    """
    index = kb.store_index.catch_up(kb)  # the write's one catch-up
    log, objects, quantities, applied = kb.events, kb.objects, kb.quantities, []
    for event_id, at, kind, donors, created, discarded in events:
        if kind == GRANULE_TRANSFER:
            created = tuple(sorted(created, key=attrgetter("id")))
        elif kind != CREATION:
            raise ValueError(f"unknown event kind '{kind}'")
        elif len(created) != 1 or donors or discarded:
            raise ValueError(f"malformed creation event '{event_id}'")
        kb._check_time(at)
        if log and at <= log[-1].at:
            raise NonMonotonicTime(f"event at t{at} does not follow the last event at t{log[-1].at}")
        if kind == GRANULE_TRANSFER and not donors:
            raise ValueError("a transfer needs at least one donor; use a creation event instead")
        if kind == GRANULE_TRANSFER and not created:
            raise ValueError("a transfer needs at least one created quantity")
        kb._check_fresh(event_id)

        donor_insts = []
        for did in sorted(donors):
            d = kb._quantity(did)
            if d.terminated_at is not None or d.created_at >= at:
                raise DonorNotLive(f"donor '{did}' is not live immediately before t{at}")
            donor_insts.append(d)
        donor_granules = donor_insts[0].granules if len(donor_insts) == 1 else frozenset().union(
            *(d.granules for d in donor_insts))

        previous = None
        for qid, qkind, granules in created:
            if qid == previous:  # created ids are sorted, so a repeat follows its first
                raise DuplicateGranuleAssignment(f"quantity '{qid}' created twice in one event")
            previous = qid
            kb._check_fresh(qid)
            if not kb.has_kind(qkind, QUANTITY_KIND):
                raise UnknownKind(f"'{qkind}' is not a declared quantity kind")
            late = [g for g in granules if (o := objects.get(g)) is None or o.created_at > at]
            if late:
                kb._object(min(late), at)  # the first in sorted order raises
            if len(granules) < MIN_GRANULES:
                raise TooFewGranules(
                    f"quantity '{qid}' needs at least {MIN_GRANULES} granules, got {len(granules)}"
                )
            if donors and granules.isdisjoint(donor_granules):
                raise GranuleProvenanceViolation(
                    f"created quantity '{qid}' inherits no granule from any donor; "
                    "unrelated creations belong in a separate creation event"
                )

        # A granule lands in at most one created set or the discard, and only a donor's is discarded:
        # decided on sizes; the walk below names the first granule in sorted order that breaks it.
        sets = [entry.granules for entry in created]
        if sum(map(len, sets)) + len(discarded) > len(discarded.union(*sets)) or not discarded <= donor_granules:
            assigned: dict[str, str] = {}
            for entry in created:
                for g in sorted(entry.granules):
                    if g in assigned:
                        raise DuplicateGranuleAssignment(
                            f"granule '{g}' assigned to both '{assigned[g]}' and '{entry.id}'"
                        )
                    assigned[g] = entry.id
            for g in sorted(discarded):
                if g in assigned:
                    raise DuplicateGranuleAssignment(
                        f"granule '{g}' both discarded and assigned to '{assigned[g]}'"
                    )
                if g not in donor_granules:
                    raise GranuleProvenanceViolation(
                        f"discarded object '{g}' is not a granule of any donor"
                    )

        for entry in created:
            held = _same_kind_holder(kb, entry.granules - donor_granules, entry.kind, at, donors)
            if held and not donors:
                raise GranuleNotFree(
                    f"object '{held[0]}' is already a granule of live quantity '{held[1].id}' of kind '{entry.kind}'"
                )
            if held:
                raise GranuleProvenanceViolation(
                    f"granule '{held[0]}' of '{entry.id}' is neither donated nor free: "
                    f"it belongs to live quantity '{held[1].id}'"
                )

        event = EventRec(event_id, at, kind, donors, created, discarded)
        log.append(event)
        for d in donor_insts:
            d.terminated_at = at
        for entry in created:
            quantities[entry.id] = QuantityInst(entry.id, entry.kind, at, entry.granules, event_id)
        index.add(kb, (event,), created, ())
        applied.append(event)
    return applied


def event_log(kb: KnowledgeBase) -> list[EventRec]:
    """The full append-only history, in application order."""
    return list(kb.events)


def replay(kb: KnowledgeBase) -> KnowledgeBase:
    """Rebuild a knowledge base from declarations plus the event log.

    Every record is re-applied through the engine's checks; any error is
    wrapped in a ReplayError that names the offending record. Objects, events
    and intervals each go to the kernel as one batch (``create_objects``,
    ``apply_events``, ``assert_intervals``), which stops at its first faulty
    record after the ones before it, so that record is the next one the batch
    did not add. A successful replay re-adds exactly the kinds, objects,
    events, intervals and assertions of the source, so only the quantities it
    derives can differ.
    """
    fresh = KnowledgeBase()
    kinds = sorted(kb.kinds.values(), key=lambda d: (d.meta != OBJECT_KIND, d.name))
    try:
        for decl in kinds:
            fresh.declare_kind(decl)
    except Exception as exc:
        raise ReplayError(None, exc, (decl.name,)) from exc
    objects = [(oid, obj.kind, obj.created_at) for oid, obj in sorted(kb.objects.items())]
    try:
        fresh.create_objects(objects)
    except Exception as exc:
        raise ReplayError(None, exc, objects[len(fresh.objects)][:1]) from exc
    try:
        apply_events(fresh, kb.events)
    except Exception as exc:
        index = len(fresh.events)
        raise ReplayError(index, exc, (kb.events[index].id,)) from exc
    intervals = sorted(map(attrgetter("a", "b", "start", "end"), kb.adjacency), key=itemgetter(0, 1, 2))
    try:
        fresh.assert_intervals(intervals)
    except Exception as exc:
        raise ReplayError(None, exc, intervals[len(fresh.adjacency)][:2]) from exc
    assertions = sorted(kb.subquantities, key=lambda s: (s.part, s.whole))
    try:
        for s in assertions:
            fresh.assert_subquantity(s.part, s.whole)
    except Exception as exc:
        raise ReplayError(None, exc, (s.part, s.whole)) from exc
    return fresh


def _same_kind_holder(
    kb: KnowledgeBase, granules: frozenset[str], kind: str, at: int, exclude: frozenset[str]
) -> tuple[str, QuantityInst] | None:
    """The first of ``granules`` in sorted order that a live quantity of ``kind`` outside ``exclude``
    holds at ``at``, with the first such holder by id; the write caught the index up. Cross-kind
    sharing is allowed (a sub-quantity holds granules of its whole), so only a same-kind holder counts."""
    quantities, holders = kb.quantities, kb.store_index.holders
    for g in sorted(granules & holders.keys()):
        found = [qid for qid in holders[g]
                 if qid not in exclude and quantities[qid].kind == kind and quantities[qid].live_at(at)]
        if found:
            return g, quantities[min(found)]
    return None
