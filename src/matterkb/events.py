"""Append-only event log and the state transitions that move matter.

Events are the sole mutation path for quantities: a creation event brings one
quantity into existence from free objects, a granule transfer terminates its
donor quantities and creates inheritor quantities from their granules. Every
historical relation derived later points back at one of these records.

Both go through one checked write, ``_write``, in which a creation is the
event without donors: it needs no donor and inherits no granule, and a
granule that a live quantity of its kind holds makes it ``GranuleNotFree``
instead of a provenance violation. The record's kind is read only to refuse
a transfer that names no donor or no created quantity.
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
    """Create one quantity from free objects; appends a creation event."""
    if event_id is None:
        event_id = f"create-{entry.id}"
    return _write(kb, EventRec(event_id, at, CREATION, frozenset(), (entry,), frozenset()))


def apply_transfer(
    kb: KnowledgeBase,
    donors: Iterable[str],
    created: Sequence[CreatedEntry],
    at: int,
    discarded: Iterable[str] = (),
    event_id: str | None = None,
) -> EventRec:
    """Terminate the donors and create the inheritors in one event.

    Every granule of every created quantity must come from a donor or be a
    free object; each donor granule lands in at most one created set (or in
    ``discarded``, or is implicitly freed).
    """
    if event_id is None:
        event_id = f"e{len(kb.events)}"
    created = tuple(sorted(created, key=attrgetter("id")))
    event = EventRec(event_id, at, GRANULE_TRANSFER, frozenset(donors), created, frozenset(discarded))
    return _write(kb, event)


def _write(kb: KnowledgeBase, event: EventRec) -> EventRec:
    """Check one event against the store, then append it and apply it.

    The engine's only append to ``kb.events``; on any error the store is left
    as it was. A creation is the event without donors. The write keeps
    ``kb.store_index`` current (see ``model.StoreIndex``).
    """
    event_id, at, kind, donors, created, discarded = event
    kb._check_time(at)
    if kb.events and at <= kb.events[-1].at:
        raise NonMonotonicTime(
            f"event at t{at} does not follow the last event at t{kb.events[-1].at}"
        )
    if kind == GRANULE_TRANSFER and not donors:
        raise ValueError("a transfer needs at least one donor; use a creation event instead")
    if kind == GRANULE_TRANSFER and not created:
        raise ValueError("a transfer needs at least one created quantity")
    index = kb.store_index.catch_up(kb)  # the write's one catch-up
    kb._check_fresh(event_id)

    donor_insts = []
    for did in sorted(donors):
        d = kb._quantity(did)
        if d.terminated_at is not None or d.created_at >= at:
            raise DonorNotLive(f"donor '{did}' is not live immediately before t{at}")
        donor_insts.append(d)
    donor_granules = frozenset().union(*(d.granules for d in donor_insts))

    seen_ids = set()
    for entry in created:
        if entry.id in seen_ids:
            raise DuplicateGranuleAssignment(f"quantity '{entry.id}' created twice in one event")
        seen_ids.add(entry.id)
        kb._check_fresh(entry.id)
        if not kb.has_kind(entry.kind, QUANTITY_KIND):
            raise UnknownKind(f"'{entry.kind}' is not a declared quantity kind")
        for g in sorted(entry.granules):
            kb._object(g, at)
        if len(entry.granules) < MIN_GRANULES:
            raise TooFewGranules(
                f"quantity '{entry.id}' needs at least {MIN_GRANULES} granules, got {len(entry.granules)}"
            )
        if donors and not (entry.granules & donor_granules):
            raise GranuleProvenanceViolation(
                f"created quantity '{entry.id}' inherits no granule from any donor; "
                "unrelated creations belong in a separate creation event"
            )

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
        for g in sorted(entry.granules - donor_granules):
            holder = _same_kind_holder(kb, g, entry.kind, at, exclude=donors)
            if holder is None:
                continue
            if not donors:
                raise GranuleNotFree(
                    f"object '{g}' is already a granule of live quantity '{holder.id}' of kind '{entry.kind}'"
                )
            raise GranuleProvenanceViolation(
                f"granule '{g}' of '{entry.id}' is neither donated nor free: "
                f"it belongs to live quantity '{holder.id}'"
            )

    kb.events.append(event)
    for d in donor_insts:
        d.terminated_at = at
    for entry in created:
        kb.quantities[entry.id] = QuantityInst(entry.id, entry.kind, at, entry.granules, event_id)
    index.add(kb, (event,), created, ())
    return event


def event_log(kb: KnowledgeBase) -> list[EventRec]:
    """The full append-only history, in application order."""
    return list(kb.events)


def apply_event(kb: KnowledgeBase, event: EventRec) -> EventRec:
    """Re-apply a previously recorded event through the normal checks."""
    if event.kind == CREATION:
        if len(event.created) != 1 or event.donors or event.discarded:
            raise ValueError(f"malformed creation event '{event.id}'")
        return apply_creation(kb, event.created[0], event.at, event_id=event.id)
    if event.kind == GRANULE_TRANSFER:
        return apply_transfer(
            kb, event.donors, event.created, event.at,
            discarded=event.discarded, event_id=event.id,
        )
    raise ValueError(f"unknown event kind '{event.kind}'")


def replay(kb: KnowledgeBase) -> KnowledgeBase:
    """Rebuild a knowledge base from declarations plus the event log.

    Every record is re-applied through the engine's checks; any error is
    wrapped in a ReplayError that names the offending record. Objects and
    intervals each go to the kernel as one batch (``create_objects``,
    ``assert_intervals``), which stops at its first faulty record after the
    ones before it, so that record is the next one the batch did not add;
    events go one at a time through ``apply_event``. A successful replay
    re-adds exactly the kinds, objects, events, intervals and assertions of
    the source, so only the quantities it derives can differ.
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
        for index, event in enumerate(kb.events):
            apply_event(fresh, event)
    except Exception as exc:
        raise ReplayError(index, exc, (event.id,)) from exc
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
    kb: KnowledgeBase, granule: str, kind: str, at: int, exclude: frozenset[str]
) -> QuantityInst | None:
    # Cross-kind sharing is allowed (a sub-quantity holds granules of its whole); only a live same-kind
    # holder makes a granule unavailable, and the first by id is named; the write caught the index up.
    quantities = kb.quantities
    found = [qid for qid in kb.store_index.holders.get(granule, ())
             if qid not in exclude and quantities[qid].kind == kind and quantities[qid].live_at(at)]
    return quantities[min(found)] if found else None
