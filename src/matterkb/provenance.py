"""Historical relations derived from the event log.

Every edge here has a transfer event as its truthmaker. Inheritance edges
always point strictly backward in time (the inheritor is created at the very
tick the donor terminates), so the transitive closures are strict partial
orders by construction.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from operator import attrgetter

from .errors import NotAGranuleAt
from .events import EventRec
from .model import KnowledgeBase, count_clusters

ORIGINAL_PORTION = "OriginalPortion"
SUB_PORTION = "SubPortion"

PHASE_CONNECTED = "connected"
PHASE_SCATTERED = "scattered"
_EDGE_ORDER = attrgetter("inheritor", "donor")


@dataclass(frozen=True)
class ProvenanceEdge:
    """inheritor inherited granules from donor during event."""

    inheritor: str
    donor: str
    event: str
    complete_inheritance: bool
    complete_donation: bool
    is_sub_portion: bool


@dataclass(frozen=True)
class Episode:
    """One stay of an object inside a quantity: [start, end) plus the moving events."""

    quantity: str
    start: int
    end: int | None
    in_event: str
    out_event: str | None


@dataclass(frozen=True)
class GranuleHistory:
    object: str
    episodes: tuple[Episode, ...]


@dataclass(frozen=True)
class ConstitutionView:
    """The collection of granules constituting a quantity, with its phase at t."""

    collection: str
    quantity: str
    members: frozenset[str]
    phase: str


class _Index:
    """The edges of one knowledge base, each filed once by inheritor and once
    by donor, in log order.

    Invalidation rule: see ``model.StoreIndex``. Edges depend only on the event
    log and on the granule sets of the quantities it names, and once a knowledge
    base is built or imported only events add quantities, so ``length`` counts
    the events seen and ``catch_up`` derives the edges of the unseen tail.
    """

    def __init__(self, kb: KnowledgeBase):
        self.length = 0
        self.by_inheritor: dict[str, list[ProvenanceEdge]] = {}
        self.by_donor: dict[str, list[ProvenanceEdge]] = {}
        self.catch_up(kb)

    def catch_up(self, kb: KnowledgeBase) -> "_Index":
        if self.length != len(kb.events):
            for e in _derive(kb, kb.events[self.length:]):
                self.by_inheritor.setdefault(e.inheritor, []).append(e)
                self.by_donor.setdefault(e.donor, []).append(e)
            self.length = len(kb.events)
        return self


def _derive(kb: KnowledgeBase, events: list[EventRec]) -> list[ProvenanceEdge]:
    edges = []
    for ev in events:
        for entry in ev.created:
            for did in sorted(ev.donors):  # none in a creation
                donor = kb.quantities.get(did)
                if donor is None or donor.granules.isdisjoint(entry.granules):
                    continue
                subset = entry.granules <= donor.granules
                edges.append(
                    ProvenanceEdge(
                        inheritor=entry.id,
                        donor=did,
                        event=ev.id,
                        complete_inheritance=subset,
                        complete_donation=donor.granules <= entry.granules,
                        is_sub_portion=subset and entry.kind == donor.kind,
                    )
                )
    return edges


def _index(kb: KnowledgeBase) -> _Index:
    idx = kb.provenance_index
    if idx is None:
        idx = kb.provenance_index = _Index(kb)
    return idx.catch_up(kb)


def derive_edges(kb: KnowledgeBase) -> tuple[ProvenanceEdge, ...]:
    """One edge per (donor, inheritor) pair sharing at least one moved granule."""
    every = (e for edges in _index(kb).by_inheritor.values() for e in edges)
    return tuple(sorted(every, key=_EDGE_ORDER))


def edges_among(kb: KnowledgeBase, quantity_ids: set[str]) -> list[ProvenanceEdge]:
    """The edges whose inheritor and donor are both in ``quantity_ids``, in ``derive_edges`` order."""
    by_inheritor = _index(kb).by_inheritor
    edges = [e for q in quantity_ids for e in by_inheritor.get(q, ()) if e.donor in quantity_ids]
    return sorted(edges, key=_EDGE_ORDER)


def _walk(kb: KnowledgeBase, quantity_id: str, transitive: bool, backward: bool, sub_only: bool) -> frozenset[str]:
    """Quantities one edge from ``quantity_id``, or any number if ``transitive``: toward
    donors if ``backward``, else toward inheritors; over sub-portion edges only if ``sub_only``."""
    kb._quantity(quantity_id)
    idx = _index(kb)
    edges = idx.by_inheritor if backward else idx.by_donor
    seen: set[str] = set()
    frontier = [quantity_id]
    while frontier:
        for e in edges.get(frontier.pop(), ()):
            if sub_only and not e.is_sub_portion:
                continue
            nxt = e.donor if backward else e.inheritor
            if nxt not in seen:
                seen.add(nxt)
                if transitive:
                    frontier.append(nxt)
    return frozenset(seen)


def inherited_from(kb: KnowledgeBase, quantity_id: str, transitive: bool = False) -> frozenset[str]:
    """Donors the quantity inherited granules from, direct or as a full closure."""
    return _walk(kb, quantity_id, transitive, backward=True, sub_only=False)


def donated_to(kb: KnowledgeBase, quantity_id: str, transitive: bool = False) -> frozenset[str]:
    """Inverse of inherited_from: quantities this one donated granules to."""
    return _walk(kb, quantity_id, transitive, backward=False, sub_only=False)


def sub_portions_of(kb: KnowledgeBase, quantity_id: str, transitive: bool = False) -> frozenset[str]:
    """Same-kind inheritors whose granules are subsets of this quantity's."""
    return _walk(kb, quantity_id, transitive, backward=False, sub_only=True)


def sub_portion_parents(kb: KnowledgeBase, quantity_id: str, transitive: bool = False) -> frozenset[str]:
    """Quantities this one is a sub-portion of."""
    return _walk(kb, quantity_id, transitive, backward=True, sub_only=True)


def classify_origin(kb: KnowledgeBase, quantity_id: str) -> str:
    """Every quantity is exactly one of OriginalPortion or SubPortion."""
    kb._quantity(quantity_id)
    for e in _index(kb).by_inheritor.get(quantity_id, ()):
        if e.is_sub_portion:
            return SUB_PORTION
    return ORIGINAL_PORTION


def granule_history(kb: KnowledgeBase, object_id: str) -> GranuleHistory:
    """The object's stays inside quantities, one per quantity that ever held it,
    by creation time and id; a sub-quantity's stay runs alongside its whole's.

    The out event is the event at the host's termination that lists it as a
    donor, if any. A granule moved in one transfer has consecutive stays that
    share that event; one freed and later reused leaves a gap.
    """
    kb._object(object_id)
    held = kb.store_index.catch_up(kb).holders.get(object_id, ())
    episodes = []
    for q in sorted((kb.quantities[qid] for qid in held), key=attrgetter("created_at", "id")):
        out_event = None
        if q.terminated_at is not None:
            i = bisect_left(kb.events, q.terminated_at, key=attrgetter("at"))
            if i < len(kb.events) and kb.events[i].at == q.terminated_at and q.id in kb.events[i].donors:
                out_event = kb.events[i].id
        episodes.append(Episode(q.id, q.created_at, q.terminated_at, q.creation_event, out_event))
    return GranuleHistory(object_id, tuple(episodes))


def cohort_at(kb: KnowledgeBase, object_id: str, t: int) -> frozenset[str]:
    """All co-granules of the object's host quantities at ``t``.

    With nested portions (a sub-quantity inside its whole) an object can have
    more than one live host; the cohort is the union of their granule sets.
    """
    kb._object(object_id)
    holders = kb.holders_of(object_id, t)
    if not holders:
        raise NotAGranuleAt(object_id, t)
    cohort: frozenset[str] = frozenset()
    for q in holders:
        cohort |= q.granules
    return cohort


def common_ancestors(kb: KnowledgeBase, q1: str, q2: str) -> frozenset[str]:
    """Shared provenance: quantities both arguments inherit from.

    Each argument counts as its own ancestor, so if one is an ancestor of the
    other it shows up in the result.
    """
    left = inherited_from(kb, q1, transitive=True) | {q1}
    return left & (inherited_from(kb, q2, transitive=True) | {q2})


def constitution_view(kb: KnowledgeBase, quantity_id: str, t: int) -> ConstitutionView:
    """The constituting collection of a quantity and its phase at ``t``.

    The member set is the quantity's (immutable) granule set; the phase is
    computed from the adjacency active at ``t``, so after termination the
    former members may report as scattered.
    """
    q = kb._quantity(quantity_id)
    members = q.granules
    parts, touched = count_clusters((a, b) for a, b in kb.adjacency_at(t) if a in members and b in members)
    parts += len(members) - len(touched)  # each untouched member is a cluster of its own
    phase = PHASE_CONNECTED if parts <= 1 else PHASE_SCATTERED
    return ConstitutionView(f"collection-of-{quantity_id}", quantity_id, members, phase)
