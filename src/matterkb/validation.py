"""Axiom and constraint checks over a knowledge base; read-only.

Engine-built knowledge bases satisfy most rules by construction; the checks
exist to vet imported documents and to prove that construction keeps the
invariants. Validators never repair anything, they only report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import ReplayError
from .events import replay
from .model import (
    MIN_GRANULES,
    KnowledgeBase,
    OBJECT_KIND,
    QUANTITY_KIND,
    QuantityInst,
    count_clusters,
)

RULES = (
    "A1_TYPING",
    "A2_SUBQUANTITY_INCLUSION",
    "AA1_GGD",
    "CONNECTIVITY",
    "EXTERNAL_CONNECTION",
    "H1_HISTORY",
    "MAXIMALITY_SAME_KIND",
    "SUPPLEMENTATION_MIN2",
    "SUBQ_KIND_DISTINCT",
)


@dataclass(frozen=True)
class Violation:
    rule: str
    subjects: tuple[str, ...]
    at: int | None
    message: str


@dataclass(frozen=True)
class Report:
    """All violations, sorted by (rule, subjects, time), plus world summaries."""

    violations: tuple[Violation, ...]
    worlds_checked: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def by_rule(self) -> dict[str, list[Violation]]:
        grouped: dict[str, list[Violation]] = {}
        for v in self.violations:
            grouped.setdefault(v.rule, []).append(v)
        return grouped

    def world_summary(self) -> list[tuple[int, int]]:
        """(time point, violation count) for each checked world."""
        counts = {t: 0 for t in self.worlds_checked}
        for v in self.violations:
            if v.at is not None and v.at in counts:
                counts[v.at] += 1
        return sorted(counts.items())


def check_typing(kb: KnowledgeBase) -> list[Violation]:
    """Endpoints of every stored relation must have the right meta-kinds: a walk
    of every record in sorted order, which ``validate_all`` runs only to explain a failed replay."""
    out: list[Violation] = []

    def bad(subjects: tuple[str, ...], message: str, rule: str = "A1_TYPING") -> None:
        out.append(Violation(rule, subjects, None, message))

    for oid, obj in sorted(kb.objects.items()):
        if not kb.has_kind(obj.kind, OBJECT_KIND):
            bad((oid,), f"object '{oid}' has kind '{obj.kind}', which is not a declared object kind")
    for qid, q in sorted(kb.quantities.items()):
        if not kb.has_kind(q.kind, QUANTITY_KIND):
            bad((qid,), f"quantity '{qid}' has kind '{q.kind}', which is not a declared quantity kind")
        for g in sorted(q.granules):
            if g not in kb.objects:
                what = "a quantity" if g in kb.quantities else "not a declared object"
                bad((qid, g), f"granule '{g}' of quantity '{qid}' is {what}")
    for decl in sorted(kb.kinds.values(), key=lambda d: d.name):
        for req in sorted(decl.requires):
            if not kb.has_kind(req, OBJECT_KIND):
                bad((decl.name, req), f"kind '{decl.name}' requires '{req}', which is not a declared object kind")
    for iv in sorted(kb.adjacency, key=lambda i: (i.a, i.b, i.start)):
        for end in (iv.a, iv.b):
            if end not in kb.objects:
                bad((iv.a, iv.b), f"adjacency endpoint '{end}' is not a declared object")
    for s in sorted(kb.subquantities, key=lambda s: (s.part, s.whole)):
        unresolved = [x for x in (s.part, s.whole) if x not in kb.quantities]
        for x in unresolved:
            bad((s.part, s.whole), f"sub-quantity endpoint '{x}' is not a declared quantity")
        if not unresolved and kb.quantities[s.part].kind == kb.quantities[s.whole].kind:
            bad(
                (s.part, s.whole),
                f"sub-quantity '{s.part}' of '{s.whole}' holds between two quantities "
                f"of the same kind '{kb.quantities[s.part].kind}'",
                rule="SUBQ_KIND_DISTINCT",
            )
    return out


def check_supplementation(kb: KnowledgeBase) -> list[Violation]:
    """Every quantity carries at least two distinct granules."""
    out = []
    for qid, q in sorted(kb.quantities.items()):
        if len(q.granules) < MIN_GRANULES:
            out.append(
                Violation(
                    "SUPPLEMENTATION_MIN2",
                    (qid,),
                    None,
                    f"quantity '{qid}' has {len(q.granules)} granule(s); at least {MIN_GRANULES} required",
                )
            )
    return out


def check_subquantity_inclusion(kb: KnowledgeBase) -> list[Violation]:
    """Granules of a sub-quantity must all be granules of its whole (A2), as
    ``QuantityInst.missing_from`` decides; one violation per missing granule."""
    out = []
    for s in sorted(kb.subquantities, key=lambda s: (s.part, s.whole)):
        part = kb.quantities.get(s.part)
        whole = kb.quantities.get(s.whole)
        if part is None or whole is None:
            continue  # typing owns unresolved endpoints
        for g in sorted(part.missing_from(whole)):
            out.append(
                Violation(
                    "A2_SUBQUANTITY_INCLUSION",
                    (s.part, s.whole, g),
                    None,
                    f"granule '{g}' of sub-quantity '{s.part}' is not a granule of whole '{s.whole}'",
                )
            )
    return out


def check_ggd(kb: KnowledgeBase) -> list[Violation]:
    """A quantity of a requiring kind has at least one granule of each required kind:
    its granules meet that kind's object ids."""
    requires = {name: decl.requires for name, decl in kb.kinds.items() if decl.requires}
    of_kind = {req: {oid for oid, obj in kb.objects.items() if obj.kind == req}
               for req in set().union(*requires.values())}
    misses = sorted((qid, req) for qid, q in kb.quantities.items() if q.kind in requires
                    for req in requires[q.kind] if q.granules.isdisjoint(of_kind[req]))
    return [
        Violation(
            "AA1_GGD",
            (qid, req),
            None,
            f"quantity '{qid}' of kind '{kb.quantities[qid].kind}' has no granule of required kind '{req}'",
        )
        for qid, req in misses
    ]


def _pair_key(q1: QuantityInst, q2: QuantityInst) -> tuple[str, str]:
    return (q1.id, q2.id) if q1.id < q2.id else (q2.id, q1.id)


class _World:
    """What the two world rules read at one time point, kept current by deltas.

    ``_World(kb)`` is the empty world; ``advance`` moves it to the next point
    by applying only what changes there: quantity births and deaths and the
    stored pairs whose intervals open or close there. It carries:

    - ``holders``: granule → its live holders, by id;
    - ``open`` and ``incident``: each stored pair's count of open intervals,
      above zero while the pair is active, and each node's active pairs;
    - ``inner``: for each live quantity the connectivity rule checks, the
      active edges among its granules; and ``broken``: for those that fail
      the rule, the sorted granules that touch no co-granule and the number
      of components of the rest;
    - ``shared`` and ``touching``: for each pair of live same-kind quantities
      that share or touch granules, the shared granules and the active edges
      that join one to the other.

    Invalidation rule: a quantity's cached connectivity result holds until it
    dies, an edge among its granules closes, or one opens while it is broken
    (an edge that opens inside a connected quantity keeps it connected); only
    then are its clusters counted again. A pair's maximality entries change
    only when one of the two is born or dies, or an edge with one end in each
    opens or closes. So a sweep over T points costs O(changes), and the rules
    re-emit the still-violating entries at each point: O(output).
    """

    def __init__(self, kb: KnowledgeBase) -> None:
        self.objects = kb.objects.keys()
        self.holders: dict[str, dict[str, QuantityInst]] = {}
        self.open: dict[tuple[str, str], int] = {}
        self.incident: dict[str, set[tuple[str, str]]] = {}
        self.inner: dict[str, set[tuple[str, str]]] = {}
        self.broken: dict[str, tuple[list[str], int]] = {}
        self.shared: dict[tuple[str, str], set[str]] = {}
        self.touching: dict[tuple[str, str], set[tuple[str, str]]] = {}
        self._stale: dict[str, QuantityInst] = {}

    def advance(self, born: Iterable[QuantityInst], dying: Iterable[QuantityInst],
                opened: dict[tuple[str, str], int]) -> None:
        """Apply the next point's deltas; ``opened`` maps a pair to its intervals
        opening there minus those closing. A pair toggles only when its count of
        open intervals crosses 0: imported stores can repeat or overlap them."""
        for q in dying:
            self._death(q)
        for q in born:
            self._birth(q)
        for pair, n in opened.items():
            was = self.open.get(pair, 0)
            self.open[pair] = now = was + n
            if (was > 0) != (now > 0):
                self._toggle(pair, now > 0)
        self._settle()

    def _neighbours(self, q: QuantityInst) -> Iterator[tuple[dict, QuantityInst, object]]:
        """``(self.shared, h, g)`` for each granule ``g`` that ``q`` shares with
        another live same-kind quantity ``h``, and ``(self.touching, h, e)`` for
        each active edge ``e`` through which it touches one."""
        holders = self.holders
        for g in q.granules:
            for h in holders[g].values():
                if h is not q and h.kind == q.kind:
                    yield self.shared, h, g
            for e in self.incident.get(g, ()):
                for h in holders.get(e[1] if e[0] == g else e[0], {}).values():
                    if h is not q and h.kind == q.kind:
                        yield self.touching, h, e

    def _birth(self, q: QuantityInst) -> None:
        granules = q.granules
        for g in granules:
            self.holders.setdefault(g, {})[q.id] = q
        for table, h, what in self._neighbours(q):
            table.setdefault(_pair_key(q, h), set()).add(what)
        if len(granules) >= MIN_GRANULES and granules <= self.objects:
            self.inner[q.id] = {e for g in granules for e in self.incident.get(g, ())
                                if e[0] in granules and e[1] in granules}
            self._stale[q.id] = q

    def _death(self, q: QuantityInst) -> None:
        for table, h, _ in self._neighbours(q):
            table.pop(_pair_key(q, h), None)
        for g in q.granules:
            del self.holders[g][q.id]
        self.inner.pop(q.id, None)
        self.broken.pop(q.id, None)
        self._stale.pop(q.id, None)

    def _toggle(self, pair: tuple[str, str], on: bool) -> None:
        a, b = pair
        op = set.add if on else set.discard
        op(self.incident.setdefault(a, set()), pair)
        op(self.incident.setdefault(b, set()), pair)
        on_a, on_b = self.holders.get(a, {}), self.holders.get(b, {})
        for q in on_a.values():
            edges = self.inner.get(q.id)
            if edges is not None and b in q.granules:
                op(edges, pair)
                if not on or q.id in self.broken:
                    self._stale[q.id] = q
        touching = self.touching
        for q1 in on_a.values():
            for q2 in on_b.values():
                if q1 is not q2 and q1.kind == q2.kind:
                    key = _pair_key(q1, q2)
                    if on:
                        touching.setdefault(key, set()).add(pair)
                    elif key in touching:  # not yet dropped: two holders of both ends meet twice
                        touching[key].discard(pair)
                        if not touching[key]:
                            del touching[key]

    def _settle(self) -> None:
        """Re-run connectivity for the quantities a delta made stale."""
        for qid, q in self._stale.items():
            parts, touched = count_clusters(self.inner[qid])
            isolated = sorted(q.granules - touched)
            if isolated or parts > 1:
                self.broken[qid] = (isolated, parts)
            else:
                self.broken.pop(qid, None)
        self._stale.clear()


def _sweep(kb: KnowledgeBase, worlds: list[int]) -> Iterator[tuple[int, _World]]:
    """``(t, world)`` for each of ``worlds``, one state advanced from the empty world.

    ``worlds`` is one time point or ``kb.change_points()``. A quantity or interval live at
    the first point enters there, a later one at its start; one that ends by then never enters."""
    if not worlds:
        return
    first, last = worlds[0], worlds[-1]
    born: dict[int, list[QuantityInst]] = {}
    dying: dict[int, list[QuantityInst]] = {}
    opened: dict[int, dict[tuple[str, str], int]] = {}
    for q in kb.quantities.values():
        start = q.created_at if q.created_at > first else first
        end = q.terminated_at
        if start <= last and (end is None or end > start):
            born.setdefault(start, []).append(q)
            if end is not None:
                dying.setdefault(end, []).append(q)
    for iv in kb.adjacency:
        start = iv.start if iv.start > first else first
        end = iv.end
        if start <= last and (end is None or end > start):
            pair = (iv.a, iv.b)
            counts = opened.setdefault(start, {})
            counts[pair] = counts.get(pair, 0) + 1
            if end is not None:
                counts = opened.setdefault(end, {})
                counts[pair] = counts.get(pair, 0) - 1
    world = _World(kb)
    for t in worlds:
        world.advance(born.get(t, ()), dying.get(t, ()), opened.get(t, {}))
        yield t, world


def check_connectivity(kb: KnowledgeBase, t: int, world: _World | None = None) -> list[Violation]:
    """Each live quantity's granule graph is one piece at ``t``.

    Granules with no adjacent co-granule are reported as EXTERNAL_CONNECTION;
    quantities whose remaining (non-isolated) granules split into several
    components are reported as CONNECTIVITY. Quantities with unresolved or
    sub-minimum granule sets are skipped here: typing and supplementation own
    those defects.

    ``world`` is the sweep's state at ``t``; without it a one-point sweep
    builds it. The rule only re-emits that state's cached failures with ``t``.
    """
    if world is None:
        world = next(_sweep(kb, [t]))[1]
    out = []
    for qid in sorted(world.broken):
        isolated, parts = world.broken[qid]
        for g in isolated:
            out.append(
                Violation(
                    "EXTERNAL_CONNECTION",
                    (g, qid),
                    t,
                    f"granule '{g}' of quantity '{qid}' is externally connected to no co-granule at t{t}",
                )
            )
        if parts > 1:
            out.append(
                Violation(
                    "CONNECTIVITY",
                    (qid,),
                    t,
                    f"granules of quantity '{qid}' fall apart into {parts} "
                    f"disconnected clusters at t{t}",
                )
            )
    return out


def check_maximality(kb: KnowledgeBase, t: int, world: _World | None = None) -> list[Violation]:
    """No two live quantities of one kind share or touch granules at ``t``.

    A pair that shares granules is reported with all of them; otherwise the
    least active edge that joins the two is named. ``world`` is as for
    ``check_connectivity``.
    """
    if world is None:
        world = next(_sweep(kb, [t]))[1]
    shared, touching = world.shared, world.touching
    out = []
    for pair in sorted(shared.keys() | touching.keys()):
        if pair in shared:
            detail = f"share granule(s) {', '.join(sorted(shared[pair]))} at t{t}"
        else:
            a, b = min(touching[pair])
            detail = f"are adjacent ({a}-{b}) at t{t}; they should be one quantity"
        message = f"same-kind quantities '{pair[0]}' and '{pair[1]}' {detail}"
        out.append(Violation("MAXIMALITY_SAME_KIND", pair, t, message))
    return out


# What check_history names when a stored quantity differs from its rebuild.
_QUANTITY_FIELDS = (
    ("kind", "kind"),
    ("created_at", "creation time"),
    ("granules", "granule set"),
    ("creation_event", "creation event"),
    ("terminated_at", "termination time"),
)


def check_history(kb: KnowledgeBase) -> list[Violation]:
    """The event log, re-applied through the engine, rebuilds the stored quantities.

    ``replay`` runs the engine's checks on every record, the objects, the
    events and the intervals in one kernel batch each, so they are the only
    encoding of the log's rules. Replay stops at the first rejected record and
    that record alone is reported; otherwise every stored quantity must equal
    its rebuilt twin.
    """
    try:
        rebuilt = replay(kb).quantities
    except ReplayError as exc:
        if exc.index is not None:
            message = f"event '{exc.subjects[0]}' cannot be re-applied: {exc.cause}"
        else:
            message = f"the store cannot be rebuilt from its event log: {exc.cause}"
        return [Violation("H1_HISTORY", exc.subjects, None, message)]
    out = []
    for qid in sorted(kb.quantities.keys() | rebuilt.keys()):
        stored, again = kb.quantities.get(qid), rebuilt.get(qid)
        if again is None:
            message = f"quantity '{qid}' is created by no event in the log"
        elif stored is None:
            message = f"event '{again.creation_event}' creates quantity '{qid}', which is not in the store"
        elif stored != again:
            fields = [label for name, label in _QUANTITY_FIELDS if getattr(stored, name) != getattr(again, name)]
            message = f"quantity '{qid}' differs from its rebuild from the event log in: {', '.join(fields)}"
        else:
            continue
        out.append(Violation("H1_HISTORY", (qid,), None, message))
    return out


def validate_all(kb: KnowledgeBase, at: int | None = None) -> Report:
    """Run every rule; world-scoped rules run at each change point.

    With ``at`` given, the world-scoped rules run only at that time point.
    The history rule runs first. The engine refuses every defect that
    ``A1_TYPING``, ``SUBQ_KIND_DISTINCT``, ``SUPPLEMENTATION_MIN2`` and
    ``A2_SUBQUANTITY_INCLUSION`` report, so a clean replay rules them out and
    they run only to explain a failed one. What they report replaces the
    history violation; until then a distinct history defect, even an earlier
    one, goes unreported.
    """
    violations = check_history(kb)
    if violations:
        violations = check_typing(kb) + check_supplementation(kb) + check_subquantity_inclusion(kb) or violations
    violations += check_ggd(kb)
    worlds = [at] if at is not None else kb.change_points()
    for t, world in _sweep(kb, worlds):
        violations += check_connectivity(kb, t, world)
        violations += check_maximality(kb, t, world)
    ordered = sorted(violations, key=lambda v: (v.rule, v.subjects, v.at if v.at is not None else -1))
    return Report(tuple(ordered), tuple(worlds))
