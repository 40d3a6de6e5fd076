"""Axiom and constraint checks over a knowledge base; read-only.

Engine-built knowledge bases satisfy most rules by construction; the checks
exist to vet imported documents and to prove that construction keeps the
invariants. Validators never repair anything, they only report.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ReplayError
from .events import replay
from .model import (
    MIN_GRANULES,
    KnowledgeBase,
    OBJECT_KIND,
    QUANTITY_KIND,
    QuantityInst,
    connected_components,
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
    """Endpoints of every stored relation must have the right meta-kinds."""
    out: list[Violation] = []

    def bad(subjects: tuple[str, ...], message: str, rule: str = "A1_TYPING") -> None:
        out.append(Violation(rule, subjects, None, message))

    for oid, obj in sorted(kb.objects.items()):
        decl = kb.kinds.get(obj.kind)
        if decl is None or decl.meta != OBJECT_KIND:
            bad((oid,), f"object '{oid}' has kind '{obj.kind}', which is not a declared object kind")
    for qid, q in sorted(kb.quantities.items()):
        decl = kb.kinds.get(q.kind)
        if decl is None or decl.meta != QUANTITY_KIND:
            bad((qid,), f"quantity '{qid}' has kind '{q.kind}', which is not a declared quantity kind")
        for g in sorted(q.granules):
            if g not in kb.objects:
                what = "a quantity" if g in kb.quantities else "not a declared object"
                bad((qid, g), f"granule '{g}' of quantity '{qid}' is {what}")
    for decl in sorted(kb.kinds.values(), key=lambda d: d.name):
        for req in sorted(decl.requires):
            target = kb.kinds.get(req)
            if target is None or target.meta != OBJECT_KIND:
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
    """Granules of a sub-quantity must all be granules of its whole.

    Vacuous when the lifetimes never overlap: the inclusion only binds worlds
    where both quantities are live. One violation per missing granule.
    """
    out = []
    for s in sorted(kb.subquantities, key=lambda s: (s.part, s.whole)):
        part = kb.quantities.get(s.part)
        whole = kb.quantities.get(s.whole)
        if part is None or whole is None:
            continue  # typing owns unresolved endpoints
        if not part.overlaps(whole):
            continue
        for g in sorted(part.granules - whole.granules):
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
    """A quantity of a requiring kind has at least one granule of each required kind."""
    out = []
    for qid, q in sorted(kb.quantities.items()):
        decl = kb.kinds.get(q.kind)
        if decl is None or not decl.requires:
            continue
        for req in sorted(decl.requires - kb.granule_types(qid)):
            out.append(
                Violation(
                    "AA1_GGD",
                    (qid, req),
                    None,
                    f"quantity '{qid}' of kind '{q.kind}' has no granule of required kind '{req}'",
                )
            )
    return out


_World = tuple[list[QuantityInst], dict[str, list[QuantityInst]], list[tuple[str, str]]]


def _world(kb: KnowledgeBase, t: int) -> _World:
    """What the two world rules read at ``t``: the live quantities in id order,
    each granule's live holders in that order, and the sorted active edges."""
    live = kb.live_quantities_at(t)
    holders: dict[str, list[QuantityInst]] = {}
    for q in live:
        for g in q.granules:
            holders.setdefault(g, []).append(q)
    return live, holders, kb.adjacency_at(t)


def check_connectivity(kb: KnowledgeBase, t: int, world: _World | None = None) -> list[Violation]:
    """Each live quantity's granule graph is one piece at ``t``.

    Granules with no adjacent co-granule are reported as EXTERNAL_CONNECTION;
    quantities whose remaining (non-isolated) granules split into several
    components are reported as CONNECTIVITY. Quantities with unresolved or
    sub-minimum granule sets are skipped here: typing and supplementation own
    those defects.

    Each active edge goes, through the granule → live-holders index, to the
    live quantities that hold both its ends, so one world costs
    O(A_t + Σ|granules of live quantities|) for A_t active edges. ``world``
    is ``_world(kb, t)``, passed when the caller has already built it.
    """
    out = []
    live, holders, active = world or _world(kb, t)
    edges_of: dict[str, list[tuple[str, str]]] = {}
    for a, b in active:
        for q in holders.get(a, ()):
            if b in q.granules:
                edges_of.setdefault(q.id, []).append((a, b))
    for q in live:
        if len(q.granules) < MIN_GRANULES or not q.granules <= kb.objects.keys():
            continue
        edges = edges_of.get(q.id, [])
        touched = {x for e in edges for x in e}
        for g in sorted(q.granules - touched):
            out.append(
                Violation(
                    "EXTERNAL_CONNECTION",
                    (g, q.id),
                    t,
                    f"granule '{g}' of quantity '{q.id}' is externally connected to no co-granule at t{t}",
                )
            )
        parts = connected_components(touched, edges)
        if len(parts) > 1:
            out.append(
                Violation(
                    "CONNECTIVITY",
                    (q.id,),
                    t,
                    f"granules of quantity '{q.id}' fall apart into {len(parts)} "
                    f"disconnected clusters at t{t}",
                )
            )
    return out


def check_maximality(kb: KnowledgeBase, t: int, world: _World | None = None) -> list[Violation]:
    """No two live quantities of one kind share or touch granules at ``t``.

    Candidate pairs come from the granule → live-holders index: the holders
    of one granule share it, and the holders of the two ends of an active edge
    touch. One world costs O(A_t + Σ|granules of live quantities| + violations)
    for A_t active edges, with no scan over all pairs of quantities, as long as
    a granule has few live holders of other kinds (an engine-built store gives
    it at most one per kind). ``world`` is as for ``check_connectivity``.
    """
    _, holders, active = world or _world(kb, t)
    shared: dict[tuple[str, str], list[str]] = {}
    for g, on_g in holders.items():
        for i, q1 in enumerate(on_g):
            for q2 in on_g[i + 1:]:
                if q1.kind == q2.kind:
                    shared.setdefault((q1.id, q2.id), []).append(g)
    touching: dict[tuple[str, str], tuple[str, str]] = {}
    for a, b in active:  # sorted, so the first edge kept per pair is its least
        for q1 in holders.get(a, ()):
            for q2 in holders.get(b, ()):
                if q1 is not q2 and q1.kind == q2.kind:
                    pair = (q1.id, q2.id) if q1.id < q2.id else (q2.id, q1.id)
                    touching.setdefault(pair, (a, b))
    out = []
    for pair in sorted(shared.keys() | touching.keys()):
        if pair in shared:
            detail = f"share granule(s) {', '.join(sorted(shared[pair]))} at t{t}"
        else:
            a, b = touching[pair]
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

    ``replay`` runs the engine's checks record by record, so they are the only
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
    The history rule runs only on a store that typing, supplementation and
    inclusion pass.
    """
    violations = check_typing(kb) + check_supplementation(kb) + check_subquantity_inclusion(kb)
    if not violations:
        # The engine rejects those defects too, so replay would report them twice.
        violations += check_history(kb)
    violations += check_ggd(kb)
    worlds = [at] if at is not None else kb.change_points()
    for t in worlds:
        world = _world(kb, t)
        violations += check_connectivity(kb, t, world)
        violations += check_maximality(kb, t, world)
    ordered = sorted(violations, key=lambda v: (v.rule, v.subjects, v.at if v.at is not None else -1))
    return Report(tuple(ordered), tuple(worlds))
