"""Shared test machinery: a generator of random valid knowledge bases,
independent graph/closure oracles, and the seeded-fault fixture corpus."""

from __future__ import annotations

import argparse
import random
import re
import sys
from functools import partial
from operator import attrgetter, itemgetter
from typing import Any, NamedTuple, NoReturn

from matterkb import (
    CreatedEntry,
    KindDecl,
    KnowledgeBase,
    apply_creation,
    apply_transfer,
    case_study_path,
    export_document,
    kb_to_doc,
    replay,
)
from matterkb.canonical import doc_to_kb
from matterkb.cli import QUERIES, USAGE, _CliError, cmd_export, cmd_query, cmd_replay_check, cmd_validate
from matterkb.dsl import (
    KEYWORDS,
    AdjacencyStmt,
    CreateClause,
    EventStmt,
    KindStmt,
    ObjectStmt,
    ParseDiagnostic,
    ParseResult,
    Pos,
    QuantityStmt,
    Scenario,
    SubquantityStmt,
    _Bail,
    _diagnostic,
    _resolve,
)
from matterkb import events
from matterkb.errors import (
    DocumentError,
    DonorNotLive,
    DuplicateGranuleAssignment,
    DuplicateId,
    EngineError,
    GranuleNotFree,
    GranuleProvenanceViolation,
    NonMonotonicTime,
    OverlappingInterval,
    ReplayError,
    ScenarioLoadError,
    SelfAdjacency,
    TooFewGranules,
    UnknownAdjacency,
    UnknownKind,
    UnknownObject,
    UnknownQuantity,
)
from matterkb.events import CREATION, GRANULE_TRANSFER, EventRec
from matterkb.model import (
    MIN_GRANULES,
    OBJECT_KIND,
    QUANTITY_KIND,
    STATUS_LIVE,
    STATUS_NOT_YET_CREATED,
    AdjacencyInterval,
    ObjectInst,
    QuantityInst,
    SubQuantityAssertion,
    WorldView,
)
from matterkb.provenance import ProvenanceEdge
from matterkb.validation import Violation

TOP_KINDS = ("RockA", "RockB", "Mud")
SUB_KIND = "Brine"


class _Gen:
    """Random event-log builder that keeps every axiom satisfied.

    Validity strategy: granule sets are clique-connected when a quantity is
    created, entangled quantities (a sub-quantity and its whole) are never
    donors, and after every event any adjacency edge crossing two live
    same-kind quantities is retracted.
    """

    def __init__(self, rng: random.Random, max_objects: int):
        self.rng = rng
        self.max_objects = max_objects
        self.kb = KnowledgeBase()
        self.kb.declare_object_kind("Grain")
        for kind in TOP_KINDS:
            self.kb.declare_quantity_kind(kind, ["Grain"])
        self.kb.declare_quantity_kind(SUB_KIND, [])
        self.next_object = 0
        self.next_quantity = 0
        self.free: set[str] = set()
        self.entangled: set[str] = set()
        self.subquantity_pairs: list[tuple[str, str]] = []

    def run(self, n_events: int) -> KnowledgeBase:
        t = 0
        for _ in range(n_events):
            if self.step(t):
                t += 1
        return self.kb

    # -- actions -------------------------------------------------------------

    def step(self, t: int) -> bool:
        donors_possible = bool(self.donor_candidates())
        hosts_possible = bool(self.host_candidates())
        budget = self.max_objects - self.next_object
        moves = []
        if budget >= 2:
            moves += ["create"] * 4
        if donors_possible:
            moves += ["transfer"] * 4
        if hosts_possible:
            moves += ["sub"] * 3
        if not moves:
            return False
        move = self.rng.choice(moves)
        if move == "create":
            self.do_create(t)
        elif move == "transfer":
            self.do_transfer(t)
        else:
            self.do_sub(t)
        self.cut_same_kind_crossings(t)
        return True

    def do_create(self, t: int) -> None:
        budget = self.max_objects - self.next_object
        m = self.rng.randint(2, min(4, budget))
        granules = [self.new_object(t) for _ in range(m)]
        qid = self.new_quantity_id()
        kind = self.rng.choice(TOP_KINDS)
        apply_creation(self.kb, CreatedEntry.of(qid, kind, granules), t)
        self.clique(granules, t)

    def do_transfer(self, t: int) -> None:
        candidates = self.donor_candidates()
        n_donors = self.rng.randint(1, min(2, len(candidates)))
        donors = self.rng.sample(candidates, n_donors)
        pool = sorted(set().union(*(self.kb.quantities[d].granules for d in donors)))
        self.rng.shuffle(pool)
        groups: list[list[str]] = []
        if len(pool) >= 4 and self.rng.random() < 0.6:
            s1 = self.rng.randint(2, len(pool) - 2)
            s2 = self.rng.randint(2, len(pool) - s1)
            groups = [pool[:s1], pool[s1:s1 + s2]]
            leftovers = pool[s1 + s2:]
        else:
            s1 = self.rng.randint(2, len(pool))
            groups = [pool[:s1]]
            leftovers = pool[s1:]
        if self.free and self.rng.random() < 0.3:
            extra = self.rng.choice(sorted(self.free))
            self.free.discard(extra)
            self.rng.choice(groups).append(extra)
        discarded = [g for g in leftovers if self.rng.random() < 0.5]
        created = [
            CreatedEntry.of(self.new_quantity_id(), self.rng.choice(TOP_KINDS), group)
            for group in groups
        ]
        apply_transfer(self.kb, donors, created, t, discarded=discarded)
        self.free.update(leftovers)
        for entry in created:
            self.clique(sorted(entry.granules), t)

    def do_sub(self, t: int) -> None:
        host = self.rng.choice(self.host_candidates())
        granules = sorted(self.kb.quantities[host].granules)
        size = self.rng.randint(2, len(granules))
        members = self.rng.sample(granules, size)
        sub = self.new_quantity_id()
        apply_creation(self.kb, CreatedEntry.of(sub, SUB_KIND, members), t)
        self.kb.assert_subquantity(sub, host)
        self.entangled.update((sub, host))
        self.subquantity_pairs.append((sub, host))

    # -- support ---------------------------------------------------------------

    def donor_candidates(self) -> list[str]:
        return [q.id for q in self.kb.live_quantities_at(10**9) if q.id not in self.entangled]

    def host_candidates(self) -> list[str]:
        return [
            q.id
            for q in self.kb.live_quantities_at(10**9)
            if q.id not in self.entangled and q.kind != SUB_KIND and len(q.granules) >= 2
        ]

    def new_object(self, t: int) -> str:
        oid = f"g{self.next_object}"
        self.next_object += 1
        self.kb.create_object(oid, "Grain", t)
        return oid

    def new_quantity_id(self) -> str:
        qid = f"q{self.next_quantity}"
        self.next_quantity += 1
        return qid

    def clique(self, ids: list[str], t: int) -> None:
        for i, a in enumerate(ids):
            for b in ids[i + 1:]:
                if not self.kb.adjacent_at(a, b, t):
                    self.kb.assert_adjacency(*sorted((a, b)), t)

    def cut_same_kind_crossings(self, t: int) -> None:
        holders: dict[str, list[QuantityInst]] = {}
        for q in self.kb.live_quantities_at(t):
            for g in q.granules:
                holders.setdefault(g, []).append(q)
        for a, b in self.kb.adjacency_at(t):
            if any(q1 is not q2 and q1.kind == q2.kind
                   for q1 in holders.get(a, ()) for q2 in holders.get(b, ())):
                self.kb.retract_adjacency(a, b, t)


def build_random_kb(seed: int, max_events: int = 8, max_objects: int = 20) -> KnowledgeBase:
    """A valid store of 1 to ``max_events`` steps over at most ``max_objects`` objects."""
    rng = random.Random(seed)
    gen = _Gen(rng, max_objects)
    kb = gen.run(rng.randint(1, max_events))
    kb.subquantity_pairs = list(gen.subquantity_pairs)  # stashed for tests
    return kb


# -- independent oracles -------------------------------------------------------


def bfs_component(start: str, adjacency: dict[str, set[str]]) -> set[str]:
    seen = {start}
    queue = [start]
    while queue:
        node = queue.pop(0)
        for nxt in adjacency.get(node, ()):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


def _adjacency_map(edges: list[tuple[str, str]]) -> dict[str, set[str]]:
    adj: dict[str, set[str]] = {}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    return adj


def connected_components(nodes: set[str], edges: list[tuple[str, str]]) -> list[set[str]]:
    """The components of the graph on ``nodes``, one BFS each; edges with an
    endpoint outside ``nodes`` are ignored. The oracles' own count, so they
    share no code with the sweep's union-find."""
    adj = _adjacency_map([(a, b) for a, b in edges if a in nodes and b in nodes])
    parts: list[set[str]] = []
    seen: set[str] = set()
    for n in nodes:
        if n not in seen:
            parts.append(bfs_component(n, adj))
            seen |= parts[-1]
    return parts


def oracle_connectivity(granules: set[str], edges: list[tuple[str, str]]) -> tuple[set[str], bool]:
    """(isolated granules, True when the non-isolated part splits) via BFS."""
    internal = [(a, b) for a, b in edges if a in granules and b in granules]
    adj = _adjacency_map(internal)
    isolated = {g for g in granules if not adj.get(g)}
    rest = granules - isolated
    if not rest:
        return isolated, False
    component = bfs_component(next(iter(sorted(rest))), adj)
    return isolated, not rest <= component


def oracle_maximality(
    q1: str, g1: set[str], q2: str, g2: set[str], edges: list[tuple[str, str]]
) -> bool:
    """True when a merged granule graph joins both quantity nodes."""
    merged = [(q1, g) for g in g1] + [(q2, g) for g in g2]
    nodes = g1 | g2
    merged += [(a, b) for a, b in edges if a in nodes and b in nodes]
    return q2 in bfs_component(q1, _adjacency_map(merged))


def reference_connectivity(kb: KnowledgeBase, t: int) -> list[Violation]:
    """Brute-force CONNECTIVITY/EXTERNAL_CONNECTION: every active edge mapped once
    to the live quantities that hold both its ends (no other quantity has it inside)."""
    out = []
    live = reference_live_quantities_at(kb, t)
    holders: dict[str, list[int]] = {}
    for i, q in enumerate(live):
        for g in q.granules:
            holders.setdefault(g, []).append(i)
    inner: dict[int, list[tuple[str, str]]] = {}
    for a, b in set(reference_adjacency_at(kb, t)):
        for i in holders.get(a, ()):
            if b in live[i].granules:
                inner.setdefault(i, []).append((a, b))
    for i, q in enumerate(live):
        if len(q.granules) < MIN_GRANULES or any(g not in kb.objects for g in q.granules):
            continue
        edges = inner.get(i, [])
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


def reference_maximality(kb: KnowledgeBase, t: int) -> list[Violation]:
    """Brute-force MAXIMALITY_SAME_KIND: every pair of live quantities, and every
    active edge mapped once to the same-kind pairs of its endpoints' holders (no
    other edge can join a same-kind pair)."""
    out = []
    live = reference_live_quantities_at(kb, t)
    holders: dict[str, list[int]] = {}
    for i, q in enumerate(live):
        for g in q.granules:
            holders.setdefault(g, []).append(i)
    touching: dict[tuple[int, int], list[tuple[str, str]]] = {}
    for a, b in reference_adjacency_at(kb, t):
        for i in holders.get(a, ()):
            for j in holders.get(b, ()):
                if i != j and live[i].kind == live[j].kind:
                    touching.setdefault((min(i, j), max(i, j)), []).append((a, b))
    for i, q1 in enumerate(live):
        for j in range(i + 1, len(live)):
            q2 = live[j]
            if q1.kind != q2.kind:
                continue
            shared = q1.granules & q2.granules
            if shared:
                out.append(
                    Violation(
                        "MAXIMALITY_SAME_KIND",
                        (q1.id, q2.id),
                        t,
                        f"same-kind quantities '{q1.id}' and '{q2.id}' share granule(s) "
                        f"{', '.join(sorted(shared))} at t{t}",
                    )
                )
                continue
            if (i, j) in touching:
                a, b = min(touching[i, j])
                out.append(
                    Violation(
                        "MAXIMALITY_SAME_KIND",
                        (q1.id, q2.id),
                        t,
                        f"same-kind quantities '{q1.id}' and '{q2.id}' are adjacent "
                        f"({a}-{b}) at t{t}; they should be one quantity",
                    )
                )
    return out


# -- per-record references for the log rules ------------------------------------------
# `check_typing`, `check_supplementation` and `check_subquantity_inclusion` walk every
# record in sorted order. These decide each record on its own, over the records in
# store order, and sort the violations once by the rule's key, kept as differential
# checks; `check_ggd`'s reference is the sorted walk its set operations replaced.


def reference_check_typing(kb: KnowledgeBase) -> list[Violation]:
    """Endpoints of every stored relation must have the right meta-kinds. A
    violation's key orders by section (objects, quantities, kinds, intervals,
    assertions), then by record, then by its place in the record."""
    metas = {name: decl.meta for name, decl in kb.kinds.items()}
    found: list[tuple[tuple, Violation]] = []

    def bad(key: tuple, subjects: tuple[str, ...], message: str, rule: str = "A1_TYPING") -> None:
        found.append((key, Violation(rule, subjects, None, message)))

    for oid, obj in kb.objects.items():
        if metas.get(obj.kind) != OBJECT_KIND:
            bad((0, oid), (oid,), f"object '{oid}' has kind '{obj.kind}', which is not a declared object kind")
    for qid, q in kb.quantities.items():
        if metas.get(q.kind) != QUANTITY_KIND:
            bad((1, qid, 0, ""), (qid,),
                f"quantity '{qid}' has kind '{q.kind}', which is not a declared quantity kind")
        for g in q.granules - kb.objects.keys():
            what = "a quantity" if g in kb.quantities else "not a declared object"
            bad((1, qid, 1, g), (qid, g), f"granule '{g}' of quantity '{qid}' is {what}")
    for name, decl in kb.kinds.items():
        for req in decl.requires:
            if metas.get(req) != OBJECT_KIND:
                bad((2, name, req), (name, req), f"kind '{name}' requires '{req}', which is not a declared object kind")
    for iv in kb.adjacency:
        for place, end in enumerate((iv.a, iv.b)):
            if end not in kb.objects:
                bad((3, iv.a, iv.b, iv.start, place), (iv.a, iv.b),
                    f"adjacency endpoint '{end}' is not a declared object")
    for s in kb.subquantities:
        ends = [(place, x) for place, x in enumerate((s.part, s.whole)) if x not in kb.quantities]
        for place, x in ends:
            bad((4, s.part, s.whole, place), (s.part, s.whole), f"sub-quantity endpoint '{x}' is not a declared quantity")
        if not ends and kb.quantities[s.part].kind == kb.quantities[s.whole].kind:
            bad((4, s.part, s.whole, 2), (s.part, s.whole),
                f"sub-quantity '{s.part}' of '{s.whole}' holds between two quantities "
                f"of the same kind '{kb.quantities[s.part].kind}'",
                rule="SUBQ_KIND_DISTINCT")
    return [v for _, v in sorted(found, key=itemgetter(0))]


def reference_check_supplementation(kb: KnowledgeBase) -> list[Violation]:
    """Every quantity carries at least two distinct granules; in quantity id order."""
    out = [
        Violation("SUPPLEMENTATION_MIN2", (qid,), None,
                  f"quantity '{qid}' has {len(q.granules)} granule(s); at least {MIN_GRANULES} required")
        for qid, q in kb.quantities.items() if len(q.granules) < MIN_GRANULES
    ]
    return sorted(out, key=attrgetter("subjects"))


def reference_check_subquantity_inclusion(kb: KnowledgeBase) -> list[Violation]:
    """Granules of a sub-quantity must all be granules of its whole (A2) in the
    worlds where both are live: they share one exactly when both are live at the
    later creation. One violation per missing granule, in subject order."""
    out = []
    for s in kb.subquantities:
        part, whole = kb.quantities.get(s.part), kb.quantities.get(s.whole)
        if part is None or whole is None:
            continue  # typing owns unresolved endpoints
        t = max(part.created_at, whole.created_at)
        if part.live_at(t) and whole.live_at(t):
            out += [Violation("A2_SUBQUANTITY_INCLUSION", (s.part, s.whole, g), None,
                              f"granule '{g}' of sub-quantity '{s.part}' is not a granule of whole '{s.whole}'")
                    for g in part.granules if g not in whole.granules]
    return sorted(out, key=attrgetter("subjects"))


def reference_check_ggd(kb: KnowledgeBase) -> list[Violation]:
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


# -- brute-force references for the store index -----------------------------------
# The scans that `KnowledgeBase.store_index` replaced, kept as differential checks;
# the world references are the whole-store scans `world_at`, `adjacency_at` and
# `live_quantities_at` ran, and read none of the world columns they check.


def reference_check_fresh(kb: KnowledgeBase, entity_id: str) -> None:
    if entity_id in kb.objects or entity_id in kb.quantities or any(
        ev.id == entity_id for ev in kb.events
    ):
        raise DuplicateId(f"id '{entity_id}' is already in use")


def reference_holders_of(kb: KnowledgeBase, object_id: str, t: int) -> list[QuantityInst]:
    return [q for q in reference_live_quantities_at(kb, t) if object_id in q.granules]


def reference_same_kind_holder(
    kb: KnowledgeBase, granules: frozenset[str], kind: str, at: int, exclude: frozenset[str]
) -> tuple[str, QuantityInst] | None:
    for g in sorted(granules):
        for q in reference_live_quantities_at(kb, at):
            if q.id not in exclude and q.kind == kind and g in q.granules:
                return g, q
    return None


def reference_assert_adjacency(kb: KnowledgeBase, a: str, b: str, start: int) -> None:
    kb._check_time(start)
    if a == b:
        raise SelfAdjacency(f"object '{a}' cannot be adjacent to itself")
    for oid in (a, b):
        kb._object(oid, start)
    a, b = sorted((a, b))
    for iv in kb.adjacency:
        if (iv.a, iv.b) == (a, b) and (iv.end is None or iv.end > start):
            raise OverlappingInterval(
                f"adjacency {a}-{b} from t{start} would overlap the interval "
                f"starting at t{iv.start}"
            )
    kb.adjacency.append(AdjacencyInterval(a, b, start))


def reference_retract_adjacency(kb: KnowledgeBase, a: str, b: str, end: int) -> None:
    kb._check_time(end)
    for oid in (a, b):
        kb._object(oid)
    a, b = sorted((a, b))
    for iv in kb.adjacency:
        if (iv.a, iv.b) == (a, b) and iv.end is None and iv.start < end:
            iv.end = end
            return
    raise UnknownAdjacency(f"no open adjacency {a}-{b} active before t{end}")


def reference_create_object(kb: KnowledgeBase, object_id: str, kind: str, at: int) -> ObjectInst:
    kb._check_time(at)
    reference_check_fresh(kb, object_id)
    if not kb.has_kind(kind, OBJECT_KIND):
        raise UnknownKind(f"'{kind}' is not a declared object kind")
    kb.objects[object_id] = obj = ObjectInst(object_id, kind, at)
    return obj


def reference_create_objects(kb: KnowledgeBase, objects) -> list[ObjectInst]:
    return [reference_create_object(kb, *record) for record in objects]


def reference_assert_intervals(kb: KnowledgeBase, intervals) -> None:
    """Each record opened and closed by the scans above; a record whose close
    fails is taken out again, since the batch applies no part of a failing record."""
    for a, b, start, end in intervals:
        reference_assert_adjacency(kb, a, b, start)
        if end is not None:
            try:
                reference_retract_adjacency(kb, a, b, end)
            except Exception:
                kb.adjacency.pop()
                raise


def reference_adjacent_at(kb: KnowledgeBase, a: str, b: str, t: int) -> bool:
    a, b = sorted((a, b))
    return any((iv.a, iv.b) == (a, b) and iv.active_at(t) for iv in kb.adjacency)


def reference_live_quantities_at(kb: KnowledgeBase, t: int) -> list[QuantityInst]:
    return [q for _, q in sorted(kb.quantities.items()) if q.live_at(t)]


def reference_adjacency_at(kb: KnowledgeBase, t: int) -> list[tuple[str, str]]:
    return sorted(dict.fromkeys((iv.a, iv.b) for iv in kb.adjacency if iv.active_at(t)))


def reference_world_at(kb: KnowledgeBase, t: int) -> WorldView:
    kb._check_time(t)
    objects = tuple(
        (oid, STATUS_LIVE if o.created_at <= t else STATUS_NOT_YET_CREATED)
        for oid, o in sorted(kb.objects.items())
    )
    quantities = tuple((qid, q.status_at(t)) for qid, q in sorted(kb.quantities.items()))
    granule_of = tuple(
        sorted((g, q.id) for q in kb.quantities.values() if q.live_at(t) for g in q.granules)
    )
    subq = tuple(
        sorted(
            (s.part, s.whole)
            for s in kb.subquantities
            if s.part in kb.quantities
            and s.whole in kb.quantities
            and kb.quantities[s.part].live_at(t)
            and kb.quantities[s.whole].live_at(t)
        )
    )
    return WorldView(
        at=t,
        objects=objects,
        quantities=quantities,
        granule_of=granule_of,
        adjacency=tuple(reference_adjacency_at(kb, t)),
        subquantities=subq,
    )


def reference_world_query(kb: KnowledgeBase, t: int) -> tuple[str, dict]:
    """The text and payload of `query world tN`, rendered from `reference_world_at`."""
    view = reference_world_at(kb, t)
    lines = [f"world t{t}\n", "objects:\n"]
    lines += [f"  {oid} {status}\n" for oid, status in view.objects]
    lines.append("quantities:\n")
    lines += [f"  {qid} {status}\n" for qid, status in view.quantities]
    lines.append("granuleOf:\n")
    lines += [f"  {o} {q}\n" for o, q in view.granule_of]
    lines.append("adjacency:\n")
    lines += [f"  {a} {b}\n" for a, b in view.adjacency]
    lines.append("subquantityOf:\n")
    lines += [f"  {p} {w}\n" for p, w in view.subquantities]
    payload = {
        "at": t,
        "objects": [{"id": o, "status": s} for o, s in view.objects],
        "quantities": [{"id": q, "status": s} for q, s in view.quantities],
        "granuleOf": [{"object": o, "quantity": q} for o, q in view.granule_of],
        "adjacency": [{"a": a, "b": b} for a, b in view.adjacency],
        "subquantityOf": [{"part": p, "whole": w} for p, w in view.subquantities],
    }
    return "".join(lines), payload


# -- whole-log reference for the provenance index ---------------------------------
# The derivation `provenance._Index` ran over the whole log before it caught up
# on the log tail, kept as a differential check.


def reference_derive_edges(kb: KnowledgeBase) -> tuple[ProvenanceEdge, ...]:
    edges = []
    for ev in kb.events:
        if ev.kind != GRANULE_TRANSFER:
            continue
        for entry in ev.created:
            for did in sorted(ev.donors):
                donor = kb.quantities.get(did)
                if donor is None:
                    continue
                shared = entry.granules & donor.granules
                if not shared:
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
    return tuple(sorted(edges, key=lambda e: (e.inheritor, e.donor)))


# -- separate creation and transfer writes ---------------------------------------------
# The two event writes that one checked write replaced, each with its own copy of
# the time, id, entry and holder checks, and a record-by-record batch over them,
# kept as differential checks. They index none of their appends: each catches the
# store index up first, as it would after any append made outside the kernel.


def reference_apply_creation(
    kb: KnowledgeBase, entry: CreatedEntry, at: int, event_id: str | None = None
) -> EventRec:
    kb._check_time(at)
    _ref_check_monotonic(kb, at)
    if event_id is None:
        event_id = f"create-{entry.id}"
    kb.store_index.catch_up(kb)
    kb._check_fresh(event_id)
    _ref_check_entry(kb, entry, at)
    for g in sorted(entry.granules):
        held = events._same_kind_holder(kb, frozenset({g}), entry.kind, at, exclude=frozenset())
        if held is not None:
            holder = held[1]
            raise GranuleNotFree(
                f"object '{g}' is already a granule of live quantity '{holder.id}' of kind '{entry.kind}'"
            )

    event = EventRec(event_id, at, CREATION, frozenset(), (entry,), frozenset())
    kb.events.append(event)
    kb.quantities[entry.id] = QuantityInst(entry.id, entry.kind, at, entry.granules, event_id)
    return event


def reference_apply_transfer(
    kb: KnowledgeBase,
    donors,
    created,
    at: int,
    discarded=(),
    event_id: str | None = None,
) -> EventRec:
    kb._check_time(at)
    _ref_check_monotonic(kb, at)
    donors = frozenset(donors)
    discarded = frozenset(discarded)
    if not donors:
        raise ValueError("a transfer needs at least one donor; use a creation event instead")
    if not created:
        raise ValueError("a transfer needs at least one created quantity")
    if event_id is None:
        event_id = f"e{len(kb.events)}"
    kb.store_index.catch_up(kb)
    kb._check_fresh(event_id)

    donor_insts = []
    for did in sorted(donors):
        d = kb._quantity(did)
        if d.terminated_at is not None or d.created_at >= at:
            raise DonorNotLive(f"donor '{did}' is not live immediately before t{at}")
        donor_insts.append(d)
    donor_granules = frozenset().union(*(d.granules for d in donor_insts))

    created = tuple(sorted(created, key=lambda e: e.id))
    seen_ids = set()
    for entry in created:
        if entry.id in seen_ids:
            raise DuplicateGranuleAssignment(f"quantity '{entry.id}' created twice in one event")
        seen_ids.add(entry.id)
        _ref_check_entry(kb, entry, at)
        if not (entry.granules & donor_granules):
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
            held = events._same_kind_holder(kb, frozenset({g}), entry.kind, at, exclude=donors)
            if held is not None:
                holder = held[1]
                raise GranuleProvenanceViolation(
                    f"granule '{g}' of '{entry.id}' is neither donated nor free: "
                    f"it belongs to live quantity '{holder.id}'"
                )

    event = EventRec(event_id, at, GRANULE_TRANSFER, donors, created, discarded)
    kb.events.append(event)
    for d in donor_insts:
        d.terminated_at = at
    for entry in created:
        kb.quantities[entry.id] = QuantityInst(entry.id, entry.kind, at, entry.granules, event_id)
    return event


def reference_apply_events(kb: KnowledgeBase, records) -> list[EventRec]:
    """Each record in turn through the shape checks that `events.apply_event`
    made before the batch replaced it, then the write of its kind above."""
    applied = []
    for event in records:
        if event.kind == CREATION:
            if len(event.created) != 1 or event.donors or event.discarded:
                raise ValueError(f"malformed creation event '{event.id}'")
            applied.append(reference_apply_creation(kb, event.created[0], event.at, event.id))
        elif event.kind == GRANULE_TRANSFER:
            applied.append(reference_apply_transfer(
                kb, event.donors, event.created, event.at, event.discarded, event.id))
        else:
            raise ValueError(f"unknown event kind '{event.kind}'")
    return applied


def _ref_check_monotonic(kb: KnowledgeBase, at: int) -> None:
    if kb.events and at <= kb.events[-1].at:
        raise NonMonotonicTime(
            f"event at t{at} does not follow the last event at t{kb.events[-1].at}"
        )


def _ref_check_entry(kb: KnowledgeBase, entry: CreatedEntry, at: int) -> None:
    kb._check_fresh(entry.id)
    if not kb.has_kind(entry.kind, QUANTITY_KIND):
        raise UnknownKind(f"'{entry.kind}' is not a declared quantity kind")
    for g in sorted(entry.granules):
        kb._object(g, at)
    if len(entry.granules) < MIN_GRANULES:
        raise TooFewGranules(
            f"quantity '{entry.id}' needs at least {MIN_GRANULES} granules, got {len(entry.granules)}"
        )


def report_records(violations: list[Violation]) -> list[dict[str, Any]]:
    """The records of a canonical ``validate`` report, built apart from ``cli.render_report``."""
    return [{"rule": v.rule, "subjects": list(v.subjects), **({"at": v.at} if v.at is not None else {}),
             "message": v.message} for v in violations]


# -- record-by-record replay and load --------------------------------------------------
# `events.replay` and `dsl.load` applied the objects, events and intervals one record
# at a time before the kernel took each section as one batch, kept as differential
# checks.


def reference_replay(kb: KnowledgeBase) -> KnowledgeBase:
    fresh = KnowledgeBase()
    kinds = sorted(kb.kinds.values(), key=lambda d: (d.meta != OBJECT_KIND, d.name))
    try:
        for decl in kinds:
            fresh.declare_kind(decl)
    except Exception as exc:
        raise ReplayError(None, exc, (decl.name,)) from exc
    try:
        for oid, obj in sorted(kb.objects.items()):
            reference_create_object(fresh, oid, obj.kind, obj.created_at)
    except Exception as exc:
        raise ReplayError(None, exc, (oid,)) from exc
    try:
        for index, event in enumerate(kb.events):
            reference_apply_events(fresh, [event])
    except Exception as exc:
        raise ReplayError(index, exc, (event.id,)) from exc
    try:
        for iv in sorted(kb.adjacency, key=attrgetter("a", "b", "start")):
            reference_assert_adjacency(fresh, iv.a, iv.b, iv.start)
            if iv.end is not None:
                reference_retract_adjacency(fresh, iv.a, iv.b, iv.end)
    except Exception as exc:
        raise ReplayError(None, exc, (iv.a, iv.b)) from exc
    try:
        for s in sorted(kb.subquantities, key=lambda s: (s.part, s.whole)):
            fresh.assert_subquantity(s.part, s.whole)
    except Exception as exc:
        raise ReplayError(None, exc, (s.part, s.whole)) from exc
    return fresh


def reference_load(scenario: Scenario) -> KnowledgeBase:
    kb = KnowledgeBase()
    kinds = sorted(scenario.kind_decls, key=lambda st: st.meta != OBJECT_KIND)
    timeline = [(q.at, f"create-{q.id}", (), (q,), (), q.pos) for q in scenario.quantity_creations]
    timeline += [(ev.at, ev.name, ev.donors, ev.creates, ev.discard, ev.pos) for ev in scenario.events]
    timeline.sort(key=lambda step: step[0])
    try:  # each loop binds pos, the position of the statement being loaded
        for st in kinds:
            pos = st.pos
            kb.declare_kind(KindDecl(st.name, st.meta, frozenset(st.requires)))
        for st in scenario.object_decls:
            pos = st.pos
            reference_create_object(kb, st.id, st.kind, st.at)
        for at, event_id, donors, creates, discard, pos in timeline:
            created = tuple(CreatedEntry.of(c.id, c.kind, c.granules) for c in creates)
            kind = GRANULE_TRANSFER if donors else CREATION
            reference_apply_events(kb, [EventRec(event_id, at, kind, frozenset(donors), created, frozenset(discard))])
        for st in sorted(scenario.adjacency, key=lambda st: st.at):
            pos = st.pos
            (kb.assert_adjacency if st.connect else kb.retract_adjacency)(st.a, st.b, st.at)
        for st in scenario.subquantity_assertions:
            pos = st.pos
            kb.assert_subquantity(st.part, st.whole)
    except (EngineError, ValueError) as exc:
        raise ScenarioLoadError(str(exc), pos.line, pos.column, exc) from exc
    return kb


# -- event faults placed in a log ---------------------------------------------------------
# A valid log and, for each fault the event write refuses, a record that carries it,
# built for the store the records before it leave; it takes the place of the first,
# the middle or the last record. A fault that needs a quantity is never first.


def fault_log_kb() -> KnowledgeBase:
    """Four chains of 4 granules, each created (q<i> at t2i) and then split in two
    (a<i> and b<i> at t2i+1): 8 events. Objects f0 and f1 stay free, and late
    exists from t100 on."""
    kb = KnowledgeBase()
    kb.declare_object_kind("Grain")
    kb.declare_quantity_kind("Rock", [])
    chains = [[f"g{i}_{k}" for k in range(4)] for i in range(4)]
    kb.create_objects([(g, "Grain", 0) for chain in chains for g in chain])
    kb.create_objects([("f0", "Grain", 0), ("f1", "Grain", 0), ("late", "Grain", 100)])
    for i, chain in enumerate(chains):
        apply_creation(kb, CreatedEntry.of(f"q{i}", "Rock", chain), 2 * i)
        apply_transfer(kb, [f"q{i}"], [CreatedEntry.of(f"a{i}", "Rock", chain[:2]),
                                       CreatedEntry.of(f"b{i}", "Rock", chain[2:])], 2 * i + 1)
    return kb


def _creation(event_id: str, at: int, granules, qid: str = "n", kind: str = "Rock") -> EventRec:
    return EventRec(event_id, at, CREATION, frozenset(), (CreatedEntry.of(qid, kind, granules),), frozenset())


def _transfer(event_id: str, at: int, donors, created, discarded=()) -> EventRec:
    entries = tuple(CreatedEntry.of(qid, "Rock", granules) for qid, granules in created)
    return EventRec(event_id, at, GRANULE_TRANSFER, frozenset(donors), entries, frozenset(discarded))


def _live(kb: KnowledgeBase) -> list[QuantityInst]:
    return [q for q in kb.quantities.values() if q.terminated_at is None]


def _granules(q: QuantityInst) -> list[str]:
    return sorted(q.granules)


# fault -> (the record, built for the store before it, its time and its id; the error
# class; whether it needs a quantity). `_live(kb)[-1]` is a quantity that the record
# before created; a granule that is not free is held by one of two live quantities.
EVENT_FAULTS = {
    "bad time": (lambda kb, at, eid: _creation(eid, -1, ["f0", "f1"]), ValueError, False),
    "non-increasing time": (lambda kb, at, eid: _creation(eid, kb.events[-1].at, ["f0", "f1"]),
                            NonMonotonicTime, True),
    "repeated event id": (lambda kb, at, eid: _creation(kb.events[-1].id if kb.events else "g0_0", at, ["f0", "f1"]),
                          DuplicateId, False),
    "unknown donor": (lambda kb, at, eid: _transfer(eid, at, ["ghost"], [("n", ["f0", "f1"])]),
                      UnknownQuantity, False),
    "non-live donor": (lambda kb, at, eid: _transfer(
        eid, at, [next(q.id for q in kb.quantities.values() if q.terminated_at is not None)],
        [("n", ["f0", "f1"])]), DonorNotLive, True),
    "created id in use": (lambda kb, at, eid: _creation(eid, at, ["f0", "f1"], qid="g0_0"), DuplicateId, False),
    "created twice": (lambda kb, at, eid: _transfer(
        eid, at, [_live(kb)[-1].id], [("n", [_granules(_live(kb)[-1])[0], "f0"]),
                                      ("n", [_granules(_live(kb)[-1])[1], "f1"])]),
        DuplicateGranuleAssignment, True),
    "undeclared kind": (lambda kb, at, eid: _creation(eid, at, ["f0", "f1"], kind="Nope"), UnknownKind, False),
    "granule not yet created": (lambda kb, at, eid: _creation(eid, at, ["f0", "late"]), UnknownObject, False),
    "unknown granule": (lambda kb, at, eid: _creation(eid, at, ["late", "ghost", "f0"]), UnknownObject, False),
    "one granule": (lambda kb, at, eid: _creation(eid, at, ["f0"]), TooFewGranules, False),
    "nothing inherited": (lambda kb, at, eid: _transfer(eid, at, [_live(kb)[-1].id], [("n", ["f0", "f1"])]),
                          GranuleProvenanceViolation, True),
    "double assignment": (lambda kb, at, eid: _transfer(
        eid, at, [_live(kb)[-1].id], [("n1", _granules(_live(kb)[-1])[:2]),
                                      ("n2", [_granules(_live(kb)[-1])[1], "f0"])]),
        DuplicateGranuleAssignment, True),
    "foreign discard": (lambda kb, at, eid: _transfer(
        eid, at, [_live(kb)[-1].id], [("n", _granules(_live(kb)[-1])[:2])], ["f0"]),
        GranuleProvenanceViolation, True),
    "discard of an assigned granule": (lambda kb, at, eid: _transfer(
        eid, at, [_live(kb)[-1].id], [("n", _granules(_live(kb)[-1])[:2])], _granules(_live(kb)[-1])[1:2]),
        DuplicateGranuleAssignment, True),
    "granule not free": (lambda kb, at, eid: _creation(eid, at, [_granules(_live(kb)[-1])[0],
                                                                 _granules(_live(kb)[-2])[0], "f0"]),
                         GranuleNotFree, True),
    "granule held elsewhere": (lambda kb, at, eid: _transfer(
        eid, at, [_live(kb)[-1].id], [("n", [_granules(_live(kb)[-1])[0], _granules(_live(kb)[-2])[0]])]),
        GranuleProvenanceViolation, True),
    "malformed creation": (lambda kb, at, eid: EventRec(
        eid, at, CREATION, frozenset({"ghost"}), _creation(eid, at, ["f0", "f1"]).created, frozenset()),
        ValueError, False),
    "unknown event kind": (lambda kb, at, eid: _creation(eid, at, ["f0", "f1"])._replace(kind="merger"),
                           ValueError, False),
    "transfer without donors": (lambda kb, at, eid: _transfer(eid, at, [], [("n", ["f0", "f1"])]), ValueError, False),
    "transfer without created": (lambda kb, at, eid: _transfer(eid, at, ["ghost"], []), ValueError, False),
}

# The faults a scenario can carry past the parser and the resolver: the others are a
# time or a name the resolver refuses, or a record shape the grammar cannot write.
SCENARIO_EVENT_FAULTS = ["non-live donor", "granule not yet created", "one granule", "nothing inherited",
                         "double assignment", "foreign discard", "discard of an assigned granule",
                         "granule not free", "granule held elsewhere"]


def placed_event_faults(faults) -> list[tuple[str, str]]:
    return [(fault, place) for fault in faults for place in ("first", "middle", "last")
            if place != "first" or not EVENT_FAULTS[fault][2]]


def event_fault_kb(fault: str, place: str) -> tuple[KnowledgeBase, int]:
    """`fault_log_kb` with the record at ``place`` replaced by one that carries
    ``fault``, and that record's index."""
    kb = fault_log_kb()
    index = {"first": 0, "middle": len(kb.events) // 2, "last": len(kb.events) - 1}[place]
    before = KnowledgeBase()
    for decl in kb.kinds.values():
        before.declare_kind(decl)
    before.create_objects([(oid, obj.kind, obj.created_at) for oid, obj in kb.objects.items()])
    events.apply_events(before, kb.events[:index])
    record = kb.events[index]
    kb.events[index] = EVENT_FAULTS[fault][0](before, record.at, record.id)
    return kb, index


def event_fault_scenario(kb: KnowledgeBase, index: int) -> tuple[str, int]:
    """Scenario text of ``kb``'s kinds, objects and events, one line each (an
    event's id with '_' for '-'), but without the events after ``index`` that
    take a donor from the record it replaced; and the line of the event at ``index``."""
    gone = {entry.id for entry in fault_log_kb().events[index].created}
    records = kb.events[:index + 1] + [ev for ev in kb.events[index + 1:] if not ev.donors & gone]
    lines = ["object-kind Grain", "quantity-kind Rock"]
    lines += [f"object {oid} : {obj.kind} at t{obj.created_at}" for oid, obj in kb.objects.items()]
    faulty = len(lines) + index + 1
    for ev in records:
        clauses = [f"donor {' '.join(sorted(ev.donors))}"] if ev.donors else []
        clauses += [f"create {e.id} : {e.kind} granules {{ {', '.join(sorted(e.granules))} }}" for e in ev.created]
        clauses += [f"discard {{ {', '.join(sorted(ev.discarded))} }}"] if ev.discarded else []
        lines.append(f"event {ev.id.replace('-', '_')} at t{ev.at} {{ {' ; '.join(clauses)} }}")
    return "\n".join(lines) + "\n", faulty


# -- export-comparing reference for replay-check --------------------------------------
# `replay-check` compared the canonical export of the store with that of its
# rebuild before it compared the rebuilt quantities, kept as a differential check.


def reference_replay_check(kb: KnowledgeBase) -> str:
    """The stdout of ``replay-check`` on ``kb``."""
    before = export_document(kb)
    try:
        rebuilt = replay(kb)
    except EngineError as exc:
        return f"replay-check: FAILED ({exc})\n"
    if export_document(rebuilt) == before:
        return f"replay-check: OK ({len(kb.events)} events, {len(before)} bytes)\n"
    return "replay-check: FAILED (re-applied log exports differently)\n"


def random_write(kb: KnowledgeBase, rng: random.Random, label: str) -> bool:
    """One seeded engine write at the tick after the last event: mostly a
    transfer (a move, split, merge or mix, sometimes with a free object or a
    discard), sometimes a creation. Returns whether the engine accepted it;
    a rejected write appends nothing."""
    at = kb.events[-1].at + 1 if kb.events else 0
    kinds = sorted(k for k, d in kb.kinds.items() if d.meta == QUANTITY_KIND)
    objects = sorted(kb.objects)
    live = kb.live_quantities_at(at - 1)
    try:
        if not live or rng.random() < 0.15:
            granules = rng.sample(objects, min(len(objects), rng.randint(2, 3)))
            apply_creation(kb, CreatedEntry.of(f"{label}c", rng.choice(kinds), granules), at)
            return True
        donors = rng.sample(live, min(len(live), rng.choice((1, 1, 2, 3))))
        pool = sorted(set().union(*(q.granules for q in donors)))
        rng.shuffle(pool)
        n_parts = rng.randint(1, min(3, len(pool) // MIN_GRANULES))
        parts = [pool[i::n_parts] for i in range(n_parts)]
        discarded = parts.pop() if len(parts) > 1 and rng.random() < 0.3 else []
        created = []
        for n, part in enumerate(parts):
            if rng.random() < 0.2:
                part = [*part, rng.choice(objects)]
            kind = donors[0].kind if rng.random() < 0.6 else rng.choice(kinds)
            created.append(CreatedEntry.of(f"{label}p{n}", kind, sorted(set(part))))
        apply_transfer(kb, [q.id for q in donors], created, at, discarded)
        return True
    except EngineError:
        return False


def oracle_ancestors(parents: dict[str, set[str]], start: str) -> set[str]:
    """Closure by brute-force enumeration of all simple paths."""
    found: set[str] = set()

    def walk(node: str, path: frozenset[str]) -> None:
        for parent in parents.get(node, ()):
            if parent in path:
                continue
            found.add(parent)
            walk(parent, path | {parent})

    walk(start, frozenset([start]))
    return found


# -- seeded-fault fixtures -------------------------------------------------------


def _perturb(kb: KnowledgeBase, mutate) -> KnowledgeBase:
    doc = kb_to_doc(kb)
    mutate(doc)
    return doc_to_kb(doc)


def _two_rock_base() -> KnowledgeBase:
    kb = KnowledgeBase()
    kb.declare_object_kind("Grain")
    kb.declare_quantity_kind("RockA", ["Grain"])
    kb.declare_quantity_kind("RockB", [])
    for i in range(1, 5):
        kb.create_object(f"g{i}", "Grain", 0)
    apply_creation(kb, CreatedEntry.of("qa", "RockA", ["g1", "g2"]), 0)
    apply_creation(kb, CreatedEntry.of("qb", "RockB", ["g3", "g4"]), 1)
    kb.assert_adjacency("g1", "g2", 0)
    kb.assert_adjacency("g3", "g4", 1)
    return kb


def fixture_a1_typing() -> KnowledgeBase:
    def mutate(doc):
        quantity = next(q for q in doc["quantities"] if q["id"] == "qa")
        quantity["granules"] = ["g1", "qb"]
        event = next(e for e in doc["events"] if e["id"] == "create-qa")
        event["created"][0]["granules"] = ["g1", "qb"]

    return _perturb(_two_rock_base(), mutate)


def fixture_supplementation() -> KnowledgeBase:
    def mutate(doc):
        quantity = next(q for q in doc["quantities"] if q["id"] == "qa")
        quantity["granules"] = ["g1"]
        event = next(e for e in doc["events"] if e["id"] == "create-qa")
        event["created"][0]["granules"] = ["g1"]

    return _perturb(_two_rock_base(), mutate)


def fixture_a2_inclusion() -> KnowledgeBase:
    kb = KnowledgeBase()
    kb.declare_object_kind("Molecule")
    kb.declare_quantity_kind("Wine", [])
    kb.declare_quantity_kind("Alcohol", [])
    for i in range(1, 4):
        kb.create_object(f"m{i}", "Molecule", 0)
    apply_creation(kb, CreatedEntry.of("wine", "Wine", ["m1", "m2", "m3"]), 0)
    apply_creation(kb, CreatedEntry.of("alcohol", "Alcohol", ["m1", "m2"]), 1)
    kb.assert_subquantity("alcohol", "wine")
    for a, b in (("m1", "m2"), ("m1", "m3"), ("m2", "m3")):
        kb.assert_adjacency(a, b, 0)

    def mutate(doc):
        quantity = next(q for q in doc["quantities"] if q["id"] == "wine")
        quantity["granules"] = ["m1", "m3"]
        event = next(e for e in doc["events"] if e["id"] == "create-wine")
        event["created"][0]["granules"] = ["m1", "m3"]

    return _perturb(kb, mutate)


def fixture_ggd() -> KnowledgeBase:
    kb = KnowledgeBase()
    kb.declare_object_kind("Grain")
    kb.declare_object_kind("Salt")
    kb.declare_quantity_kind("SaltWater", ["Salt"])
    kb.create_object("g1", "Grain", 0)
    kb.create_object("g2", "Grain", 0)
    apply_creation(kb, CreatedEntry.of("sw", "SaltWater", ["g1", "g2"]), 0)
    kb.assert_adjacency("g1", "g2", 0)
    return kb


def fixture_connectivity() -> KnowledgeBase:
    kb = KnowledgeBase()
    kb.declare_object_kind("Grain")
    kb.declare_quantity_kind("Rock", [])
    for i in range(1, 5):
        kb.create_object(f"g{i}", "Grain", 0)
    apply_creation(kb, CreatedEntry.of("q", "Rock", ["g1", "g2", "g3", "g4"]), 0)
    kb.assert_adjacency("g1", "g2", 0)
    kb.assert_adjacency("g3", "g4", 0)
    return kb


def fixture_external_connection() -> KnowledgeBase:
    kb = KnowledgeBase()
    kb.declare_object_kind("Grain")
    kb.declare_quantity_kind("Rock", [])
    for i in range(1, 4):
        kb.create_object(f"g{i}", "Grain", 0)
    apply_creation(kb, CreatedEntry.of("q", "Rock", ["g1", "g2", "g3"]), 0)
    kb.assert_adjacency("g1", "g2", 0)
    return kb


def fixture_maximality() -> KnowledgeBase:
    kb = KnowledgeBase()
    kb.declare_object_kind("Grain")
    kb.declare_quantity_kind("Rock", [])
    for i in range(1, 5):
        kb.create_object(f"g{i}", "Grain", 0)
    apply_creation(kb, CreatedEntry.of("q1", "Rock", ["g1", "g2"]), 0)
    apply_creation(kb, CreatedEntry.of("q2", "Rock", ["g3", "g4"]), 1)
    kb.assert_adjacency("g1", "g2", 0)
    kb.assert_adjacency("g3", "g4", 1)
    kb.assert_adjacency("g2", "g3", 1)
    return kb


def fixture_h1_history() -> KnowledgeBase:
    def mutate(doc):
        quantity = next(q for q in doc["quantities"] if q["id"] == "qa")
        quantity["terminated_at"] = 5

    return _perturb(_two_rock_base(), mutate)


def fixture_subq_kind_distinct() -> KnowledgeBase:
    kb = KnowledgeBase()
    kb.declare_object_kind("Grain")
    kb.declare_quantity_kind("Rock", [])
    for i in range(1, 5):
        kb.create_object(f"g{i}", "Grain", 0)
    apply_creation(kb, CreatedEntry.of("qa", "Rock", ["g1", "g2", "g3", "g4"]), 0)
    for i, a in enumerate(["g1", "g2", "g3", "g4"]):
        for b in ["g1", "g2", "g3", "g4"][i + 1:]:
            kb.assert_adjacency(a, b, 0)
    apply_transfer(
        kb,
        ["qa"],
        [CreatedEntry.of("qc", "Rock", ["g1", "g2"]), CreatedEntry.of("qd", "Rock", ["g3", "g4"])],
        1,
        event_id="split",
    )
    for a, b in (("g1", "g3"), ("g1", "g4"), ("g2", "g3"), ("g2", "g4")):
        kb.retract_adjacency(a, b, 1)

    def mutate(doc):
        doc["subquantities"].append({"part": "qc", "whole": "qa"})

    return _perturb(kb, mutate)


FAULT_FIXTURES = {
    "A1_TYPING": fixture_a1_typing,
    "SUPPLEMENTATION_MIN2": fixture_supplementation,
    "A2_SUBQUANTITY_INCLUSION": fixture_a2_inclusion,
    "AA1_GGD": fixture_ggd,
    "CONNECTIVITY": fixture_connectivity,
    "EXTERNAL_CONNECTION": fixture_external_connection,
    "MAXIMALITY_SAME_KIND": fixture_maximality,
    "H1_HISTORY": fixture_h1_history,
    "SUBQ_KIND_DISTINCT": fixture_subq_kind_distinct,
}


def single_quantity_graph_kb(n: int, edges: list[tuple[str, str]]) -> KnowledgeBase:
    """A bare KB with one quantity over n granules and the given edges."""
    kb = KnowledgeBase()
    kb.kinds["Grain"] = KindDecl("Grain", OBJECT_KIND)
    kb.kinds["Rock"] = KindDecl("Rock", QUANTITY_KIND, frozenset())
    ids = [f"n{i}" for i in range(n)]
    for oid in ids:
        kb.objects[oid] = ObjectInst(oid, "Grain", 0)
    kb.quantities["q"] = QuantityInst("q", "Rock", 0, frozenset(ids), "e-q")
    for a, b in edges:
        kb.assert_adjacency(a, b, 0)
    return kb


def two_quantity_graph_kb(
    g1: list[str], g2: list[str], edges: list[tuple[str, str]], same_kind: bool = True
) -> KnowledgeBase:
    kb = KnowledgeBase()
    kb.kinds["Grain"] = KindDecl("Grain", OBJECT_KIND)
    kb.kinds["Rock"] = KindDecl("Rock", QUANTITY_KIND, frozenset())
    kb.kinds["Mud"] = KindDecl("Mud", QUANTITY_KIND, frozenset())
    for oid in g1 + g2:
        kb.objects[oid] = ObjectInst(oid, "Grain", 0)
    kb.quantities["qx"] = QuantityInst("qx", "Rock", 0, frozenset(g1), "e-qx")
    kb.quantities["qy"] = QuantityInst(
        "qy", "Rock" if same_kind else "Mud", 0, frozenset(g2), "e-qy"
    )
    for a, b in edges:
        kb.assert_adjacency(a, b, 0)
    return kb


def messy_world_kb(seed: int, n_quantities: int = 30, n_objects: int = 40) -> KnowledgeBase:
    """A store written field by field rather than through the engine.

    It holds what only imported documents can: same-kind quantities sharing
    granules, granule and edge endpoints that name no object, quantities of one
    granule, and duplicate, overlapping and closed adjacency intervals.
    """
    rng = random.Random(seed)
    kb = KnowledgeBase()
    kb.kinds["Grain"] = KindDecl("Grain", OBJECT_KIND)
    for kind in TOP_KINDS:
        kb.kinds[kind] = KindDecl(kind, QUANTITY_KIND, frozenset())
    oids = [f"o{i}" for i in range(n_objects)]
    for oid in oids:
        kb.objects[oid] = ObjectInst(oid, "Grain", rng.randint(0, 3))
    ghosts = ["x0", "x1"]
    for i in range(n_quantities):
        pool = oids + ghosts if rng.random() < 0.15 else oids
        granules = frozenset(rng.sample(pool, rng.randint(1, 5)))
        start = rng.randint(0, 8)
        end = rng.choice([None, start + rng.randint(1, 4)])
        kb.quantities[f"q{i}"] = QuantityInst(
            f"q{i}", rng.choice(TOP_KINDS), start, granules, f"e{i}", end
        )
    for _ in range(3 * n_objects):
        a, b = sorted(rng.sample(oids + ghosts if rng.random() < 0.05 else oids, 2))
        start = rng.randint(0, 10)
        end = rng.choice([None, start + rng.randint(1, 3)])
        kb.adjacency.append(AdjacencyInterval(a, b, start, end))
    for iv in rng.sample(kb.adjacency, n_objects // 4):
        kb.adjacency.append(AdjacencyInterval(iv.a, iv.b, iv.start, iv.end))
        kb.adjacency.append(AdjacencyInterval(iv.a, iv.b, iv.start + 1))
    return kb


def moved_chains_kb(n: int) -> KnowledgeBase:
    """n same-kind quantities of 4 chained granules, each created and then
    moved once by a one-donor transfer: 2n events and 2n change points."""
    kb = KnowledgeBase()
    kb.declare_object_kind("Grain")
    kb.declare_quantity_kind("Rock", [])
    chains = [[f"g{i}_{k}" for k in range(4)] for i in range(n)]
    for i, chain in enumerate(chains):
        for g in chain:
            kb.create_object(g, "Grain", i)
        for a, b in zip(chain, chain[1:]):
            kb.assert_adjacency(a, b, i)
        apply_creation(kb, CreatedEntry.of(f"q{i}", "Rock", chain), i)
    for i, chain in enumerate(chains):
        apply_transfer(kb, [f"q{i}"], [CreatedEntry.of(f"m{i}", "Rock", chain)], n + i)
    return kb


def toggling_chain_kb(n: int, seed: int = 0) -> KnowledgeBase:
    """A toggle-heavy history, written through the kernel: a chain quantity
    ``qc`` of n >= 3 granules, live from t0 on, whose n chords open at ticks
    1, 3, ..., 2n - 1 and each close at the next tick. At every fourth chord a
    chain edge, sometimes with the next one, goes down for one to three ticks;
    at every sixth the same-kind chain ``qd``, live from t1 on, touches ``qc``
    for one tick. So CONNECTIVITY, EXTERNAL_CONNECTION and MAXIMALITY_SAME_KIND
    fire at some worlds."""
    rng = random.Random(seed)
    kb = KnowledgeBase()
    kb.declare_object_kind("Grain")
    kb.declare_quantity_kind("Rock", [])
    chain, other = [f"c{i}" for i in range(n)], [f"d{i}" for i in range(4)]
    for at, (path, qid) in enumerate(((chain, "qc"), (other, "qd"))):
        for g in path:
            kb.create_object(g, "Grain", 0)
        for a, b in zip(path, path[1:]):
            kb.assert_adjacency(a, b, 0)
        apply_creation(kb, CreatedEntry.of(qid, "Rock", path), at)
    back_at: dict[int, int] = {}  # when chain edge k, (c_k, c_k+1), is up again
    for i in range(n):
        t = 2 * i + 1
        a = rng.randrange(n - 2)
        b = rng.randrange(a + 2, n)
        kb.assert_adjacency(chain[a], chain[b], t)
        kb.retract_adjacency(chain[a], chain[b], t + 1)
        if i % 4 == 0:
            k = rng.randrange(n - 2)
            for edge in (k, k + 1) if rng.random() < 0.5 else (k,):
                if back_at.get(edge, 0) < t:
                    back_at[edge] = t + rng.randint(1, 3)
                    kb.retract_adjacency(chain[edge], chain[edge + 1], t)
                    kb.assert_adjacency(chain[edge], chain[edge + 1], back_at[edge])
        if i % 6 == 0:
            g, h = rng.choice(chain), rng.choice(other)
            kb.assert_adjacency(g, h, t)
            kb.retract_adjacency(g, h, t + 1)
    return kb


# Stores for the write-path oracles at scale: 200 events of moved chains, and ten
# random stores of up to 60 steps over up to 150 objects.
SCALE_STORES = {
    "moved_chains_kb(100)": lambda: moved_chains_kb(100),
    **{f"build_random_kb({seed}, 60, 150)": partial(build_random_kb, seed, max_events=60, max_objects=150)
       for seed in range(10)},
}


# -- reference canonical writer ----------------------------------------------------
# The plain-data document that `canonical.export_document` used to build and hand
# to `json.dumps(indent=2)`, kept as a differential check of its record templates.


def reference_kb_to_doc(kb: KnowledgeBase) -> dict[str, Any]:
    kinds = []
    for decl in sorted(kb.kinds.values(), key=lambda d: d.name):
        rec: dict[str, Any] = {"name": decl.name, "meta": decl.meta}
        if decl.meta == QUANTITY_KIND:
            rec["requires"] = sorted(decl.requires)
        kinds.append(rec)
    objects = [
        {"id": o.id, "kind": o.kind, "created_at": o.created_at}
        for o in sorted(kb.objects.values(), key=lambda o: o.id)
    ]
    quantities = []
    for q in sorted(kb.quantities.values(), key=lambda q: q.id):
        rec = {"id": q.id, "kind": q.kind, "created_at": q.created_at}
        if q.terminated_at is not None:
            rec["terminated_at"] = q.terminated_at
        rec["granules"] = sorted(q.granules)
        rec["creation_event"] = q.creation_event
        quantities.append(rec)
    adjacency = []
    for iv in sorted(kb.adjacency, key=lambda i: (i.a, i.b, i.start, i.end is None, i.end)):
        rec = {"a": iv.a, "b": iv.b, "from": iv.start}
        if iv.end is not None:
            rec["to"] = iv.end
        adjacency.append(rec)
    subquantities = [
        {"part": s.part, "whole": s.whole}
        for s in sorted(kb.subquantities, key=lambda s: (s.part, s.whole))
    ]
    events = [
        {
            "id": ev.id, "at": ev.at, "kind": ev.kind, "donors": sorted(ev.donors),
            "created": [{"id": e.id, "kind": e.kind, "granules": sorted(e.granules)}
                        for e in sorted(ev.created, key=lambda e: e.id)],
            "discarded": sorted(ev.discarded),
        }
        for ev in kb.events
    ]
    return dict(zip(_REF_SECTIONS, (kinds, objects, quantities, adjacency, subquantities, events)))


# -- reference canonical reader ----------------------------------------------------
# The record-by-record reader that `canonical.doc_to_kb` checked every document
# with before its bulk checks, kept as a differential check. It differs from
# that reader only in matching whole identifiers (`fullmatch`), so an id with a
# trailing newline is rejected.

_REF_ID_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_-]*$")
_REF_SECTIONS = ("kinds", "objects", "quantities", "adjacency", "subquantities", "events")


def reference_doc_to_kb(doc: Any) -> KnowledgeBase:
    if not isinstance(doc, dict):
        raise DocumentError("$", f"expected an object, got {type(doc).__name__}")
    extra = sorted(set(doc) - set(_REF_SECTIONS))
    if extra:
        raise DocumentError("$", f"unexpected section(s): {', '.join(extra)}")
    missing = [s for s in _REF_SECTIONS if s not in doc]
    if missing:
        raise DocumentError("$", f"missing section(s): {', '.join(missing)}")

    kb = KnowledgeBase()
    _ref_read_kinds(kb, _ref_array(doc, "kinds"))
    _ref_read_objects(kb, _ref_array(doc, "objects"))
    _ref_read_quantities(kb, _ref_array(doc, "quantities"))
    _ref_read_adjacency(kb, _ref_array(doc, "adjacency"))
    _ref_read_subquantities(kb, _ref_array(doc, "subquantities"))
    _ref_read_events(kb, _ref_array(doc, "events"))
    return kb


def _ref_read_kinds(kb: KnowledgeBase, items: list) -> None:
    for i, item in enumerate(items):
        path = f"kinds[{i}]"
        rec = _ref_record(item, path, required=("name", "meta"), optional=("requires",))
        name = _ref_identifier(rec, "name", path)
        meta = _ref_string(rec, "meta", path)
        if meta not in (QUANTITY_KIND, OBJECT_KIND):
            raise DocumentError(f"{path}.meta", f"expected '{QUANTITY_KIND}' or '{OBJECT_KIND}', got '{meta}'")
        if meta == QUANTITY_KIND:
            if "requires" not in rec:
                raise DocumentError(f"{path}.requires", "quantity kinds must carry a requires list")
            requires = _ref_id_list(rec["requires"], f"{path}.requires")
        else:
            if "requires" in rec:
                raise DocumentError(f"{path}.requires", "object kinds must not carry a requires list")
            requires = []
        if name in kb.kinds:
            raise DocumentError(f"{path}.name", f"duplicate kind '{name}'")
        kb.kinds[name] = KindDecl(name, meta, frozenset(requires))


def _ref_read_objects(kb: KnowledgeBase, items: list) -> None:
    for i, item in enumerate(items):
        path = f"objects[{i}]"
        rec = _ref_record(item, path, required=("id", "kind", "created_at"))
        oid = _ref_identifier(rec, "id", path)
        if oid in kb.objects:
            raise DocumentError(f"{path}.id", f"duplicate object '{oid}'")
        kb.objects[oid] = ObjectInst(oid, _ref_identifier(rec, "kind", path), _ref_time(rec, "created_at", path))


def _ref_read_quantities(kb: KnowledgeBase, items: list) -> None:
    for i, item in enumerate(items):
        path = f"quantities[{i}]"
        rec = _ref_record(
            item, path,
            required=("id", "kind", "created_at", "granules", "creation_event"),
            optional=("terminated_at",),
        )
        qid = _ref_identifier(rec, "id", path)
        if qid in kb.quantities:
            raise DocumentError(f"{path}.id", f"duplicate quantity '{qid}'")
        if qid in kb.objects:
            raise DocumentError(f"{path}.id", f"id '{qid}' is already used by an object")
        terminated = _ref_time(rec, "terminated_at", path) if "terminated_at" in rec else None
        kb.quantities[qid] = QuantityInst(
            id=qid,
            kind=_ref_identifier(rec, "kind", path),
            created_at=_ref_time(rec, "created_at", path),
            granules=frozenset(_ref_id_list(rec["granules"], f"{path}.granules")),
            creation_event=_ref_identifier(rec, "creation_event", path),
            terminated_at=terminated,
        )


def _ref_read_adjacency(kb: KnowledgeBase, items: list) -> None:
    for i, item in enumerate(items):
        path = f"adjacency[{i}]"
        rec = _ref_record(item, path, required=("a", "b", "from"), optional=("to",))
        a = _ref_identifier(rec, "a", path)
        b = _ref_identifier(rec, "b", path)
        if a == b:
            raise DocumentError(f"{path}.b", "adjacency endpoints must differ")
        start = _ref_time(rec, "from", path)
        end = _ref_time(rec, "to", path) if "to" in rec else None
        if end is not None and end <= start:
            raise DocumentError(f"{path}.to", f"interval end t{end} must follow start t{start}")
        a, b = sorted((a, b))
        kb.adjacency.append(AdjacencyInterval(a, b, start, end))


def _ref_read_subquantities(kb: KnowledgeBase, items: list) -> None:
    for i, item in enumerate(items):
        path = f"subquantities[{i}]"
        rec = _ref_record(item, path, required=("part", "whole"))
        kb.subquantities.add(
            SubQuantityAssertion(_ref_identifier(rec, "part", path), _ref_identifier(rec, "whole", path))
        )


def _ref_read_events(kb: KnowledgeBase, items: list) -> None:
    seen = set()
    for i, item in enumerate(items):
        path = f"events[{i}]"
        rec = _ref_record(item, path, required=("id", "at", "kind", "donors", "created", "discarded"))
        ev_id = _ref_identifier(rec, "id", path)
        if ev_id in seen:
            raise DocumentError(f"{path}.id", f"duplicate event '{ev_id}'")
        seen.add(ev_id)
        kind = _ref_string(rec, "kind", path)
        if kind not in (CREATION, GRANULE_TRANSFER):
            raise DocumentError(f"{path}.kind", f"expected '{CREATION}' or '{GRANULE_TRANSFER}', got '{kind}'")
        donors = _ref_id_list(rec["donors"], f"{path}.donors")
        created_raw = rec["created"]
        if not isinstance(created_raw, list):
            raise DocumentError(f"{path}.created", "expected an array")
        created = []
        for j, sub in enumerate(created_raw):
            sub_path = f"{path}.created[{j}]"
            sub_rec = _ref_record(sub, sub_path, required=("id", "kind", "granules"))
            created.append(
                CreatedEntry(
                    _ref_identifier(sub_rec, "id", sub_path),
                    _ref_identifier(sub_rec, "kind", sub_path),
                    frozenset(_ref_id_list(sub_rec["granules"], f"{sub_path}.granules")),
                )
            )
        if kind == CREATION and (donors or len(created) != 1):
            raise DocumentError(path, "a creation event has no donors and exactly one created quantity")
        if kind == GRANULE_TRANSFER and (not donors or not created):
            raise DocumentError(path, "a granule transfer has at least one donor and one created quantity")
        kb.events.append(
            EventRec(
                ev_id,
                _ref_time(rec, "at", path),
                kind,
                frozenset(donors),
                tuple(sorted(created, key=lambda e: e.id)),
                frozenset(_ref_id_list(rec["discarded"], f"{path}.discarded")),
            )
        )


def _ref_array(doc: dict, key: str) -> list:
    value = doc[key]
    if not isinstance(value, list):
        raise DocumentError(key, f"expected an array, got {type(value).__name__}")
    return value


def _ref_record(item: Any, path: str, required: tuple[str, ...], optional: tuple[str, ...] = ()) -> dict:
    if not isinstance(item, dict):
        raise DocumentError(path, f"expected an object, got {type(item).__name__}")
    unknown = sorted(set(item) - set(required) - set(optional))
    if unknown:
        raise DocumentError(path, f"unexpected field(s): {', '.join(unknown)}")
    missing = [f for f in required if f not in item]
    if missing:
        raise DocumentError(path, f"missing field(s): {', '.join(missing)}")
    return item


def _ref_string(rec: dict, key: str, path: str) -> str:
    value = rec[key]
    if not isinstance(value, str):
        raise DocumentError(f"{path}.{key}", f"expected a string, got {type(value).__name__}")
    return value


def _ref_identifier(rec: dict, key: str, path: str) -> str:
    value = _ref_string(rec, key, path)
    if not _REF_ID_RE.fullmatch(value):
        raise DocumentError(f"{path}.{key}", f"'{value}' is not a valid identifier")
    return value


def _ref_time(rec: dict, key: str, path: str) -> int:
    value = rec[key]
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise DocumentError(f"{path}.{key}", f"expected a non-negative integer, got {value!r}")
    return value


def _ref_id_list(value: Any, path: str) -> list[str]:
    if not isinstance(value, list):
        raise DocumentError(path, f"expected an array, got {type(value).__name__}")
    out = []
    for i, item in enumerate(value):
        if not isinstance(item, str) or not _REF_ID_RE.fullmatch(item):
            raise DocumentError(f"{path}[{i}]", f"{item!r} is not a valid identifier")
        if item in out:
            raise DocumentError(f"{path}[{i}]", f"duplicate entry '{item}'")
        out.append(item)
    return out


# -- reference scenario lexer ------------------------------------------------------
# A character-loop lexer that builds one positioned token per token, kept as a
# differential check on any text: `dsl._lex` gives the same token values and
# lines, and `dsl._located` the same positions and lexer diagnostics.


class _Token(NamedTuple):
    kind: str  # word | time | punct | newline | eof
    value: str
    line: int
    column: int
    number: int = 0


_WORD_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_-]*")
_TIME_RE = re.compile(r"^t(\d+)$")


def reference_lex(text: str) -> tuple[list[_Token], list[ParseDiagnostic], list[str]]:
    lines = text.split("\n")
    tokens: list[_Token] = []
    diags: list[ParseDiagnostic] = []
    depth = 0  # newlines inside braces do not terminate statements
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\r")
        col = 0
        while col < len(line):
            ch = line[col]
            if ch in " \t":
                col += 1
                continue
            if ch == "#":
                break
            if ch in ":,;{}":
                if ch == "{":
                    depth += 1
                elif ch == "}" and depth > 0:
                    depth -= 1
                tokens.append(_Token("punct", ch, lineno, col + 1))
                col += 1
                continue
            m = _WORD_RE.match(line, col)
            if m:
                word = m.group(0)
                tm = _TIME_RE.match(word)
                if tm:
                    tokens.append(_Token("time", word, lineno, col + 1, int(tm.group(1))))
                else:
                    tokens.append(_Token("word", word, lineno, col + 1))
                col = m.end()
                continue
            diags.append(ParseDiagnostic(lineno, col + 1, f"unexpected character {ch!r}", line))
            col += 1
        if depth == 0:
            tokens.append(_Token("newline", "\n", lineno, len(line) + 1))
    tokens.append(_Token("eof", "", len(lines), len(lines[-1]) + 1))
    return tokens, diags, lines


# -- reference scenario parser -----------------------------------------------------
# The parser that `dsl.parse` replaced, kept as a differential check: a
# `finditer` lexer that builds one positioned token per match, and a parser
# that reads those tokens. `_ref_lex` gives what `reference_lex` gives.

# One token per match; whitespace and comments match no named group. A time is a
# whole word: `t1x` is a word. `[0-9]`, not `\d`, which admits `١` and `²`.
_REF_TOKEN_RE = re.compile(
    r"[ \t]+|#.*"
    r"|(?P<punct>[:,;{}])"
    r"|(?P<time>t(?P<number>[0-9]+))(?![A-Za-z0-9_-])"
    r"|(?P<word>[A-Za-z_][A-Za-z0-9_-]*)"
    r"|(?P<bad>.)"
)


def _ref_lex(text: str) -> tuple[list[_Token], list[ParseDiagnostic], list[str]]:
    lines = text.split("\n")
    tokens: list[_Token] = []
    diags: list[ParseDiagnostic] = []
    depth = 0  # newlines inside braces do not terminate statements
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\r")
        for m in _REF_TOKEN_RE.finditer(line):
            kind = m.lastgroup
            if kind is None:
                continue
            value = m.group(kind)
            if kind == "bad":
                diags.append(ParseDiagnostic(lineno, m.start() + 1, f"unexpected character {value!r}", line))
                continue
            if value == "{":
                depth += 1
            elif value == "}" and depth > 0:
                depth -= 1
            number = int(m.group("number")) if kind == "time" else 0
            tokens.append(_Token(kind, value, lineno, m.start() + 1, number))
        if depth == 0:
            tokens.append(_Token("newline", "\n", lineno, len(line) + 1))
    tokens.append(_Token("eof", "", len(lines), len(lines[-1]) + 1))
    return tokens, diags, lines


class _RefParser:
    def __init__(self, tokens: list[_Token], lines: list[str]):
        self.tokens = tokens
        self.i = 0
        self.lines = lines
        self.last = tokens[0]
        self.diags: list[ParseDiagnostic] = []
        self.scenario = Scenario()

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        if tok.kind != "eof":
            self.i += 1
        if tok.kind not in ("newline", "eof"):
            self.last = tok
        return tok

    def bail(self, message: str, at: _Token | Pos) -> NoReturn:
        self.diags.append(_diagnostic(self.lines, at, message))
        raise _Bail()

    def expected(self, what: str) -> NoReturn:
        """Reject the next token; at the end of a line, point at the last token read."""
        tok = self.peek()
        if tok.kind in ("newline", "eof"):
            self.bail(f"expected {what}", self.last)
        self.bail(f"expected {what}, found {tok.value!r}", tok)

    def expect_name(self, what: str) -> str:
        tok = self.peek()
        if tok.kind != "word":
            self.expected(what)
        if tok.value in KEYWORDS:
            self.bail(f"keyword '{tok.value}' cannot be used as {what}", tok)
        if "-" in tok.value:  # a word is a valid name unless it holds '-'
            self.bail(f"'{tok.value}' is not a valid {what.partition(' ')[2]} (letters, digits, '_')", tok)
        self.advance()
        return tok.value

    def expect_time(self) -> int:
        if self.peek().kind != "time":
            self.expected("a time point like t0")
        return self.advance().number

    # Only a punctuation or keyword token can have a punctuation mark or a keyword
    # as its value, so the value alone tells it apart.
    def at(self, value: str) -> bool:
        return self.peek().value == value

    def expect(self, value: str) -> _Token:
        if not self.at(value):
            self.expected(f"'{value}'")
        return self.advance()

    def end_statement(self) -> None:
        tok = self.peek()
        if tok.kind in ("newline", "eof"):
            self.advance()
            return
        self.bail(f"unexpected {tok.value!r} after end of statement", tok)

    def recover(self) -> None:
        while self.peek().kind not in ("newline", "eof"):
            self.advance()
        if self.peek().kind == "newline":
            self.advance()

    # -- statements ----------------------------------------------------------

    def parse(self) -> None:
        while True:
            tok = self.peek()
            if tok.kind == "eof":
                return
            if tok.kind == "newline":
                self.advance()
                continue
            try:
                self.statement(tok)
            except _Bail:
                self.recover()

    def statement(self, tok: _Token) -> None:
        handler = self.HANDLERS.get(tok.value)
        if handler is not None:
            handler(self, self.advance())
            return
        if tok.kind == "word":
            self.bail(f"unknown statement '{tok.value}'", tok)
        self.bail(f"a statement cannot start with {tok.value!r}", tok)

    def kind_stmt(self, kw: _Token) -> None:
        name = self.expect_name("a kind name")
        requires: list[str] = []
        if kw.value == "quantity-kind" and self.at("requires"):
            self.advance()
            requires.append(self.expect_name("an object kind name"))
            while self.at(","):
                self.advance()
                requires.append(self.expect_name("an object kind name"))
        meta = QUANTITY_KIND if kw.value == "quantity-kind" else OBJECT_KIND
        self.end_statement()
        self.scenario.kind_decls.append(KindStmt(name, meta, tuple(requires), Pos(kw.line, kw.column)))

    def object_stmt(self, kw: _Token) -> None:
        name = self.expect_name("an object name")
        self.expect(":")
        kind = self.expect_name("a kind name")
        at = 0
        if self.at("at"):
            self.advance()
            at = self.expect_time()
        self.end_statement()
        self.scenario.object_decls.append(ObjectStmt(name, kind, at, Pos(kw.line, kw.column)))

    def quantity_stmt(self, kw: _Token) -> None:
        name = self.expect_name("a quantity name")
        self.expect(":")
        kind = self.expect_name("a kind name")
        self.expect("at")
        at = self.expect_time()
        self.expect("granules")
        granules = self.name_block()
        self.end_statement()
        self.scenario.quantity_creations.append(QuantityStmt(name, kind, at, granules, Pos(kw.line, kw.column)))

    def adjacency_stmt(self, kw: _Token) -> None:
        a = self.expect_name("an object name")
        b = self.expect_name("an object name")
        self.expect("at")
        at = self.expect_time()
        self.end_statement()
        self.scenario.adjacency.append(AdjacencyStmt(a, b, at, kw.value == "connect", Pos(kw.line, kw.column)))

    def subquantity_stmt(self, kw: _Token) -> None:
        part = self.expect_name("a quantity name")
        self.expect("of")
        whole = self.expect_name("a quantity name")
        self.end_statement()
        self.scenario.subquantity_assertions.append(SubquantityStmt(part, whole, Pos(kw.line, kw.column)))

    def event_stmt(self, kw: _Token) -> None:
        name = self.expect_name("an event name")
        self.expect("at")
        at = self.expect_time()
        open_brace = self.expect("{")
        donors: list[str] = []
        creates: list[CreateClause] = []
        discard: list[str] = []
        saw_discard = False
        while True:
            tok = self.peek()
            if self.at("}"):
                self.advance()
                break
            if tok.kind == "eof":
                self.bail("unclosed event block", open_brace)
            if self.at(";"):
                self.advance()
                continue
            if self.at("donor"):
                self.advance()
                donors.append(self.expect_name("a quantity name"))
                while self.peek().kind == "word" and self.peek().value not in KEYWORDS:
                    donors.append(self.expect_name("a quantity name"))
            elif self.at("create"):
                create_kw = self.advance()
                cid = self.expect_name("a quantity name")
                self.expect(":")
                ckind = self.expect_name("a kind name")
                self.expect("granules")
                cgranules = self.name_block()
                creates.append(CreateClause(cid, ckind, cgranules, Pos(create_kw.line, create_kw.column)))
            elif self.at("discard"):
                if saw_discard:
                    self.bail("event block has more than one discard clause", tok)
                saw_discard = True
                self.advance()
                discard.extend(self.name_block())
            else:
                self.bail(f"expected donor, create, discard or '}}', found {tok.value!r}", tok)
        if not creates:
            self.bail("event block needs at least one create clause", kw)
        if not donors and len(creates) > 1:
            self.bail("an event without donors can create only one quantity", kw)
        if not donors and discard:
            self.bail("an event without donors cannot discard granules", kw)
        self.end_statement()
        self.scenario.events.append(
            EventStmt(name, at, tuple(donors), tuple(creates), tuple(discard), Pos(kw.line, kw.column))
        )

    def name_block(self) -> tuple[str, ...]:
        self.expect("{")
        names: list[str] = []
        if self.at("}"):
            self.advance()
            return ()
        names.append(self.expect_name("a name"))
        while self.at(","):
            self.advance()
            names.append(self.expect_name("a name"))
        self.expect("}")
        return tuple(names)

    # Plain functions, built once: a dict of bound methods on the parser would form a
    # reference cycle that keeps every token alive until the cyclic collector runs.
    HANDLERS = {
        "quantity-kind": kind_stmt,
        "object-kind": kind_stmt,
        "object": object_stmt,
        "quantity": quantity_stmt,
        "connect": adjacency_stmt,
        "disconnect": adjacency_stmt,
        "subquantity": subquantity_stmt,
        "event": event_stmt,
    }


def reference_parse(text: str) -> ParseResult:
    tokens, diags, lines = _ref_lex(text)
    parser = _RefParser(tokens, lines)
    parser.parse()
    diags = diags + parser.diags
    if not diags:
        diags = _resolve(parser.scenario, lines)
    if diags:
        diags.sort(key=lambda d: (d.line, d.column, d.message))
        return ParseResult(None, diags)
    return ParseResult(parser.scenario, [])


# -- a scenario corpus at scale ----------------------------------------------------

_CASE_REFORMATS = (
    # a granule list that spans lines, with a comment and a tab inside the braces
    ("granules { grain1, grain2, grain3, grain4, grain5,",
     "granules {\t# a { in a comment\n    grain1,\n\tgrain2, grain3, grain4, grain5,"),
    # an event on one line, so that its two create clauses share it
    (" {\n  donor rock1 ;\n  create rock2 : PortionOfRock granules { grain5, grain6 } ;\n  create rock3",
     " { donor rock1 ; create rock2 : PortionOfRock granules { grain5, grain6 } ; create rock3"),
    ("grain3, grain4 }\n}", "grain3, grain4 } }"),
    # an indented statement
    ("connect grain1 grain2", " \t connect grain1 grain2"),
    # comments and tabs inside a block, a clause after a comment, a list that spans lines
    ("{\n  donor rock3 ;\n", "{ # rock3 } ends here\n\tdonor rock3 ;\t# ;\n\n"),
    ("granules { grain3, grain4 } ;\n  create rock5", "granules {\n\t\tgrain3,\n\t\tgrain4 } ; create rock5"),
)


def scenario_corpus(copies: int) -> str:
    """``casestudy.mp`` ``copies`` times, each copy reformatted (see
    ``_CASE_REFORMATS``), with its names suffixed and its times shifted, so that
    the whole still parses. Every second copy ends its lines in CRLF."""
    text = case_study_path().read_text(encoding="utf-8")
    for old, new in _CASE_REFORMATS:
        assert text.count(old) == 1, old
        text = text.replace(old, new)
    out = []
    for k in range(copies):
        names = (m.group() for m in re.finditer(r"[A-Za-z_][A-Za-z0-9_-]*", text))
        renamed = {w: f"{w}_{k}" for w in names if w not in KEYWORDS and not re.fullmatch(r"t[0-9]+", w)}
        copy = re.sub(r"[A-Za-z_][A-Za-z0-9_-]*", lambda m: renamed.get(m.group(), m.group()), text)
        copy = re.sub(r"\bt([0-9]+)\b", lambda m: f"t{int(m.group(1)) + 3 * k}", copy)
        out.append(copy.replace("\n", "\r\n") if k % 2 else copy)
    return "".join(out)


# -- reference command-line parser -------------------------------------------------


def reference_build_parser() -> argparse.ArgumentParser:
    """The whole ``argparse`` tree, written out by hand: the reference for the
    parsers that ``cli.main`` builds from ``cli.SUBCOMMANDS``."""
    parser = argparse.ArgumentParser(
        prog="matterkb",
        description="Temporal knowledge base for portions of matter and their granule-level provenance.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="run every axiom check against a scenario or document")
    p_validate.add_argument("file")
    p_validate.add_argument("--format", choices=("text", "canonical"), default="text")
    p_validate.add_argument("--at", metavar="tN", default=None, help="check one world only")
    p_validate.set_defaults(func=cmd_validate)

    p_query = sub.add_parser("query", help="run a provenance or world query")
    p_query.add_argument("file")
    p_query.add_argument("query", choices=QUERIES)
    p_query.add_argument("args", nargs="*")
    p_query.add_argument("--transitive", action="store_true", help="close over chains of transfers")
    p_query.add_argument("--format", choices=("text", "canonical"), default="text")
    p_query.add_argument("--at", metavar="tN", default=None)
    p_query.set_defaults(func=cmd_query)

    p_export = sub.add_parser("export", help="write the canonical document form")
    p_export.add_argument("file")
    p_export.add_argument("out", help="output path, or - for stdout")
    p_export.set_defaults(func=cmd_export)

    p_replay = sub.add_parser("replay-check", help="verify the event log rebuilds the same state")
    p_replay.add_argument("file")
    p_replay.set_defaults(func=cmd_replay_check)
    return parser


def reference_main(argv: list[str]) -> int:
    """``cli.main`` parsing every call with ``reference_build_parser``."""
    try:
        args = reference_build_parser().parse_args(argv)
    except SystemExit as exc:
        return USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except _CliError as exc:
        print(str(exc), file=sys.stderr)
        return USAGE
