"""Kernel store: kinds, objects, adjacency, sub-quantities, world views."""

import copy
import random
import time

import pytest

from matterkb import (
    CreatedEntry,
    KindDecl,
    KnowledgeBase,
    apply_creation,
    apply_transfer,
    events,
    export_document,
    import_document,
    replay,
)
from matterkb.errors import (
    DonorNotLive,
    DuplicateGranuleAssignment,
    DuplicateId,
    DuplicateKind,
    GranuleNotFree,
    GranuleProvenanceViolation,
    NoLifetimeOverlap,
    NonMonotonicTime,
    NotLiveAt,
    OverlappingInterval,
    SameKindSubQuantity,
    SelfAdjacency,
    SubQuantityNotIncluded,
    TooFewGranules,
    UnknownAdjacency,
    UnknownGranuleKind,
    UnknownKind,
    UnknownObject,
    UnknownQuantity,
)
from matterkb.events import CREATION, GRANULE_TRANSFER, EventRec
from matterkb.model import (
    QUANTITY_KIND,
    STATUS_LIVE,
    STATUS_NOT_YET_CREATED,
    STATUS_TERMINATED,
    AdjacencyInterval,
    QuantityInst,
    StoreIndex,
    count_clusters,
)

from helpers import (
    build_random_kb,
    connected_components,
    moved_chains_kb,
    reference_adjacency_at,
    reference_adjacent_at,
    reference_assert_adjacency,
    reference_assert_intervals,
    reference_apply_events,
    reference_check_fresh,
    reference_create_objects,
    reference_holders_of,
    reference_retract_adjacency,
    reference_same_kind_holder,
)


@pytest.fixture()
def kb():
    kb = KnowledgeBase()
    kb.declare_object_kind("H2OMolecule")
    kb.declare_quantity_kind("PortionOfWater", ["H2OMolecule"])
    return kb


def water(kb, qid="w", granules=("m1", "m2"), at=0):
    for g in granules:
        if g not in kb.objects:
            kb.create_object(g, "H2OMolecule", 0)
    return apply_creation(kb, CreatedEntry.of(qid, "PortionOfWater", granules), at)


def rock_entry(qid, *granules):
    return CreatedEntry.of(qid, "Rock", granules)


def rock(kb, qid, granules, at, **kw):
    return apply_creation(kb, rock_entry(qid, *granules), at, **kw)


def rocks_kb(source):
    """Rocks r1 → r2 + r3 and r5 over grains g1–g9, with adjacency g1-g2 open,
    as the engine wrote them, imported, or with a tail appended by hand: an
    open pair g7-g8, a sand s1 over g7 and g8, and its creation event at t3."""
    kb = KnowledgeBase()
    kb.declare_object_kind("Grain")
    kb.declare_quantity_kind("Rock", ["Grain"])
    kb.declare_quantity_kind("Sand")
    for i in range(1, 10):
        kb.create_object(f"g{i}", "Grain", 0)
    rock(kb, "r1", ["g1", "g2", "g3", "g4"], 0)
    kb.assert_adjacency("g1", "g2", 0)
    apply_transfer(kb, ["r1"], [rock_entry("r2", "g1", "g2"), rock_entry("r3", "g3", "g4")], 1)
    rock(kb, "r5", ["g5", "g6"], 2)
    if source == "imported":
        return import_document(export_document(kb))
    if source == "hand-appended":
        sand = CreatedEntry.of("s1", "Sand", ["g7", "g8"])
        kb.events.append(EventRec("by-hand", 3, CREATION, frozenset(), (sand,), frozenset()))
        kb.quantities["s1"] = QuantityInst("s1", "Sand", 3, sand.granules, "by-hand")
        kb.adjacency.append(AdjacencyInterval("g7", "g8", 0))
    return kb


def index_state(index):
    """The index's tables as plain values: holder lists sorted, since a catch-up
    fills them in reverse store order and a write in store order, and the
    intervals by identity, since a retraction closes the stored one in place."""
    return (set(index.event_ids), {g: sorted(h) for g, h in index.holders.items()},
            {pair: list(map(id, intervals)) for pair, intervals in index.intervals.items()})


def write_only_tables(init, reads):
    """``StoreIndex.__init__`` with tables that take entries as before but
    refuse every read (membership, lookup, iteration, length), noting it in
    ``reads``: a catch-up and a write's ``add`` still run, a lookup fails."""
    def refuse(table, *args):
        reads.append(args)
        raise AssertionError("the store index was read")

    class Set(set):
        __contains__ = __iter__ = __len__ = refuse

    class Dict(dict):
        __contains__ = __iter__ = __len__ = __getitem__ = get = keys = values = items = refuse

    def guarded(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.event_ids, self.holders, self.intervals = Set(), Dict(), Dict()
    return guarded


class TestKinds:
    def test_declare_and_query(self, kb):
        assert kb.kinds["PortionOfWater"].requires == frozenset({"H2OMolecule"})
        assert kb.kinds["H2OMolecule"].meta == "objectKind"

    def test_duplicate_kind(self, kb):
        with pytest.raises(DuplicateKind):
            kb.declare_quantity_kind("PortionOfWater")

    def test_requires_must_resolve_to_object_kind(self, kb):
        with pytest.raises(UnknownGranuleKind):
            kb.declare_quantity_kind("X", ["NoSuchKind"])
        with pytest.raises(UnknownGranuleKind):
            kb.declare_quantity_kind("Y", ["PortionOfWater"])

    def test_object_kind_cannot_require(self, kb):
        with pytest.raises(ValueError):
            kb.declare_kind(KindDecl("Z", "objectKind", frozenset({"H2OMolecule"})))


class TestObjects:
    def test_create(self, kb):
        obj = kb.create_object("m1", "H2OMolecule", 3)
        assert obj.created_at == 3

    def test_unknown_kind(self, kb):
        with pytest.raises(UnknownKind):
            kb.create_object("m1", "NoSuchKind", 0)
        with pytest.raises(UnknownKind):
            kb.create_object("m1", "PortionOfWater", 0)

    def test_duplicate_id(self, kb):
        kb.create_object("m1", "H2OMolecule", 0)
        with pytest.raises(DuplicateId):
            kb.create_object("m1", "H2OMolecule", 1)

    def test_negative_time_rejected(self, kb):
        with pytest.raises(ValueError):
            kb.create_object("m1", "H2OMolecule", -1)


class TestAdjacency:
    def test_symmetric_and_active(self, kb):
        kb.create_object("a", "H2OMolecule", 0)
        kb.create_object("b", "H2OMolecule", 0)
        kb.assert_adjacency("b", "a", 2)
        assert kb.adjacent_at("a", "b", 2)
        assert kb.adjacent_at("b", "a", 5)
        assert not kb.adjacent_at("a", "b", 1)

    def test_self_adjacency(self, kb):
        kb.create_object("a", "H2OMolecule", 0)
        with pytest.raises(SelfAdjacency):
            kb.assert_adjacency("a", "a", 0)

    def test_unknown_object(self, kb):
        kb.create_object("a", "H2OMolecule", 0)
        with pytest.raises(UnknownObject):
            kb.assert_adjacency("a", "ghost", 0)

    def test_object_must_exist_at_start(self, kb):
        kb.create_object("a", "H2OMolecule", 0)
        kb.create_object("b", "H2OMolecule", 5)
        with pytest.raises(UnknownObject):
            kb.assert_adjacency("a", "b", 2)

    def test_overlapping_interval(self, kb):
        kb.create_object("a", "H2OMolecule", 0)
        kb.create_object("b", "H2OMolecule", 0)
        kb.assert_adjacency("a", "b", 1)
        with pytest.raises(OverlappingInterval):
            kb.assert_adjacency("a", "b", 4)

    def test_new_interval_cannot_start_before_existing(self, kb):
        kb.create_object("a", "H2OMolecule", 0)
        kb.create_object("b", "H2OMolecule", 0)
        kb.assert_adjacency("a", "b", 5)
        with pytest.raises(OverlappingInterval):
            kb.assert_adjacency("a", "b", 2)  # open-ended, would cover t5

    def test_retract_then_reassert(self, kb):
        kb.create_object("a", "H2OMolecule", 0)
        kb.create_object("b", "H2OMolecule", 0)
        kb.assert_adjacency("a", "b", 0)
        kb.retract_adjacency("a", "b", 3)
        assert kb.adjacent_at("a", "b", 2)
        assert not kb.adjacent_at("a", "b", 3)
        kb.assert_adjacency("a", "b", 7)
        assert kb.adjacent_at("a", "b", 9)

    def test_retract_without_edge(self, kb):
        kb.create_object("a", "H2OMolecule", 0)
        kb.create_object("b", "H2OMolecule", 0)
        with pytest.raises(UnknownAdjacency):
            kb.retract_adjacency("a", "b", 1)

    def test_retract_at_interval_start(self, kb):
        kb.create_object("a", "H2OMolecule", 0)
        kb.create_object("b", "H2OMolecule", 0)
        kb.assert_adjacency("a", "b", 4)
        with pytest.raises(UnknownAdjacency):
            kb.retract_adjacency("a", "b", 4)


class TestGranuleReads:
    def test_granules_of_live(self, kb):
        water(kb)
        assert kb.granules_of("w", 0) == frozenset({"m1", "m2"})
        assert kb.granules_of("w", 99) == frozenset({"m1", "m2"})

    def test_granules_of_unknown(self, kb):
        with pytest.raises(UnknownQuantity):
            kb.granules_of("ghost", 0)

    def test_granules_of_after_termination(self, kb):
        water(kb, granules=("m1", "m2", "m3", "m4"))
        apply_transfer(
            kb,
            ["w"],
            [CreatedEntry.of("w2", "PortionOfWater", ["m1", "m2"]),
             CreatedEntry.of("w3", "PortionOfWater", ["m3", "m4"])],
            2,
        )
        with pytest.raises(NotLiveAt):
            kb.granules_of("w", 2)
        assert kb.granules_of("w", 1) == frozenset({"m1", "m2", "m3", "m4"})

    def test_granules_never_mutate_across_lifetime(self, kb):
        water(kb, at=1)
        assert kb.granules_of("w", 1) == kb.granules_of("w", 7) == kb.granules_of("w", 100)

    def test_granule_types_union(self, kb):
        kb.declare_object_kind("Impurity")
        kb.declare_quantity_kind("Mixture")
        kb.create_object("m1", "H2OMolecule", 0)
        kb.create_object("i1", "Impurity", 0)
        apply_creation(kb, CreatedEntry.of("mix", "Mixture", ["m1", "i1"]), 0)
        assert kb.granule_types("mix") == frozenset({"H2OMolecule", "Impurity"})

    def test_granule_types_single_kind(self, kb):
        water(kb)
        assert kb.granule_types("w") == frozenset({"H2OMolecule"})

    def test_granule_types_unknown(self, kb):
        with pytest.raises(UnknownQuantity):
            kb.granule_types("ghost")


class TestSubQuantity:
    def setup_pair(self, kb):
        kb.declare_quantity_kind("PortionOfWine")
        for g in ("m1", "m2", "m3"):
            kb.create_object(g, "H2OMolecule", 0)
        apply_creation(kb, CreatedEntry.of("wine", "PortionOfWine", ["m1", "m2", "m3"]), 0)
        apply_creation(kb, CreatedEntry.of("alcohol", "PortionOfWater", ["m1", "m2"]), 1)

    def test_assert_ok_and_idempotent(self, kb):
        self.setup_pair(kb)
        kb.assert_subquantity("alcohol", "wine")
        kb.assert_subquantity("alcohol", "wine")
        assert len(kb.subquantities) == 1

    def test_same_kind_rejected(self, kb):
        self.setup_pair(kb)
        kb.create_object("m4", "H2OMolecule", 0)
        kb.create_object("m5", "H2OMolecule", 0)
        apply_creation(kb, CreatedEntry.of("w2", "PortionOfWater", ["m4", "m5"]), 2)
        with pytest.raises(SameKindSubQuantity):
            kb.assert_subquantity("alcohol", "w2")

    def test_unknown_quantity(self, kb):
        self.setup_pair(kb)
        with pytest.raises(UnknownQuantity):
            kb.assert_subquantity("alcohol", "ghost")

    def test_part_not_included_rejected(self, kb):
        kb.declare_quantity_kind("PortionOfWine")
        for g in ("m1", "m2", "m3"):
            kb.create_object(g, "H2OMolecule", 0)
        apply_creation(kb, CreatedEntry.of("wine", "PortionOfWine", ["m1", "m3"]), 0)
        apply_creation(kb, CreatedEntry.of("alcohol", "PortionOfWater", ["m1", "m2"]), 1)
        with pytest.raises(SubQuantityNotIncluded, match="m2 of sub-quantity 'alcohol'"):
            kb.assert_subquantity("alcohol", "wine")
        assert kb.subquantities == set()

    def test_disjoint_lifetimes_rejected(self, kb):
        self.setup_pair(kb)
        apply_transfer(
            kb,
            ["wine"],
            [CreatedEntry.of("wine2", "PortionOfWine", ["m1", "m2", "m3"])],
            5,
        )
        kb.declare_quantity_kind("PortionOfJuice")
        kb.create_object("m6", "H2OMolecule", 0)
        kb.create_object("m7", "H2OMolecule", 0)
        apply_creation(kb, CreatedEntry.of("late", "PortionOfJuice", ["m6", "m7"]), 9)
        with pytest.raises(NoLifetimeOverlap):
            kb.assert_subquantity("late", "wine")


class TestWorldView:
    def test_empty_world(self):
        kb = KnowledgeBase()
        view = kb.world_at(0)
        assert view.objects == () and view.quantities == ()
        assert view.granule_of == () and view.adjacency == ()

    def test_statuses(self, kb):
        water(kb, granules=("m1", "m2", "m3", "m4"), at=0)
        apply_transfer(
            kb,
            ["w"],
            [CreatedEntry.of("w2", "PortionOfWater", ["m1", "m2"]),
             CreatedEntry.of("w3", "PortionOfWater", ["m3", "m4"])],
            1,
        )
        view = kb.world_at(1)
        statuses = dict(view.quantities)
        assert statuses["w"] == STATUS_TERMINATED
        assert statuses["w2"] == STATUS_LIVE and statuses["w3"] == STATUS_LIVE
        earlier = dict(kb.world_at(0).quantities)
        assert earlier["w2"] == STATUS_NOT_YET_CREATED
        assert earlier["w"] == STATUS_LIVE

    def test_granule_of_follows_liveness(self, kb):
        water(kb)
        assert ("m1", "w") in kb.world_at(0).granule_of
        assert kb.world_at(5).granule_of == (("m1", "w"), ("m2", "w"))

    def test_purity_structural_equality(self, kb):
        water(kb)
        kb.assert_adjacency("m1", "m2", 0)
        assert kb.world_at(3) == kb.world_at(3)
        assert kb.world_at(3) is not kb.world_at(3)

    def test_world_includes_historical_entities(self, kb):
        water(kb, granules=("m1", "m2", "m3", "m4"))
        apply_transfer(
            kb,
            ["w"],
            [CreatedEntry.of("w2", "PortionOfWater", ["m1", "m2"]),
             CreatedEntry.of("w3", "PortionOfWater", ["m3", "m4"])],
            4,
        )
        ids = [qid for qid, _ in kb.world_at(10).quantities]
        assert "w" in ids  # terminated but never deleted


class TestChangePoints:
    def test_collects_all_state_changes(self, kb):
        water(kb, at=0)
        kb.assert_adjacency("m1", "m2", 2)
        kb.retract_adjacency("m1", "m2", 6)
        assert kb.change_points() == [0, 2, 6]


def test_count_clusters_matches_bfs_components():
    """Seeded differential against the oracles' BFS count: the clusters among
    the endpoints, plus one per node that no edge touches, are the components."""
    rng = random.Random(26)
    path = [(f"n{i}", f"n{i + 1}") for i in range(9)]
    star = [("hub", f"n{i}") for i in range(9)]
    graphs = [(set(), []), ({"a", "b"}, []), ({f"n{i}" for i in range(10)}, path),
              ({"hub"} | {f"n{i}" for i in range(9)}, star), ({"a", "b", "c"}, [("a", "b")] * 3 + [("b", "a")]),
              ({"a", "b", "c", "d", "e"}, [("a", "b"), ("d", "c")])]
    for _ in range(400):
        nodes = [f"n{i}" for i in range(rng.randint(1, 14))]
        edges = [tuple(rng.sample(nodes, 2)) for _ in range(rng.randint(0, len(nodes) + 3)) if len(nodes) > 1]
        graphs.append((set(nodes), edges + rng.sample(edges, len(edges) // 3)))  # with repeats
    for nodes, edges in graphs:
        clusters, touched = count_clusters(iter(edges))
        assert set(touched) == {x for e in edges for x in e}, edges
        assert clusters + len(nodes - touched) == len(connected_components(nodes, edges)), (nodes, edges)


class TestStoreIndex:
    REFERENCES = [
        (KnowledgeBase, "_check_fresh", reference_check_fresh),
        (KnowledgeBase, "holders_of", reference_holders_of),
        (KnowledgeBase, "assert_adjacency", reference_assert_adjacency),
        (KnowledgeBase, "retract_adjacency", reference_retract_adjacency),
        (KnowledgeBase, "assert_intervals", reference_assert_intervals),
        (KnowledgeBase, "create_objects", reference_create_objects),
        (KnowledgeBase, "adjacent_at", reference_adjacent_at),
        (KnowledgeBase, "adjacency_at", reference_adjacency_at),
        (events, "_same_kind_holder", reference_same_kind_holder),
    ]

    @staticmethod
    def outcome(fn, *args):
        try:
            return ("ok", fn(*args))
        except Exception as exc:  # compared by type and message below
            return ("raised", type(exc).__name__, str(exc))

    @staticmethod
    def random_events(kb, rng, step, kinds, used, granules):
        """A batch of up to four event records, each built for the store as the
        records before it would leave it, and each perhaps faulty."""
        records, at, spent = [], kb.events[-1].at if kb.events else 0, set()
        live = sorted(q.id for q in kb.quantities.values() if q.terminated_at is None)
        for k in range(rng.randint(1, 4)):
            at = rng.choice([at + 1] * 14 + [at, -1])
            event_id = f"n{step}e{k}" if rng.random() < 0.95 else rng.choice(used)
            unspent = sorted(set(live) - spent)
            donors = rng.sample(unspent, min(len(unspent), rng.randint(1, 2)))
            if rng.random() < 0.1:
                donors.append(rng.choice(sorted(kb.quantities) + ["ghost"]))  # perhaps terminated or unknown
            spent.update(donors)
            pool = sorted({g for d in donors if d in kb.quantities for g in kb.quantities[d].granules})
            rng.shuffle(pool)
            n_parts = rng.choice([1, 1, 2, 2, 3])
            parts = [pool[j::n_parts] for j in range(n_parts)]
            if rng.random() < 0.2:
                parts[0] = parts[0][:1] + granules  # a free object or a held one, a late one or a ghost
            if rng.random() < 0.1 and len(parts) > 1 and parts[1]:
                parts[0] = parts[0] + parts[1][:1]  # one granule in two created sets
            created = tuple(
                CreatedEntry.of(f"n{step}q{k}{j}" if rng.random() < 0.95 else rng.choice(used),
                                rng.choice(kinds) if rng.random() < 0.95 else "Nope", part[:rng.choice([1] + [9] * 9)])
                for j, part in enumerate(parts))
            discarded = frozenset(rng.sample(pool + granules, 1)) if rng.random() < 0.15 else frozenset()
            if rng.random() < 0.4:  # a creation, or once in a while a malformed one or another kind
                kind = rng.choice([CREATION] * 18 + [GRANULE_TRANSFER, "merger"])
                donors, created, discarded = (), created[:1] if rng.random() < 0.95 else (), frozenset()
                created = tuple(CreatedEntry.of(e.id, e.kind, granules) for e in created)
            else:
                kind = GRANULE_TRANSFER
            records.append(EventRec(event_id, at, kind, frozenset(donors), created, discarded))
            live += [e.id for e in created]
        return records

    def random_writes(self, kb, rng, n, batch_write):
        """n seeded engine calls and field appends on ``kb``, valid or not, with
        outcomes; an event batch goes to ``batch_write``."""
        out = []
        kinds = sorted(k for k, d in kb.kinds.items() if d.meta == QUANTITY_KIND)
        for step in range(n):
            objects = sorted(kb.objects) + ["ghost"]
            used = objects + sorted(kb.quantities) + [ev.id for ev in kb.events]

            def new_id():
                return f"n{step}" if rng.random() < 0.5 else rng.choice(used)

            last = kb.events[-1].at if kb.events else 0
            t = rng.randint(0, last + 3)
            a, b = rng.choice(objects), rng.choice(objects)
            granules = rng.sample(objects, min(len(objects), rng.randint(2, 4)))
            op = rng.choice(["assert", "retract", "object", "create", "transfer", "append",
                             "adjacent", "holders", "holder", "objects", "intervals", "events"])
            if op == "assert":
                result = self.outcome(kb.assert_adjacency, a, b, t)
            elif op == "retract":
                if kb.adjacency and rng.random() < 0.7:
                    iv = rng.choice(kb.adjacency)
                    a, b = iv.b, iv.a
                result = self.outcome(kb.retract_adjacency, a, b, t)
            elif op == "object":
                result = self.outcome(kb.create_object, new_id(), rng.choice(sorted(kb.kinds)), t)
            elif op == "objects":  # a batch: a repeated id, a bad time or an object kind's miss anywhere in it
                records = [(new_id(), rng.choice(sorted(kb.kinds)), rng.choice([t, t, t + 1, -1]))
                           for _ in range(rng.randint(1, 4))]
                result = self.outcome(kb.create_objects, records)
            elif op == "intervals":  # a batch over stored pairs and new ones, repeats and self pairs
                pairs = [(iv.a, iv.b) for iv in kb.adjacency] + [(a, b), (a, a), (b, a)]
                records = []
                for _ in range(rng.randint(1, 4)):
                    start = rng.randint(-1, last + 3) if rng.random() < 0.1 else rng.randint(0, last + 3)
                    records.append((*rng.choice(pairs), start, rng.choice([None, start + rng.randint(-1, 3)])))
                result = self.outcome(kb.assert_intervals, records)
            elif op == "create":
                entry = CreatedEntry.of(new_id(), rng.choice(kinds), granules)
                event_id = rng.choice([None, new_id()])
                result = self.outcome(apply_creation, kb, entry, last + rng.randint(0, 2), event_id)
            elif op == "transfer":
                live = sorted(q.id for q in kb.quantities.values() if q.terminated_at is None)
                donors = rng.sample(live, min(len(live), rng.randint(1, 2)))
                pool = sorted(g for d in donors for g in kb.quantities[d].granules) + granules
                entry = CreatedEntry.of(new_id(), rng.choice(kinds), rng.sample(pool, min(len(pool), 3)))
                event_id = rng.choice([None, new_id()])
                result = self.outcome(apply_transfer, kb, donors, [entry], last + 1, (), event_id)
            elif op == "events":
                result = self.outcome(batch_write, kb, self.random_events(kb, rng, step, kinds, used, granules))
            elif op == "append":  # as an importer or a hand-built store writes
                kb.adjacency.append(AdjacencyInterval(*sorted((a, b)), t, rng.choice([None, t + 2])))
                qid = f"hand{step}"
                kb.quantities[qid] = QuantityInst(qid, rng.choice(kinds), t, frozenset(granules), "e")
                result = ("ok", None)
            elif op == "adjacent":
                result = self.outcome(kb.adjacent_at, a, b, t)
            elif op == "holders":
                result = self.outcome(kb.holders_of, a, t)
            else:  # an event write's holder lookup, after the catch-up the write makes first
                exclude = frozenset(rng.sample(sorted(kb.quantities), min(len(kb.quantities), 1)))
                kb.store_index.catch_up(kb)
                result = self.outcome(events._same_kind_holder, kb, frozenset(granules), rng.choice(kinds), t, exclude)
            out.append((op, *result))
        return out

    def runs(self, seeds, batch_write=events.apply_events):
        """Engine-built, imported and moved-chain stores, each written at random afterwards."""
        out = []
        for seed in seeds:
            rng = random.Random(seed)
            for make in (
                lambda: build_random_kb(seed),
                lambda: import_document(export_document(build_random_kb(seed))),
                lambda: moved_chains_kb(1 + seed % 8),
            ):
                kb = make()
                out.append((self.random_writes(kb, rng, 40, batch_write), kb))
        return out

    def test_matches_brute_force_scans(self, monkeypatch):
        """Same results, same error types and messages, same final store; and
        the reference run reads nothing from the store index."""
        seeds = range(80)
        indexed = self.runs(seeds)
        reads = []
        with monkeypatch.context() as m:
            for owner, name, reference in self.REFERENCES:
                m.setattr(owner, name, reference)
            m.setattr(StoreIndex, "__init__", write_only_tables(StoreIndex.__init__, reads))
            referenced = self.runs(seeds, reference_apply_events)  # record by record
        assert reads == []
        assert indexed == referenced
        seen = {(op, rec[1] if rec[0] == "raised" else "ok")
                for outcomes, _ in indexed for op, *rec in outcomes}
        found = {op for outcomes, _ in indexed for op, *rec in outcomes if rec[0] == "ok" and rec[1]}
        assert {"adjacent", "holders", "holder"} <= found
        for op in ("assert", "retract", "object", "create", "transfer", "objects", "intervals", "events"):
            assert (op, "ok") in seen, op
        for op, error in [("assert", "OverlappingInterval"), ("retract", "UnknownAdjacency"),
                          ("objects", "ValueError"), ("objects", "DuplicateId"), ("objects", "UnknownKind"),
                          ("intervals", "ValueError"), ("intervals", "SelfAdjacency"),
                          ("intervals", "UnknownObject"), ("intervals", "OverlappingInterval"),
                          ("intervals", "UnknownAdjacency"),
                          ("object", "DuplicateId"), ("create", "DuplicateId"),
                          ("create", "GranuleNotFree"), ("transfer", "DuplicateId"),
                          ("transfer", "GranuleProvenanceViolation"),
                          *[("events", error) for error in (
                              "ValueError", "NonMonotonicTime", "DuplicateId", "UnknownQuantity", "DonorNotLive",
                              "DuplicateGranuleAssignment", "UnknownKind", "UnknownObject", "TooFewGranules",
                              "GranuleProvenanceViolation", "GranuleNotFree")]]:
            assert (op, error) in seen, (op, error)

    def test_imported_store_is_indexed_on_first_use(self, case_kb):
        kb = import_document(export_document(case_kb))
        assert kb.store_index.counts == (0, 0, 0)  # nothing is indexed on load
        with pytest.raises(OverlappingInterval) as err:
            kb.assert_adjacency("grain2", "grain1", 5)
        assert str(err.value) == (
            "adjacency grain1-grain2 from t5 would overlap the interval starting at t0"
        )
        with pytest.raises(DuplicateId, match="id 'transfer2' is already in use"):
            kb.create_object("transfer2", "SedimentaryGrain", 3)
        rock6 = CreatedEntry.of("rock6", "PortionOfRock", ["grain1", "grain3"])
        with pytest.raises(GranuleProvenanceViolation, match="live quantity 'rock4'"):
            apply_transfer(kb, ["rock5"], [rock6], 3)
        kb.retract_adjacency("grain2", "grain1", 3)
        interval = next(iv for iv in kb.adjacency if (iv.a, iv.b) == ("grain1", "grain2"))
        assert interval.end == 3
        assert kb.adjacent_at("grain1", "grain2", 2) and not kb.adjacent_at("grain1", "grain2", 3)
        rock6 = CreatedEntry.of("rock6", "PortionOfRock", ["grain1", "grain2"])
        with pytest.raises(DuplicateId, match="id 'transfer1' is already in use"):
            apply_transfer(kb, ["rock5"], [rock6], 3, event_id="transfer1")

    # every kernel error a write can leave behind, then one accepted write of each kind
    WRITES = {
        "object DuplicateId": (lambda kb: kb.create_object("e1", "Grain", 5), DuplicateId),
        "creation DuplicateId": (lambda kb: rock(kb, "r9", ["g7", "g8"], 5, event_id="e1"), DuplicateId),
        "OverlappingInterval": (lambda kb: kb.assert_adjacency("g2", "g1", 5), OverlappingInterval),
        "UnknownAdjacency": (lambda kb: kb.retract_adjacency("g3", "g4", 5), UnknownAdjacency),
        "NonMonotonicTime": (lambda kb: rock(kb, "r9", ["g7", "g8"], 2), NonMonotonicTime),
        "DonorNotLive": (lambda kb: apply_transfer(kb, ["r1"], [rock_entry("r9", "g1", "g2")], 5),
                         DonorNotLive),
        "TooFewGranules": (lambda kb: rock(kb, "r9", ["g7"], 5), TooFewGranules),
        "GranuleNotFree": (lambda kb: rock(kb, "r9", ["g5", "g7"], 5), GranuleNotFree),
        "GranuleProvenanceViolation": (
            lambda kb: apply_transfer(kb, ["r2"], [rock_entry("r9", "g1", "g5")], 5),
            GranuleProvenanceViolation),
        "DuplicateGranuleAssignment": (
            lambda kb: apply_transfer(kb, ["r2"], [rock_entry("r9", "g1", "g2"), rock_entry("r10", "g2", "g7")], 5),
            DuplicateGranuleAssignment),
        "create_object": (lambda kb: kb.create_object("g10", "Grain", 5), None),
        "create_objects": (lambda kb: kb.create_objects([("g10", "Grain", 5), ("g11", "Grain", 6)]), None),
        "assert_intervals": (
            lambda kb: kb.assert_intervals([("g4", "g3", 5, None), ("g6", "g5", 5, 7), ("g5", "g6", 7, None)]),
            None),
        "assert_adjacency": (lambda kb: kb.assert_adjacency("g4", "g3", 5), None),
        "retract_adjacency": (lambda kb: kb.retract_adjacency("g2", "g1", 5), None),
        "apply_creation": (lambda kb: rock(kb, "r9", ["g7", "g9"], 5), None),
        "apply_transfer": (
            lambda kb: apply_transfer(kb, ["r2", "r5"], [rock_entry("r9", "g1", "g5"),
                                                         rock_entry("r10", "g2", "g6", "g9")], 5),
            None),
    }

    @pytest.mark.parametrize("source", ["engine", "imported", "hand-appended"])
    @pytest.mark.parametrize("write", list(WRITES))
    def test_write_leaves_the_index_current(self, write, source, monkeypatch):
        """A write catches the index up at most once. A failed write changes
        neither store nor index; after an accepted one, the index equals one
        built from scratch, with nothing left to catch up."""
        kb = rocks_kb(source)
        before = copy.deepcopy(kb)
        call, error = self.WRITES[write]
        catch_ups = []
        with monkeypatch.context() as m:
            m.setattr(StoreIndex, "catch_up", lambda index, kb, catch_up=StoreIndex.catch_up:
                      catch_ups.append(kb) or catch_up(index, kb))
            if error is None:
                call(kb)
            else:
                with pytest.raises(error):
                    call(kb)
        assert len(catch_ups) <= 1
        if error is not None:
            assert kb == before
            if source != "engine":  # a store appended outside the kernel may fail a write before its catch-up
                kb.store_index.catch_up(kb)
        assert kb.store_index.counts == (len(kb.events), len(kb.quantities), len(kb.adjacency))
        assert index_state(kb.store_index) == index_state(StoreIndex().catch_up(kb))

    def test_engine_writes_do_not_rescan_the_store(self, monkeypatch):
        """2000 moved chains, 4000 events: about 5 s with the old scans on a 2.1 GHz Xeon."""
        calls = []
        scan = KnowledgeBase.live_quantities_at
        monkeypatch.setattr(
            KnowledgeBase, "live_quantities_at", lambda kb, t: calls.append(t) or scan(kb, t)
        )
        start = time.perf_counter()
        kb = moved_chains_kb(2000)
        rebuilt = replay(kb)
        elapsed = time.perf_counter() - start
        assert calls == []
        assert len(rebuilt.events) == 4000
        assert elapsed < 3.0


def placed(faults):
    """Each fault at each place in a batch; one that repeats the record before it is never first."""
    return [(fault, place) for fault, (record, _) in faults.items()
            for place in ("first", "middle", "last") if record is not None or place != "first"]


class TestBatchWrites:
    """A batch with one fault first, in the middle or last: the error, the store
    and the index of one write per record, where a record whose close fails is
    not applied; and an index that a build from scratch gives."""

    OBJECTS = [("n1", "Grain", 1), ("n2", "Grain", 2), ("n3", "Grain", 3), ("n4", "Grain", 4)]
    OBJECT_FAULTS = {
        "time": (("bad", "Grain", -1), ValueError),
        "stored id": (("r1", "Grain", 1), DuplicateId),
        "repeated id": (None, DuplicateId),  # the record before it again
        "quantity kind": (("bad", "Rock", 1), UnknownKind),
        "undeclared kind": (("bad", "Pebble", 1), UnknownKind),
    }
    INTERVALS = [("g3", "g4", 1, None), ("g5", "g4", 1, 3), ("g6", "g5", 2, None), ("g5", "g7", 0, 2),
                 ("g7", "g5", 2, 4)]
    INTERVAL_FAULTS = {
        "time": (("g8", "g9", -1, None), ValueError),
        "end time": (("g8", "g9", 1, -1), ValueError),
        "self": (("g8", "g8", 1, None), SelfAdjacency),
        "unknown endpoint": (("g8", "ghost", 1, None), UnknownObject),
        "endpoint not yet created": (("late", "g8", 1, None), UnknownObject),
        "stored overlap": (("g2", "g1", 3, None), OverlappingInterval),
        "batch overlap": (None, OverlappingInterval),  # the record before it again
        "end not after start": (("g8", "g9", 3, 3), UnknownAdjacency),
    }

    @staticmethod
    def batch(valid, fault, place):
        at = {"first": 0, "middle": len(valid) // 2, "last": len(valid)}[place]
        return valid[:at] + [valid[at - 1] if fault is None else fault] + valid[at:]

    def check(self, write, reference, records, error):
        kb = rocks_kb("engine")
        kb.create_object("late", "Grain", 5)
        expected = copy.deepcopy(kb)
        with pytest.raises(error) as raised:
            write(kb, records)
        with pytest.raises(error) as again:
            reference(expected, records)
        assert str(raised.value) == str(again.value)
        assert kb == expected
        assert kb.store_index.counts == (len(kb.events), len(kb.quantities), len(kb.adjacency))
        assert index_state(kb.store_index) == index_state(StoreIndex().catch_up(kb))

    @pytest.mark.parametrize("fault, place", placed(OBJECT_FAULTS))
    def test_object_batch_stops_at_its_fault(self, fault, place):
        record, error = self.OBJECT_FAULTS[fault]
        records = self.batch(self.OBJECTS, record, place)
        self.check(KnowledgeBase.create_objects, reference_create_objects, records, error)

    @pytest.mark.parametrize("fault, place", placed(INTERVAL_FAULTS))
    def test_interval_batch_stops_at_its_fault(self, fault, place):
        record, error = self.INTERVAL_FAULTS[fault]
        records = self.batch(self.INTERVALS, record, place)
        self.check(KnowledgeBase.assert_intervals, reference_assert_intervals, records, error)

    def test_batches_apply_every_record(self):
        kb = rocks_kb("engine")
        expected = copy.deepcopy(kb)
        assert kb.create_objects(self.OBJECTS) == reference_create_objects(expected, self.OBJECTS)
        kb.assert_intervals(self.INTERVALS)
        reference_assert_intervals(expected, self.INTERVALS)
        assert kb == expected
        assert [(iv.a, iv.b, iv.start, iv.end) for iv in kb.adjacency[1:]] == [
            ("g3", "g4", 1, None), ("g4", "g5", 1, 3), ("g5", "g6", 2, None), ("g5", "g7", 0, 2),
            ("g5", "g7", 2, 4)]
        assert index_state(kb.store_index) == index_state(StoreIndex().catch_up(kb))


def test_a_kind_of_unknown_meta_is_refused():
    kb = KnowledgeBase()
    with pytest.raises(ValueError, match="^unknown meta 'stuffKind' for kind 'Sand'$"):
        kb.declare_kind(KindDecl("Sand", "stuffKind"))
    assert kb.kinds == {}
