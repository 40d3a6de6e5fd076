"""Event engine: creation, transfer, log, replay."""

import random

import pytest

from matterkb import (
    CreatedEntry,
    KnowledgeBase,
    apply_creation,
    apply_transfer,
    event_log,
    export_document,
    import_document,
    replay,
)
from matterkb.errors import (
    DonorNotLive,
    DuplicateGranuleAssignment,
    DuplicateId,
    GranuleNotFree,
    GranuleProvenanceViolation,
    NonMonotonicTime,
    OverlappingInterval,
    ReplayError,
    SameKindSubQuantity,
    TooFewGranules,
    UnknownAdjacency,
    UnknownGranuleKind,
    UnknownKind,
    UnknownObject,
    UnknownQuantity,
)
from matterkb.events import EventRec, apply_events
from matterkb.model import QUANTITY_KIND, AdjacencyInterval, KindDecl, ObjectInst, SubQuantityAssertion

from helpers import SCALE_STORES, build_random_kb, reference_apply_creation, reference_apply_transfer


@pytest.fixture()
def kb():
    kb = KnowledgeBase()
    kb.declare_object_kind("Grain")
    kb.declare_quantity_kind("Rock", ["Grain"])
    kb.declare_quantity_kind("Sand", [])
    for i in range(1, 9):
        kb.create_object(f"g{i}", "Grain", 0)
    return kb


def discarding(ev, granule):
    return EventRec(ev.id, ev.at, ev.kind, ev.donors, ev.created, frozenset({granule}))


def rock(kb, qid, granules, at, **kw):
    return apply_creation(kb, CreatedEntry.of(qid, "Rock", granules), at, **kw)


class TestCreation:
    def test_creates_live_quantity(self, kb):
        ev = rock(kb, "r1", ["g1", "g2"], 0)
        q = kb.quantities["r1"]
        assert q.created_at == 0 and q.terminated_at is None
        assert q.creation_event == ev.id == "create-r1"
        assert ev.kind == "creation" and ev.donors == frozenset()

    def test_too_few_granules(self, kb):
        with pytest.raises(TooFewGranules):
            rock(kb, "r1", ["g1"], 0)

    def test_min_two_is_enough(self, kb):
        rock(kb, "r1", ["g1", "g2"], 0)

    def test_non_monotonic(self, kb):
        rock(kb, "r1", ["g1", "g2"], 5)
        with pytest.raises(NonMonotonicTime):
            rock(kb, "r2", ["g3", "g4"], 5)
        with pytest.raises(NonMonotonicTime):
            rock(kb, "r2", ["g3", "g4"], 0)

    def test_granule_not_free_same_kind(self, kb):
        rock(kb, "r1", ["g1", "g2"], 0)
        with pytest.raises(GranuleNotFree):
            rock(kb, "r2", ["g1", "g3"], 1)

    def test_cross_kind_sharing_allowed(self, kb):
        rock(kb, "r1", ["g1", "g2", "g3"], 0)
        apply_creation(kb, CreatedEntry.of("s1", "Sand", ["g1", "g2"]), 1)
        assert kb.quantities["s1"].granules == frozenset({"g1", "g2"})

    def test_unknown_object(self, kb):
        with pytest.raises(UnknownObject):
            rock(kb, "r1", ["g1", "ghost"], 0)

    def test_object_not_yet_created(self, kb):
        kb.create_object("late", "Grain", 9)
        with pytest.raises(UnknownObject):
            rock(kb, "r1", ["g1", "late"], 3)

    def test_duplicate_quantity_id(self, kb):
        rock(kb, "r1", ["g1", "g2"], 0)
        with pytest.raises(DuplicateId):
            rock(kb, "r1", ["g3", "g4"], 1)

    def test_duplicate_event_id(self, kb):
        rock(kb, "r1", ["g1", "g2"], 0, event_id="birth")
        with pytest.raises(DuplicateId):
            rock(kb, "r2", ["g3", "g4"], 1, event_id="birth")


class TestTransfer:
    def test_split_terminates_donor(self, kb):
        rock(kb, "r1", ["g1", "g2", "g3", "g4"], 0)
        ev = apply_transfer(
            kb,
            ["r1"],
            [CreatedEntry.of("r2", "Rock", ["g1", "g2"]),
             CreatedEntry.of("r3", "Rock", ["g3", "g4"])],
            1,
            event_id="split",
        )
        assert kb.quantities["r1"].terminated_at == 1
        assert kb.quantities["r2"].created_at == 1
        assert ev.created[0].id == "r2"  # created entries sorted by id
        assert ev.donors == frozenset({"r1"})
        assert {e.id for e in ev.created} == {"r2", "r3"}
        assert frozenset().union(*(e.granules for e in ev.created)) == {"g1", "g2", "g3", "g4"}

    def test_mix_two_donors(self, kb):
        rock(kb, "r1", ["g1", "g2"], 0)
        rock(kb, "r2", ["g3", "g4"], 1)
        apply_transfer(
            kb, ["r1", "r2"], [CreatedEntry.of("r3", "Rock", ["g1", "g2", "g3", "g4"])], 2
        )
        assert kb.quantities["r1"].terminated_at == 2
        assert kb.quantities["r2"].terminated_at == 2

    def test_donor_not_live(self, kb):
        rock(kb, "r1", ["g1", "g2", "g3", "g4"], 0)
        apply_transfer(kb, ["r1"], [CreatedEntry.of("r2", "Rock", ["g1", "g2"])], 1)
        with pytest.raises(DonorNotLive):
            apply_transfer(kb, ["r1"], [CreatedEntry.of("r4", "Rock", ["g3", "g4"])], 2)

    def test_unknown_donor(self, kb):
        with pytest.raises(UnknownQuantity):
            apply_transfer(kb, ["ghost"], [CreatedEntry.of("r2", "Rock", ["g1", "g2"])], 1)

    def test_duplicate_assignment(self, kb):
        rock(kb, "r1", ["g1", "g2", "g3", "g4"], 0)
        with pytest.raises(DuplicateGranuleAssignment):
            apply_transfer(
                kb,
                ["r1"],
                [CreatedEntry.of("r2", "Rock", ["g1", "g2"]),
                 CreatedEntry.of("r3", "Rock", ["g1", "g4"])],
                1,
            )

    def test_discard_conflicts_with_assignment(self, kb):
        rock(kb, "r1", ["g1", "g2", "g3"], 0)
        with pytest.raises(DuplicateGranuleAssignment):
            apply_transfer(
                kb, ["r1"], [CreatedEntry.of("r2", "Rock", ["g1", "g2"])], 1, discarded=["g1"]
            )

    def test_discard_must_come_from_donor(self, kb):
        rock(kb, "r1", ["g1", "g2", "g3"], 0)
        with pytest.raises(GranuleProvenanceViolation):
            apply_transfer(
                kb, ["r1"], [CreatedEntry.of("r2", "Rock", ["g1", "g2"])], 1, discarded=["g7"]
            )

    def test_created_must_inherit_something(self, kb):
        rock(kb, "r1", ["g1", "g2"], 0)
        with pytest.raises(GranuleProvenanceViolation):
            apply_transfer(kb, ["r1"], [CreatedEntry.of("r2", "Rock", ["g3", "g4"])], 1)

    def test_free_objects_can_join(self, kb):
        rock(kb, "r1", ["g1", "g2"], 0)
        apply_transfer(kb, ["r1"], [CreatedEntry.of("r2", "Rock", ["g1", "g2", "g5"])], 1)
        assert kb.quantities["r2"].granules == frozenset({"g1", "g2", "g5"})

    def test_occupied_granule_rejected(self, kb):
        rock(kb, "r1", ["g1", "g2"], 0)
        rock(kb, "r2", ["g3", "g4"], 1)
        with pytest.raises(GranuleProvenanceViolation):
            apply_transfer(kb, ["r1"], [CreatedEntry.of("r3", "Rock", ["g1", "g2", "g3"])], 2)

    def test_donorless_transfer_rejected(self, kb):
        with pytest.raises(ValueError):
            apply_transfer(kb, [], [CreatedEntry.of("r1", "Rock", ["g1", "g2"])], 0)

    def test_freed_granules_become_reusable(self, kb):
        rock(kb, "r1", ["g1", "g2", "g3", "g4"], 0)
        apply_transfer(kb, ["r1"], [CreatedEntry.of("r2", "Rock", ["g1", "g2"])], 1)
        # g3, g4 were freed implicitly; a later creation may take them
        rock(kb, "r3", ["g3", "g4"], 2)
        assert kb.quantities["r3"].granules == frozenset({"g3", "g4"})


class TestConservation:
    def test_partition_of_donor_granules(self):
        for seed in range(40):
            kb = build_random_kb(seed)
            for ev in kb.events:
                if ev.kind != "granuleTransfer":
                    continue
                donor_granules = frozenset().union(
                    *(kb.quantities[d].granules for d in ev.donors)
                )
                assigned: set[str] = set()
                for entry in ev.created:
                    inherited = entry.granules & donor_granules
                    assert not (inherited & assigned), "granule assigned twice"
                    assigned |= inherited
                assert ev.discarded <= donor_granules - assigned
                # donors' granules = assigned + discarded + implicitly freed
                freed = donor_granules - assigned - ev.discarded
                assert assigned | ev.discarded | freed == donor_granules

    def test_granule_sets_never_change(self):
        for seed in range(40):
            kb = build_random_kb(seed)
            for q in kb.quantities.values():
                creating = [e for ev in kb.events for e in ev.created if e.id == q.id]
                assert len(creating) == 1
                assert creating[0].granules == q.granules


class TestLogAndReplay:
    def test_log_order_and_length(self, kb):
        assert event_log(kb) == []
        rock(kb, "r1", ["g1", "g2", "g3", "g4"], 0)
        apply_transfer(kb, ["r1"], [CreatedEntry.of("r2", "Rock", ["g1", "g2"])], 1)
        log = event_log(kb)
        assert [e.id for e in log] == ["create-r1", "e1"]
        assert [e.at for e in log] == [0, 1]

    def test_replay_empty(self):
        fresh = replay(KnowledgeBase())
        assert fresh.events == [] and fresh.quantities == {}

    def test_replay_reproduces_export(self, kb):
        rock(kb, "r1", ["g1", "g2", "g3", "g4"], 0)
        kb.assert_adjacency("g1", "g2", 0)
        kb.assert_adjacency("g2", "g3", 0)
        kb.assert_adjacency("g3", "g4", 0)
        apply_transfer(
            kb,
            ["r1"],
            [CreatedEntry.of("r2", "Rock", ["g1", "g2"]),
             CreatedEntry.of("r3", "Rock", ["g3", "g4"])],
            1,
        )
        kb.retract_adjacency("g2", "g3", 1)
        assert export_document(replay(kb)) == export_document(kb)

    def test_replay_shuffled_timestamps_fails_with_index(self, kb):
        rock(kb, "r1", ["g1", "g2"], 3)
        rock(kb, "r2", ["g3", "g4"], 7)
        kb.events[0], kb.events[1] = kb.events[1], kb.events[0]
        with pytest.raises(ReplayError) as exc_info:
            replay(kb)
        assert exc_info.value.index == 1
        assert isinstance(exc_info.value.cause, NonMonotonicTime)

    def test_replay_names_a_rejected_interval(self, kb):
        kb.assert_adjacency("g1", "g2", 0)
        kb.adjacency.append(AdjacencyInterval("g1", "g2", 1))  # overlaps the first
        with pytest.raises(ReplayError) as exc_info:
            replay(kb)
        error = exc_info.value
        assert (error.index, error.subjects) == (None, ("g1", "g2"))
        assert isinstance(error.cause, OverlappingInterval)
        assert str(error) == str(error.cause)

    def test_replay_names_a_rejected_object(self, kb):
        kb.objects["p1"] = ObjectInst("p1", "Pebble", 0)  # an undeclared kind
        with pytest.raises(ReplayError) as exc_info:
            replay(kb)
        assert (exc_info.value.index, exc_info.value.subjects) == (None, ("p1",))
        assert isinstance(exc_info.value.cause, UnknownKind)

    # One rejected record per replay section, pinned before replay caught errors
    # once per section: the record's index and subjects, the message, the cause.
    REJECTED = {
        "kind": (
            lambda kb: kb.kinds.update(Mud=KindDecl("Mud", QUANTITY_KIND, frozenset({"Pebble"}))),
            None, ("Mud",), "kind 'Mud' requires 'Pebble', which is not a declared object kind",
            UnknownGranuleKind,
        ),
        "object": (
            lambda kb: kb.objects.update(p1=ObjectInst("p1", "Pebble", 0)),
            None, ("p1",), "'Pebble' is not a declared object kind", UnknownKind,
        ),
        "object time": (
            lambda kb: kb.objects.update(p1=ObjectInst("p1", "Grain", -1)),
            None, ("p1",), "time points are non-negative integers, got -1", ValueError,
        ),
        "event": (
            lambda kb: kb.events.append(
                EventRec("again", 9, "creation", frozenset(), (CreatedEntry.of("r9", "Rock", ["g1", "g5"]),),
                         frozenset())
            ),
            2, ("again",), "event #2 failed to replay: object 'g1' is already a granule of live "
            "quantity 'r2' of kind 'Rock'", GranuleNotFree,
        ),
        "malformed event": (
            lambda kb: kb.events.__setitem__(0, discarding(kb.events[0], "g1")),
            0, ("create-r1",), "event #0 failed to replay: malformed creation event 'create-r1'",
            ValueError,
        ),
        "interval assert": (
            lambda kb: kb.adjacency.append(AdjacencyInterval("g1", "g2", 1)),
            None, ("g1", "g2"), "adjacency g1-g2 from t1 would overlap the interval starting at t0",
            OverlappingInterval,
        ),
        "interval retract": (
            lambda kb: kb.adjacency.append(AdjacencyInterval("g5", "g6", 4, 2)),
            None, ("g5", "g6"), "no open adjacency g5-g6 active before t2", UnknownAdjacency,
        ),
        "sub-quantity assertion": (
            lambda kb: kb.subquantities.add(SubQuantityAssertion("r2", "r3")),
            None, ("r2", "r3"), "sub-quantity requires distinct kinds; 'r2' and 'r3' are both 'Rock'",
            SameKindSubQuantity,
        ),
    }

    @pytest.mark.parametrize("section", sorted(REJECTED))
    def test_replay_error_names_the_rejected_record(self, kb, section):
        rock(kb, "r1", ["g1", "g2", "g3", "g4"], 0)
        kb.assert_adjacency("g1", "g2", 0)
        apply_transfer(kb, ["r1"], [CreatedEntry.of("r2", "Rock", ["g1", "g2"]),
                                    CreatedEntry.of("r3", "Rock", ["g3", "g4"])], 1)
        corrupt, index, subjects, message, cause = self.REJECTED[section]
        corrupt(kb)
        with pytest.raises(ReplayError) as exc_info:
            replay(kb)
        error = exc_info.value
        assert (error.index, error.subjects, str(error), type(error.cause)) == (index, subjects, message, cause)
        assert error.__cause__ is error.cause

    def test_replay_fuzzed(self):
        rng = random.Random(99)
        for seed in rng.sample(range(1000), 25):
            kb = build_random_kb(seed)
            assert export_document(replay(kb)) == export_document(kb)


class TestOneWrite:
    """Both engine writes against the separate creation and transfer they replaced."""

    # (write, error class, a phrase of its message): every error either write raises
    ERRORS = [
        *[(op, cls, phrase) for op in ("create", "transfer") for cls, phrase in [
            ("ValueError", "time points are non-negative"),
            ("NonMonotonicTime", "does not follow the last event"),
            ("DuplicateId", "is already in use"),
            ("UnknownKind", "is not a declared quantity kind"),
            ("UnknownObject", "unknown object"),
            ("UnknownObject", "does not exist at"),
            ("TooFewGranules", "needs at least"),
        ]],
        ("create", "GranuleNotFree", "is already a granule of live quantity"),
        ("transfer", "ValueError", "needs at least one donor"),
        ("transfer", "ValueError", "needs at least one created quantity"),
        ("transfer", "UnknownQuantity", "unknown quantity"),
        ("transfer", "DonorNotLive", "is not live immediately before"),
        ("transfer", "DuplicateGranuleAssignment", "created twice in one event"),
        ("transfer", "DuplicateGranuleAssignment", "assigned to both"),
        ("transfer", "DuplicateGranuleAssignment", "both discarded and assigned"),
        ("transfer", "GranuleProvenanceViolation", "inherits no granule from any donor"),
        ("transfer", "GranuleProvenanceViolation", "is not a granule of any donor"),
        ("transfer", "GranuleProvenanceViolation", "is neither donated nor free"),
    ]

    @staticmethod
    def outcome(fn, *args):
        try:
            return ("ok", fn(*args))
        except Exception as exc:  # compared by type and message below
            return ("raised", type(exc).__name__, str(exc))

    @staticmethod
    def random_write(kb, rng, step):
        """One seeded creation or transfer call on ``kb``, valid or not, as (op, args)."""
        last = kb.events[-1].at if kb.events else 0
        at = rng.choice([last + 1] * 12 + [last, -1])
        objects = sorted(kb.objects) + ["ghost"] * (rng.random() < 0.03)
        used = sorted(kb.objects) + sorted(kb.quantities) + [ev.id for ev in kb.events]
        kinds = sorted(k for k, d in kb.kinds.items() if d.meta == QUANTITY_KIND)

        def new_id(k=""):
            return f"n{step}{k}" if rng.random() < 0.9 else rng.choice(used)

        def kind(default):
            return rng.choice(["Grain", "Nope"]) if rng.random() < 0.04 else default

        event_id = rng.choice(used) if rng.random() < 0.08 else rng.choice([None, f"ev{step}"])
        if rng.random() < 0.3:
            granules = rng.sample(objects, min(len(objects), rng.choice([1, 2, 2, 3])))
            entry = CreatedEntry.of(new_id(), kind(rng.choice(kinds)), granules)
            return "create", (entry, at, event_id)
        live = sorted(q.id for q in kb.quantities.values() if q.terminated_at is None)
        donors = rng.sample(live, min(len(live), rng.choice([0] + [1] * 6 + [2] * 3)))
        if rng.random() < 0.06:
            donors.append(rng.choice(sorted(kb.quantities)))  # perhaps terminated
        if rng.random() < 0.03:
            donors.append("ghostq")
        pool = sorted({g for d in donors if d in kb.quantities for g in kb.quantities[d].granules})
        rng.shuffle(pool)
        n_parts = rng.choice([0] + [1] * 5 + [2] * 3 + [3])
        parts = [pool[i::n_parts] for i in range(n_parts)]
        discarded = parts.pop() if len(parts) > 1 and rng.random() < 0.3 else []
        if parts and parts[0] and rng.random() < 0.06:
            discarded = [*discarded, parts[0][0]]
        if rng.random() < 0.05:
            discarded = [*discarded, rng.choice(objects)]
        created = []
        for k, part in enumerate(parts):
            if rng.random() < 0.2:
                part = [*part, rng.choice(objects)]
            if k and parts[0] and rng.random() < 0.1:
                part = [*part, parts[0][0]]
            if rng.random() < 0.05:
                part = rng.sample(objects, 2)
            if rng.random() < 0.04:
                part = part[:1]
            qid = created[-1].id if created and rng.random() < 0.1 else new_id(k)
            default = kb.quantities[donors[0]].kind if donors and donors[0] in kb.quantities else kinds[0]
            created.append(CreatedEntry.of(qid, kind(default if rng.random() < 0.6 else rng.choice(kinds)), part))
        return "transfer", (donors, created, at, discarded, event_id)

    def compare_writes(self, make, rng):
        """Same event record and store, or the same error class and message, write
        by write, over 50 seeded writes to two stores from ``make``; the errors seen."""
        writes = {"create": (apply_creation, reference_apply_creation),
                  "transfer": (apply_transfer, reference_apply_transfer)}
        seen = set()
        kb, ref = make(), make()
        for step in range(50):
            if rng.random() < 0.15:  # new objects, some born after the next write
                for store in (kb, ref):
                    store.create_object(f"o{step}", "Grain", kb.events[-1].at if kb.events else 0)
                    store.create_object(f"late{step}", "Grain", len(kb.events) + 100)
            op, args = self.random_write(kb, rng, step)
            write, reference = writes[op]
            result = self.outcome(write, kb, *args)
            assert result == self.outcome(reference, ref, *args), (step, op, args)
            if result[0] == "raised":
                seen.add((op, result[1], result[2]))
        assert kb.events == ref.events
        assert kb.quantities == ref.quantities
        assert export_document(kb) == export_document(ref)
        return seen

    def test_matches_separate_creation_and_transfer(self):
        seen = set()
        for seed in range(60):
            for make in (lambda: build_random_kb(seed),
                         lambda: import_document(export_document(build_random_kb(seed)))):
                seen |= self.compare_writes(make, random.Random(seed))
        for op, cls, phrase in self.ERRORS:
            assert any(s[:2] == (op, cls) and phrase in s[2] for s in seen), (op, cls, phrase)

    @pytest.mark.parametrize("store", list(SCALE_STORES))
    def test_matches_separate_creation_and_transfer_at_scale(self, store):
        assert self.compare_writes(SCALE_STORES[store], random.Random(store))


def test_an_unknown_event_kind_is_refused_and_changes_nothing(case_kb):
    before = export_document(case_kb)
    event = EventRec("merge1", 3, "merger", frozenset({"rock2"}), (), frozenset())
    with pytest.raises(ValueError, match="^unknown event kind 'merger'$"):
        apply_events(case_kb, [event])
    assert export_document(case_kb) == before
