"""World reads: `world_at`, `adjacency_at`, `live_quantities_at` and the `world`
query against the whole-store scans they replaced, the world columns they share
as the store grows, and the garbage they leave for the collector."""

import argparse
import gc
import random

from matterkb import CreatedEntry, apply_transfer, export_document, import_document
from matterkb.cli import run_query
from matterkb.model import (
    QUANTITY_KIND,
    STATUS_NOT_YET_CREATED,
    AdjacencyInterval,
    QuantityInst,
    WorldColumns,
    WorldView,
)

from helpers import (
    build_random_kb,
    moved_chains_kb,
    reference_adjacency_at,
    reference_live_quantities_at,
    reference_world_at,
    reference_world_query,
)


def world_query(kb, t, fmt):
    args = argparse.Namespace(query="world", args=[f"t{t}"], transitive=False, at=None, format=fmt)
    return run_query(kb, args)


def append_by_hand(kb, rng, label):
    """Fields only an importer or a hand-built store writes, appended out of
    sorted order: two overlapping intervals of one pair (an open one, then a
    closed one), a pair of ids that name no object and sort first, two live
    quantities sharing a granule (the higher id first), and a quantity
    holding a granule id that is not an object."""
    objects = sorted(kb.objects)
    a, b = sorted(rng.sample(objects, 2))
    last = max(kb.change_points())
    kb.adjacency.append(AdjacencyInterval(a, b, 0))
    kb.adjacency.append(AdjacencyInterval(a, b, 1, last + 2))
    kb.adjacency.append(AdjacencyInterval("a0", "a1", 2, 5))
    kind = rng.choice(sorted(k for k, d in kb.kinds.items() if d.meta == QUANTITY_KIND))
    shared = rng.choice(objects)
    for qid, granules in ((f"zz{label}", {shared, a}), (f"hh{label}", {shared, b}),
                          (f"kk{label}", {a, f"ghost{label}"})):
        kb.quantities[qid] = QuantityInst(qid, kind, 1, frozenset(granules), "by-hand")


def assert_world_reads_match(kb, sample=None):
    """Every read at each change point and the ticks either side of it, or at
    ``sample`` seeded change points and their sides."""
    points = kb.change_points()
    if sample is not None:
        points = random.Random(len(points)).sample(points, min(sample, len(points)))
    points = {p + d for p in points for d in (-1, 0, 1) if p + d >= 0}
    for t in sorted(points):
        assert kb.adjacency_at(t) == reference_adjacency_at(kb, t), t
        assert kb.live_quantities_at(t) == reference_live_quantities_at(kb, t), t
        assert kb.world_at(t) == reference_world_at(kb, t), t
        text, payload = reference_world_query(kb, t)
        assert world_query(kb, t, "text") == (text, None), t
        assert world_query(kb, t, "canonical") == (None, payload), t
    return len(points)


def test_world_reads_match_reference_scans():
    """Engine-built, imported, moved-chain and hand-appended stores, at every
    change point and the ticks either side of it. The hand-appended fields come
    after the first comparison, so the reads also catch up on a store tail."""
    worlds = 0
    for seed in range(40):
        rng = random.Random(seed)
        for kb in (
            build_random_kb(seed),
            import_document(export_document(build_random_kb(seed))),
            moved_chains_kb(1 + seed % 8),
        ):
            worlds += assert_world_reads_match(kb)
            append_by_hand(kb, rng, seed)
            worlds += assert_world_reads_match(kb)
    assert worlds > 1900


def test_world_reads_match_reference_scans_at_scale():
    """Random stores of up to 60 events and 150 objects, and 200 moved chains
    at 100 sampled change points."""
    worlds = sum(assert_world_reads_match(build_random_kb(seed, max_events=60, max_objects=150))
                 for seed in range(10))
    worlds += assert_world_reads_match(moved_chains_kb(200), sample=100)
    assert worlds > 500


def columns(kb):
    c = kb.world_columns
    return {"objects": c.objects, "quantities": c.quantities, "rows": c.rows, "pairs": c.pairs}


def replaced(before, after):
    """The column groups of which ``after`` holds other lists than ``before``."""
    return {name for name in after if any(a is not b for a, b in zip(after[name], before[name]))}


def test_world_columns_follow_every_kind_of_write():
    """Reads interleaved with writes: after each write every read equals the
    reference scans; the write replaces just the columns whose source grew,
    with what a build from scratch gives, and reads of the unchanged store
    after it reuse them. Rows taken before a write still give the world
    before it, since columns are replaced, never changed in place."""
    kb = moved_chains_kb(6)
    end = max(kb.change_points()) + 1
    writes = [  # (write, the columns its next read replaces)
        (lambda: kb.retract_adjacency("g0_1", "g0_0", end), set()),  # an end closed in place
        (lambda: apply_transfer(kb, ["m1"], [CreatedEntry.of("n1", "Rock", ["g1_0", "g1_1"])],
                                end + 1), {"quantities", "rows"}),  # m1 terminated in place
        (lambda: kb.create_object("z9", "Grain", end + 3), {"objects"}),
        (lambda: kb.assert_adjacency("g0_0", "g0_1", end + 4), {"pairs"}),  # a second interval
        (lambda: kb.create_object("b0", "Grain", end + 5), {"objects"}),
        (lambda: kb.create_object("b1", "Grain", end + 5), {"objects"}),
        (lambda: kb.assert_adjacency("b1", "b0", end + 6), {"pairs"}),  # sorts first
        (lambda: append_by_hand(kb, random.Random(0), "h"), {"quantities", "rows", "pairs"}),
    ]
    assert_world_reads_match(kb)
    for write, rebuilt in writes:
        before, pending, world_before = columns(kb), kb._world_rows(end + 6), kb.world_at(end + 6)
        write()
        assert_world_reads_match(kb)
        after = columns(kb)
        assert replaced(before, after) == rebuilt
        fresh = WorldColumns()
        assert after == {"objects": fresh.object_columns(kb), "rows": fresh.granule_rows(kb),
                         "quantities": fresh.quantity_columns(kb), "pairs": fresh.pair_columns(kb)}
        assert WorldView(end + 6, *map(tuple, pending)) == world_before
        kb.world_at(end)
        world_query(kb, end, "canonical")
        assert replaced(after, columns(kb)) == set()
    assert kb.world_columns.pairs[0][:2] == [("a0", "a1"), ("b0", "b1")]
    assert ("z9", STATUS_NOT_YET_CREATED) in kb.world_at(end + 2).objects
    assert kb.adjacency_at(end + 3).count(("g0_0", "g0_1")) == 0
    assert kb.adjacency_at(end + 4).count(("g0_0", "g0_1")) == 1


def test_world_reads_set_off_no_full_collection():
    """A canonical world read of 3,200 objects and 800 live quantities keeps
    no tuple per row alive while it renders, so eighty of them leave the
    full-collection count alone. Keeping one tuple per row made 3 full
    collections after the rest of the suite and 8 when run alone."""
    kb = moved_chains_kb(800)
    kb.world_at(0)  # builds the world columns, which outlive the reads
    gc.collect()
    before = gc.get_stats()[2]["collections"]
    for t in range(800, 1600, 10):
        world_query(kb, t, "canonical")
    assert gc.get_stats()[2]["collections"] == before
