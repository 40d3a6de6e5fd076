"""World reads: `world_at`, `adjacency_at` and the `world` query against the
whole-store scans they replaced, and the garbage they leave for the collector."""

import argparse
import gc
import random

from matterkb import export_document, import_document
from matterkb.cli import run_query
from matterkb.model import QUANTITY_KIND, AdjacencyInterval, QuantityInst

from helpers import (
    build_random_kb,
    moved_chains_kb,
    reference_adjacency_at,
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


def assert_world_reads_match(kb):
    points = {p + d for p in kb.change_points() for d in (-1, 0, 1) if p + d >= 0}
    for t in sorted(points):
        assert kb.adjacency_at(t) == reference_adjacency_at(kb, t), t
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


def test_world_reads_set_off_no_full_collection():
    """A canonical world read of 3,200 objects and 800 live quantities keeps
    no tuple per row alive while it renders, so eighty of them leave the
    full-collection count alone. Keeping one tuple per row made 3 full
    collections after the rest of the suite and 8 when run alone."""
    kb = moved_chains_kb(800)
    kb.adjacency_at(0)  # builds the store index, which outlives the reads
    gc.collect()
    before = gc.get_stats()[2]["collections"]
    for t in range(800, 1600, 10):
        world_query(kb, t, "canonical")
    assert gc.get_stats()[2]["collections"] == before
