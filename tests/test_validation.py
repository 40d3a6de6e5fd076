"""Axiom checks: per-rule behaviour, seeded faults, and oracle agreement."""

import copy
import json
import random
import time
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from matterkb import KindDecl, KnowledgeBase, export_document, import_document, validate_all
from matterkb import validation
from matterkb.canonical import doc_to_kb, kb_to_doc
from matterkb.events import CREATION, GRANULE_TRANSFER
from matterkb.errors import DocumentError
from matterkb.model import (
    OBJECT_KIND, QUANTITY_KIND, AdjacencyInterval, ObjectInst, QuantityInst, StoreIndex, SubQuantityAssertion,
    WorldColumns,
)
from matterkb.validation import (
    RULES,
    check_connectivity,
    check_ggd,
    check_history,
    check_maximality,
    check_subquantity_inclusion,
    check_supplementation,
    check_typing,
    Violation,
)

from helpers import (
    FAULT_FIXTURES,
    build_random_kb,
    messy_world_kb,
    moved_chains_kb,
    oracle_connectivity,
    oracle_maximality,
    reference_check_ggd,
    reference_check_subquantity_inclusion,
    reference_check_supplementation,
    reference_check_typing,
    reference_connectivity,
    reference_maximality,
    single_quantity_graph_kb,
    toggling_chain_kb,
    two_quantity_graph_kb,
)
from test_history import CASE_DOC, LARGE_DOCS, REPLAY_GAPS, history_mutated_documents, replay_gap_kb
from test_import import LARGE_BASES, mutated_documents


def test_case_study_is_clean(case_kb):
    report = validate_all(case_kb)
    assert report.ok
    assert report.worlds_checked == (0, 1, 2)


def test_empty_kb_is_clean():
    from matterkb import KnowledgeBase

    assert validate_all(KnowledgeBase()).ok


def test_rule_registry_is_closed():
    assert len(RULES) == 9
    for rule, make in FAULT_FIXTURES.items():
        assert rule in RULES, rule


@pytest.mark.parametrize("rule", sorted(FAULT_FIXTURES))
def test_seeded_fault_fires_exactly_its_rule(rule):
    kb = FAULT_FIXTURES[rule]()
    report = validate_all(kb)
    fired = {v.rule for v in report.violations}
    assert fired == {rule}, f"{rule}: fired {fired}"


def test_validators_are_pure():
    kb = FAULT_FIXTURES["MAXIMALITY_SAME_KIND"]()
    before = export_document(kb)
    first = validate_all(kb)
    second = validate_all(kb)
    assert first == second
    assert export_document(kb) == before


def test_report_world_summary():
    kb = FAULT_FIXTURES["MAXIMALITY_SAME_KIND"]()
    report = validate_all(kb)
    assert report.worlds_checked == (0, 1)
    assert report.world_summary() == [(0, 0), (1, 1)]
    assert report.by_rule() == {"MAXIMALITY_SAME_KIND": list(report.violations)}


class TestTyping:
    def test_clean_case_study(self, case_kb):
        assert check_typing(case_kb) == []

    def test_quantity_as_granule(self):
        kb = FAULT_FIXTURES["A1_TYPING"]()
        violations = check_typing(kb)
        assert any("qb" in v.subjects for v in violations)
        assert all(v.rule == "A1_TYPING" for v in violations)

    def test_same_kind_subquantity_flagged(self):
        kb = FAULT_FIXTURES["SUBQ_KIND_DISTINCT"]()
        violations = [v for v in check_typing(kb) if v.rule == "SUBQ_KIND_DISTINCT"]
        assert len(violations) == 1
        assert violations[0].subjects == ("qc", "qa")


class TestSupplementation:
    def test_two_granules_at_boundary_ok(self, case_kb):
        assert check_supplementation(case_kb) == []

    def test_single_granule_flagged(self):
        kb = FAULT_FIXTURES["SUPPLEMENTATION_MIN2"]()
        violations = check_supplementation(kb)
        assert [v.subjects for v in violations] == [("qa",)]


class TestSubquantityInclusion:
    def test_subset_holds(self):
        for seed in range(60):
            kb = build_random_kb(seed)
            assert check_subquantity_inclusion(kb) == []

    def test_missing_granule_named_via_set_difference_oracle(self):
        kb = FAULT_FIXTURES["A2_SUBQUANTITY_INCLUSION"]()
        violations = check_subquantity_inclusion(kb)
        part = kb.quantities["alcohol"].granules
        whole = kb.quantities["wine"].granules
        expected_missing = sorted(part - whole)  # oracle: explicit set difference
        assert expected_missing == ["m2"]
        assert [v.subjects[2] for v in violations] == expected_missing
        assert len(violations) == 1

    def test_no_assertions_no_violations(self):
        kb = FAULT_FIXTURES["CONNECTIVITY"]()
        assert check_subquantity_inclusion(kb) == []


class TestGgd:
    def test_requirement_satisfied(self, case_kb):
        assert check_ggd(case_kb) == []

    def test_missing_required_kind(self):
        kb = FAULT_FIXTURES["AA1_GGD"]()
        violations = check_ggd(kb)
        assert [v.subjects for v in violations] == [("sw", "Salt")]

    def test_empty_requirements_always_clean(self):
        kb = FAULT_FIXTURES["CONNECTIVITY"]()  # quantity kind with no requirements
        assert check_ggd(kb) == []


LOG_RULES = [
    (check_typing, reference_check_typing),
    (check_supplementation, reference_check_supplementation),
    (check_subquantity_inclusion, reference_check_subquantity_inclusion),
    (check_ggd, reference_check_ggd),
]


def log_faults_kb(seed):
    """A store filled field by field in shuffled order with every log-rule fault:
    objects and quantities of undeclared kinds or of the other meta-kind, granules
    that are quantities or nothing, requirements of undeclared or quantity kinds,
    intervals with one or both endpoints undeclared, unresolved and same-kind
    sub-quantities, granules missing from a whole, and misses of several required kinds."""
    rng = random.Random(seed)
    kb = KnowledgeBase()
    kinds = [KindDecl(name, OBJECT_KIND) for name in ("O1", "O2", "O3")] + [
        KindDecl(name, QUANTITY_KIND, frozenset(requires)) for name, requires in [
            ("Q1", {"O1", "O2"}), ("Q2", {"O2", "O3", "O1"}), ("Q3", set()), ("Q4", {"Nope", "Q1", "O3"}),
            ("Q0", {"Gravel", "O2"})]]
    for decl in rng.sample(kinds, len(kinds)):
        kb.kinds[decl.name] = decl
    object_ids = [f"o{i}" for i in rng.sample(range(40), 30)]
    for oid in object_ids:
        kind = rng.choice(["O1", "O2", "O3"] * 6 + ["Pebble", "Q1"])
        kb.objects[oid] = ObjectInst(oid, kind, rng.randint(0, 3))
    quantity_ids = [f"q{i}" for i in rng.sample(range(30), 25)]
    for qid in quantity_ids:
        granules = rng.sample(object_ids, rng.choice([0, 1, 2, 2, 3, 4]))
        granules += rng.sample(quantity_ids + ["ghost1", "ghost2"], rng.choice([0, 0, 0, 1, 2]))
        start = rng.randint(0, 4)
        kb.quantities[qid] = QuantityInst(qid, rng.choice(["Q1", "Q2", "Q3", "Q4"] * 4 + ["Nope", "O1"]), start,
                                          frozenset(granules), "e", rng.choice([None, start + rng.randint(1, 3)]))
    ends = object_ids + ["ghost1", "ghost2", "ghost3"]
    for _ in range(40):
        a, b = sorted(rng.sample(ends, 2))
        start = rng.randint(0, 5)
        kb.adjacency.append(AdjacencyInterval(a, b, start, rng.choice([None, start + 1])))
    for _ in range(15):
        part, whole = rng.choice(quantity_ids + ["ghost1"]), rng.choice(quantity_ids + ["ghost2"])
        kb.subquantities.add(SubQuantityAssertion(part, whole))
    return kb


def test_log_rules_match_sorted_loop_references():
    """The same violations in the same order on stores with many, and every fault met."""
    found = []
    for seed in range(60):
        kb = log_faults_kb(seed)
        for rule, reference in LOG_RULES:
            got = rule(kb)
            assert got == reference(kb), (seed, rule.__name__)
            found += got
    messages = [v.message for v in found]
    for needle in ["which is not a declared object kind", "which is not a declared quantity kind",
                   "is a quantity", "is not a declared object", "requires 'Nope'", "requires 'Q1'",
                   "adjacency endpoint", "sub-quantity endpoint", "of the same kind", "is not a granule of whole",
                   "has 0 granule(s)", "has 1 granule(s)", "has no granule of required kind"]:
        assert any(needle in m for m in messages), needle
    # an interval with both endpoints undeclared: the `a` message, then the `b` message
    endpoint = "adjacency endpoint '{}' is not a declared object"
    assert any(v.subjects == w.subjects and (v.message, w.message) == tuple(map(endpoint.format, v.subjects))
               for v, w in zip(found, found[1:]))
    # a quantity that misses several required kinds
    misses = [v.subjects[0] for v in found if v.rule == "AA1_GGD"]
    assert any(misses.count(qid) > 1 for qid in misses)


class TestConnectivity:
    def test_two_granules_one_edge(self):
        kb = single_quantity_graph_kb(2, [("n0", "n1")])
        assert check_connectivity(kb, 0) == []

    def test_isolated_granule_reported(self):
        kb = single_quantity_graph_kb(3, [("n0", "n1")])
        violations = check_connectivity(kb, 0)
        assert [(v.rule, v.subjects) for v in violations] == [
            ("EXTERNAL_CONNECTION", ("n2", "q"))
        ]

    def test_split_clusters_reported(self):
        kb = single_quantity_graph_kb(4, [("n0", "n1"), ("n2", "n3")])
        violations = check_connectivity(kb, 0)
        assert [(v.rule, v.subjects) for v in violations] == [("CONNECTIVITY", ("q",))]

    def test_agrees_with_bfs_oracle_on_random_graphs(self):
        rng = random.Random(7)
        for _ in range(120):
            n = rng.randint(2, 12)
            nodes = [f"n{i}" for i in range(n)]
            pairs = [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1:]]
            edges = [p for p in pairs if rng.random() < 0.25]
            kb = single_quantity_graph_kb(n, edges)
            violations = check_connectivity(kb, 0)
            got_isolated = {v.subjects[0] for v in violations if v.rule == "EXTERNAL_CONNECTION"}
            got_split = any(v.rule == "CONNECTIVITY" for v in violations)
            want_isolated, want_split = oracle_connectivity(set(nodes), edges)
            assert got_isolated == want_isolated
            assert got_split == want_split


class TestMaximality:
    def test_adjacent_same_kind_flagged(self):
        kb = FAULT_FIXTURES["MAXIMALITY_SAME_KIND"]()
        violations = check_maximality(kb, 1)
        assert [v.subjects for v in violations] == [("q1", "q2")]
        assert check_maximality(kb, 0) == []

    def test_shared_granule_flagged(self):
        kb = two_quantity_graph_kb(["a", "b"], ["b", "c"], [("a", "b"), ("b", "c")])
        violations = check_maximality(kb, 0)
        assert len(violations) == 1 and "share granule" in violations[0].message

    def test_different_kinds_ignored(self):
        kb = two_quantity_graph_kb(["a", "b"], ["c", "d"], [("a", "b"), ("b", "c"), ("c", "d")],
                                   same_kind=False)
        assert check_maximality(kb, 0) == []

    def test_disjoint_same_kind_clean(self):
        kb = two_quantity_graph_kb(["a", "b"], ["c", "d"], [("a", "b"), ("c", "d")])
        assert check_maximality(kb, 0) == []

    def test_agrees_with_merged_graph_oracle(self):
        rng = random.Random(11)
        for _ in range(120):
            n1, n2 = rng.randint(2, 6), rng.randint(2, 6)
            g1 = [f"x{i}" for i in range(n1)]
            g2 = [f"y{i}" for i in range(n2)]
            nodes = g1 + g2
            pairs = [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1:]]
            edges = [p for p in pairs if rng.random() < 0.2]
            kb = two_quantity_graph_kb(g1, g2, edges)
            got = bool(check_maximality(kb, 0))
            want = oracle_maximality("qx", set(g1), "qy", set(g2), edges)
            assert got == want


def test_world_rules_match_brute_force_references_exactly():
    """Every Violation field, at every change point of messy stores."""
    seen = set()
    for seed in range(200):
        kb = messy_world_kb(seed)
        for t in kb.change_points():
            maximality = check_maximality(kb, t)
            connectivity = check_connectivity(kb, t)
            assert maximality == reference_maximality(kb, t), (seed, t)
            assert connectivity == reference_connectivity(kb, t), (seed, t)
            seen.update(v.rule for v in connectivity)
            seen.update("share" if "share" in v.message else "touch" for v in maximality)
    assert seen == {"CONNECTIVITY", "EXTERNAL_CONNECTION", "share", "touch"}


def test_full_validate_scales_past_pairwise_cost():
    """200 moved chains, 400 worlds: the pairwise rules took about six minutes."""
    kb = moved_chains_kb(200)
    start = time.perf_counter()
    report = validate_all(kb)
    elapsed = time.perf_counter() - start
    assert report.ok
    assert len(report.worlds_checked) == 400
    assert elapsed < 10.0


WORLD_RULES = {"CONNECTIVITY", "EXTERNAL_CONNECTION", "MAXIMALITY_SAME_KIND"}


def _hand_store(quantities, intervals):
    """Same-kind quantities ``(id, granules, created_at, terminated_at)`` over
    grains a-f and intervals ``(a, b, start, end)``, written field by field."""
    kb = KnowledgeBase()
    kb.kinds["Grain"] = KindDecl("Grain", OBJECT_KIND)
    kb.kinds["Rock"] = KindDecl("Rock", QUANTITY_KIND)
    for oid in "abcdef":
        kb.objects[oid] = ObjectInst(oid, "Grain", 0)
    for qid, granules, start, end in quantities:
        kb.quantities[qid] = QuantityInst(qid, "Rock", start, frozenset(granules), f"e-{qid}", end)
    for a, b, start, end in intervals:
        kb.adjacency.append(AdjacencyInterval(a, b, start, end))
    return kb


# Deltas the sweep must get right, each next to a same-kind neighbour it can
# wrongly touch and with change points after it, so a stale state shows. The
# (a, f) edge only adds those later points, with a gap before them.
DELTA_CASES = {
    # (b, c) and (c, d) each hold two overlapping intervals, both active at
    # the first point; one closes while the other stays open.
    "overlap_one_closes": _hand_store(
        [("p", "abc", 0, None), ("r", "de", 0, None)],
        [("a", "b", 0, None), ("b", "c", 0, 4), ("b", "c", 0, None), ("d", "e", 0, None),
         ("c", "d", 0, 5), ("c", "d", 0, None), ("a", "f", 8, 10)],
    ),
    # (a, b) and (c, d) close and reopen at t3; from t2 to t4, (b, d) is the
    # least of the two edges through which p and r touch.
    "close_and_reopen": _hand_store(
        [("p", "abc", 0, None), ("r", "de", 0, None)],
        [("a", "b", 0, 3), ("a", "b", 3, None), ("b", "c", 0, None), ("d", "e", 0, None),
         ("c", "d", 1, 3), ("c", "d", 3, 6), ("b", "d", 2, 4), ("a", "f", 8, 10)],
    ),
    # z would share b with p and touch r through (c, d), but it dies as it is
    # created, so it is never live.
    "never_live": _hand_store(
        [("p", "ab", 0, None), ("r", "de", 0, None), ("z", "bc", 2, 2)],
        [("a", "b", 0, None), ("d", "e", 0, None), ("c", "d", 1, None), ("a", "f", 4, 6)],
    ),
    # (c, d) is stored twice: both copies open at t1 and close at t4, so the
    # pair goes off there, and only one world sees p and r touch.
    "stored_twice": _hand_store(
        [("p", "abc", 0, None), ("r", "de", 0, None)],
        [("a", "b", 0, None), ("b", "c", 0, None), ("d", "e", 0, None),
         ("c", "d", 1, 4), ("c", "d", 1, 4), ("a", "f", 8, 10)],
    ),
    # Three nested intervals of (c, d): its count of open intervals goes
    # 1, 2, 3, 2, 1 and 0 at t1, t2, t3, t5, t7 and t9.
    "nested": _hand_store(
        [("p", "abc", 0, None), ("r", "de", 0, None)],
        [("a", "b", 0, None), ("b", "c", 0, None), ("d", "e", 0, None),
         ("c", "d", 1, 9), ("c", "d", 2, 7), ("c", "d", 3, 5), ("a", "f", 11, 13)],
    ),
    # (c, d) ends before it starts once and as it starts once, so it is never
    # active; p and r touch only through (b, d), at t5.
    "backward_and_empty": _hand_store(
        [("p", "abc", 0, None), ("r", "de", 0, None)],
        [("a", "b", 0, None), ("b", "c", 0, None), ("d", "e", 0, None),
         ("c", "d", 4, 2), ("c", "d", 3, 3), ("b", "d", 5, 6), ("a", "f", 8, 10)],
    ),
}


def _rewired(text, seed):
    """The document ``text`` read back with a seeded sixth of its intervals
    dropped and as many added between random objects, each open for one to
    three ticks once both exist, so the world rules fire at many points."""
    rng = random.Random(seed)
    doc = json.loads(text)
    adjacency, objects = doc["adjacency"], doc["objects"]
    n = len(adjacency) // 6
    for i in sorted(rng.sample(range(len(adjacency)), n), reverse=True):
        del adjacency[i]
    for _ in range(n):
        x, y = sorted(rng.sample(objects, 2), key=lambda o: o["id"])
        start = max(x["created_at"], y["created_at"]) + rng.randint(0, 3)
        adjacency.append({"a": x["id"], "b": y["id"], "from": start, "to": start + rng.randint(1, 3)})
    return doc_to_kb(doc)


def _sweep_corpus(case_kb):
    """(label, store) for the differential tests: messy, engine-built and
    hand-written stores, the fault fixtures, the case study, and stores of
    100-200 events, imported and rewired."""
    for seed in range(200):
        yield f"messy {seed}", messy_world_kb(seed)
    for seed in range(20):
        yield f"messy large {seed}", messy_world_kb(1000 + seed, n_quantities=150, n_objects=200)
    for seed in range(100):
        yield f"random {seed}", build_random_kb(seed)
    yield "moved chains 50", moved_chains_kb(50)
    for rule, make in sorted(FAULT_FIXTURES.items()):
        yield f"fixture {rule}", make()
    yield "case study", case_kb
    yield "toggling chain 200", toggling_chain_kb(200)
    yield from DELTA_CASES.items()
    for label, kb in (("moved chains 100", moved_chains_kb(100)),
                      ("random 10", build_random_kb(10, max_events=150, max_objects=120))):
        text = export_document(kb)
        yield f"{label} imported", import_document(text)
        for seed in range(2):
            yield f"{label} rewired {seed}", _rewired(text, seed)


def _world_violations(report):
    return [v for v in report.violations if v.rule in WORLD_RULES]


def test_sweep_matches_per_world_references(case_kb):
    """The world rules of a full validate, at repr level, against a brute-force
    recompute of every change point that reads no state the sweep keeps."""
    seen = set()
    for label, kb in _sweep_corpus(case_kb):
        points = kb.change_points()
        expected = sorted(
            (v for t in points for v in reference_connectivity(kb, t) + reference_maximality(kb, t)),
            key=lambda v: (v.rule, v.subjects, v.at),
        )
        report = validate_all(kb)
        assert report.worlds_checked == tuple(points), label
        assert [repr(v) for v in _world_violations(report)] == [repr(v) for v in expected], label
        seen.update((v.rule, "share" in v.message) for v in expected)
    assert seen == {("CONNECTIVITY", False), ("EXTERNAL_CONNECTION", False),
                    ("MAXIMALITY_SAME_KIND", True), ("MAXIMALITY_SAME_KIND", False)}


def test_delta_cases_report_what_the_references_do():
    """The hand-written deltas, spelled out: the surviving interval keeps its
    pair active, the reopened edges keep p and r touching, z never lives, a
    pair stays active while any of its intervals is open, and an interval that
    ends by its start never opens."""
    overlap = _world_violations(validate_all(DELTA_CASES["overlap_one_closes"]))
    assert [(v.subjects, v.at) for v in overlap] == [(("p", "r"), t) for t in (0, 4, 5, 8, 10)]
    reopen = _world_violations(validate_all(DELTA_CASES["close_and_reopen"]))
    assert [v.message.split("(")[1].split(")")[0] for v in reopen] == ["c-d", "b-d", "b-d", "c-d"]
    assert [v.at for v in reopen] == [1, 2, 3, 4]
    assert _world_violations(validate_all(DELTA_CASES["never_live"])) == []
    for label, points in (("stored_twice", [1]), ("nested", [1, 2, 3, 5, 7])):
        touching = _world_violations(validate_all(DELTA_CASES[label]))
        assert [(v.subjects, v.at) for v in touching] == [(("p", "r"), t) for t in points], label
        assert all("(c-d)" in v.message for v in touching), label
    backward = _world_violations(validate_all(DELTA_CASES["backward_and_empty"]))
    assert [(v.subjects, v.at) for v in backward] == [(("p", "r"), 5)]
    assert "(b-d)" in backward[0].message


_TIME_FIELDS = {"created_at", "terminated_at", "from", "to", "at"}


def _moved(value, prefix, shift, key=None):
    """A document part with each time mapped by ``shift`` and each id and kind name prefixed."""
    if isinstance(value, dict):
        return {k: _moved(v, prefix, shift, k) for k, v in value.items()}
    if isinstance(value, list):
        return [_moved(v, prefix, shift, key) for v in value]
    if key in _TIME_FIELDS:
        return shift(value)
    if key == "meta" or key == "kind" and value in (CREATION, GRANULE_TRANSFER):
        return value
    return prefix + value


def _planted(host, fixture):
    """``host`` read back with ``fixture`` planted in it, its ids prefixed with
    ``f_``: the host's times doubled, and the fixture's doubled and moved to odd
    ticks from the host's middle event on, so that no two events share a tick."""
    host, fixture = kb_to_doc(host), kb_to_doc(fixture)
    middle = host["events"][len(host["events"]) // 2]["at"]
    doc = _moved(host, "", lambda t: 2 * t)
    for section, records in _moved(fixture, "f_", lambda t: 2 * (t + middle) + 1).items():
        doc[section] += records
    doc["events"].sort(key=lambda e: e["at"])
    return doc_to_kb(doc)


@pytest.mark.parametrize("rule", sorted(FAULT_FIXTURES))
def test_fault_planted_in_a_large_document_reports_only_itself(rule):
    """Each fixture planted into 100 moved chains and into a random store of 121
    events reports its own (rule, subjects), ids prefixed, and nothing else; each
    world-rule violation is one the per-world references report at its point."""
    own = {(v.rule, tuple(f"f_{s}" for s in v.subjects)) for v in validate_all(FAULT_FIXTURES[rule]()).violations}
    assert rule in {r for r, _ in own}
    for host in (moved_chains_kb(100), build_random_kb(10, max_events=150, max_objects=120)):
        assert validate_all(host).ok
        kb = _planted(host, FAULT_FIXTURES[rule]())
        assert len({ev.at for ev in kb.events}) == len(kb.events) >= 120
        report = validate_all(kb)
        assert {(v.rule, v.subjects) for v in report.violations} == own
        references = {}
        for v in _world_violations(report):
            if v.at not in references:
                references[v.at] = {repr(w) for w in reference_connectivity(kb, v.at) + reference_maximality(kb, v.at)}
            assert repr(v) in references[v.at]


def test_full_sweep_agrees_with_one_point_validate(case_kb):
    """At each change point, a full validate reports what ``validate --at``
    reports there; between two points and past the last, ``--at`` repeats the
    earlier point's world with the new time."""
    stores = [(f"messy {seed}", messy_world_kb(seed)) for seed in range(50)]
    stores += [(f"random {seed}", build_random_kb(seed)) for seed in range(30)]
    stores += [("moved chains 30", moved_chains_kb(30)), ("case study", case_kb)]
    stores += [("toggling chain 200", toggling_chain_kb(200))]
    stores += [(f"fixture {rule}", make()) for rule, make in sorted(FAULT_FIXTURES.items())]
    stores += list(DELTA_CASES.items())

    def world_at(report, t):
        return [v for v in report.violations if v.at == t]

    for label, kb in stores:
        full = validate_all(kb)
        points = kb.change_points()
        for t in points:
            assert world_at(full, t) == world_at(validate_all(kb, at=t), t), (label, t)
        gaps = [(p, q) for p, q in zip(points, points[1:]) if q - p > 1]
        probes = [(gaps[0][0], gaps[0][0] + 1)] if gaps else []
        probes.append((points[-1], points[-1] + 1))
        for before, t in probes:
            moved = [
                Violation(v.rule, v.subjects, t, v.message.replace(f" at t{before}", f" at t{t}"))
                for v in world_at(full, before)
            ]
            assert world_at(validate_all(kb, at=t), t) == moved, (label, t)


def test_validate_reads_no_world_columns():
    """Every world is reached by deltas from the empty world, and the sweep reads
    the store's own lists, so validating an imported document, in full or at one
    point, builds no derived index of it: no world columns, no store index and
    no provenance index."""
    text = export_document(build_random_kb(1, max_events=60, max_objects=150))
    points = import_document(text).change_points()
    for at in (None, points[0], points[len(points) // 2], points[-1], points[-1] + 1):
        kb = import_document(text)
        validate_all(kb, at)
        assert kb.world_columns == WorldColumns(), at
        assert kb.store_index == StoreIndex(), at
        assert kb.provenance_index is None, at


def test_full_validate_of_3200_worlds_is_clean_and_fast():
    """1600 moved chains, 3,200 worlds: about 23 s with a full rebuild per world."""
    kb = moved_chains_kb(1600)
    start = time.perf_counter()
    report = validate_all(kb)
    elapsed = time.perf_counter() - start
    assert report.ok
    assert len(report.worlds_checked) == 3200
    assert elapsed < 5.0


def _births_and_inner_ticks(kb):
    """The quantities the sweep lets in, and ``(q, tick, opens)`` for each end of
    an interval of an edge among a quantity's granules strictly inside its life."""
    intervals = {}
    for iv in kb.adjacency:
        intervals.setdefault((iv.a, iv.b), []).append(iv)
    births, ticks = [], []
    for q in kb.quantities.values():
        end = q.terminated_at
        if end is not None and end <= q.created_at:
            continue
        births.append(q)
        for a in q.granules:
            for b in q.granules:
                for iv in intervals.get((a, b), ()):
                    ticks += [(q, tick, opens) for tick, opens in ((iv.start, True), (iv.end, False))
                              if tick is not None and q.created_at < tick and (end is None or tick < end)]
    return births, ticks


def _count_calls(monkeypatch, kb):
    """A full validate of ``kb`` and the number of times it counted clusters."""
    calls = []
    counted = validation.count_clusters

    def counting(edges):
        calls.append(1)
        return counted(edges)

    monkeypatch.setattr(validation, "count_clusters", counting)
    return validate_all(kb), len(calls)


def test_sweep_reruns_connectivity_only_for_births_and_inner_toggles(monkeypatch):
    """A quantity's clusters are counted again when it is born or an edge among
    its granules opens or closes, not once per live quantity per world."""
    kb = moved_chains_kb(400)
    births, ticks = _births_and_inner_ticks(kb)
    report, calls = _count_calls(monkeypatch, kb)
    assert report.ok
    assert len(births) == 800
    assert 0 < calls <= len(births) + len(ticks)


def test_sweep_recounts_at_an_opening_only_while_broken(monkeypatch):
    """An edge that opens among the granules of a connected quantity keeps it
    connected, so on a toggle-heavy chain the clusters are counted at births,
    at closings, and at openings where the reference reports the quantity
    broken in the world before; the chords that open on the intact chain do
    not count."""
    kb = toggling_chain_kb(200)
    points = kb.change_points()
    before = dict(zip(points[1:], points))
    broken = {(v.subjects[-1], t) for t in points for v in reference_connectivity(kb, t)}
    births, ticks = _births_and_inner_ticks(kb)
    recounts = sum(1 for q, tick, opens in ticks if not opens or (q.id, before[tick]) in broken)
    report, calls = _count_calls(monkeypatch, kb)
    assert not report.ok
    assert 0 < calls <= len(births) + recounts < len(births) + len(ticks)


class TestHistory:
    def test_engine_built_always_clean(self):
        for seed in range(60):
            assert check_history(build_random_kb(seed)) == []

    def test_termination_without_event(self):
        kb = FAULT_FIXTURES["H1_HISTORY"]()
        violations = check_history(kb)
        assert violations and all(v.subjects == ("qa",) for v in violations)

    def test_granule_set_disagreement_found_by_log_recompute(self):
        from matterkb import kb_to_doc
        from matterkb.canonical import doc_to_kb
        from helpers import _two_rock_base

        kb = _two_rock_base()
        doc = kb_to_doc(kb)
        quantity = next(q for q in doc["quantities"] if q["id"] == "qa")
        quantity["granules"] = ["g1", "g3"]  # store drifts from the log
        forged = doc_to_kb(doc)
        # oracle: recompute the expected set from the creation event
        event = next(e for e in forged.events if e.id == "create-qa")
        assert event.created[0].granules != forged.quantities["qa"].granules
        violations = check_history(forged)
        assert any("granule set" in v.message for v in violations)

    def test_rebuilt_quantity_missing_from_the_store(self):
        doc = copy.deepcopy(CASE_DOC)
        doc["quantities"] = [q for q in doc["quantities"] if q["id"] != "rock5"]
        kb = doc_to_kb(doc)
        expected = [Violation("H1_HISTORY", ("rock5",), None,
                              "event 'transfer2' creates quantity 'rock5', which is not in the store")]
        assert check_history(kb) == expected
        assert [v for v in validate_all(kb).violations if v.rule not in WORLD_RULES] == expected


def test_engine_built_kbs_never_fire_supplementation_or_history():
    # also typing and inclusion: a clean replay rules them out, as it does supplementation
    for seed in range(150):
        kb = build_random_kb(seed)
        assert check_supplementation(kb) == []
        assert check_history(kb) == []
        assert check_typing(kb) == []
        assert check_subquantity_inclusion(kb) == []


# -- the history rule first, the other log rules only to explain a failed replay -------

LOG_FAULT_RULES = {"A1_TYPING", "A2_SUBQUANTITY_INCLUSION", "H1_HISTORY", "SUBQ_KIND_DISTINCT", "SUPPLEMENTATION_MIN2"}


def gated_log_violations(kb):
    """The violations outside the world rules, composed as ``validate_all`` once
    did: the history rule only when typing, supplementation and inclusion are clean."""
    violations = check_typing(kb) + check_supplementation(kb) + check_subquantity_inclusion(kb)
    if not violations:
        violations += check_history(kb)
    violations += check_ggd(kb)
    return sorted(violations, key=lambda v: (v.rule, v.subjects))


def assert_history_first_matches_the_gate(kb):
    report = validate_all(kb)
    assert [v for v in report.violations if v.rule not in WORLD_RULES] == gated_log_violations(kb)
    if check_history(kb) == []:
        assert check_typing(kb) == check_supplementation(kb) == check_subquantity_inclusion(kb) == []


def test_history_first_matches_the_gate_on_log_fault_stores():
    for seed in range(300):
        assert_history_first_matches_the_gate(log_faults_kb(seed))


@settings(derandomize=True, max_examples=600, deadline=None)
@given(st.one_of(history_mutated_documents(), history_mutated_documents(LARGE_DOCS),
                 mutated_documents(), mutated_documents(LARGE_BASES)))
def test_history_first_matches_the_gate_on_mutated_documents(doc):
    """A clean replay leaves the other three log rules nothing to report, so
    running them only after a failed one changes no report."""
    try:
        kb = doc_to_kb(doc)
    except DocumentError:
        return
    assert_history_first_matches_the_gate(kb)


@pytest.fixture()
def log_rule_calls(monkeypatch):
    """How often ``validate_all`` calls each of the three rules that explain a failed replay."""
    calls = Counter()
    for name in ("check_typing", "check_supplementation", "check_subquantity_inclusion"):
        def counted(kb, rule=getattr(validation, name), name=name):
            calls[name] += 1
            return rule(kb)
        monkeypatch.setattr(validation, name, counted)
    return calls


def test_a_clean_replay_runs_no_other_log_rule(case_kb, log_rule_calls):
    for kb in (case_kb, moved_chains_kb(50)):
        assert validate_all(kb).ok
    assert log_rule_calls == {}


def test_a_failed_replay_runs_each_other_log_rule_once(log_rule_calls):
    stores = [replay_gap_kb(mutate) for mutate, _, _ in REPLAY_GAPS]
    stores += [make() for rule, make in sorted(FAULT_FIXTURES.items()) if rule in LOG_FAULT_RULES]
    for kb in stores:
        log_rule_calls.clear()
        assert not validate_all(kb).ok
        assert log_rule_calls == {"check_typing": 1, "check_supplementation": 1, "check_subquantity_inclusion": 1}
    log_rule_calls.clear()
    for rule, make in sorted(FAULT_FIXTURES.items()):
        if rule not in LOG_FAULT_RULES:
            validate_all(make())
    assert log_rule_calls == {}
