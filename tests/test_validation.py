"""Axiom checks: per-rule behaviour, seeded faults, and oracle agreement."""

import random
import time

import pytest

from matterkb import export_document, validate_all
from matterkb.validation import (
    RULES,
    check_connectivity,
    check_ggd,
    check_history,
    check_maximality,
    check_subquantity_inclusion,
    check_supplementation,
    check_typing,
)

from helpers import (
    FAULT_FIXTURES,
    build_random_kb,
    messy_world_kb,
    moved_chains_kb,
    oracle_connectivity,
    oracle_maximality,
    reference_connectivity,
    reference_maximality,
    single_quantity_graph_kb,
    two_quantity_graph_kb,
)


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


def test_engine_built_kbs_never_fire_supplementation_or_history():
    for seed in range(150):
        kb = build_random_kb(seed)
        assert check_supplementation(kb) == []
        assert check_history(kb) == []
