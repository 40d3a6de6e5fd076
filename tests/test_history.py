"""The history rule replays the event log: `validate` OK implies `replay-check` OK."""

import contextlib
import copy
import io
import json
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from matterkb import canonical, case_study_path, export_document, kb_to_doc, load, parse, replay, validate_all
from matterkb.canonical import doc_to_kb
from matterkb.cli import main, render_report
from matterkb.errors import DocumentError, ReplayError
from matterkb.model import AdjacencyInterval, ObjectInst

from helpers import (
    EVENT_FAULTS, SCALE_STORES, build_random_kb, event_fault_kb, moved_chains_kb, placed_event_faults, random_write,
    reference_replay, reference_replay_check, report_records,
)
from test_import import mutated_documents

WORLD_RULES = {"CONNECTIVITY", "EXTERNAL_CONNECTION", "MAXIMALITY_SAME_KIND"}


CASE_DOC = kb_to_doc(load(parse(case_study_path().read_text(encoding="utf-8")).scenario))


def _free_grains(doc):
    """Declare grain7 and grain8, which no quantity holds."""
    for oid in ("grain7", "grain8"):
        doc["objects"].append({"id": oid, "kind": "SedimentaryGrain", "created_at": 0})
    doc["adjacency"].append({"a": "grain7", "b": "grain8", "from": 0})


def _event(doc, ev_id):
    return next(e for e in doc["events"] if e["id"] == ev_id)


def second_open_interval(doc):
    doc["adjacency"].append({"a": "grain1", "b": "grain2", "from": 1})


def discard_free_grain(doc):
    _free_grains(doc)
    _event(doc, "transfer1")["discarded"] = ["grain7"]


def creation_discards(doc):
    _event(doc, "create-rock1")["discarded"] = ["grain1"]


def grain_created_late(doc):
    doc["objects"][0]["created_at"] = 1  # grain1, a granule of rock1 from t0


def unrelated_creation_in_transfer(doc):
    _free_grains(doc)
    _event(doc, "transfer2")["created"].append(
        {"id": "rock6", "kind": "PortionOfRock", "granules": ["grain7", "grain8"]}
    )
    doc["quantities"].append({"id": "rock6", "kind": "PortionOfRock", "created_at": 2,
                              "granules": ["grain7", "grain8"], "creation_event": "transfer2"})


def subquantity_without_overlap(doc):
    _free_grains(doc)
    doc["kinds"].append({"name": "PortionOfSilt", "meta": "quantityKind", "requires": []})
    doc["events"].append({"id": "create-silt1", "at": 3, "kind": "creation", "donors": [],
                          "created": [{"id": "silt1", "kind": "PortionOfSilt",
                                       "granules": ["grain7", "grain8"]}],
                          "discarded": []})
    doc["quantities"].append({"id": "silt1", "kind": "PortionOfSilt", "created_at": 3,
                              "granules": ["grain7", "grain8"], "creation_event": "create-silt1"})
    doc["subquantities"].append({"part": "silt1", "whole": "rock1"})  # rock1 ends at t1


# Each used to validate clean and then fail replay-check. Subjects name the
# rejected record: an event, an interval's endpoints or an assertion's part and whole.
REPLAY_GAPS = [
    (second_open_interval, ("grain1", "grain2"), "would overlap"),
    (discard_free_grain, ("transfer1",), "not a granule of any donor"),
    (creation_discards, ("create-rock1",), "malformed creation event"),
    (grain_created_late, ("create-rock1",), "does not exist at t0"),
    (unrelated_creation_in_transfer, ("transfer2",), "inherits no granule"),
    (subquantity_without_overlap, ("silt1", "rock1"), "do not overlap"),
]


def replay_gap_kb(mutate):
    doc = copy.deepcopy(CASE_DOC)
    mutate(doc)
    return doc_to_kb(doc)


@pytest.mark.parametrize("mutate, subjects, reason", REPLAY_GAPS, ids=[m[0].__name__ for m in REPLAY_GAPS])
def test_documents_that_fail_replay_report_history(mutate, subjects, reason, tmp_path, capsys):
    kb = replay_gap_kb(mutate)
    (violation,) = validate_all(kb).violations
    assert (violation.rule, violation.subjects) == ("H1_HISTORY", subjects)
    assert reason in violation.message
    path = tmp_path / "doc.mpkb"
    path.write_text(export_document(kb), encoding="utf-8")
    assert main(["validate", str(path)]) == 1
    assert main(["replay-check", str(path)]) == 1
    assert "H1_HISTORY (1)" in capsys.readouterr().out


# -- seeded mutations of canonical documents ---------------------------------------


def _times(doc):
    return st.integers(0, 2 + max([0] + [e["at"] for e in doc["events"]]))


def add_interval(doc, draw):
    pairs = sorted({(iv["a"], iv["b"]) for iv in doc["adjacency"]})
    if pairs:
        a, b = draw(st.sampled_from(pairs))
        doc["adjacency"].append({"a": a, "b": b, "from": draw(_times(doc))})


def add_discard(doc, draw):
    transfers = [e for e in doc["events"] if e["kind"] == "granuleTransfer"]
    if transfers:
        event = draw(st.sampled_from(transfers))
        extra = draw(st.sampled_from([o["id"] for o in doc["objects"]]))
        event["discarded"] = sorted(set(event["discarded"]) | {extra})


def move_created_at(doc, draw):
    if doc["objects"]:
        draw(st.sampled_from(doc["objects"]))["created_at"] = draw(_times(doc))


def add_created(doc, draw):
    transfers = [e for e in doc["events"] if e["kind"] == "granuleTransfer"]
    if not transfers:
        return
    event = draw(st.sampled_from(transfers))
    qid = f"new{len(doc['quantities'])}"
    kind = draw(st.sampled_from([k["name"] for k in doc["kinds"] if k["meta"] == "quantityKind"]))
    granules = sorted(draw(st.sets(st.sampled_from([o["id"] for o in doc["objects"]]), min_size=2, max_size=3)))
    event["created"].append({"id": qid, "kind": kind, "granules": granules})
    if draw(st.booleans()):
        doc["quantities"].append({"id": qid, "kind": kind, "created_at": event["at"],
                                  "granules": granules, "creation_event": event["id"]})


def add_subquantity(doc, draw):
    if doc["quantities"]:
        ids = st.sampled_from([q["id"] for q in doc["quantities"]])
        doc["subquantities"].append({"part": draw(ids), "whole": draw(ids)})


def change_termination(doc, draw):
    if doc["quantities"]:
        quantity = draw(st.sampled_from(doc["quantities"]))
        at = draw(st.none() | _times(doc))
        if at is None:
            quantity.pop("terminated_at", None)
        else:
            quantity["terminated_at"] = at


def close_interval(doc, draw):
    open_intervals = [iv for iv in doc["adjacency"] if "to" not in iv]
    if open_intervals:
        iv = draw(st.sampled_from(open_intervals))
        iv["to"] = iv["from"] + draw(st.integers(1, 3))


MUTATIONS = (add_interval, add_discard, move_created_at, add_created, add_subquantity,
             change_termination, close_interval)


BASE_DOCS = [CASE_DOC] + [kb_to_doc(build_random_kb(seed)) for seed in range(30)]
# 200 events of moved chains, and five random stores of up to 60 steps over up to 150 objects
LARGE_DOCS = [kb_to_doc(moved_chains_kb(100))] + [
    kb_to_doc(build_random_kb(seed, max_events=60, max_objects=150)) for seed in range(5)]


@st.composite
def history_mutated_documents(draw, bases=BASE_DOCS):
    doc = copy.deepcopy(draw(st.sampled_from(bases)))
    for mutate in draw(st.lists(st.sampled_from(MUTATIONS), min_size=1, max_size=3)):
        mutate(doc, draw)
    return doc


@settings(derandomize=True, max_examples=1000, deadline=None)
@given(history_mutated_documents())
def test_validate_ok_implies_replay_reproduces_the_store(doc):
    kb = doc_to_kb(doc)
    if validate_all(kb).ok:
        assert export_document(replay(kb)) == export_document(kb)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(history_mutated_documents(LARGE_DOCS))
def test_history_mutations_of_large_documents(doc):
    """As above on large documents; the canonical report is ``json.dumps`` of its records."""
    kb = doc_to_kb(doc)
    report = validate_all(kb)
    if report.ok:
        assert export_document(replay(kb)) == export_document(kb)
    assert render_report(report, "canonical") == json.dumps(report_records(report.violations), indent=2) + "\n"


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 8))
def test_engine_writes_break_no_rule_over_the_log(seed, n_writes):
    """Random engine writes do not keep adjacency tidy, so only world rules may fire."""
    kb = build_random_kb(seed)
    rng = random.Random(seed)
    for step in range(n_writes):
        random_write(kb, rng, f"w{step}")
    fired = {v.rule for v in validate_all(kb).violations}
    assert fired <= WORLD_RULES


# -- batch replay against the record-by-record replay it replaced ----------------------


def replay_outcome(rebuild, kb):
    """The rebuilt store, or the rejected record's index and subjects and the cause's type and text."""
    try:
        return ("ok", rebuild(kb))
    except ReplayError as exc:
        return ("raised", exc.index, exc.subjects, type(exc.cause), str(exc.cause))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.one_of(history_mutated_documents(), history_mutated_documents(LARGE_DOCS)))
def test_replay_matches_record_by_record_replay(doc):
    kb = doc_to_kb(doc)
    assert replay_outcome(replay, kb) == replay_outcome(reference_replay, kb)


def _object_fault(fault):
    def corrupt(kb, oid):
        obj = kb.objects[oid]
        kb.objects[oid] = obj._replace(kind="Pebble") if fault == "kind" else obj._replace(created_at=-1)
    return corrupt


def _interval_fault(fault):
    def corrupt(kb, iv):
        if fault == "time":
            iv.start = -1
        elif fault == "self":
            iv.b = iv.a
        elif fault == "unknown":
            iv.b = "zz-ghost"
        elif fault == "not yet created":
            kb.objects["zz-late"] = ObjectInst("zz-late", kb.objects[iv.a].kind, iv.start + 1)
            iv.b = "zz-late"
        elif fault == "overlap":  # a twin, which sorts right after it and overlaps it
            kb.adjacency.append(AdjacencyInterval(iv.a, iv.b, iv.start, iv.end))
        else:  # the end not after the start
            iv.end = iv.start
    return corrupt


# The replay-reachable faults: an object section has no repeated id (the store keys
# objects by id), and its intervals meet no stored one; the kernel tests pin those.
@pytest.mark.parametrize("place", ["first", "middle", "last"])
@pytest.mark.parametrize("section, fault", [("objects", "time"), ("objects", "kind")] + [
    ("adjacency", f) for f in ("time", "self", "unknown", "not yet created", "overlap", "end")])
def test_replay_rejects_the_same_faulty_record(section, fault, place):
    """One fault first, in the middle or last in its sorted section: the same
    ``ReplayError`` as the record-by-record replay."""
    kb = moved_chains_kb(6)
    if section == "objects":
        ids = sorted(kb.objects)
        _object_fault(fault)(kb, ids[{"first": 0, "middle": len(ids) // 2, "last": -1}[place]])
    else:
        intervals = sorted(kb.adjacency, key=lambda iv: (iv.a, iv.b, iv.start))
        _interval_fault(fault)(kb, intervals[{"first": 0, "middle": len(intervals) // 2, "last": -1}[place]])
    outcome = replay_outcome(replay, kb)
    assert outcome[0] == "raised"
    assert outcome == replay_outcome(reference_replay, kb)


@pytest.mark.parametrize("fault, place", placed_event_faults(EVENT_FAULTS))
def test_replay_rejects_the_same_faulty_event(fault, place):
    """One event fault first, in the middle or last in the log: the record-by-record
    replay's ``ReplayError``, which names that record by its index and id."""
    kb, index = event_fault_kb(fault, place)
    outcome = replay_outcome(replay, kb)
    assert outcome[:4] == ("raised", index, (kb.events[index].id,), EVENT_FAULTS[fault][1])
    assert outcome == replay_outcome(reference_replay, kb)


# -- replay-check against the export comparison it replaced ----------------------------


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("replay") / "doc.mpkb"


def run_main(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def replay_check(path):
    return run_main("replay-check", str(path))


@settings(derandomize=True, max_examples=1000, deadline=None)
@given(doc=st.one_of(history_mutated_documents(), mutated_documents()))
def test_replay_check_matches_export_comparison(doc, doc_path):
    try:
        kb = doc_to_kb(doc)
    except DocumentError:
        return
    doc_path.write_text(json.dumps(doc), encoding="utf-8")
    expected = reference_replay_check(kb)
    assert replay_check(doc_path) == (0 if expected.startswith("replay-check: OK") else 1, expected)


def test_replay_check_counts_canonical_bytes_not_file_bytes(tmp_path):
    """Sections out of order and without indentation: the OK line counts the export."""
    path = tmp_path / "doc.mpkb"
    path.write_text(json.dumps(dict(reversed(CASE_DOC.items()))), encoding="utf-8")
    size = len(export_document(doc_to_kb(CASE_DOC)))
    assert path.stat().st_size != size
    assert replay_check(path) == (0, f"replay-check: OK (3 events, {size} bytes)\n")


@pytest.mark.parametrize("store", list(SCALE_STORES))
def test_replay_check_matches_export_comparison_at_scale(store, tmp_path):
    """After 20 seeded engine writes: the store, one quantity ended a tick late
    (quantities differ) and a second open interval of a pair (replay fails)."""
    kb = SCALE_STORES[store]()
    rng = random.Random(store)
    for step in range(20):
        random_write(kb, rng, f"w{step}")
    doc = kb_to_doc(kb)
    late, again = copy.deepcopy(doc), copy.deepcopy(doc)
    ended = [q for q in late["quantities"] if "terminated_at" in q]
    if ended:
        ended[0]["terminated_at"] += 1
    opened = [iv for iv in again["adjacency"] if "to" not in iv]
    if opened:
        again["adjacency"].append({"a": opened[0]["a"], "b": opened[0]["b"], "from": opened[0]["from"] + 1})
    path = tmp_path / "doc.mpkb"
    outputs = []
    for variant in (doc, late, again):
        path.write_text(json.dumps(variant), encoding="utf-8")
        expected = reference_replay_check(doc_to_kb(variant))
        assert replay_check(path) == (0 if expected.startswith("replay-check: OK") else 1, expected)
        outputs.append(expected.partition(" (")[0])
    assert outputs == ["replay-check: OK",
                       "replay-check: FAILED" if ended else "replay-check: OK",
                       "replay-check: FAILED" if opened else "replay-check: OK"]


@settings(derandomize=True, max_examples=2, deadline=None)
@given(data=st.data())
def test_validate_ok_implies_replay_check_ok_on_mutated_large_documents(data, doc_path):
    """Each history mutation once on each large document, through ``main`` on a file:
    a clean ``validate`` means an OK ``replay-check`` that counts the file's bytes, and
    an ``H1_HISTORY`` verdict means a failed one. The first draw is Hypothesis's
    simplest, the second a seeded one."""
    verdicts = set()
    for base in LARGE_DOCS:
        for mutate in MUTATIONS:
            doc = copy.deepcopy(base)
            mutate(doc, data.draw)
            kb = doc_to_kb(doc)
            doc_path.write_text(export_document(kb), encoding="utf-8")
            code, report = run_main("validate", str(doc_path))
            checked = replay_check(doc_path)
            if code == 0:
                size = doc_path.stat().st_size
                assert checked == (0, f"replay-check: OK ({len(kb.events)} events, {size} bytes)\n")
            if "H1_HISTORY" in report:
                assert checked[0] == 1
            verdicts.add((code, "H1_HISTORY" in report, checked[0]))
    assert {(0, False, 0), (1, True, 1)} <= verdicts


def _terminated_late(doc):
    quantity = next(q for q in doc["quantities"] if "terminated_at" in q)
    quantity["terminated_at"] += 1


@pytest.mark.parametrize(
    "mutate, code",
    [(lambda doc: None, 0), (_terminated_late, 1), (REPLAY_GAPS[0][0], 1)],
    ids=["ok", "quantities_differ", "replay_fails"],
)
def test_replay_check_exports_once_on_ok_and_never_on_failed(mutate, code, tmp_path):
    doc = copy.deepcopy(CASE_DOC)
    mutate(doc)
    path = tmp_path / "doc.mpkb"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with mock.patch.object(canonical, "export_document", wraps=canonical.export_document) as export:
        assert replay_check(path)[0] == code
    assert export.call_count == (1 if code == 0 else 0)
