"""Canonical documents: byte-stable export, lenient import, schema errors."""

import collections
import enum
import gc
import json
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from matterkb import (
    KnowledgeBase,
    case_study_path,
    export_document,
    import_document,
    kb_to_doc,
    load,
    parse,
    validate_all,
)
from matterkb.canonical import doc_to_kb, dumps
from matterkb.errors import DocumentError
from matterkb.events import CREATION, GRANULE_TRANSFER, CreatedEntry, EventRec
from matterkb.model import (
    OBJECT_KIND,
    QUANTITY_KIND,
    AdjacencyInterval,
    KindDecl,
    ObjectInst,
    QuantityInst,
    SubQuantityAssertion,
)

from helpers import build_random_kb, messy_world_kb, moved_chains_kb, reference_doc_to_kb, reference_kb_to_doc
from test_world import append_by_hand

EMPTY_DOC = """{
  "kinds": [],
  "objects": [],
  "quantities": [],
  "adjacency": [],
  "subquantities": [],
  "events": []
}
"""


def test_empty_kb_exports_stable_bytes():
    assert export_document(KnowledgeBase()) == EMPTY_DOC


def test_sections_in_fixed_order(case_kb):
    doc = json.loads(export_document(case_kb))
    assert list(doc) == ["kinds", "objects", "quantities", "adjacency", "subquantities", "events"]


def test_id_lists_sorted(case_kb):
    doc = json.loads(export_document(case_kb))
    for quantity in doc["quantities"]:
        assert quantity["granules"] == sorted(quantity["granules"])
    assert [o["id"] for o in doc["objects"]] == sorted(o["id"] for o in doc["objects"])


def test_round_trip_case_study(case_kb):
    first = export_document(case_kb)
    second = export_document(import_document(first))
    assert first == second


def test_round_trip_fuzzed():
    for seed in range(50):
        kb = build_random_kb(seed)
        first = export_document(kb)
        assert export_document(import_document(first)) == first


def test_import_normalizes_hand_written_documents():
    doc = json.loads(EMPTY_DOC)
    doc["kinds"] = [{"name": "Grain", "meta": "objectKind"}]
    doc["objects"] = [
        {"id": "b", "kind": "Grain", "created_at": 0},
        {"id": "a", "kind": "Grain", "created_at": 0},
    ]
    doc["adjacency"] = [{"a": "b", "b": "a", "from": 0}]  # unsorted endpoints
    kb = import_document(json.dumps(doc))
    out = json.loads(export_document(kb))
    assert [o["id"] for o in out["objects"]] == ["a", "b"]
    assert out["adjacency"] == [{"a": "a", "b": "b", "from": 0}]
    # one normalization pass reaches a fixed point
    again = export_document(import_document(export_document(kb)))
    assert again == export_document(kb)


def test_import_accepts_semantically_broken_documents():
    doc = json.loads(EMPTY_DOC)
    doc["kinds"] = [
        {"name": "Grain", "meta": "objectKind"},
        {"name": "Rock", "meta": "quantityKind", "requires": []},
    ]
    doc["objects"] = [{"id": "g1", "kind": "Grain", "created_at": 0}]
    doc["quantities"] = [
        {"id": "q", "kind": "Rock", "created_at": 0, "granules": ["g1"], "creation_event": "e0"}
    ]
    doc["events"] = [
        {"id": "e0", "at": 0, "kind": "creation", "donors": [],
         "created": [{"id": "q", "kind": "Rock", "granules": ["g1"]}], "discarded": []}
    ]
    kb = import_document(json.dumps(doc))
    report = validate_all(kb)
    assert {v.rule for v in report.violations} == {"SUPPLEMENTATION_MIN2"}


class TestSchemaErrors:
    def base(self):
        return json.loads(EMPTY_DOC)

    def expect_error(self, doc, path_fragment):
        with pytest.raises(DocumentError) as exc_info:
            doc_to_kb(doc)
        assert path_fragment in exc_info.value.path, exc_info.value

    def test_not_json(self):
        with pytest.raises(DocumentError):
            import_document("not a document {")

    def test_missing_section(self):
        doc = self.base()
        del doc["events"]
        self.expect_error(doc, "$")

    def test_unknown_section(self):
        doc = self.base()
        doc["extras"] = []
        self.expect_error(doc, "$")

    def test_bad_meta(self):
        doc = self.base()
        doc["kinds"] = [{"name": "X", "meta": "weird"}]
        self.expect_error(doc, "kinds[0].meta")

    def test_object_kind_with_requires(self):
        doc = self.base()
        doc["kinds"] = [{"name": "X", "meta": "objectKind", "requires": []}]
        self.expect_error(doc, "kinds[0].requires")

    def test_quantity_kind_without_requires(self):
        doc = self.base()
        doc["kinds"] = [{"name": "X", "meta": "quantityKind"}]
        self.expect_error(doc, "kinds[0].requires")

    def test_bad_identifier(self):
        doc = self.base()
        doc["objects"] = [{"id": "9lives", "kind": "Grain", "created_at": 0}]
        self.expect_error(doc, "objects[0].id")

    def test_negative_time(self):
        doc = self.base()
        doc["objects"] = [{"id": "a", "kind": "Grain", "created_at": -2}]
        self.expect_error(doc, "objects[0].created_at")

    def test_duplicate_quantity(self):
        doc = self.base()
        doc["quantities"] = [
            {"id": "q", "kind": "R", "created_at": 0, "granules": ["a", "b"], "creation_event": "e"},
            {"id": "q", "kind": "R", "created_at": 1, "granules": ["c", "d"], "creation_event": "f"},
        ]
        self.expect_error(doc, "quantities[1].id")

    def test_unexpected_field(self):
        doc = self.base()
        doc["objects"] = [{"id": "a", "kind": "G", "created_at": 0, "color": "red"}]
        self.expect_error(doc, "objects[0]")

    def test_empty_interval(self):
        doc = self.base()
        doc["adjacency"] = [{"a": "x", "b": "y", "from": 3, "to": 3}]
        self.expect_error(doc, "adjacency[0].to")

    def test_creation_event_shape(self):
        doc = self.base()
        doc["events"] = [
            {"id": "e", "at": 0, "kind": "creation", "donors": ["q"],
             "created": [{"id": "x", "kind": "R", "granules": ["a", "b"]}], "discarded": []}
        ]
        self.expect_error(doc, "events[0]")

    def test_duplicate_granule_entry(self):
        doc = self.base()
        doc["quantities"] = [
            {"id": "q", "kind": "R", "created_at": 0, "granules": ["a", "a"], "creation_event": "e"}
        ]
        self.expect_error(doc, "granules[1]")


# `$` also matches before a final newline, so each of these ids used to load.
NEWLINE_IDS = [
    (("objects", 0, "id"), "objects[0].id", "'grain1\n' is not a valid identifier"),
    (("quantities", 1, "granules", 1), "quantities[1].granules[1]", "'grain6\\n' is not a valid identifier"),
    (("events", 2, "id"), "events[2].id", "'transfer2\n' is not a valid identifier"),
]


@pytest.mark.parametrize("where, path, message", NEWLINE_IDS, ids=[p for _, p, _ in NEWLINE_IDS])
def test_identifier_with_trailing_newline_rejected(case_kb, where, path, message):
    doc = kb_to_doc(case_kb)
    *parents, last = where
    container = doc
    for key in parents:
        container = container[key]
    container[last] += "\n"
    with pytest.raises(DocumentError) as exc_info:
        import_document(json.dumps(doc))
    assert (exc_info.value.path, exc_info.value.message) == (path, message)


def test_kb_to_doc_is_plain_data(case_kb):
    doc = kb_to_doc(case_kb)
    json.dumps(doc)  # JSON-serializable all the way down
    assert doc["events"][0]["id"] == "create-rock1"


# -- the writer is json.dumps(indent=2), byte for byte ------------------------------

_LEAVES = (
    st.text(alphabet=st.characters() | st.sampled_from('"\\\n\t\x00\x1f\x7f\u2028\ud800\U0001f600')),
    st.integers() | st.integers(min_value=2**63 - 2, max_value=2**70) | st.integers(max_value=-(2**63)),
    st.booleans(),
    st.none(),
)
_PLAIN = st.recursive(
    st.one_of(*_LEAVES),
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=5).map(tuple)
    | st.lists(_LEAVES[0], max_size=5)
    | st.dictionaries(_LEAVES[0], inner, max_size=5),
    max_leaves=40,
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_PLAIN)
def test_dumps_matches_json_dumps(value):
    assert dumps(value) == json.dumps(value, indent=2)


class _List(list):
    pass


class _Str(str):
    pass


class _Level(enum.IntEnum):
    LOW = 1


@pytest.mark.parametrize(
    "value",
    [
        [], {}, (), [[], {}, ()], {"a": {"b": []}}, [[[{}]]], 1.5, [1e300, -0.0], {"x": [float("nan"), float("-inf")]},
        # subclasses: containers are written indented, leaves as json.dumps writes them
        collections.OrderedDict([("b", 1), ("a", [2])]), {"x": _List(["a", 1])}, [_Level.LOW, {"l": _Level.LOW}],
        [_Str('say "hi"'), {"s": _Str('"')}],
        {"t": True, "f": False, "n": None}, [True, False, None, [None]], {"one": 1}, {"one": {"two": "2"}},
    ],
)
def test_dumps_matches_json_dumps_on_empty_and_float_values(value):
    assert dumps(value) == json.dumps(value, indent=2)


def test_export_matches_json_dumps(case_kb):
    """Byte for byte the indent-2 ``json.dumps`` of the plain-data document
    built the old way, on engine-built, imported, field-by-field and
    hand-built stores; ``kb_to_doc`` reads back that document."""
    kbs = [
        KnowledgeBase(), hand_built_kb(), odd_events_kb(), case_kb, moved_chains_kb(200),
        *map(build_random_kb, range(50)), *map(messy_world_kb, range(10)),
        *(build_random_kb(seed, max_events=60, max_objects=150) for seed in range(10)),
    ]
    for seed in range(20):
        rng = random.Random(seed)
        for kb in (
            build_random_kb(seed),
            import_document(export_document(build_random_kb(seed))),
            moved_chains_kb(1 + seed % 8),
        ):
            append_by_hand(kb, rng, seed)
            kbs.append(kb)
    for kb in kbs:
        assert export_document(kb) == json.dumps(reference_kb_to_doc(kb), indent=2) + "\n"
        assert kb_to_doc(kb) == reference_kb_to_doc(kb)


def hand_built_kb():
    """Fields the engine never writes in this form: a quantity kind that
    requires nothing, created entries out of id order, a non-ASCII id, and a
    time stored as ``True``, which ``json.dumps`` writes ``true``."""
    kb = KnowledgeBase()
    kb.kinds["Sand"] = KindDecl("Sand", QUANTITY_KIND, frozenset())
    kb.kinds["Rock"] = KindDecl("Rock", QUANTITY_KIND, frozenset({"Grain", "Clay"}))
    kb.kinds["Grain"] = KindDecl("Grain", OBJECT_KIND)
    for oid, at in (("g1", True), ("g0", 0), ("gr\u00e4n", 2)):
        kb.objects[oid] = ObjectInst(oid, "Grain", at)
    rock = CreatedEntry("q", "Rock", frozenset({"g1", "g0"}))
    kb.quantities["q"] = QuantityInst("q", "Rock", 0, rock.granules, "e0", 3)
    moved = (CreatedEntry("r2", "Rock", frozenset({"g1"})), CreatedEntry("r1", "Sand", frozenset({"g0"})))
    for entry in moved:
        kb.quantities[entry.id] = QuantityInst(entry.id, entry.kind, 3, entry.granules, "e1")
    kb.adjacency += [AdjacencyInterval("g0", "g1", 1, 4), AdjacencyInterval("g0", "g1", 0)]
    kb.subquantities.add(SubQuantityAssertion("r1", "r2"))
    kb.events.append(EventRec("e0", 0, CREATION, frozenset(), (rock,), frozenset()))
    kb.events.append(EventRec("e1", 3, GRANULE_TRANSFER, frozenset({"q"}), moved, frozenset({"gr\u00e4n"})))
    return kb


def odd_events_kb():
    """Events that import and the engine refuse but a store can hold: one with no
    created entries, between two that have some, and with discarded ids that are
    not strings; one with its created ids out of order; and one that repeats a
    created id, whose entries keep their store order."""
    kb = KnowledgeBase()
    entries = [(CreatedEntry("z", "Rock", frozenset({"g2"})),), (), tuple(
        CreatedEntry(qid, "Sand", frozenset({g})) for qid, g in (("r2", "g1"), ("a", "g2"), ("r1", "g0"))
    ), (CreatedEntry("r", "Sand", frozenset({"g1"})), CreatedEntry("r", "Rock", frozenset({"g0", "g2"})))]
    for at, created in enumerate(entries):
        kb.events.append(EventRec(f"e{at}", at, GRANULE_TRANSFER, frozenset({"z"}) if at else frozenset(),
                                  created, frozenset({2, 10}) if not created else frozenset()))
    return kb


@pytest.mark.parametrize("column, odd", [
    ("objects", True), ("objects", None), ("quantities", True), ("terminated_at", True),
    ("from", True), ("to", True), ("events", True), ("events", None),
])
def test_a_time_column_that_is_not_all_ints_is_written_as_json(column, odd):
    """One time held as ``True`` or None sends its whole column through the JSON
    writer; an optional column keeps leaving out the fields that are None."""
    kb = hand_built_kb()
    kb.objects["g1"] = ObjectInst("g1", "Grain", 1)
    r1 = kb.quantities["r1"]
    if column == "objects":
        kb.objects["g0"] = ObjectInst("g0", "Grain", odd)
    elif column == "quantities":
        kb.quantities["r1"] = QuantityInst(r1.id, r1.kind, odd, r1.granules, r1.creation_event)
    elif column == "terminated_at":
        kb.quantities["r1"] = QuantityInst(r1.id, r1.kind, 3, r1.granules, r1.creation_event, odd)
    elif column == "from":
        kb.adjacency[1] = AdjacencyInterval("g0", "g1", odd)
    elif column == "to":
        kb.adjacency.append(AdjacencyInterval("g1", "gr\u00e4n", 0, odd))
    else:
        kb.events[0] = kb.events[0]._replace(at=odd)
    text = export_document(kb)
    assert text == json.dumps(reference_kb_to_doc(kb), indent=2) + "\n"
    assert text.count(": true") + text.count(": null") == 1


def test_hand_built_store_exports_its_odd_fields():
    text = export_document(hand_built_kb())
    doc = json.loads(text)
    assert '"created_at": true' in text and doc["objects"][1]["created_at"] is True
    assert doc["kinds"][2] == {"name": "Sand", "meta": "quantityKind", "requires": []}
    assert [e["id"] for e in doc["events"][1]["created"]] == ["r1", "r2"]
    assert doc["events"][0]["donors"] == doc["events"][0]["discarded"] == []
    assert doc["adjacency"] == [{"a": "g0", "b": "g1", "from": 0}, {"a": "g0", "b": "g1", "from": 1, "to": 4}]
    assert doc["quantities"][0]["terminated_at"] == 3
    assert '"gr\\u00e4n"' in text


def test_export_peak_memory_is_at_most_three_document_lengths():
    """Every record string goes into one list joined once. The parts and the
    document are alive together at the join, about 2.5 document lengths."""
    kb = moved_chains_kb(800)
    export_document(kb)
    gc.collect()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        text = export_document(kb)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak <= 3 * len(text), peak / len(text)


# -- the import runs with the cyclic collector paused -----------------------------------


FAILED_IMPORTS = {
    "malformed JSON": ("not a document {", "$", "not a well-formed document"),
    "nested too deeply": ("[" * 100_000, "$", "nested too deeply to read"),
    "repeated key": (EMPTY_DOC.replace('"kinds": [],', '"kinds": [],\n  "kinds": [],'), "kinds", "repeated key 'kinds'"),
    "bad field value": (
        EMPTY_DOC.replace('"objects": []', '"objects": [{"id": "g1", "kind": "Grain", "created_at": -1}]'),
        "objects[0].created_at", "expected a non-negative integer, got -1",
    ),
}


@pytest.fixture(scope="module")
def chains800_text():
    return export_document(moved_chains_kb(800))


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("failure", [None, *FAILED_IMPORTS], ids=["clean", *FAILED_IMPORTS])
def test_import_leaves_the_collector_as_it_found_it(case_kb, failure, enabled):
    (gc.enable if enabled else gc.disable)()
    try:
        if failure is None:
            assert import_document(export_document(case_kb)) == case_kb
        else:
            text, path, message = FAILED_IMPORTS[failure]
            with pytest.raises(DocumentError) as exc_info:
                import_document(text)
            assert exc_info.value.path == path and message in str(exc_info.value), exc_info.value
        assert gc.isenabled() == enabled
    finally:
        gc.enable()


def test_no_collection_while_a_document_is_imported(chains800_text):
    """Reading the document alone would set off young collections. What the import
    allocated may set off one young collection, once the pause has ended."""
    collections = []

    def count(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    gc.collect()  # the next young collection is due after 700 more containers
    gc.callbacks.append(count)
    try:
        kb = import_document(chains800_text)
    finally:
        gc.callbacks.remove(count)
    assert len(kb.events) == 1600
    assert collections in ([], [0])


def test_cyclic_garbage_an_import_leaves_does_not_grow_with_the_input(case_kb, chains800_text):
    """With the collector paused, cyclic garbage built per record would pile up until
    the import ends. What an import leaves must not grow with the document."""
    left = {}
    for name, text in [("case", export_document(case_kb)), ("chains800", chains800_text)]:
        gc.collect()
        gc.disable()
        try:
            kb = import_document(text)
            left[name] = gc.collect()
        finally:
            gc.enable()
        assert export_document(kb) == text
    assert left["chains800"] <= left["case"], left


SHARING_SOURCES = {
    "case study": lambda: load(parse(case_study_path().read_text(encoding="utf-8")).scenario),
    "moved chains": lambda: moved_chains_kb(200),
    "random 121 events": lambda: build_random_kb(10, max_events=150, max_objects=120),
}


@pytest.mark.parametrize("source", SHARING_SOURCES)
def test_a_created_entry_holds_its_quantity_granule_set(source):
    """A read store holds one granule set per quantity, as an engine-built one does: each created
    entry that lists its quantity's granules holds the set the quantity was read with."""
    built = SHARING_SOURCES[source]()
    text = export_document(built)
    built.adjacency.sort(key=lambda i: (i.a, i.b, i.start, i.end is None, i.end))  # in document order
    for kb in (import_document(text), doc_to_kb(json.loads(text))):
        entries = [entry for event in kb.events for entry in event.created]
        assert len(entries) == len(kb.quantities)
        assert all(entry.granules is kb.quantities[entry.id].granules for entry in entries)
        sets = {id(q.granules) for q in kb.quantities.values()} | {id(entry.granules) for entry in entries}
        assert len(sets) == len(kb.quantities)
        assert kb == reference_doc_to_kb(json.loads(text)) == built
    if source.startswith("random"):
        assert len(built.events) == 121
