"""The importer reads each section against one schema, in bulk and, when a check
fails, again record by record. It accepts and rejects exactly what the
record-by-record reference reader did, on small and large documents: the same
export bytes, or the same DocumentError path and message. The order in which a
record's checks run, which is not document order, is pinned on records with two
faults. A document text that repeats a key is rejected at that key, and one
nested too deeply to parse is rejected at its root. A created entry shares its
quantity's granule set only where the two lists are equal, which documents
tampered at that pair pin."""

import copy
import json
import sys

import pytest
from hypothesis import given, settings, strategies as st

from matterkb import case_study_path, export_document, kb_to_doc, load, parse, validate_all
from matterkb.canonical import doc_to_kb, import_document
from matterkb.cli import main
from matterkb.errors import DocumentError

from helpers import build_random_kb, messy_world_kb, moved_chains_kb, reference_doc_to_kb

BASES = [
    kb_to_doc(load(parse(case_study_path().read_text(encoding="utf-8")).scenario)),
    *(kb_to_doc(build_random_kb(seed)) for seed in range(20)),
    *(kb_to_doc(messy_world_kb(seed, n_quantities=6, n_objects=10)) for seed in range(3)),
]
# Large enough that every section spans many records, so a fault can sit far
# from both ends of its columns.
LARGE_BASES = [
    *(kb_to_doc(build_random_kb(seed, max_events=60, max_objects=150)) for seed in range(5)),
    kb_to_doc(moved_chains_kb(200)),
]
ALL_BASES = BASES + LARGE_BASES

# Values a mutation may write anywhere: every JSON type, bad and reserved
# identifiers, bools, negative and huge numbers; ids and times of the
# document itself are drawn too, which makes duplicates and clashes.
ODD_VALUES = [
    None, True, False, -1, 0, 1, 3, 2**70, 1.5, "", "x", "9lives", "a b", "g\n", "\n", "g1\ng2",
    "creation", "granuleTransfer", "quantityKind", "objectKind",
    [], ["x"], ["x", "x"], [1], {}, {"id": "x"}, {"id": "x", "kind": "K", "granules": []},
]


def outcome(reader, doc):
    """The export bytes and the KB itself, whose event records keep the order
    of created entries that export sorts away; or the error."""
    try:
        kb = reader(doc)
    except DocumentError as exc:
        return "rejected", exc.path, exc.message
    return "loaded", export_document(kb), kb


def _slots(value, out):
    """Every (container, key) under ``value``, in document order."""
    if isinstance(value, dict):
        pairs = list(value.items())
    elif isinstance(value, list):
        pairs = list(enumerate(value))
    else:
        return out
    for key, v in pairs:
        out.append((value, key))
        _slots(v, out)
    return out


def _scalars(doc):
    return sorted({repr(c[k]): c[k] for c, k in _slots(doc, []) if isinstance(c[k], (str, int))}.items())


SECTIONS = ("kinds", "objects", "quantities", "adjacency", "subquantities", "events")


@st.composite
def mutated_documents(draw, bases=BASES):
    """One or two faults in one of ``bases``, each in a section drawn first so
    that no section's faults crowd out the others'."""
    doc = copy.deepcopy(draw(st.sampled_from(bases)))
    for _ in range(draw(st.integers(1, 2))):
        section = draw(st.sampled_from(SECTIONS))
        slots = _slots(doc.get(section), [(doc, section)] if section in doc else [])
        containers = [c[k] for c, k in slots if isinstance(c[k], (dict, list))]
        op = draw(st.sampled_from(("replace", "delete", "extra", "repeat", "sibling", "reverse")))
        if op == "replace" and slots:
            container, key = draw(st.sampled_from(slots))
            own = [v for _, v in _scalars(doc)]
            container[key] = copy.deepcopy(draw(st.sampled_from(ODD_VALUES) | st.sampled_from(own)))
        elif op == "delete" and slots:
            container, key = draw(st.sampled_from(slots))
            del container[key]
        elif op == "extra":
            target = draw(st.sampled_from([c for c in containers if isinstance(c, dict)] + [doc]))
            target["extra"] = 1
        elif op == "sibling":  # a field takes another field's value: a == b, say
            records = [c for c in containers if isinstance(c, dict) and len(c) > 1]
            if records:
                target = draw(st.sampled_from(records))
                source, key = draw(st.lists(st.sampled_from(sorted(target)), min_size=2, max_size=2, unique=True))
                target[key] = copy.deepcopy(target[source])
        else:
            lists = [c for c in containers if isinstance(c, list) and c]
            if lists:
                target = draw(st.sampled_from(lists))
                if op == "repeat":  # a duplicate record or list entry
                    target.append(copy.deepcopy(draw(st.sampled_from(target))))
                else:  # out of canonical order
                    target.reverse()
    return doc


@pytest.mark.parametrize("doc", ALL_BASES, ids=range(len(ALL_BASES)))
def test_readers_agree_on_canonical_documents(doc):
    loaded = outcome(doc_to_kb, doc)
    assert loaded == outcome(reference_doc_to_kb, doc)
    assert loaded[0] == "loaded"


def _reverse_every_list(value):
    if isinstance(value, dict):
        for v in value.values():
            _reverse_every_list(v)
    elif isinstance(value, list):
        value.reverse()
        for v in value:
            _reverse_every_list(v)


@pytest.mark.parametrize("doc", ALL_BASES, ids=range(len(ALL_BASES)))
def test_readers_agree_on_documents_out_of_order(doc):
    doc = copy.deepcopy(doc)
    _reverse_every_list(doc)
    loaded = outcome(doc_to_kb, doc)
    assert loaded == outcome(reference_doc_to_kb, doc)
    assert loaded[0] == "loaded"


# Column checks join a column's entries, so both ends of a column matter.
@pytest.mark.parametrize("bad", ["9lives", "-x", "", "a b", "g\n", "\ng", "g1\ng2", "gr\u00e4in"])
@pytest.mark.parametrize(
    "where",
    [("objects", 0, "id"), ("objects", -1, "kind"), ("quantities", 0, "granules", 0),
     ("events", -1, "created", 0, "granules", -1)],
    ids=lambda where: ".".join(map(str, where)),
)
def test_readers_agree_on_bad_identifiers_at_column_ends(where, bad):
    doc = copy.deepcopy(BASES[0])
    *parents, last = where
    container = doc
    for key in parents:
        container = container[key]
    container[last] = bad
    rejected = outcome(doc_to_kb, doc)
    assert rejected == outcome(reference_doc_to_kb, doc)
    assert rejected[0] == "rejected"


@settings(derandomize=True, max_examples=1500, deadline=None)
@given(mutated_documents())
def test_readers_agree_on_mutated_documents(doc):
    assert outcome(doc_to_kb, doc) == outcome(reference_doc_to_kb, doc)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(mutated_documents(LARGE_BASES))
def test_readers_agree_on_mutated_large_documents(doc):
    assert outcome(doc_to_kb, doc) == outcome(reference_doc_to_kb, doc)


DELETE = object()


def _put(doc, where, value):
    """Write ``value`` at ``where``, or delete it; an index one past a list's end appends."""
    *parents, last = where
    for key in parents:
        doc = doc[key]
    if value is DELETE:
        del doc[last]
    elif isinstance(doc, list) and last == len(doc):
        doc.append(value)
    else:
        doc[last] = value


def _assert_rejected(faults, path, message):
    doc = copy.deepcopy(BASES[0])
    for where, value in faults.items():
        _put(doc, where, value)
    for reader in (doc_to_kb, reference_doc_to_kb):
        with pytest.raises(DocumentError) as err:
            reader(doc)
        assert (err.value.path, err.value.message) == (path, message)


# One fault for each section rule, and a bad time at both ends of each time
# column, on the case study: six objects, five quantities and intervals, three events.
CHECK_FAULTS = [
    ({("kinds", 0, "requires"): DELETE}, "kinds[0].requires", "quantity kinds must carry a requires list"),
    ({("kinds", 1, "requires"): []}, "kinds[1].requires", "object kinds must not carry a requires list"),
    ({("kinds", 1, "meta"): "kind"}, "kinds[1].meta", "expected 'quantityKind' or 'objectKind', got 'kind'"),
    ({("kinds", 2): {"name": "SedimentaryGrain", "meta": "objectKind"}},
     "kinds[2].name", "duplicate kind 'SedimentaryGrain'"),
    ({("objects", 6): {"id": "grain6", "kind": "SedimentaryGrain", "created_at": 0}},
     "objects[6].id", "duplicate object 'grain6'"),
    ({("quantities", 4, "id"): "rock1"}, "quantities[4].id", "duplicate quantity 'rock1'"),
    ({("quantities", 4, "id"): "grain6"}, "quantities[4].id", "id 'grain6' is already used by an object"),
    ({("adjacency", 4, "a"): "grain6"}, "adjacency[4].b", "adjacency endpoints must differ"),
    ({("adjacency", 0, "to"): 0}, "adjacency[0].to", "interval end t0 must follow start t0"),
    ({("events", 2, "id"): "create-rock1"}, "events[2].id", "duplicate event 'create-rock1'"),
    ({("events", 0, "kind"): "split"}, "events[0].kind", "expected 'creation' or 'granuleTransfer', got 'split'"),
    ({("events", 2, "donors"): []}, "events[2]", "a granule transfer has at least one donor and one created quantity"),
    *(({(section, i, field): -1}, f"{section}[{i}].{field}", "expected a non-negative integer, got -1")
      for section, i, field in [("objects", 0, "created_at"), ("objects", 5, "created_at"),
                                ("quantities", 0, "created_at"), ("quantities", 4, "terminated_at"),
                                ("adjacency", 0, "from"), ("adjacency", 4, "to"),
                                ("events", 0, "at"), ("events", 2, "at")]),
]


@pytest.mark.parametrize("faults, path, message", CHECK_FAULTS, ids=[path for _, path, _ in CHECK_FAULTS])
def test_each_check_rejects_its_fault(faults, path, message):
    _assert_rejected(faults, path, message)


# Two faults in one record, in fields whose check order differs from their
# document order or from each other: the fault checked first is the one reported.
@pytest.mark.parametrize("faults, path, message", [
    ({("quantities", 0, "terminated_at"): -1, ("quantities", 0, "kind"): "9x"},
     "quantities[0].terminated_at", "expected a non-negative integer, got -1"),
    ({("events", 0, "at"): -1, ("events", 0, "donors"): ["rock9"]},
     "events[0]", "a creation event has no donors and exactly one created quantity"),
    ({("kinds", 2): {"name": "PortionOfRock", "meta": "quantityKind", "requires": ["bad id"]}},
     "kinds[2].requires[0]", "'bad id' is not a valid identifier"),
    ({("objects", 6): {"id": "grain1", "kind": "SedimentaryGrain", "created_at": True}},
     "objects[6].id", "duplicate object 'grain1'"),
    ({("events", 0, "kind"): "split", ("events", 0, "donors"): ["bad id"]},
     "events[0].kind", "expected 'creation' or 'granuleTransfer', got 'split'"),
    ({("events", 0, "created", 0, "kind"): "9x", ("events", 0, "created", 0, "granules"): ["bad id"]},
     "events[0].created[0].kind", "'9x' is not a valid identifier"),
], ids=["terminated_at-before-kind", "shape-before-at", "requires-before-duplicate-name", "duplicate-before-time",
        "kind-before-donors", "entry-kind-before-granules"])
def test_first_fault_in_check_order(faults, path, message):
    _assert_rejected(faults, path, message)


def _objects(value, path="$"):
    """Every object under ``value`` with the path a DocumentError gives it, in document order."""
    if isinstance(value, dict):
        yield value, path
        children = [(key if path == "$" else f"{path}.{key}", v) for key, v in value.items()]
    elif isinstance(value, list):
        children = [(f"{path}[{i}]", v) for i, v in enumerate(value)]
    else:
        return
    for child, v in children:
        yield from _objects(v, child)


@st.composite
def repeated_key_documents(draw):
    """A document's text with one key of one object, at any depth, written twice:
    once more at a drawn position, with its own or an odd value. Returns the text
    and the path of the repeated key."""
    doc = draw(st.sampled_from(BASES))
    target, path = draw(st.sampled_from(list(_objects(doc))))
    key = draw(st.sampled_from(sorted(target)))
    pairs = list(target.items())
    pairs.insert(draw(st.integers(0, len(pairs))), (key, draw(st.sampled_from([target[key], *ODD_VALUES]))))
    colon = draw(st.sampled_from([":", ": ", " : ", "\n:\t"]))

    def render(value):
        if isinstance(value, dict):
            items = pairs if value is target else value.items()
            return "{" + ", ".join(f"{json.dumps(k)}{colon}{render(v)}" for k, v in items) + "}"
        if isinstance(value, list):
            return "[" + ", ".join(map(render, value)) + "]"
        return json.dumps(value)

    return render(doc), key if path == "$" else f"{path}.{key}"


@settings(derandomize=True, max_examples=600, deadline=None)
@given(repeated_key_documents())
def test_repeated_key_is_rejected_with_its_path(case):
    text, path = case
    with pytest.raises(DocumentError) as exc_info:
        import_document(text)
    assert (exc_info.value.path, exc_info.value.message) == (path, f"repeated key '{path.rpartition('.')[2]}'")


def test_colon_in_a_string_is_not_a_repeated_key():
    doc = copy.deepcopy(BASES[0])
    doc["objects"][0]["kind"] = "Grain:fine"
    with pytest.raises(DocumentError) as exc_info:
        import_document(json.dumps(doc))
    assert exc_info.value.path == "objects[0].kind"
    assert "is not a valid identifier" in exc_info.value.message


def deep_kinds(depth: int) -> str:
    """A document whose kinds section is ``depth`` nested arrays."""
    sections = ', "objects": [], "quantities": [], "adjacency": [], "subquantities": [], "events": []}'
    return '{"kinds": ' + "[" * depth + "]" * depth + sections


@pytest.mark.parametrize("text", ["[" * 100_000, '{"a": ' * 100_000, deep_kinds(100_000)])
def test_deep_nesting_is_a_document_error(text):
    with pytest.raises(DocumentError) as err:
        import_document(text)
    assert (err.value.path, err.value.message) == ("$", "nested too deeply to read")


def test_nesting_near_the_recursion_limit_is_read_or_rejected():
    """The re-parse that looks for a repeated key runs a few frames deeper than the
    first parse, so at some depth only the re-parse runs out of stack."""
    limit = sys.getrecursionlimit()
    outcomes = set()
    for depth in range(limit - 400, limit + 5):
        with pytest.raises(DocumentError) as err:
            import_document(deep_kinds(depth))
        outcomes.add((err.value.path, err.value.message))
    too_deep = ("$", "nested too deeply to read")
    assert outcomes <= {("kinds[0]", "expected an object, got list"), too_deep}
    # json's C parser counts against the recursion limit up to CPython 3.11
    assert too_deep in outcomes or sys.version_info >= (3, 12)


@pytest.mark.parametrize("text, got", [("[]", "list"), ("3", "int"), ("null", "NoneType")])
def test_a_document_that_is_not_an_object_is_rejected_at_its_root(text, got):
    with pytest.raises(DocumentError) as info:
        import_document(text)
    assert (info.value.path, info.value.message) == ("$", f"expected an object, got {got}")


# A created entry shares its quantity's checked set only where its granules list equals the
# quantity's; each tampered document below must still read as the record reader reads it.
# rock1 is the one quantity of the case study's first event, which creates it from six grains.


def _tampered(quantity=None, entry=None):
    """The case study's document, its rock1 quantity or creation entry listing ``granules``."""
    doc = copy.deepcopy(BASES[0])
    for where, granules in [(("quantities", 0), quantity), (("events", 0, "created", 0), entry)]:
        if granules is not None:
            _put(doc, (*where, "granules"), granules)
    assert doc["quantities"][0]["id"] == doc["events"][0]["created"][0]["id"] == "rock1"
    return doc


def test_a_quantity_that_lists_fewer_granules_than_its_creation_entry_is_a_history_fault(tmp_path, capsys):
    doc = _tampered(quantity=["grain1", "grain2", "grain3", "grain4", "grain5"])
    assert outcome(doc_to_kb, doc) == outcome(reference_doc_to_kb, doc)
    kb = import_document(json.dumps(doc))
    entries = [entry for event in kb.events for entry in event.created]
    assert entries[0].granules == frozenset(BASES[0]["quantities"][0]["granules"]) != kb.quantities["rock1"].granules
    assert len({id(q.granules) for q in kb.quantities.values()} | {id(e.granules) for e in entries}) == 6
    [violation] = validate_all(kb).violations
    assert violation.rule == "H1_HISTORY" and violation.subjects == ("rock1",)
    assert "differs from its rebuild from the event log in: granule set" in violation.message
    path = tmp_path / "tampered.mpkb"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().out == f"H1_HISTORY (1)\n  [rock1]: {violation.message}\n1 violation\n"
    assert main(["replay-check", str(path)]) == 1
    assert capsys.readouterr().out.startswith("replay-check: FAILED")


def test_an_entry_that_lists_its_quantity_granules_in_another_order_reads_as_the_record_reader():
    doc = _tampered(entry=["grain6", "grain5", "grain4", "grain3", "grain2", "grain1"])
    assert outcome(doc_to_kb, doc) == outcome(reference_doc_to_kb, doc)
    kb = import_document(json.dumps(doc))
    assert kb.events[0].created[0].granules == kb.quantities["rock1"].granules
    assert not validate_all(kb).violations


@pytest.mark.parametrize("kept", ["the quantity's", "another"])
def test_a_repeated_granules_key_in_a_created_entry_is_rejected(kept):
    """``json.loads`` keeps a repeated key's last value; the repeat is rejected whether or not
    that value is the quantity's list, which the entry would then share."""
    granules = BASES[0]["quantities"][0]["granules"]
    other = granules[:-1]
    first, last = (other, granules) if kept == "the quantity's" else (granules, other)
    text = json.dumps(_tampered(entry="@")).replace(
        '"granules": "@"', f'"granules": {json.dumps(first)}, "granules": {json.dumps(last)}', 1)
    assert json.loads(text)["events"][0]["created"][0]["granules"] == last
    with pytest.raises(DocumentError) as exc_info:
        import_document(text)
    assert (exc_info.value.path, exc_info.value.message) == (
        "events[0].created[0].granules", "repeated key 'granules'")
