"""Byte-exact ``validate`` output on the seeded faults, and one table of the
axioms that both the engine and the validator decide.

``golden/faults.json`` holds one record per fault fixture and command: the
fixture's rule, the argv, the exit code, stdout and stderr. ``{doc}`` stands
for the fixture's canonical export.

Each row of ``SHARED_AXIOMS`` is one defect that the engine refuses and the
validator reports. The row names the engine's exact error, and the rules and
messages that ``validate_all`` reports on the same record once it is imported
past the engine.
"""

import json
from pathlib import Path

import pytest

from matterkb import CreatedEntry, KnowledgeBase, apply_creation, apply_transfer, kb_to_doc, validate_all
from matterkb.canonical import doc_to_kb
from matterkb.cli import main
from matterkb.errors import NoLifetimeOverlap, SubQuantityNotIncluded, UnknownGranuleKind, UnknownKind

from helpers import FAULT_FIXTURES

RECORDS = json.loads((Path(__file__).parent / "golden" / "faults.json").read_text(encoding="utf-8"))


def test_golden_covers_every_fixture_and_command():
    commands = {(r["fixture"], tuple(r["argv"])) for r in RECORDS}
    assert len(commands) == len(RECORDS) == 4 * len(FAULT_FIXTURES)
    assert {fixture for fixture, _ in commands} == set(FAULT_FIXTURES)


@pytest.mark.parametrize("record", RECORDS, ids=[f"{r['fixture']} {' '.join(r['argv'][2:])}" for r in RECORDS])
def test_validate_matches_golden(record, tmp_path, capsys):
    doc = tmp_path / "fault.mpkb"
    doc.write_text(json.dumps(kb_to_doc(FAULT_FIXTURES[record["fixture"]]())), encoding="utf-8")
    code = main([a.replace("{doc}", str(doc)) for a in record["argv"]])
    out, err = capsys.readouterr()
    assert (code, out, err) == (record["exit"], record["stdout"], record["stderr"])


def _base() -> KnowledgeBase:
    """Grain objects g1-g3 in a chain of adjacency, and two quantity kinds."""
    kb = KnowledgeBase()
    kb.declare_object_kind("Grain")
    kb.declare_quantity_kind("Rock")
    kb.declare_quantity_kind("Sand")
    for g in ("g1", "g2", "g3"):
        kb.create_object(g, "Grain", 0)
    kb.assert_adjacency("g1", "g2", 0)
    kb.assert_adjacency("g2", "g3", 0)
    return kb


def _rock_and_sand(kb: KnowledgeBase) -> None:
    apply_creation(kb, CreatedEntry.of("rock", "Rock", ["g2", "g3"]), 0)
    apply_creation(kb, CreatedEntry.of("sand", "Sand", ["g1", "g2"]), 1)


def _rock_then_sand(kb: KnowledgeBase) -> None:
    apply_creation(kb, CreatedEntry.of("rock", "Rock", ["g1", "g2"]), 0)
    apply_transfer(kb, ["rock"], [CreatedEntry.of("rock2", "Rock", ["g1", "g2"])], 1, event_id="move")
    apply_creation(kb, CreatedEntry.of("sand", "Sand", ["g1", "g2", "g3"]), 2)


def _quantity_record(doc: dict) -> None:
    doc["quantities"].append(
        {"id": "q", "kind": "Grain", "created_at": 0, "granules": ["g1", "g2"], "creation_event": "create-q"}
    )
    doc["events"].append(
        {"id": "create-q", "at": 0, "kind": "creation", "donors": [],
         "created": [{"id": "q", "kind": "Grain", "granules": ["g1", "g2"]}], "discarded": []}
    )


# (name, valid engine steps, the refused engine call, its error class and message,
#  the same record added to the exported document, and what validate_all reports on it)
SHARED_AXIOMS = [
    (
        "object of an undeclared kind",
        lambda kb: None,
        lambda kb: kb.create_object("o", "Pebble", 0),
        UnknownKind,
        "'Pebble' is not a declared object kind",
        lambda doc: doc["objects"].append({"id": "o", "kind": "Pebble", "created_at": 0}),
        [("A1_TYPING", "object 'o' has kind 'Pebble', which is not a declared object kind")],
    ),
    (
        "quantity of an object kind",
        lambda kb: None,
        lambda kb: apply_creation(kb, CreatedEntry.of("q", "Grain", ["g1", "g2"]), 0),
        UnknownKind,
        "'Grain' is not a declared quantity kind",
        _quantity_record,
        [("A1_TYPING", "quantity 'q' has kind 'Grain', which is not a declared quantity kind")],
    ),
    (
        "kind that requires a quantity kind",
        lambda kb: None,
        lambda kb: kb.declare_quantity_kind("Mix", ["Rock"]),
        UnknownGranuleKind,
        "kind 'Mix' requires 'Rock', which is not a declared object kind",
        lambda doc: doc["kinds"].append({"name": "Mix", "meta": "quantityKind", "requires": ["Rock"]}),
        [("A1_TYPING", "kind 'Mix' requires 'Rock', which is not a declared object kind")],
    ),
    (
        "A2 missing granule",
        _rock_and_sand,
        lambda kb: kb.assert_subquantity("sand", "rock"),
        SubQuantityNotIncluded,
        "granule(s) g1 of sub-quantity 'sand' are not granules of whole 'rock'",
        lambda doc: doc["subquantities"].append({"part": "sand", "whole": "rock"}),
        [("A2_SUBQUANTITY_INCLUSION", "granule 'g1' of sub-quantity 'sand' is not a granule of whole 'rock'")],
    ),
    (
        # A2 binds only worlds where both are live; the engine still refuses the
        # pair, so the validator reports it through the replay of H1_HISTORY.
        "A2 pair whose lifetimes do not overlap",
        _rock_then_sand,
        lambda kb: kb.assert_subquantity("sand", "rock"),
        NoLifetimeOverlap,
        "lifetimes of 'sand' and 'rock' do not overlap",
        lambda doc: doc["subquantities"].append({"part": "sand", "whole": "rock"}),
        [("H1_HISTORY", "the store cannot be rebuilt from its event log: "
                        "lifetimes of 'sand' and 'rock' do not overlap")],
    ),
]


@pytest.mark.parametrize("row", SHARED_AXIOMS, ids=[row[0] for row in SHARED_AXIOMS])
def test_engine_refuses_and_validator_reports(row):
    _, setup, refused, error, message, add_record, reported = row
    kb = _base()
    setup(kb)
    doc = kb_to_doc(kb)
    with pytest.raises(error) as caught:
        refused(kb)
    assert type(caught.value) is error
    assert str(caught.value) == message
    assert validate_all(kb).ok
    add_record(doc)
    assert [(v.rule, v.message) for v in validate_all(doc_to_kb(doc)).violations] == reported
