"""Value semantics of the records built once per parsed, imported or replayed record.

Each record compares by value, hashes, refuses field assignment and keeps its
repr. The expected reprs were recorded when these records were frozen
dataclasses. The quantity and interval records of a store stay mutable, since
a quantity ends and an interval closes in place; they are slotted dataclasses,
with the reprs they had with an instance ``__dict__``.
"""

import copy

import pytest

from matterkb.dsl import (
    AdjacencyStmt,
    CreateClause,
    EventStmt,
    KindStmt,
    ObjectStmt,
    Pos,
    QuantityStmt,
    SubquantityStmt,
)
from matterkb.events import CreatedEntry, EventRec
from matterkb.canonical import export_document, import_document
from matterkb.model import AdjacencyInterval, ObjectInst, QuantityInst

from helpers import build_random_kb

P = Pos(3, 5)
ENTRY = CreatedEntry("r2", "Rock", frozenset({"g1"}))
CLAUSE = CreateClause("r2", "Rock", ("g1", "g2"), Pos(4, 3))

RECORDS = [
    (
        lambda: ObjectInst("g1", "Grain", 3),
        ("id", "kind", "created_at"),
        "ObjectInst(id='g1', kind='Grain', created_at=3)",
    ),
    (
        lambda: CreatedEntry("r2", "Rock", frozenset({"g1"})),
        ("id", "kind", "granules"),
        "CreatedEntry(id='r2', kind='Rock', granules=frozenset({'g1'}))",
    ),
    (
        lambda: EventRec("e1", 2, "granuleTransfer", frozenset({"r1"}), (ENTRY,), frozenset()),
        ("id", "at", "kind", "donors", "created", "discarded"),
        "EventRec(id='e1', at=2, kind='granuleTransfer', donors=frozenset({'r1'}), "
        "created=(CreatedEntry(id='r2', kind='Rock', granules=frozenset({'g1'})),), "
        "discarded=frozenset())",
    ),
    (lambda: Pos(3, 5), ("line", "column"), "Pos(line=3, column=5)"),
    (
        lambda: KindStmt("Rock", "quantityKind", ("Grain",), P),
        ("name", "meta", "requires", "pos"),
        "KindStmt(name='Rock', meta='quantityKind', requires=('Grain',), pos=Pos(line=3, column=5))",
    ),
    (
        lambda: ObjectStmt("g1", "Grain", 0, P),
        ("id", "kind", "at", "pos"),
        "ObjectStmt(id='g1', kind='Grain', at=0, pos=Pos(line=3, column=5))",
    ),
    (
        lambda: QuantityStmt("r1", "Rock", 1, ("g1", "g2"), P),
        ("id", "kind", "at", "granules", "pos"),
        "QuantityStmt(id='r1', kind='Rock', at=1, granules=('g1', 'g2'), pos=Pos(line=3, column=5))",
    ),
    (
        lambda: AdjacencyStmt("g1", "g2", 4, False, P),
        ("a", "b", "at", "connect", "pos"),
        "AdjacencyStmt(a='g1', b='g2', at=4, connect=False, pos=Pos(line=3, column=5))",
    ),
    (
        lambda: SubquantityStmt("b1", "r1", P),
        ("part", "whole", "pos"),
        "SubquantityStmt(part='b1', whole='r1', pos=Pos(line=3, column=5))",
    ),
    (
        lambda: CreateClause("r2", "Rock", ("g1", "g2"), Pos(4, 3)),
        ("id", "kind", "granules", "pos"),
        "CreateClause(id='r2', kind='Rock', granules=('g1', 'g2'), pos=Pos(line=4, column=3))",
    ),
    (
        lambda: EventStmt("split", 2, ("r1",), (CLAUSE,), (), P),
        ("name", "at", "donors", "creates", "discard", "pos"),
        "EventStmt(name='split', at=2, donors=('r1',), creates=(CreateClause(id='r2', kind='Rock', "
        "granules=('g1', 'g2'), pos=Pos(line=4, column=3)),), discard=(), pos=Pos(line=3, column=5))",
    ),
]


@pytest.mark.parametrize("make, names, expected_repr", RECORDS, ids=[r[2].partition("(")[0] for r in RECORDS])
def test_record_semantics(make, names, expected_repr):
    record, twin = make(), make()
    assert repr(record) == expected_repr
    assert record == twin and not record != twin
    assert hash(record) == hash(twin) and len({record, twin}) == 1
    values = [getattr(record, name) for name in names]
    for i, name in enumerate(names):
        other = type(record)(*values[:i], "changed", *values[i + 1:])
        assert record != other, name
        with pytest.raises(AttributeError):
            setattr(record, name, values[i])
    assert [getattr(record, name) for name in names] == values


def test_created_entry_of_builds_a_granule_set():
    assert CreatedEntry.of("r2", "Rock", ["g1", "g1"]) == ENTRY


STORE_RECORDS = [
    (
        lambda: QuantityInst("r1", "Rock", 1, frozenset({"g1"}), "e1"),
        ("id", "kind", "created_at", "granules", "creation_event", "terminated_at"),
        "QuantityInst(id='r1', kind='Rock', created_at=1, granules=frozenset({'g1'}), "
        "creation_event='e1', terminated_at=None)",
    ),
    (
        lambda: AdjacencyInterval("g1", "g2", 4),
        ("a", "b", "start", "end"),
        "AdjacencyInterval(a='g1', b='g2', start=4, end=None)",
    ),
]


@pytest.mark.parametrize("make, names, expected_repr", STORE_RECORDS, ids=[r[2].partition("(")[0] for r in STORE_RECORDS])
def test_store_record_semantics(make, names, expected_repr):
    record, twin = make(), make()
    assert repr(record) == expected_repr
    assert record == twin and not record != twin
    with pytest.raises(TypeError):  # compared by value, so not hashable
        hash(record)
    values = [getattr(record, name) for name in names]
    for i, name in enumerate(names):
        other = type(record)(*values[:i], "changed", *values[i + 1:])
        assert record != other, name
    assert not hasattr(record, "__dict__")
    with pytest.raises(AttributeError):  # no instance dict to take a field of another name
        record.note = "x"
    last = names[-1]  # terminated_at or end: it is set in place
    setattr(record, last, 9)
    assert getattr(record, last) == 9 and record != twin
    assert repr(record) == expected_repr.replace(f"{last}=None", f"{last}=9")


def test_deep_copy_of_an_imported_store_equals_it():
    kb = import_document(export_document(build_random_kb(10, max_events=150, max_objects=120)))
    assert any(q.terminated_at is not None for q in kb.quantities.values())
    assert any(iv.end is not None for iv in kb.adjacency)
    twin = copy.deepcopy(kb)
    assert twin == kb and export_document(twin) == export_document(kb)
    for records, kind in [(kb.objects.values(), ObjectInst), (kb.quantities.values(), QuantityInst),
                          (kb.adjacency, AdjacencyInterval), (kb.events, EventRec),
                          ([e for ev in kb.events for e in ev.created], CreatedEntry)]:
        assert records and {type(r) for r in records} == {kind}
    q = next(q for q in twin.quantities.values() if q.terminated_at is None)
    q.terminated_at = q.created_at + 1  # the copy's records are its own
    assert twin != kb and kb.quantities[q.id].terminated_at is None
