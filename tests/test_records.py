"""Value semantics of the records built once per parsed, imported or replayed record.

Each record compares by value, hashes, refuses field assignment and keeps its
repr. The expected reprs were recorded when these records were frozen
dataclasses.
"""

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
from matterkb.model import ObjectInst

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
