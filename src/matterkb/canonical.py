"""Canonical text serialization of a knowledge base (.mpkb documents).

Export is canonical: fixed section order (kinds, objects, quantities,
adjacency, subquantities, events), fixed field order, all id lists sorted,
optional fields omitted when absent. Equal knowledge bases therefore yield
byte-identical documents.

Import checks structure only (field types, id shapes, duplicates within a
section); semantic problems in hand-written documents are left for the
validators to report.
"""

from __future__ import annotations

import json
import re
from typing import Any

from .errors import DocumentError
from .events import CREATION, CreatedEntry, EventRec, GRANULE_TRANSFER
from .model import (
    AdjacencyInterval,
    KindDecl,
    KnowledgeBase,
    OBJECT_KIND,
    ObjectInst,
    QUANTITY_KIND,
    QuantityInst,
    SubQuantityAssertion,
)

_ID_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_-]*$")
_SECTIONS = ("kinds", "objects", "quantities", "adjacency", "subquantities", "events")


def kb_to_doc(kb: KnowledgeBase) -> dict[str, Any]:
    """Plain-data form of the knowledge base, already normalized."""
    kinds = []
    for decl in sorted(kb.kinds.values(), key=lambda d: d.name):
        rec: dict[str, Any] = {"name": decl.name, "meta": decl.meta}
        if decl.meta == QUANTITY_KIND:
            rec["requires"] = sorted(decl.requires)
        kinds.append(rec)
    objects = [
        {"id": o.id, "kind": o.kind, "created_at": o.created_at}
        for o in sorted(kb.objects.values(), key=lambda o: o.id)
    ]
    quantities = []
    for q in sorted(kb.quantities.values(), key=lambda q: q.id):
        rec = {"id": q.id, "kind": q.kind, "created_at": q.created_at}
        if q.terminated_at is not None:
            rec["terminated_at"] = q.terminated_at
        rec["granules"] = sorted(q.granules)
        rec["creation_event"] = q.creation_event
        quantities.append(rec)
    adjacency = []
    for iv in sorted(kb.adjacency, key=lambda i: (i.a, i.b, i.start, i.end is None, i.end)):
        rec = {"a": iv.a, "b": iv.b, "from": iv.start}
        if iv.end is not None:
            rec["to"] = iv.end
        adjacency.append(rec)
    subquantities = [
        {"part": s.part, "whole": s.whole}
        for s in sorted(kb.subquantities, key=lambda s: (s.part, s.whole))
    ]
    events = []
    for ev in kb.events:
        events.append(
            {
                "id": ev.id,
                "at": ev.at,
                "kind": ev.kind,
                "donors": sorted(ev.donors),
                "created": [
                    {"id": e.id, "kind": e.kind, "granules": sorted(e.granules)}
                    for e in sorted(ev.created, key=lambda e: e.id)
                ],
                "discarded": sorted(ev.discarded),
            }
        )
    return {
        "kinds": kinds,
        "objects": objects,
        "quantities": quantities,
        "adjacency": adjacency,
        "subquantities": subquantities,
        "events": events,
    }


def export_document(kb: KnowledgeBase) -> str:
    """Canonical text rendering; equal knowledge bases export identical bytes."""
    return json.dumps(kb_to_doc(kb), indent=2) + "\n"


def import_document(text: str) -> KnowledgeBase:
    """Parse a document and build a knowledge base without engine checks.

    Raises DocumentError with a path to the offending field on any structural
    problem. The result may violate semantic rules; run the validators.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError("$", f"not a well-formed document: {exc}") from exc
    return doc_to_kb(doc)


def doc_to_kb(doc: Any) -> KnowledgeBase:
    if not isinstance(doc, dict):
        raise DocumentError("$", f"expected an object, got {type(doc).__name__}")
    extra = sorted(set(doc) - set(_SECTIONS))
    if extra:
        raise DocumentError("$", f"unexpected section(s): {', '.join(extra)}")
    missing = [s for s in _SECTIONS if s not in doc]
    if missing:
        raise DocumentError("$", f"missing section(s): {', '.join(missing)}")

    kb = KnowledgeBase()
    _read_kinds(kb, _array(doc, "kinds"))
    _read_objects(kb, _array(doc, "objects"))
    _read_quantities(kb, _array(doc, "quantities"))
    _read_adjacency(kb, _array(doc, "adjacency"))
    _read_subquantities(kb, _array(doc, "subquantities"))
    _read_events(kb, _array(doc, "events"))
    return kb


def _read_kinds(kb: KnowledgeBase, items: list) -> None:
    for i, item in enumerate(items):
        path = f"kinds[{i}]"
        rec = _record(item, path, required=("name", "meta"), optional=("requires",))
        name = _identifier(rec, "name", path)
        meta = _string(rec, "meta", path)
        if meta not in (QUANTITY_KIND, OBJECT_KIND):
            raise DocumentError(f"{path}.meta", f"expected '{QUANTITY_KIND}' or '{OBJECT_KIND}', got '{meta}'")
        if meta == QUANTITY_KIND:
            if "requires" not in rec:
                raise DocumentError(f"{path}.requires", "quantity kinds must carry a requires list")
            requires = _id_list(rec["requires"], f"{path}.requires")
        else:
            if "requires" in rec:
                raise DocumentError(f"{path}.requires", "object kinds must not carry a requires list")
            requires = []
        if name in kb.kinds:
            raise DocumentError(f"{path}.name", f"duplicate kind '{name}'")
        kb.kinds[name] = KindDecl(name, meta, frozenset(requires))


def _read_objects(kb: KnowledgeBase, items: list) -> None:
    for i, item in enumerate(items):
        path = f"objects[{i}]"
        rec = _record(item, path, required=("id", "kind", "created_at"))
        oid = _identifier(rec, "id", path)
        if oid in kb.objects:
            raise DocumentError(f"{path}.id", f"duplicate object '{oid}'")
        kb.objects[oid] = ObjectInst(oid, _identifier(rec, "kind", path), _time(rec, "created_at", path))


def _read_quantities(kb: KnowledgeBase, items: list) -> None:
    for i, item in enumerate(items):
        path = f"quantities[{i}]"
        rec = _record(
            item, path,
            required=("id", "kind", "created_at", "granules", "creation_event"),
            optional=("terminated_at",),
        )
        qid = _identifier(rec, "id", path)
        if qid in kb.quantities:
            raise DocumentError(f"{path}.id", f"duplicate quantity '{qid}'")
        if qid in kb.objects:
            raise DocumentError(f"{path}.id", f"id '{qid}' is already used by an object")
        terminated = _time(rec, "terminated_at", path) if "terminated_at" in rec else None
        kb.quantities[qid] = QuantityInst(
            id=qid,
            kind=_identifier(rec, "kind", path),
            created_at=_time(rec, "created_at", path),
            granules=frozenset(_id_list(rec["granules"], f"{path}.granules")),
            creation_event=_identifier(rec, "creation_event", path),
            terminated_at=terminated,
        )


def _read_adjacency(kb: KnowledgeBase, items: list) -> None:
    for i, item in enumerate(items):
        path = f"adjacency[{i}]"
        rec = _record(item, path, required=("a", "b", "from"), optional=("to",))
        a = _identifier(rec, "a", path)
        b = _identifier(rec, "b", path)
        if a == b:
            raise DocumentError(f"{path}.b", "adjacency endpoints must differ")
        start = _time(rec, "from", path)
        end = _time(rec, "to", path) if "to" in rec else None
        if end is not None and end <= start:
            raise DocumentError(f"{path}.to", f"interval end t{end} must follow start t{start}")
        a, b = sorted((a, b))
        kb.adjacency.append(AdjacencyInterval(a, b, start, end))


def _read_subquantities(kb: KnowledgeBase, items: list) -> None:
    for i, item in enumerate(items):
        path = f"subquantities[{i}]"
        rec = _record(item, path, required=("part", "whole"))
        kb.subquantities.add(
            SubQuantityAssertion(_identifier(rec, "part", path), _identifier(rec, "whole", path))
        )


def _read_events(kb: KnowledgeBase, items: list) -> None:
    seen = set()
    for i, item in enumerate(items):
        path = f"events[{i}]"
        rec = _record(item, path, required=("id", "at", "kind", "donors", "created", "discarded"))
        ev_id = _identifier(rec, "id", path)
        if ev_id in seen:
            raise DocumentError(f"{path}.id", f"duplicate event '{ev_id}'")
        seen.add(ev_id)
        kind = _string(rec, "kind", path)
        if kind not in (CREATION, GRANULE_TRANSFER):
            raise DocumentError(f"{path}.kind", f"expected '{CREATION}' or '{GRANULE_TRANSFER}', got '{kind}'")
        donors = _id_list(rec["donors"], f"{path}.donors")
        created_raw = rec["created"]
        if not isinstance(created_raw, list):
            raise DocumentError(f"{path}.created", "expected an array")
        created = []
        for j, sub in enumerate(created_raw):
            sub_path = f"{path}.created[{j}]"
            sub_rec = _record(sub, sub_path, required=("id", "kind", "granules"))
            created.append(
                CreatedEntry(
                    _identifier(sub_rec, "id", sub_path),
                    _identifier(sub_rec, "kind", sub_path),
                    frozenset(_id_list(sub_rec["granules"], f"{sub_path}.granules")),
                )
            )
        if kind == CREATION and (donors or len(created) != 1):
            raise DocumentError(path, "a creation event has no donors and exactly one created quantity")
        if kind == GRANULE_TRANSFER and (not donors or not created):
            raise DocumentError(path, "a granule transfer has at least one donor and one created quantity")
        kb.events.append(
            EventRec(
                ev_id,
                _time(rec, "at", path),
                kind,
                frozenset(donors),
                tuple(sorted(created, key=lambda e: e.id)),
                frozenset(_id_list(rec["discarded"], f"{path}.discarded")),
            )
        )


def _array(doc: dict, key: str) -> list:
    value = doc[key]
    if not isinstance(value, list):
        raise DocumentError(key, f"expected an array, got {type(value).__name__}")
    return value


def _record(item: Any, path: str, required: tuple[str, ...], optional: tuple[str, ...] = ()) -> dict:
    if not isinstance(item, dict):
        raise DocumentError(path, f"expected an object, got {type(item).__name__}")
    unknown = sorted(set(item) - set(required) - set(optional))
    if unknown:
        raise DocumentError(path, f"unexpected field(s): {', '.join(unknown)}")
    missing = [f for f in required if f not in item]
    if missing:
        raise DocumentError(path, f"missing field(s): {', '.join(missing)}")
    return item


def _string(rec: dict, key: str, path: str) -> str:
    value = rec[key]
    if not isinstance(value, str):
        raise DocumentError(f"{path}.{key}", f"expected a string, got {type(value).__name__}")
    return value


def _identifier(rec: dict, key: str, path: str) -> str:
    value = _string(rec, key, path)
    if not _ID_RE.match(value):
        raise DocumentError(f"{path}.{key}", f"'{value}' is not a valid identifier")
    return value


def _time(rec: dict, key: str, path: str) -> int:
    value = rec[key]
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise DocumentError(f"{path}.{key}", f"expected a non-negative integer, got {value!r}")
    return value


def _id_list(value: Any, path: str) -> list[str]:
    if not isinstance(value, list):
        raise DocumentError(path, f"expected an array, got {type(value).__name__}")
    out = []
    for i, item in enumerate(value):
        if not isinstance(item, str) or not _ID_RE.match(item):
            raise DocumentError(f"{path}[{i}]", f"{item!r} is not a valid identifier")
        if item in out:
            raise DocumentError(f"{path}[{i}]", f"duplicate entry '{item}'")
        out.append(item)
    return out
