"""Canonical text serialization of a knowledge base (.mpkb documents).

Export is canonical: fixed section order (kinds, objects, quantities,
adjacency, subquantities, events), fixed field order, all id lists sorted,
optional fields omitted when absent. Equal knowledge bases therefore yield
byte-identical documents. ``export_document`` writes a document straight from
the records; ``dumps`` writes query payloads and reports for ``cli``. Tests pin
both to ``json.dumps(indent=2)``.

Import checks structure only (field types, id shapes, duplicates within a
section); semantic problems in hand-written documents are left for the
validators to report. Each section but the few kind declarations and
sub-quantity assertions is checked in bulk, a column at a time. Only when a
bulk check fails is the section read again record by record, to raise the
first bad field's ``DocumentError`` in document order.
"""

from __future__ import annotations

import json
import re
from itertools import chain, islice
from json.encoder import encode_basestring_ascii as _str
from operator import attrgetter, eq, itemgetter
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

_ID_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_-]*")
# A column of identifiers joined by newlines holds only identifier characters
# and newlines, and an identifier starts after each newline. Neither pattern
# repeats a group: the regex engine keeps state for each pass through a
# repeated group, which would cost memory per identifier.
_ID_COLUMN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_\n-]*")
_BAD_ID_START_RE = re.compile(r"\n(?![A-Za-z_])")
_SECTIONS = ("kinds", "objects", "quantities", "adjacency", "subquantities", "events")


def kb_to_doc(kb: KnowledgeBase) -> dict[str, Any]:
    """Plain-data form of the knowledge base, already normalized: its document, read back."""
    return json.loads(export_document(kb))


def export_document(kb: KnowledgeBase) -> str:
    """Canonical text rendering; equal knowledge bases export identical bytes."""
    # json.dumps(kb_to_doc(kb), indent=2) + "\n", from one template per record shape. All
    # records go into one list, joined once: a section joined alone would raise peak memory.
    sections = (
        (f'\n    {{{_NL6}"name": {_str(d.name)},{_NL6}"meta": {_str(d.meta)}'
         f'{_optional("requires", sorted(d.requires) if d.meta == QUANTITY_KIND else None)}\n    }},'
         for d in sorted(kb.kinds.values(), key=attrgetter("name"))),
        (f'\n    {{{_NL6}"id": {_str(o.id)},{_NL6}"kind": {_str(o.kind)},'
         f'{_NL6}"created_at": {_encode(o.created_at)}\n    }},' for o in sorted(kb.objects.values(), key=_BY_ID)),
        (f'\n    {{{_NL6}"id": {_str(q.id)},{_NL6}"kind": {_str(q.kind)},{_NL6}"created_at": {_encode(q.created_at)}'
         f'{_optional("terminated_at", q.terminated_at)},{_NL6}"granules": {_encode(sorted(q.granules), _NL6)},'
         f'{_NL6}"creation_event": {_str(q.creation_event)}\n    }},'
         for q in sorted(kb.quantities.values(), key=_BY_ID)),
        (f'\n    {{{_NL6}"a": {_str(i.a)},{_NL6}"b": {_str(i.b)},{_NL6}"from": {_encode(i.start)}'
         f'{_optional("to", i.end)}\n    }},'
         for i in sorted(kb.adjacency, key=lambda i: (i.a, i.b, i.start, i.end is None, i.end))),
        (f'\n    {{{_NL6}"part": {_str(s.part)},{_NL6}"whole": {_str(s.whole)}\n    }},'
         for s in sorted(kb.subquantities, key=attrgetter("part", "whole"))),
        (f'\n    {{{_NL6}"id": {_str(e.id)},{_NL6}"at": {_encode(e.at)},{_NL6}"kind": {_str(e.kind)},'
         f'{_NL6}"donors": {_encode(sorted(e.donors), _NL6)},{_NL6}"created": {_created(e.created)},'
         f'{_NL6}"discarded": {_encode(sorted(e.discarded), _NL6)}\n    }},' for e in kb.events),
    )
    parts = ["{"]  # a record's text ends in a comma, which its section's last record drops
    for name, records in zip(_SECTIONS, sections):
        parts.append(f'\n  "{name}": [')
        size = len(parts)
        parts += records
        parts[-1] = parts[-1] + "]," if len(parts) == size else parts[-1][:-1] + "\n  ],"
    parts[-1] = parts[-1][:-1] + "\n}\n"
    return "".join(parts)


_NL6, _NL10 = "\n      ", "\n          "  # the line break before a record's field, an entry's field


def _created(entries: tuple[CreatedEntry, ...]) -> str:
    return "[" + ",".join(
        f'\n        {{{_NL10}"id": {_str(c.id)},{_NL10}"kind": {_str(c.kind)},'
        f'{_NL10}"granules": {_encode(sorted(c.granules), _NL10)}\n        }}' for c in sorted(entries, key=_BY_ID)
    ) + (_NL6 + "]" if entries else "]")


def _optional(key: str, value: Any) -> str:
    return "" if value is None else f',{_NL6}"{key}": {_encode(value, _NL6)}'


def dumps(value: Any) -> str:
    """Exactly ``json.dumps(value, indent=2)`` for plain JSON data: query payloads and reports.

    ``json.dumps`` encodes in pure Python whenever it indents; this writer leaves every
    string to the C string encoder and joins a list of strings in one pass. Dict keys must
    be strings. A leaf other than a str, int, bool or None (a float, say) is rendered by
    ``json.dumps``, which gives the same bytes at any depth.
    """
    return _encode(value, "\n")


def _encode(value: Any, newline: str = "\n") -> str:
    # A dict or a list of containers is one join over its parts, with no
    # string per field or body: a large section is then copied only into its
    # parent, and large short-lived strings raise the process's peak memory.
    if type(value) is int:  # first, for the times of a document
        return int.__repr__(value)
    if isinstance(value, str):
        return _str(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = newline + "  "
        sep = "," + inner
        try:
            return f"[{inner}{sep.join(map(_str, value))}{newline}]"
        except TypeError:  # not a list of strings
            pass
        parts = [sep] * (2 * len(value) + 1)
        parts[1::2] = [_encode(v, inner) for v in value]
        parts[0] = "[" + inner
        parts[-1] = newline + "]"
        return "".join(parts)
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + "  "
        sep = "," + inner
        parts = ["{" + inner]
        for key, v in value.items():
            t = type(v)
            if t is str:
                text = _str(v)
            elif t is int:
                text = int.__repr__(v)
            else:
                text = _encode(v, inner)
            parts += (_str(key), ": ", text, sep)
        parts[-1] = newline + "}"
        return "".join(parts)
    if value is None:
        return "null"
    if value is True or value is False:
        return "true" if value else "false"
    return json.dumps(value)


def import_document(text: str) -> KnowledgeBase:
    """Parse a document and build a knowledge base without engine checks.

    Raises DocumentError with a path to the offending field on any structural
    problem, a repeated key first. The result may violate semantic rules; run
    the validators.
    """
    doc = _loads(text)
    try:
        kb = doc_to_kb(doc)
    except DocumentError:
        _reject_repeated_keys(text)
        raise
    # A key is followed by one ':' outside strings, and a loaded document holds no ':' in
    # a string, so there are more colons than keys exactly when json.loads dropped a repeat.
    created = chain.from_iterable(map(itemgetter("created"), doc["events"]))
    if text.count(":") != sum(map(len, chain([doc], *map(doc.get, _SECTIONS), created))):
        _reject_repeated_keys(text)
    return kb


def _loads(text: str, **options: Any) -> Any:
    try:
        return json.loads(text, **options)
    except json.JSONDecodeError as exc:
        raise DocumentError("$", f"not a well-formed document: {exc}") from exc
    except RecursionError as exc:  # the parser recurses once per nested array or object
        raise DocumentError("$", "nested too deeply to read") from exc


def _reject_repeated_keys(text: str) -> None:
    """Raise a DocumentError at a repeated key, if any: in an object before any in its values."""
    pending = [("$", _loads(text, object_pairs_hook=tuple))]  # an object is a tuple of pairs
    while pending:
        path, value = pending.pop()
        if isinstance(value, list):
            pending += reversed([(f"{path}[{i}]", v) for i, v in enumerate(value)])
        elif isinstance(value, tuple):
            children = [(key if path == "$" else f"{path}.{key}", v) for key, v in value]
            seen: set[str] = set()
            for (child, _), (key, _) in zip(children, value):
                if key in seen:
                    raise DocumentError(child, f"repeated key '{key}'")
                seen.add(key)
            pending += reversed(children)


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
    for key, bulk, walk in _READERS:
        items = _array(doc, key)
        if bulk is None or not bulk(kb, items):
            walk(kb, items)
    return kb


# -- bulk readers -------------------------------------------------------------------
# Each checks a whole section and adds it to the KB only when every check
# passes; otherwise it returns False and leaves the KB as it was. A check may
# be stricter than the record-by-record reader (a dict subclass fails it), as
# that reader then decides.


_OBJECT_KEYS = frozenset(("id", "kind", "created_at"))
_QUANTITY_KEYS = frozenset(("id", "kind", "created_at", "granules", "creation_event"))
_ADJACENCY_KEYS = frozenset(("a", "b", "from"))
_EVENT_KEYS = frozenset(("id", "at", "kind", "donors", "created", "discarded"))
_CREATED_KEYS = frozenset(("id", "kind", "granules"))
_EVENT_KINDS = frozenset((CREATION, GRANULE_TRANSFER))
_BY_ID = attrgetter("id")


def _bulk_objects(kb: KnowledgeBase, items: list) -> bool:
    if not _shaped(items, _OBJECT_KEYS):
        return False
    ids, kinds, times = _columns(items, "id", "kind", "created_at")
    if not (_ids(ids) and _distinct(ids) and _ids(kinds) and _times(times)):
        return False
    kb.objects.update(zip(ids, map(ObjectInst, ids, kinds, times)))
    return True


def _bulk_quantities(kb: KnowledgeBase, items: list) -> bool:
    if not _shaped(items, _QUANTITY_KEYS, "terminated_at"):
        return False
    ids, kinds, created, granules, events = _columns(
        items, "id", "kind", "created_at", "granules", "creation_event"
    )
    if not (
        _ids(ids) and _distinct(ids) and kb.objects.keys().isdisjoint(ids)
        and _ids(kinds) and _times(created) and _ids(events)
        and _times([r["terminated_at"] for r in items if "terminated_at" in r])
    ):
        return False
    granule_sets = _id_sets(granules)
    if granule_sets is None:
        return False
    ends = [r.get("terminated_at") for r in items]
    kb.quantities.update(zip(ids, map(QuantityInst, ids, kinds, created, granule_sets, events, ends)))
    return True


def _bulk_adjacency(kb: KnowledgeBase, items: list) -> bool:
    if not _shaped(items, _ADJACENCY_KEYS, "to"):
        return False
    a, b, starts = _columns(items, "a", "b", "from")
    if not (
        _ids(a) and _ids(b) and not any(map(eq, a, b)) and _times(starts)
        and _times([r["to"] for r in items if "to" in r])
    ):
        return False
    ends = [r.get("to") for r in items]
    if any(end is not None and end <= start for start, end in zip(starts, ends)):
        return False
    kb.adjacency += [
        AdjacencyInterval(x, y, start, end) if x < y else AdjacencyInterval(y, x, start, end)
        for x, y, start, end in zip(a, b, starts, ends)
    ]
    return True


def _bulk_events(kb: KnowledgeBase, items: list) -> bool:
    if not _shaped(items, _EVENT_KEYS):
        return False
    ids, ats, kinds, donors, created, discarded = _columns(
        items, "id", "at", "kind", "donors", "created", "discarded"
    )
    if not (
        _ids(ids) and _distinct(ids) and _times(ats)
        and _types(kinds, str) and _EVENT_KINDS.issuperset(kinds) and _types(created, list)
    ):
        return False
    entries = list(chain.from_iterable(created))
    if not _shaped(entries, _CREATED_KEYS):
        return False
    entry_ids, entry_kinds, entry_granules = _columns(entries, "id", "kind", "granules")
    if not (_ids(entry_ids) and _ids(entry_kinds)):
        return False
    donor_sets, discarded_sets, granule_sets = map(_id_sets, (donors, discarded, entry_granules))
    if donor_sets is None or discarded_sets is None or granule_sets is None:
        return False
    if not all([
        (not d and len(c) == 1) if kind == CREATION else bool(d and c)
        for kind, d, c in zip(kinds, donor_sets, created)
    ]):
        return False
    built = iter(map(CreatedEntry, entry_ids, entry_kinds, granule_sets))
    created_recs = [tuple(sorted(islice(built, len(c)), key=_BY_ID)) for c in created]
    kb.events += map(EventRec, ids, ats, kinds, donor_sets, created_recs, discarded_sets)
    return True


def _shaped(items: list, keys: frozenset[str], optional: str | None = None) -> bool:
    """Every item is a dict with exactly ``keys``, plus ``optional`` or not."""
    if not _types(items, dict):
        return False
    if optional is None:
        return all([r.keys() == keys for r in items])
    longer = keys | {optional}
    return all([r.keys() == keys or r.keys() == longer for r in items])


def _columns(items: list, *keys: str) -> list[list]:
    return [list(map(itemgetter(key), items)) for key in keys]


def _types(column: list, kind: type) -> bool:
    return set(map(type, column)) <= {kind}


def _ids(column: list) -> bool:
    """Every entry is an identifier, checked over the column joined by newlines."""
    if not column:
        return True
    try:
        text = "\n".join(column)
    except TypeError:  # not all strings
        return False
    # an entry holding a newline would split into two tokens, so count them
    return (
        text.count("\n") == len(column) - 1
        and _ID_COLUMN_RE.fullmatch(text) is not None
        and _BAD_ID_START_RE.search(text) is None
    )


def _distinct(ids: list[str]) -> bool:
    return len(set(ids)) == len(ids)


def _times(column: list) -> bool:
    """Every entry is a non-negative int; a bool is not one."""
    return not column or (_types(column, int) and min(column) >= 0)


def _id_sets(lists: list) -> list[frozenset[str]] | None:
    """Each list as a set, if each is a list of distinct identifiers."""
    if not (_types(lists, list) and _ids(list(chain.from_iterable(lists)))):
        return None
    sets = list(map(frozenset, lists))
    return sets if list(map(len, sets)) == list(map(len, lists)) else None


# -- record-by-record readers ---------------------------------------------------------
# They raise the first bad field's DocumentError in document order. A document
# declares a handful of kinds and asserts few sub-quantities, so kinds and
# sub-quantity assertions are only ever read this way.


def _read_kinds(kb: KnowledgeBase, items: list) -> None:
    for i, item in enumerate(items):
        path = f"kinds[{i}]"
        rec = _record(item, path, required=("name", "meta"), optional=("requires",))
        name = _identifier(rec, "name", path)
        meta = _string(rec, "meta", path)
        if meta not in (QUANTITY_KIND, OBJECT_KIND):
            raise DocumentError(f"{path}.meta", f"expected '{QUANTITY_KIND}' or '{OBJECT_KIND}', got '{meta}'")
        if meta == QUANTITY_KIND and "requires" not in rec:
            raise DocumentError(f"{path}.requires", "quantity kinds must carry a requires list")
        if meta == OBJECT_KIND and "requires" in rec:
            raise DocumentError(f"{path}.requires", "object kinds must not carry a requires list")
        requires = _id_list(rec["requires"], f"{path}.requires") if "requires" in rec else []
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
            qid, _identifier(rec, "kind", path), _time(rec, "created_at", path),
            frozenset(_id_list(rec["granules"], f"{path}.granules")), _identifier(rec, "creation_event", path),
            terminated,
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
        part, whole = _identifier(rec, "part", path), _identifier(rec, "whole", path)
        kb.subquantities.add(SubQuantityAssertion(part, whole))


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
            created.append(CreatedEntry(
                _identifier(sub_rec, "id", sub_path), _identifier(sub_rec, "kind", sub_path),
                frozenset(_id_list(sub_rec["granules"], f"{sub_path}.granules")),
            ))
        if kind == CREATION and (donors or len(created) != 1):
            raise DocumentError(path, "a creation event has no donors and exactly one created quantity")
        if kind == GRANULE_TRANSFER and (not donors or not created):
            raise DocumentError(path, "a granule transfer has at least one donor and one created quantity")
        kb.events.append(EventRec(
            ev_id, _time(rec, "at", path), kind, frozenset(donors), tuple(sorted(created, key=_BY_ID)),
            frozenset(_id_list(rec["discarded"], f"{path}.discarded")),
        ))


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
    if not _ID_RE.fullmatch(value):
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
    seen = set()
    for i, item in enumerate(value):
        if not isinstance(item, str) or not _ID_RE.fullmatch(item):
            raise DocumentError(f"{path}[{i}]", f"{item!r} is not a valid identifier")
        if item in seen:
            raise DocumentError(f"{path}[{i}]", f"duplicate entry '{item}'")
        seen.add(item)
    return value


_READERS = (
    ("kinds", None, _read_kinds),
    ("objects", _bulk_objects, _read_objects),
    ("quantities", _bulk_quantities, _read_quantities),
    ("adjacency", _bulk_adjacency, _read_adjacency),
    ("subquantities", None, _read_subquantities),
    ("events", _bulk_events, _read_events),
)
