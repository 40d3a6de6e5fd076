"""Canonical text serialization of a knowledge base (.mpkb documents).

Each section has one schema in ``_TABLE``, for reading and writing: its fields
in document order with their types, its optional field, its records' sort
order, its checks in the order faults are reported, and one step that adds
checked columns to the KB. Export is canonical, so equal knowledge bases yield
byte-identical documents; ``export_document`` writes each section a column at a
time, and ``dumps`` writes query payloads and reports for ``cli``. Tests pin
both to ``json.dumps(indent=2)``.

Import checks structure only (field types, id shapes, duplicate ids), leaving
semantic problems to the validators. A section is read in bulk, a column at a
time; only when a check fails is it read again record by record, with the same
checks, to raise the first fault's ``DocumentError``.
"""

from __future__ import annotations

import json
import re
from itertools import chain, islice, repeat
from json.encoder import encode_basestring_ascii as _str
from operator import attrgetter, eq, itemgetter
from typing import Any, Callable, Iterable, Iterator, NamedTuple

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
    collector_paused,
)

_ID_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_-]*")
# A column of identifiers joined by newlines holds only identifier characters
# and newlines, and an identifier starts after each newline. Neither pattern
# repeats a group: the regex engine keeps state for each pass through a
# repeated group, which would cost memory per identifier.
_ID_COLUMN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_\n-]*")
_BAD_ID_START_RE = re.compile(r"\n(?![A-Za-z_])")


def kb_to_doc(kb: KnowledgeBase) -> dict[str, Any]:
    """Plain-data form of the knowledge base, already normalized: its document, read back."""
    return json.loads(export_document(kb))


def export_document(kb: KnowledgeBase) -> str:
    """Canonical text rendering; equal knowledge bases export identical bytes."""
    # json.dumps(kb_to_doc(kb), indent=2) + "\n", each section written from its schema. All
    # records go into one list, joined once: a section joined alone would raise peak memory.
    parts = ["{"]  # a record's text ends in a comma, which its section's last record drops
    for name, section in _TABLE.items():
        records = getattr(kb, name)  # kinds, objects and quantities are keyed by their ids
        records = records.values() if isinstance(records, dict) else records
        parts.append(f'\n  "{name}": [')
        size = len(parts)
        parts += _write(section, sorted(records, key=section.order) if section.order else records, "\n  ")
        parts[-1] = parts[-1] + "]," if len(parts) == size else parts[-1][:-1] + "\n  ],"
    parts[-1] = parts[-1][:-1] + "\n}\n"
    return "".join(parts)


def _write(section: _Section, records: list, newline: str) -> Iterator[str]:
    """Each record's text, ending in a comma, in a list at line break ``newline``, from its fields' columns."""
    brace, inner = newline + "  ", newline + "    "
    pieces, sep = [repeat(brace + "{")], inner
    for name, kind in section.fields.items():
        values = list(map(section.source.get(name) or attrgetter(name), records))
        key, sep = f'{sep}"{name}": ', "," + inner
        if name == section.optional:  # written with its key where it is not None
            texts = iter(kind.write([v for v in values if v is not None], inner))
            pieces.append([key + next(texts) if v is not None else "" for v in values])
        else:
            pieces += (repeat(key), kind.write(values, inner))
    pieces.append(repeat(brace + "},"))
    return map("".join, zip(*pieces))


def dumps(value: Any) -> str:
    """Exactly ``json.dumps(value, indent=2)`` for plain JSON data: query payloads and reports.

    ``json.dumps`` encodes in pure Python whenever it indents; this writer joins each
    container's parts once and leaves every string to the C string encoder. Dict keys
    must be strings. A leaf other than a str or an int (a bool, None or a float, say) is
    rendered by ``json.dumps``, which gives the same bytes at any depth.
    """
    return _encode(value, "\n")


def _encode(value: Any, newline: str) -> str:
    """``value`` as ``dumps`` writes it, its lines after the first starting at ``newline``."""
    if type(value) is int:  # not a bool, which json.dumps writes as true or false
        return int.__repr__(value)
    if isinstance(value, dict):  # a subclass too, written indented as json.dumps writes it
        inner = newline + "  "
        parts = [f"{_str(k)}: {_str(v) if type(v) is str else _encode(v, inner)}" for k, v in value.items()]
        return f"{{{inner}{(',' + inner).join(parts)}{newline}}}" if parts else "{}"
    if isinstance(value, (list, tuple)):
        inner = newline + "  "
        parts = [_str(v) if type(v) is str else _encode(v, inner) for v in value]
        return f"[{inner}{(',' + inner).join(parts)}{newline}]" if parts else "[]"
    return json.dumps(value)


def import_document(text: str) -> KnowledgeBase:
    """Parse a document and build a knowledge base without engine checks.

    Raises DocumentError with a path to the offending field on any structural
    problem, a repeated key first. The result may violate semantic rules; run
    the validators. Reads with the cyclic collector paused, as a command does.
    """
    with collector_paused():
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
        del doc, created  # freed while paused: the collection that may follow walks only the store
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
    for name, section in _TABLE.items():
        items = doc[name]
        if not isinstance(items, list):
            raise DocumentError(name, f"expected an array, got {type(items).__name__}")
        columns = _bulk(section, kb, items)
        if columns is None:
            _locate(section, kb, items, name)
        else:
            section.add(kb, columns)
    return kb


# -- one schema per section -----------------------------------------------------------


class _Type(NamedTuple):
    column: Callable[[list], list | None]  # a column's checked values, or None
    value: Callable[[Any, str], Any]  # one value checked, or a DocumentError at the path given
    write: Callable[[list, str], Iterable[str]]  # a column's texts at a field line break, made as they are joined


class _Rule(NamedTuple):
    field: str  # where a fault is reported, under the record; "" for the record itself
    message: str  # formatted from the record's values
    holds: Callable[[KnowledgeBase, dict[str, list]], bool]  # over the columns checked so far


class _Section(NamedTuple):
    fields: dict[str, _Type]  # in document order
    optional: str | None  # the one field a record may lack; written only where it is not None
    checks: tuple[str | _Rule, ...]  # fields and rules, in the order faults are reported
    add: Callable[[KnowledgeBase, dict[str, list]], Any]  # puts checked columns into the KB
    order: Callable[[Any], Any] | None  # the sort key of the records in a document; None keeps log order
    source: dict[str, Callable[[Any], Any]] = {}  # a field's value, where not the record's attribute of its name


_ABSENT = object()  # the optional field's value where a record lacks it, until that field is checked


def _bulk(section: _Section, kb: KnowledgeBase | None, items: list) -> dict[str, list] | None:
    """The section's checked columns, or None when a check fails. A column check may be stricter
    than a value check (a dict subclass fails it), as the record-by-record read then decides."""
    optional = section.optional
    if not _types(items, dict):
        return None
    try:  # a record that lacks a required field raises KeyError
        columns = {key: [r.get(key, _ABSENT) for r in items] if key == optional
                   else list(map(itemgetter(key), items)) for key in section.fields}
    except KeyError:
        return None
    absent = columns[optional].count(_ABSENT) if optional else 0
    if sum(map(len, items)) != len(items) * len(section.fields) - absent:
        return None  # each record holds every required field, so one holds a field of another name
    for check in section.checks:
        if isinstance(check, _Rule):
            if not check.holds(kb, columns):
                return None
            continue
        column = columns[check]
        present = [v for v in column if v is not _ABSENT] if check == optional else column
        checked = section.fields[check].column(present)
        if checked is None:
            return None
        if present is not column:  # from here on, a record that lacks the optional field reads None
            values = iter(checked)
            checked = [None if v is _ABSENT else next(values) for v in column]
        columns[check] = checked
    return columns


def _locate(section: _Section, kb: KnowledgeBase | None, items: list, prefix: str) -> list:
    """Add ``items`` record by record, each before the next is read, raising the first fault;
    returns the add step's result for each."""
    built = []
    for i, item in enumerate(items):
        path = f"{prefix}[{i}]"
        if not isinstance(item, dict):
            raise DocumentError(path, f"expected an object, got {type(item).__name__}")
        unknown = sorted(set(item) - set(section.fields))
        if unknown:
            raise DocumentError(path, f"unexpected field(s): {', '.join(unknown)}")
        missing = [f for f in section.fields if f not in item and f != section.optional]
        if missing:
            raise DocumentError(path, f"missing field(s): {', '.join(missing)}")
        columns = {key: [item.get(key, _ABSENT)] for key in section.fields}
        for check in section.checks:
            if isinstance(check, str):
                v = item.get(check, _ABSENT)
                columns[check] = [None if v is _ABSENT else section.fields[check].value(v, f"{path}.{check}")]
            elif not check.holds(kb, columns):
                where = f"{path}.{check.field}" if check.field else path
                raise DocumentError(where, check.message.format_map({key: c[0] for key, c in columns.items()}))
        built.append(section.add(kb, columns))
    return built


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


def _times(column: list) -> bool:
    """Every entry is a non-negative int; a bool is not one."""
    return not column or (_types(column, int) and min(column) >= 0)


def _id_sets(lists: list) -> list[frozenset[str]] | None:
    """Each list as a set, if each is a list of distinct identifiers."""
    if not (_types(lists, list) and _ids(list(chain.from_iterable(lists)))):
        return None
    sets = list(map(frozenset, lists))  # no set is longer than its list
    return sets if sum(map(len, sets)) == sum(map(len, lists)) else None


def _tuples(cls: type, *columns: list) -> Iterator:
    """``map(cls, *columns)`` for a NamedTuple ``cls``, without its Python ``__new__`` call per record."""
    return map(tuple.__new__, repeat(cls), zip(*columns))


def _fresh(ids: list[str], taken: Any) -> bool:
    """No id repeats within the column or one of ``taken``."""
    return len(set(ids)) == len(ids) and taken.isdisjoint(ids)


def _string(value: Any, path: str) -> str:
    if not isinstance(value, str):
        raise DocumentError(path, f"expected a string, got {type(value).__name__}")
    return value


def _identifier(value: Any, path: str) -> str:
    if not _ID_RE.fullmatch(_string(value, path)):
        raise DocumentError(path, f"'{value}' is not a valid identifier")
    return value


def _time(value: Any, path: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise DocumentError(path, f"expected a non-negative integer, got {value!r}")
    return value


def _id_set(value: Any, path: str) -> frozenset[str]:
    if not isinstance(value, list):
        raise DocumentError(path, f"expected an array, got {type(value).__name__}")
    seen = set()
    for i, item in enumerate(value):
        if not isinstance(item, str) or not _ID_RE.fullmatch(item):
            raise DocumentError(f"{path}[{i}]", f"{item!r} is not a valid identifier")
        if item in seen:
            raise DocumentError(f"{path}[{i}]", f"duplicate entry '{item}'")
        seen.add(item)
    return frozenset(seen)


def _write_id_sets(column: list, newline: str) -> Iterator[str]:
    """Each set as ``_encode`` writes it sorted, one at a time, with the separators made once for the column."""
    inner, end = newline + "  ", newline + "]"
    sep = "," + inner
    for ids in column:
        try:
            yield f"[{inner}{sep.join(map(_str, sorted(ids)))}{end}" if ids else "[]"
        except TypeError:  # an id that is not a string, in a store built by hand
            yield _encode(sorted(ids), newline)


def _choice(a: str, b: str) -> _Type:
    def value(v: Any, path: str) -> str:
        if _string(v, path) not in (a, b):
            raise DocumentError(path, f"expected '{a}' or '{b}', got '{v}'")
        return v

    return _Type(lambda column: column if _types(column, str) and {a, b}.issuperset(column) else None, value, _ID.write)


def _records(section: _Section) -> _Type:
    """Nested records, built by ``section``'s add step and kept in its order. A column of lists is
    written in one call, each list sorted alone, and the texts are split back by the lists' lengths."""

    def column(lists: list) -> list | None:
        checked = _bulk(section, None, list(chain.from_iterable(lists))) if _types(lists, list) else None
        if checked is None:
            return None
        built = iter(section.add(None, checked))
        return [tuple(sorted(islice(built, len(c)), key=section.order)) for c in lists]

    def value(v: Any, path: str) -> tuple:
        if not isinstance(v, list):
            raise DocumentError(path, "expected an array")
        return tuple(sorted(chain.from_iterable(_locate(section, None, v, path)), key=section.order))

    def write(lists: list, newline: str) -> Iterator[str]:
        texts = _write(section, list(chain.from_iterable(sorted(c, key=section.order) for c in lists)), newline)
        return ("[" + "".join(islice(texts, len(c)))[:-1] + newline + "]" if c else "[]" for c in lists)

    return _Type(column, value, write)


_ID = _Type(lambda column: column if _ids(column) else None, _identifier, lambda column, newline: map(_str, column))
_TIME = _Type(lambda column: column if _times(column) else None, _time, lambda column, newline: (
    map(int.__repr__, column) if _types(column, int) else map(_encode, column, repeat(newline))))  # True: true
_ID_SET = _Type(_id_sets, _id_set, _write_id_sets)
_BY_ID = attrgetter("id")
_CREATED = _Section(
    {"id": _ID, "kind": _ID, "granules": _ID_SET}, None, ("id", "kind", "granules"),
    lambda kb, c: list(_tuples(CreatedEntry, c["id"], c["kind"], c["granules"])), _BY_ID,
)
_TABLE = {
    "kinds": _Section(
        {"name": _ID, "meta": _choice(QUANTITY_KIND, OBJECT_KIND), "requires": _ID_SET}, "requires", (
            "name", "meta",
            _Rule("requires", "quantity kinds must carry a requires list", lambda kb, c: all(
                [r is not _ABSENT for m, r in zip(c["meta"], c["requires"]) if m == QUANTITY_KIND])),
            _Rule("requires", "object kinds must not carry a requires list", lambda kb, c: all(
                [r is _ABSENT for m, r in zip(c["meta"], c["requires"]) if m == OBJECT_KIND])),
            "requires", _Rule("name", "duplicate kind '{name}'", lambda kb, c: _fresh(c["name"], kb.kinds.keys())),
        ),
        lambda kb, c: kb.kinds.update(
            (n, KindDecl(n, m, r or frozenset())) for n, m, r in zip(c["name"], c["meta"], c["requires"])),
        attrgetter("name"), {"requires": lambda d: d.requires if d.meta == QUANTITY_KIND else None},
    ),
    "objects": _Section(
        {"id": _ID, "kind": _ID, "created_at": _TIME}, None, (
            "id", _Rule("id", "duplicate object '{id}'", lambda kb, c: _fresh(c["id"], kb.objects.keys())),
            "kind", "created_at",
        ),
        lambda kb, c: kb.objects.update(zip(c["id"], _tuples(ObjectInst, c["id"], c["kind"], c["created_at"]))),
        _BY_ID,
    ),
    "quantities": _Section(
        {"id": _ID, "kind": _ID, "created_at": _TIME, "terminated_at": _TIME, "granules": _ID_SET,
         "creation_event": _ID}, "terminated_at", (
            "id", _Rule("id", "duplicate quantity '{id}'", lambda kb, c: _fresh(c["id"], kb.quantities.keys())),
            _Rule("id", "id '{id}' is already used by an object",
                  lambda kb, c: kb.objects.keys().isdisjoint(c["id"])),
            "terminated_at", "kind", "created_at", "granules", "creation_event",
        ),
        lambda kb, c: kb.quantities.update(zip(c["id"], map(
            QuantityInst, c["id"], c["kind"], c["created_at"], c["granules"], c["creation_event"], c["terminated_at"]
        ))),
        _BY_ID,
    ),
    "adjacency": _Section(
        {"a": _ID, "b": _ID, "from": _TIME, "to": _TIME}, "to", (
            "a", "b", _Rule("b", "adjacency endpoints must differ", lambda kb, c: not any(map(eq, c["a"], c["b"]))),
            "from", "to", _Rule("to", "interval end t{to} must follow start t{from}", lambda kb, c: all(
                [end is None or end > start for start, end in zip(c["from"], c["to"])])),
        ),
        lambda kb, c: kb.adjacency.extend([
            AdjacencyInterval(x, y, start, end) if x < y else AdjacencyInterval(y, x, start, end)
            for x, y, start, end in zip(c["a"], c["b"], c["from"], c["to"])
        ]),
        lambda i: (i.a, i.b, i.start, i.end is None, i.end), {"from": attrgetter("start"), "to": attrgetter("end")},
    ),
    "subquantities": _Section(
        {"part": _ID, "whole": _ID}, None, ("part", "whole"),
        lambda kb, c: kb.subquantities.update(map(SubQuantityAssertion, c["part"], c["whole"])),
        attrgetter("part", "whole"),
    ),
    "events": _Section(
        {"id": _ID, "at": _TIME, "kind": _choice(CREATION, GRANULE_TRANSFER), "donors": _ID_SET,
         "created": _records(_CREATED), "discarded": _ID_SET}, None, (
            # no event is in the KB during the bulk read; record by record, the store index has those read
            "id", _Rule("id", "duplicate event '{id}'", lambda kb, c: _fresh(
                c["id"], kb.store_index.catch_up(kb).event_ids if kb.events else frozenset())),
            "kind", "donors", "created",
            _Rule("", "a creation event has no donors and exactly one created quantity", lambda kb, c: all(
                [not d and len(e) == 1 for k, d, e in zip(c["kind"], c["donors"], c["created"]) if k == CREATION])),
            _Rule("", "a granule transfer has at least one donor and one created quantity", lambda kb, c: all(
                [d and e for k, d, e in zip(c["kind"], c["donors"], c["created"]) if k == GRANULE_TRANSFER])),
            "at", "discarded",
        ),
        lambda kb, c: kb.events.extend(_tuples(
            EventRec, c["id"], c["at"], c["kind"], c["donors"], c["created"], c["discarded"])),
        None,
    ),
}
_SECTIONS = tuple(_TABLE)
