"""Command-line front-end: validate, query, export, replay-check.

Exit codes: 0 success (no violations), 1 violations or replay mismatch found,
2 parse/IO/usage error. Results go to stdout, diagnostics to stderr; output
is byte-deterministic for a given input and command.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import canonical, dsl, provenance
from .errors import DocumentError, EngineError, ScenarioLoadError
from .events import replay
from .model import KnowledgeBase, collector_paused
from .validation import Report, validate_all

OK = 0
VIOLATIONS = 1
USAGE = 2

QUERIES = ("provenance", "history", "world", "cohort", "ancestors", "classify")

# An echoed source line shows control characters, which act on a terminal, as repr escapes.
_SNIPPET_ESCAPES = {c: repr(chr(c))[1:-1] for c in [*range(0x20), 0x7F] if c != 0x09}


class _CliError(Exception):
    """A parse, I/O or usage error: ``main`` prints it to stderr and returns ``USAGE``."""


def load_kb(path_str: str) -> KnowledgeBase:
    """Load a scenario (.mp) or canonical document (.mpkb) into a KB."""
    path = Path(path_str)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise _CliError(f"cannot read '{path_str}': {exc.strerror or exc}") from exc
    if path.suffix == ".mpkb":
        try:
            return canonical.import_document(data.decode("utf-8", errors="strict"))
        except UnicodeDecodeError as exc:
            raise _CliError(f"{path_str}: not valid UTF-8 ({exc.reason})") from exc
        except DocumentError as exc:
            raise _CliError(f"{path_str}: {exc}") from exc
    result = dsl.parse_bytes(data)
    if not result.ok:
        rendered = "\n".join(
            f"{path_str}:{d.render()}\n  | {d.snippet.translate(_SNIPPET_ESCAPES)}" for d in result.diagnostics
        )
        raise _CliError(rendered)
    try:
        return dsl.load(result.scenario)
    except ScenarioLoadError as exc:
        raise _CliError(f"{path_str}:{exc.line}:{exc.column}: error: {exc.message}") from exc


def parse_time(text: str) -> int:
    raw = text[1:] if text.startswith("t") else text
    if raw.isascii() and raw.isdigit():  # str.isdigit alone admits '²' and '١'
        return int(raw)
    raise _CliError(f"'{text}' is not a time point; write tN with N a non-negative integer")


def render_report(report: Report, fmt: str) -> str:
    if fmt == "canonical":
        records = [
            {
                "rule": v.rule,
                "subjects": list(v.subjects),
                **({"at": v.at} if v.at is not None else {}),
                "message": v.message,
            }
            for v in report.violations
        ]
        return canonical.dumps(records) + "\n"
    lines = []
    for rule, violations in sorted(report.by_rule().items()):
        lines.append(f"{rule} ({len(violations)})")
        for v in violations:
            when = f" at t{v.at}" if v.at is not None else ""
            lines.append(f"  [{', '.join(v.subjects)}]{when}: {v.message}")
    n = len(report.violations)
    lines.append(f"{n} violation" + ("s" if n != 1 else ""))
    return "\n".join(lines) + "\n"


def cmd_validate(args: argparse.Namespace) -> int:
    kb = load_kb(args.file)
    at = parse_time(args.at) if args.at is not None else None
    report = validate_all(kb, at=at)
    sys.stdout.write(render_report(report, args.format))
    return OK if report.ok else VIOLATIONS


def cmd_query(args: argparse.Namespace) -> int:
    kb = load_kb(args.file)
    try:
        text, payload = run_query(kb, args)
    except EngineError as exc:
        raise _CliError(str(exc)) from exc
    if args.format == "canonical":
        sys.stdout.write(canonical.dumps(payload) + "\n")
    else:
        sys.stdout.write(text)
    return OK


def _need(args: argparse.Namespace, count: int, usage: str) -> list[str]:
    if len(args.args) != count:
        raise _CliError(f"usage: query FILE {usage}")
    return args.args


# The world query's relations in output order: text heading and payload key, then the
# payload keys of a row's two fields.
WORLD_RELATIONS = (
    ("objects", "id", "status"),
    ("quantities", "id", "status"),
    ("granuleOf", "object", "quantity"),
    ("adjacency", "a", "b"),
    ("subquantityOf", "part", "whole"),
)


def run_query(kb: KnowledgeBase, args: argparse.Namespace) -> tuple[str | None, object]:
    """Answer a query as ``(text, payload)``. Only the form ``args.format``
    names is built; the other is None."""
    name, canonical = args.query, args.format == "canonical"
    if name == "provenance":
        (qid,) = _need(args, 1, "provenance QUANTITY [--transitive]")
        donors = sorted(provenance.inherited_from(kb, qid, transitive=args.transitive))
        if not canonical:
            return "".join(f"{d}\n" for d in donors), None
        return None, {
            "quantity": qid,
            "transitive": args.transitive,
            "donors": donors,
            "edges": [
                {
                    "inheritor": e.inheritor,
                    "donor": e.donor,
                    "event": e.event,
                    "completeInheritance": e.complete_inheritance,
                    "completeDonation": e.complete_donation,
                    "isSubPortion": e.is_sub_portion,
                }
                for e in provenance.edges_among(kb, {qid, *donors})
            ],
        }
    if name == "history":
        (oid,) = _need(args, 1, "history OBJECT")
        history = provenance.granule_history(kb, oid)
        if not canonical:
            lines = []
            for ep in history.episodes:
                span = f"t{ep.start}..t{ep.end}" if ep.end is not None else f"t{ep.start}.."
                out = f" out={ep.out_event}" if ep.out_event is not None else ""
                lines.append(f"{ep.quantity} {span} in={ep.in_event}{out}\n")
            return "".join(lines), None
        return None, {
            "object": oid,
            "episodes": [
                {
                    "quantity": ep.quantity,
                    "from": ep.start,
                    **({"to": ep.end} if ep.end is not None else {}),
                    "inEvent": ep.in_event,
                    **({"outEvent": ep.out_event} if ep.out_event is not None else {}),
                }
                for ep in history.episodes
            ],
        }
    if name == "world":
        (t_raw,) = _need(args, 1, "world tN")
        t = parse_time(t_raw)
        # each row is unpacked where it is used, so no tuple is kept per row
        relations = zip(WORLD_RELATIONS, kb._world_rows(t))
        if canonical:
            payload: dict[str, object] = {"at": t}
            for (key, kx, ky), rows in relations:
                payload[key] = [{kx: x, ky: y} for x, y in rows]
            return None, payload
        lines = [f"world t{t}\n"]
        for (key, _, _), rows in relations:
            lines.append(f"{key}:\n")
            lines += [f"  {x} {y}\n" for x, y in rows]
        return "".join(lines), None
    if name == "cohort":
        (oid,) = _need(args, 1, "cohort OBJECT --at tN")
        if args.at is None:
            raise _CliError("cohort needs --at tN")
        t = parse_time(args.at)
        members = sorted(provenance.cohort_at(kb, oid, t))
        if canonical:
            return None, {"object": oid, "at": t, "cohort": members}
        return "".join(f"{m}\n" for m in members), None
    if name == "ancestors":
        q1, q2 = _need(args, 2, "ancestors QUANTITY QUANTITY")
        shared = sorted(provenance.common_ancestors(kb, q1, q2))
        if canonical:
            return None, {"quantities": [q1, q2], "commonAncestors": shared}
        return "".join(f"{q}\n" for q in shared), None
    if name == "classify":
        if len(args.args) > 1:
            raise _CliError("usage: query FILE classify [QUANTITY]")
        ids = args.args if args.args else sorted(kb.quantities)
        rows = [(qid, provenance.classify_origin(kb, qid)) for qid in ids]
        if canonical:
            return None, {"classification": [{"quantity": q, "origin": label} for q, label in rows]}
        return "".join(f"{qid}: {label}\n" for qid, label in rows), None
    raise _CliError(f"unknown query '{name}'; choose from {', '.join(QUERIES)}")


def cmd_export(args: argparse.Namespace) -> int:
    kb = load_kb(args.file)
    document = canonical.export_document(kb)
    if args.out == "-":
        sys.stdout.write(document)
        return OK
    data = document.encode("utf-8")
    # Rewrite OUT in place, never truncating it to zero first: on ext4 that
    # blocks open() for tens of ms after a recent write. Cut it to length
    # only if it was longer, since ftruncate fails on /dev/null and FIFOs.
    try:
        fd = os.open(args.out, os.O_WRONLY | os.O_CREAT, 0o666)
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
            if os.fstat(fd).st_size > len(data):
                os.ftruncate(fd, len(data))
        finally:
            os.close(fd)
    except OSError as exc:
        raise _CliError(f"cannot write '{args.out}': {exc.strerror or exc}") from exc
    return OK


def cmd_replay_check(args: argparse.Namespace) -> int:
    kb = load_kb(args.file)
    try:
        rebuilt = replay(kb)
    except EngineError as exc:
        sys.stdout.write(f"replay-check: FAILED ({exc})\n")
        return VIOLATIONS
    # Replay re-adds every other record as given, so only the derived quantities can differ.
    if rebuilt.quantities != kb.quantities:
        sys.stdout.write("replay-check: FAILED (re-applied log exports differently)\n")
        return VIOLATIONS
    size = len(canonical.export_document(kb))
    sys.stdout.write(f"replay-check: OK ({len(kb.events)} events, {size} bytes)\n")
    return OK


_FORMAT = ("--format", {"choices": ("text", "canonical"), "default": "text"})
# Each subcommand's line in the top-level help, its handler, and its arguments after FILE.
SUBCOMMANDS = {
    "validate": ("run every axiom check against a scenario or document", cmd_validate, [
        _FORMAT, ("--at", {"metavar": "tN", "default": None, "help": "check one world only"})]),
    "query": ("run a provenance or world query", cmd_query, [
        ("query", {"choices": QUERIES}), ("args", {"nargs": "*"}),
        ("--transitive", {"action": "store_true", "help": "close over chains of transfers"}),
        _FORMAT, ("--at", {"metavar": "tN", "default": None})]),
    "export": ("write the canonical document form", cmd_export, [("out", {"help": "output path, or - for stdout"})]),
    "replay-check": ("verify the event log rebuilds the same state", cmd_replay_check, []),
}


def _subcommand(name: str, p: argparse.ArgumentParser | None = None) -> argparse.ArgumentParser:
    """Give ``p`` the arguments and the handler of subcommand ``name``; without ``p``,
    a parser of its own, named as in the whole tree, so that it prints the same."""
    p = argparse.ArgumentParser(prog=f"matterkb {name}") if p is None else p
    _, handler, arguments = SUBCOMMANDS[name]
    p.add_argument("file")
    for argument, options in arguments:
        p.add_argument(argument, **options)
    p.set_defaults(func=handler)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matterkb",
        description="Temporal knowledge base for portions of matter and their granule-level provenance.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, _, _) in SUBCOMMANDS.items():
        _subcommand(name, sub.add_parser(name, help=summary))
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code. The command runs with the cyclic collector
    paused: what it builds holds no cycles, yet each container it allocates counts toward a
    collection. Of the library calls, ``canonical.import_document`` (so ``load_kb`` of a
    ``.mpkb``) pauses it too; ``run_query`` and ``validate_all`` keep it as their caller set it."""
    argv = sys.argv[1:] if argv is None else argv
    try:
        # Build only the subcommand that runs; the whole tree parses anything else.
        name = argv[0] if argv else None
        if name in SUBCOMMANDS:
            args, rest = _subcommand(name).parse_known_args(argv[1:])
        if name not in SUBCOMMANDS or rest:
            args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return USAGE if exc.code not in (0, None) else 0
    try:
        with collector_paused():
            return args.func(args)
    except _CliError as exc:
        print(str(exc), file=sys.stderr)
        return USAGE


def entry_point() -> None:
    sys.exit(main())
