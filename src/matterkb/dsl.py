"""Scenario files (.mp): a line-oriented language for declaring kinds,
objects, quantities, adjacency, and matter-moving events.

Grammar (lowercase keywords, `#` comments, times written tN):

    quantity-kind NAME [requires NAME (, NAME)*]
    object-kind NAME
    object NAME : KIND [at tN]
    quantity NAME : KIND at tN granules { NAME (, NAME)* }
    connect NAME NAME at tN
    disconnect NAME NAME at tN
    subquantity NAME of NAME
    event NAME at tN { donor NAME+ ;
                       create NAME : KIND granules { NAME (, NAME)* } ;
                       discard { NAME (, NAME)* } }

A `quantity` statement desugars to a creation event named `create-NAME`.
An `event` with donors is a granule transfer; an `event` without donors and
with a single `create` clause is a named creation. Braced blocks may span
lines. Forward references are allowed within a file; all references are
resolved after the full parse.

The lexer is one `findall` that yields each token as a plain string, with no
position. A record's position comes from the parser's line count and the text of
its line; a diagnostic's from a second pass, made only if a parse reports one.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import NamedTuple, NoReturn

from .errors import EngineError, ScenarioLoadError
from .events import CREATION, GRANULE_TRANSFER, CreatedEntry, EventRec, apply_events
from .model import KindDecl, KnowledgeBase, OBJECT_KIND, QUANTITY_KIND

KEYWORDS = {
    "quantity-kind", "object-kind", "object", "quantity", "connect", "disconnect",
    "subquantity", "event", "requires", "at", "granules", "of", "donor", "create", "discard",
}


class Pos(NamedTuple):
    line: int
    column: int


@dataclass(frozen=True)
class ParseDiagnostic:
    line: int
    column: int
    message: str
    snippet: str

    def render(self) -> str:
        return f"{self.line}:{self.column}: error: {self.message}"


class KindStmt(NamedTuple):
    name: str
    meta: str
    requires: tuple[str, ...]
    pos: Pos


class ObjectStmt(NamedTuple):
    id: str
    kind: str
    at: int
    pos: Pos


class QuantityStmt(NamedTuple):
    id: str
    kind: str
    at: int
    granules: tuple[str, ...]
    pos: Pos


class AdjacencyStmt(NamedTuple):
    a: str
    b: str
    at: int
    connect: bool
    pos: Pos


class SubquantityStmt(NamedTuple):
    part: str
    whole: str
    pos: Pos


class CreateClause(NamedTuple):
    id: str
    kind: str
    granules: tuple[str, ...]
    pos: Pos


class EventStmt(NamedTuple):
    name: str
    at: int
    donors: tuple[str, ...]
    creates: tuple[CreateClause, ...]
    discard: tuple[str, ...]
    pos: Pos


@dataclass
class Scenario:
    """Parsed and fully resolved form of one scenario file."""

    kind_decls: list[KindStmt] = field(default_factory=list)
    object_decls: list[ObjectStmt] = field(default_factory=list)
    quantity_creations: list[QuantityStmt] = field(default_factory=list)
    adjacency: list[AdjacencyStmt] = field(default_factory=list)
    subquantity_assertions: list[SubquantityStmt] = field(default_factory=list)
    events: list[EventStmt] = field(default_factory=list)


@dataclass
class ParseResult:
    """Either a resolved scenario or at least one diagnostic, never both."""

    scenario: Scenario | None
    diagnostics: list[ParseDiagnostic]

    @property
    def ok(self) -> bool:
        return self.scenario is not None


class _Bail(Exception):
    pass


# One match per character that starts a token: blanks and a comment are skipped,
# then group 1 holds the token, or takes no part for a character that starts
# none. The lexed text ends in a newline, so the match never reaches the end of
# the text and never backtracks into what it skipped.
_TOKEN_RE = re.compile(r"[ \t]*(?:#[^\n]*)?(?:([\n:,;{}]|[A-Za-z_][A-Za-z0-9_-]*)|.)")


def _source(text: str) -> str:
    """The text as lexed: without the CRs that end a line, and ending in a newline."""
    if "\r" in text:
        text = "\n".join([line.rstrip("\r") for line in text.split("\n")])
    return text + "\n"


# A name or keyword, not a time `tN`: only a word starts with 'A' to 'z', and a word is ASCII.
def _is_word(tok: str) -> bool:
    return "A" <= tok < "{" and not (tok[0] == "t" and tok[1:].isdigit())


def _lex(text: str) -> tuple[list[str], list[int], bool]:
    """The tokens: a word, time or punctuation mark, "\\n" for a line's end and "" for
    the input's. A newline inside braces ends no statement and is dropped; ``breaks``
    holds the index of the token after each. False if a character starts no token."""
    found = _TOKEN_RE.findall(_source(text))
    tokens: list[str] = []
    breaks: list[int] = []
    depth = 0
    for tok in found:
        if tok in "{}\n":  # or "", a character that starts no token
            if tok == "{":
                depth += 1
            elif tok == "}":
                depth -= depth > 0
            elif not tok:
                continue
            elif depth:
                breaks.append(len(tokens))
                continue
        tokens.append(tok)
    tokens.append("")
    return tokens, breaks, "" not in found


def _located(text: str, lines: list[str], errors: list[tuple[int, str]]) -> list[ParseDiagnostic]:
    """The lexer's diagnostics, and the parser's errors placed at their tokens. An
    error names its token by its rank, its index among the tokens that are not
    newlines; only the ranks named get a position."""
    wanted = {at for at, _ in errors}
    places: dict[int, Pos] = {}
    diags: list[ParseDiagnostic] = []
    line, start, rank = 1, 0, -1  # the line, the offset of its first character, the last token's rank
    for m in _TOKEN_RE.finditer(_source(text)):
        tok = m.group(1)
        if tok == "\n":
            line, start = line + 1, m.end()
        elif tok is None:  # the match ends in a character that starts no token
            diags.append(_diagnostic(lines, Pos(line, m.end() - start), f"unexpected character {m.group()[-1]!r}"))
        elif (rank := rank + 1) in wanted:
            places[rank] = Pos(line, m.start(1) - start + 1)
    return diags + [_diagnostic(lines, places[at], message) for at, message in errors]


def _diagnostic(lines: list[str], at: Pos, message: str) -> ParseDiagnostic:
    return ParseDiagnostic(at.line, at.column, message, lines[at.line - 1].rstrip("\r"))


class _Parser:
    """Reads the token strings. A token is named by its index; a record's position
    comes from the line count and its line's text, not from the lexer."""

    def __init__(self, tokens: list[str], breaks: list[int], lines: list[str]):
        self.tokens, self.breaks, self.lines = tokens, breaks, lines
        self.i = self.newlines = 0  # the newline tokens read, all before the current statement
        self.errors: list[tuple[int, str]] = []
        self.scenario = Scenario()
        self.columns: tuple[int, list[int]] = (-1, [])  # one line's token columns

    def bail(self, message: str, at: int) -> NoReturn:
        self.errors.append((at - self.newlines, message))  # no newline lies before `at` in its statement
        raise _Bail()

    def expected(self, what: str) -> NoReturn:
        """Reject the next token; at the end of a line, point at the last token read."""
        tok = self.tokens[self.i]
        if tok < " ":  # a newline or the end of input
            self.bail(f"expected {what}", self.i - 1)
        self.bail(f"expected {what}, found {tok!r}", self.i)

    def expect_name(self, what: str) -> str:
        tok = self.tokens[self.i]
        if not _is_word(tok):
            self.expected(what)
        if tok in KEYWORDS:
            self.bail(f"keyword '{tok}' cannot be used as {what}", self.i)
        if "-" in tok:  # a word is a valid name unless it holds '-'
            self.bail(f"'{tok}' is not a valid {what.partition(' ')[2]} (letters, digits, '_')", self.i)
        self.i += 1
        return tok

    def expect_time(self) -> int:
        tok = self.tokens[self.i]
        if tok[:1] != "t" or not tok[1:].isdigit():
            self.expected("a time point like t0")
        self.i += 1
        return int(tok[1:])

    # Only a punctuation or keyword token can have a punctuation mark or a keyword
    # as its value, so the value alone tells it apart.
    def accept(self, value: str) -> bool:
        if self.tokens[self.i] != value:
            return False
        self.i += 1
        return True

    def expect(self, value: str) -> None:
        if not self.accept(value):
            self.expected(f"'{value}'")

    def pos(self, at: int, start: int) -> Pos:
        """Where token ``at`` of the statement that starts at token ``start`` sits."""
        breaks = self.breaks
        n = bisect_right(breaks, at)  # the newlines dropped before `at`
        line = self.newlines + n
        text = self.lines[line]
        if at == start or n and breaks[n - 1] == at:  # a statement that parses starts its line
            return Pos(line + 1, len(text) - len(text.lstrip(" \t")) + 1)
        if self.columns[0] != line:  # a mid-line create clause: lex that one line
            self.columns = (line, [m.start(1) + 1 for m in _TOKEN_RE.finditer(_source(text)) if m.start(1) >= 0])
        first = max(start, breaks[n - 1]) if n else start  # the first token on that line
        return Pos(line + 1, self.columns[1][at - first])

    def parse(self) -> None:
        tokens = self.tokens
        while tok := tokens[self.i]:
            if tok == "\n":
                self.i += 1
                self.newlines += 1
                continue
            try:  # a handler reads one statement, given its keyword and position
                handler = self.HANDLERS.get(tok)
                if handler is None and _is_word(tok):
                    self.bail(f"unknown statement '{tok}'", self.i)
                if handler is None:
                    self.bail(f"a statement cannot start with {tok!r}", self.i)
                self.i += 1
                handler(self, self.i - 1, self.pos(self.i - 1, self.i - 1))
                if tokens[self.i] >= " ":  # not a newline or the end of input
                    self.bail(f"unexpected {tokens[self.i]!r} after end of statement", self.i)
            except _Bail:  # a parse that reports something keeps no record
                try:  # skip to the end of the line
                    self.i = tokens.index("\n", self.i)
                except ValueError:
                    self.i = len(tokens) - 1

    def kind_stmt(self, kw: int, pos: Pos) -> None:
        name = self.expect_name("a kind name")
        requires: list[str] = []
        meta = QUANTITY_KIND if self.tokens[kw] == "quantity-kind" else OBJECT_KIND
        if meta == QUANTITY_KIND and self.accept("requires"):
            requires.append(self.expect_name("an object kind name"))
            while self.accept(","):
                requires.append(self.expect_name("an object kind name"))
        self.scenario.kind_decls.append(KindStmt(name, meta, tuple(requires), pos))

    def object_stmt(self, kw: int, pos: Pos) -> None:
        name = self.expect_name("an object name")
        self.expect(":")
        kind = self.expect_name("a kind name")
        at = self.expect_time() if self.accept("at") else 0
        self.scenario.object_decls.append(ObjectStmt(name, kind, at, pos))

    def quantity_stmt(self, kw: int, pos: Pos) -> None:
        name = self.expect_name("a quantity name")
        self.expect(":")
        kind = self.expect_name("a kind name")
        self.expect("at")
        at = self.expect_time()
        self.expect("granules")
        granules = self.name_block()
        self.scenario.quantity_creations.append(QuantityStmt(name, kind, at, granules, pos))

    def adjacency_stmt(self, kw: int, pos: Pos) -> None:
        a = self.expect_name("an object name")
        b = self.expect_name("an object name")
        self.expect("at")
        at = self.expect_time()
        self.scenario.adjacency.append(AdjacencyStmt(a, b, at, self.tokens[kw] == "connect", pos))

    def subquantity_stmt(self, kw: int, pos: Pos) -> None:
        part = self.expect_name("a quantity name")
        self.expect("of")
        whole = self.expect_name("a quantity name")
        self.scenario.subquantity_assertions.append(SubquantityStmt(part, whole, pos))

    def event_stmt(self, kw: int, pos: Pos) -> None:
        name = self.expect_name("an event name")
        self.expect("at")
        at = self.expect_time()
        open_brace = self.i
        self.expect("{")
        donors: list[str] = []
        creates: list[CreateClause] = []
        discard: tuple[str, ...] | None = None
        while not self.accept("}"):  # no newline is left inside the block
            clause, tok = self.i, self.tokens[self.i]
            self.i += 1
            if tok == "donor":
                donors.append(self.expect_name("a quantity name"))
                while _is_word(self.tokens[self.i]) and self.tokens[self.i] not in KEYWORDS:
                    donors.append(self.expect_name("a quantity name"))
            elif tok == "create":
                cid = self.expect_name("a quantity name")
                self.expect(":")
                ckind = self.expect_name("a kind name")
                self.expect("granules")
                creates.append(CreateClause(cid, ckind, self.name_block(), self.pos(clause, kw)))
            elif tok == "discard":
                if discard is not None:
                    self.bail("event block has more than one discard clause", clause)
                discard = self.name_block()
            elif not tok:
                self.bail("unclosed event block", open_brace)
            elif tok != ";":
                self.bail(f"expected donor, create, discard or '}}', found {tok!r}", clause)
        if not creates:
            self.bail("event block needs at least one create clause", kw)
        if not donors and len(creates) > 1:
            self.bail("an event without donors can create only one quantity", kw)
        if not donors and discard:
            self.bail("an event without donors cannot discard granules", kw)
        self.scenario.events.append(EventStmt(name, at, tuple(donors), tuple(creates), discard or (), pos))

    def name_block(self) -> tuple[str, ...]:
        self.expect("{")
        if self.accept("}"):
            return ()
        names = [self.expect_name("a name")]
        tokens = self.tokens
        while tokens[self.i] == ",":
            self.i += 1
            names.append(self.expect_name("a name"))
        self.expect("}")
        return tuple(names)

    # Plain functions, built once: a dict of bound methods on the parser would form a
    # reference cycle that keeps every token alive until the cyclic collector runs.
    HANDLERS = {
        "quantity-kind": kind_stmt, "object-kind": kind_stmt,
        "object": object_stmt, "quantity": quantity_stmt,
        "connect": adjacency_stmt, "disconnect": adjacency_stmt,
        "subquantity": subquantity_stmt, "event": event_stmt,
    }


def _resolve(scenario: Scenario, lines: list[str]) -> list[ParseDiagnostic]:
    diags: list[ParseDiagnostic] = []

    def err(pos: Pos, message: str) -> None:
        diags.append(_diagnostic(lines, pos, message))

    kinds: dict[str, KindStmt] = {}
    for st in scenario.kind_decls:
        if st.name in kinds:
            err(st.pos, f"kind '{st.name}' declared twice")
        kinds[st.name] = st

    entities: dict[str, Pos] = {}

    def declare_entity(name: str, pos: Pos, what: str) -> None:
        if name in entities:
            err(pos, f"{what} '{name}' reuses an already declared name")
        entities[name] = pos

    # Declaration order decides which of two equal names is reported.
    for st in scenario.object_decls:
        declare_entity(st.id, st.pos, "object")
    for st in scenario.quantity_creations:
        declare_entity(st.id, st.pos, "quantity")
    for ev in scenario.events:
        declare_entity(ev.name, ev.pos, "event")
        for cl in ev.creates:
            declare_entity(cl.id, cl.pos, "quantity")
    creations: list[QuantityStmt | CreateClause] = [
        *scenario.quantity_creations, *(cl for ev in scenario.events for cl in ev.creates)
    ]
    objects = {st.id for st in scenario.object_decls}
    quantity_names = {st.id for st in creations}

    def check_kind(name: str, meta: str, pos: Pos, context: str) -> None:
        st = kinds.get(name)
        if st is None:
            err(pos, f"{context} references undeclared kind '{name}'")
        elif st.meta != meta:
            wanted = "an object kind" if meta == OBJECT_KIND else "a quantity kind"
            err(pos, f"{context} references '{name}', which is not {wanted}")

    for st in scenario.kind_decls:
        for req in st.requires:
            check_kind(req, OBJECT_KIND, st.pos, f"kind '{st.name}'")
    for st in scenario.object_decls:
        check_kind(st.kind, OBJECT_KIND, st.pos, f"object '{st.id}'")
    for st in creations:
        check_kind(st.kind, QUANTITY_KIND, st.pos, f"quantity '{st.id}'")
        for g in st.granules:
            if g not in objects:
                err(st.pos, f"quantity '{st.id}' lists undeclared object '{g}' as a granule")
    for st in scenario.adjacency:
        verb = "connect" if st.connect else "disconnect"
        for oid in (st.a, st.b):
            if oid not in objects:
                err(st.pos, f"{verb} references undeclared object '{oid}'")
    for st in scenario.subquantity_assertions:
        for qid in (st.part, st.whole):
            if qid not in quantity_names:
                err(st.pos, f"subquantity references undeclared quantity '{qid}'")
    for ev in scenario.events:
        for donor in ev.donors:
            if donor not in quantity_names:
                err(ev.pos, f"event '{ev.name}' lists undeclared quantity '{donor}' as donor")
        for g in ev.discard:
            if g not in objects:
                err(ev.pos, f"event '{ev.name}' discards undeclared object '{g}'")

    timeline = [(st.at, st.pos, f"creation of '{st.id}'") for st in scenario.quantity_creations]
    timeline += [(ev.at, ev.pos, f"event '{ev.name}'") for ev in scenario.events]
    timeline.sort(key=lambda item: item[:2])  # by time, then position
    for (at1, _, label1), (at2, pos2, label2) in zip(timeline, timeline[1:]):
        if at1 == at2:
            err(pos2, f"{label2} shares time point t{at2} with {label1}; event times must strictly increase")
    return diags


def parse(text: str) -> ParseResult:
    """Parse scenario source text; total over arbitrary input."""
    tokens, breaks, clean = _lex(text)
    lines = text.split("\n")
    parser = _Parser(tokens, breaks, lines)
    parser.parse()
    diags = _resolve(parser.scenario, lines) if clean and not parser.errors else _located(text, lines, parser.errors)
    if diags:
        diags.sort(key=lambda d: (d.line, d.column, d.message))
        return ParseResult(None, diags)
    return ParseResult(parser.scenario, [])


def parse_bytes(data: bytes) -> ParseResult:
    """Decode UTF-8 and parse; encoding failures become positioned diagnostics."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        prefix = data[: exc.start].decode("utf-8", errors="replace")
        snippet = prefix.rpartition("\n")[2]
        message = f"invalid UTF-8 at byte offset {exc.start}: {exc.reason}"
        return ParseResult(None, [ParseDiagnostic(prefix.count("\n") + 1, len(snippet) + 1, message, snippet)])
    return parse(text)


def load(scenario: Scenario) -> KnowledgeBase:
    """Build a knowledge base by routing every statement through the engine.

    The first engine error aborts the load, wrapped with the source location
    of the offending statement. Objects and events each go to the kernel as
    one batch, which stops at its first faulty record after the ones before it.
    """
    kb = KnowledgeBase()
    # Object kinds first, since a quantity kind requires them; the sort is stable.
    kinds = sorted(scenario.kind_decls, key=lambda st: st.meta != OBJECT_KIND)
    # A quantity statement is a donor-less event named create-NAME; the sort is
    # stable, so statements at one time point keep their source order.
    timeline = [EventStmt(f"create-{q.id}", q.at, (), (q,), (), q.pos) for q in scenario.quantity_creations]
    timeline = sorted(timeline + scenario.events, key=lambda st: st.at)
    records = [EventRec(st.name, st.at, GRANULE_TRANSFER if st.donors else CREATION, frozenset(st.donors),
                        tuple(CreatedEntry.of(c.id, c.kind, c.granules) for c in st.creates), frozenset(st.discard))
               for st in timeline]
    try:  # each loop binds pos, the position of the statement being loaded
        for st in kinds:
            pos = st.pos
            kb.declare_kind(KindDecl(st.name, st.meta, frozenset(st.requires)))
        pos = None
        kb.create_objects([(st.id, st.kind, st.at) for st in scenario.object_decls])
        apply_events(kb, records)
        for st in sorted(scenario.adjacency, key=lambda st: st.at):
            pos = st.pos
            (kb.assert_adjacency if st.connect else kb.retract_adjacency)(st.a, st.b, st.at)
        for st in scenario.subquantity_assertions:
            pos = st.pos
            kb.assert_subquantity(st.part, st.whole)
    except (EngineError, ValueError) as exc:
        if pos is None:  # a batch's faulty record is the one after those the batches added
            pos = [*scenario.object_decls, *timeline][len(kb.objects) + len(kb.events)].pos
        raise ScenarioLoadError(str(exc), pos.line, pos.column, exc) from exc
    return kb
