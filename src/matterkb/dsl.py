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
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import NamedTuple, NoReturn

from .errors import EngineError, ScenarioLoadError
from .events import CREATION, GRANULE_TRANSFER, CreatedEntry, EventRec, apply_event
from .model import KindDecl, KnowledgeBase, OBJECT_KIND, QUANTITY_KIND

KEYWORDS = {
    "quantity-kind", "object-kind", "object", "quantity", "connect", "disconnect",
    "subquantity", "event", "requires", "at", "granules", "of", "donor", "create",
    "discard",
}

# One token per match; whitespace and comments match no named group. A time is a
# whole word: `t1x` is a word. `[0-9]`, not `\d`, which admits `١` and `²`.
_TOKEN_RE = re.compile(
    r"[ \t]+|#.*"
    r"|(?P<punct>[:,;{}])"
    r"|(?P<time>t(?P<number>[0-9]+))(?![A-Za-z0-9_-])"
    r"|(?P<word>[A-Za-z_][A-Za-z0-9_-]*)"
    r"|(?P<bad>.)"
)


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


class _Token(NamedTuple):
    kind: str  # word | time | punct | newline | eof
    value: str
    line: int
    column: int
    number: int = 0


class _Bail(Exception):
    pass


def _lex(text: str) -> tuple[list[_Token], list[ParseDiagnostic], list[str]]:
    lines = text.split("\n")
    tokens: list[_Token] = []
    diags: list[ParseDiagnostic] = []
    depth = 0  # newlines inside braces do not terminate statements
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\r")
        for m in _TOKEN_RE.finditer(line):
            kind = m.lastgroup
            if kind is None:
                continue
            value = m.group(kind)
            if kind == "bad":
                diags.append(ParseDiagnostic(lineno, m.start() + 1, f"unexpected character {value!r}", line))
                continue
            if value == "{":
                depth += 1
            elif value == "}" and depth > 0:
                depth -= 1
            number = int(m.group("number")) if kind == "time" else 0
            tokens.append(_Token(kind, value, lineno, m.start() + 1, number))
        if depth == 0:
            tokens.append(_Token("newline", "\n", lineno, len(line) + 1))
    tokens.append(_Token("eof", "", len(lines), len(lines[-1]) + 1))
    return tokens, diags, lines


def _diagnostic(lines: list[str], at: _Token | Pos, message: str) -> ParseDiagnostic:
    return ParseDiagnostic(at.line, at.column, message, lines[at.line - 1].rstrip("\r"))


class _Parser:
    def __init__(self, tokens: list[_Token], lines: list[str]):
        self.tokens = tokens
        self.i = 0
        self.lines = lines
        self.last = tokens[0]
        self.diags: list[ParseDiagnostic] = []
        self.scenario = Scenario()

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        if tok.kind != "eof":
            self.i += 1
        if tok.kind not in ("newline", "eof"):
            self.last = tok
        return tok

    def bail(self, message: str, at: _Token | Pos) -> NoReturn:
        self.diags.append(_diagnostic(self.lines, at, message))
        raise _Bail()

    def expected(self, what: str) -> NoReturn:
        """Reject the next token; at the end of a line, point at the last token read."""
        tok = self.peek()
        if tok.kind in ("newline", "eof"):
            self.bail(f"expected {what}", self.last)
        self.bail(f"expected {what}, found {tok.value!r}", tok)

    def expect_name(self, what: str) -> str:
        tok = self.peek()
        if tok.kind != "word":
            self.expected(what)
        if tok.value in KEYWORDS:
            self.bail(f"keyword '{tok.value}' cannot be used as {what}", tok)
        if "-" in tok.value:  # a word is a valid name unless it holds '-'
            self.bail(f"'{tok.value}' is not a valid {what.partition(' ')[2]} (letters, digits, '_')", tok)
        self.advance()
        return tok.value

    def expect_time(self) -> int:
        if self.peek().kind != "time":
            self.expected("a time point like t0")
        return self.advance().number

    # Only a punctuation or keyword token can have a punctuation mark or a keyword
    # as its value, so the value alone tells it apart.
    def at(self, value: str) -> bool:
        return self.peek().value == value

    def expect(self, value: str) -> _Token:
        if not self.at(value):
            self.expected(f"'{value}'")
        return self.advance()

    def end_statement(self) -> None:
        tok = self.peek()
        if tok.kind in ("newline", "eof"):
            self.advance()
            return
        self.bail(f"unexpected {tok.value!r} after end of statement", tok)

    def recover(self) -> None:
        while self.peek().kind not in ("newline", "eof"):
            self.advance()
        if self.peek().kind == "newline":
            self.advance()

    # -- statements ----------------------------------------------------------

    def parse(self) -> None:
        while True:
            tok = self.peek()
            if tok.kind == "eof":
                return
            if tok.kind == "newline":
                self.advance()
                continue
            try:
                self.statement(tok)
            except _Bail:
                self.recover()

    def statement(self, tok: _Token) -> None:
        handler = self.HANDLERS.get(tok.value)
        if handler is not None:
            handler(self, self.advance())
            return
        if tok.kind == "word":
            self.bail(f"unknown statement '{tok.value}'", tok)
        self.bail(f"a statement cannot start with {tok.value!r}", tok)

    def kind_stmt(self, kw: _Token) -> None:
        name = self.expect_name("a kind name")
        requires: list[str] = []
        if kw.value == "quantity-kind" and self.at("requires"):
            self.advance()
            requires.append(self.expect_name("an object kind name"))
            while self.at(","):
                self.advance()
                requires.append(self.expect_name("an object kind name"))
        meta = QUANTITY_KIND if kw.value == "quantity-kind" else OBJECT_KIND
        self.end_statement()
        self.scenario.kind_decls.append(KindStmt(name, meta, tuple(requires), Pos(kw.line, kw.column)))

    def object_stmt(self, kw: _Token) -> None:
        name = self.expect_name("an object name")
        self.expect(":")
        kind = self.expect_name("a kind name")
        at = 0
        if self.at("at"):
            self.advance()
            at = self.expect_time()
        self.end_statement()
        self.scenario.object_decls.append(ObjectStmt(name, kind, at, Pos(kw.line, kw.column)))

    def quantity_stmt(self, kw: _Token) -> None:
        name = self.expect_name("a quantity name")
        self.expect(":")
        kind = self.expect_name("a kind name")
        self.expect("at")
        at = self.expect_time()
        self.expect("granules")
        granules = self.name_block()
        self.end_statement()
        self.scenario.quantity_creations.append(QuantityStmt(name, kind, at, granules, Pos(kw.line, kw.column)))

    def adjacency_stmt(self, kw: _Token) -> None:
        a = self.expect_name("an object name")
        b = self.expect_name("an object name")
        self.expect("at")
        at = self.expect_time()
        self.end_statement()
        self.scenario.adjacency.append(AdjacencyStmt(a, b, at, kw.value == "connect", Pos(kw.line, kw.column)))

    def subquantity_stmt(self, kw: _Token) -> None:
        part = self.expect_name("a quantity name")
        self.expect("of")
        whole = self.expect_name("a quantity name")
        self.end_statement()
        self.scenario.subquantity_assertions.append(SubquantityStmt(part, whole, Pos(kw.line, kw.column)))

    def event_stmt(self, kw: _Token) -> None:
        name = self.expect_name("an event name")
        self.expect("at")
        at = self.expect_time()
        open_brace = self.expect("{")
        donors: list[str] = []
        creates: list[CreateClause] = []
        discard: list[str] = []
        saw_discard = False
        while True:
            tok = self.peek()
            if self.at("}"):
                self.advance()
                break
            if tok.kind == "eof":
                self.bail("unclosed event block", open_brace)
            if self.at(";"):
                self.advance()
                continue
            if self.at("donor"):
                self.advance()
                donors.append(self.expect_name("a quantity name"))
                while self.peek().kind == "word" and self.peek().value not in KEYWORDS:
                    donors.append(self.expect_name("a quantity name"))
            elif self.at("create"):
                create_kw = self.advance()
                cid = self.expect_name("a quantity name")
                self.expect(":")
                ckind = self.expect_name("a kind name")
                self.expect("granules")
                cgranules = self.name_block()
                creates.append(CreateClause(cid, ckind, cgranules, Pos(create_kw.line, create_kw.column)))
            elif self.at("discard"):
                if saw_discard:
                    self.bail("event block has more than one discard clause", tok)
                saw_discard = True
                self.advance()
                discard.extend(self.name_block())
            else:
                self.bail(f"expected donor, create, discard or '}}', found {tok.value!r}", tok)
        if not creates:
            self.bail("event block needs at least one create clause", kw)
        if not donors and len(creates) > 1:
            self.bail("an event without donors can create only one quantity", kw)
        if not donors and discard:
            self.bail("an event without donors cannot discard granules", kw)
        self.end_statement()
        self.scenario.events.append(
            EventStmt(name, at, tuple(donors), tuple(creates), tuple(discard), Pos(kw.line, kw.column))
        )

    def name_block(self) -> tuple[str, ...]:
        self.expect("{")
        names: list[str] = []
        if self.at("}"):
            self.advance()
            return ()
        names.append(self.expect_name("a name"))
        while self.at(","):
            self.advance()
            names.append(self.expect_name("a name"))
        self.expect("}")
        return tuple(names)

    # Plain functions, built once: a dict of bound methods on the parser would form a
    # reference cycle that keeps every token alive until the cyclic collector runs.
    HANDLERS = {
        "quantity-kind": kind_stmt,
        "object-kind": kind_stmt,
        "object": object_stmt,
        "quantity": quantity_stmt,
        "connect": adjacency_stmt,
        "disconnect": adjacency_stmt,
        "subquantity": subquantity_stmt,
        "event": event_stmt,
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

    timeline = sorted(
        [(st.at, st.pos, f"creation of '{st.id}'") for st in scenario.quantity_creations]
        + [(ev.at, ev.pos, f"event '{ev.name}'") for ev in scenario.events],
        key=lambda item: (item[0], item[1].line, item[1].column),
    )
    for (at1, _, label1), (at2, pos2, label2) in zip(timeline, timeline[1:]):
        if at1 == at2:
            err(pos2, f"{label2} shares time point t{at2} with {label1}; event times must strictly increase")
    return diags


def parse(text: str) -> ParseResult:
    """Parse scenario source text; total over arbitrary input."""
    tokens, diags, lines = _lex(text)
    parser = _Parser(tokens, lines)
    parser.parse()
    diags = diags + parser.diags
    if not diags:
        diags = _resolve(parser.scenario, lines)
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
        line = prefix.count("\n") + 1
        column = len(prefix) - (prefix.rfind("\n") + 1) + 1
        snippet_line = prefix.split("\n")[-1]
        diag = ParseDiagnostic(
            line, column, f"invalid UTF-8 at byte offset {exc.start}: {exc.reason}", snippet_line
        )
        return ParseResult(None, [diag])
    return parse(text)


def load(scenario: Scenario) -> KnowledgeBase:
    """Build a knowledge base by routing every statement through the engine.

    The first engine error aborts the load, wrapped with the source location
    of the offending statement.
    """
    kb = KnowledgeBase()
    # Object kinds first, since a quantity kind requires them; the sort is stable.
    kinds = sorted(scenario.kind_decls, key=lambda st: st.meta != OBJECT_KIND)
    # A quantity statement is a donor-less event named create-NAME; the sort is
    # stable, so statements at one time point keep their source order.
    timeline = [(q.at, f"create-{q.id}", (), (q,), (), q.pos) for q in scenario.quantity_creations]
    timeline += [(ev.at, ev.name, ev.donors, ev.creates, ev.discard, ev.pos) for ev in scenario.events]
    timeline.sort(key=lambda step: step[0])
    try:  # each loop binds pos, the position of the statement being loaded
        for st in kinds:
            pos = st.pos
            kb.declare_kind(KindDecl(st.name, st.meta, frozenset(st.requires)))
        for st in scenario.object_decls:
            pos = st.pos
            kb.create_object(st.id, st.kind, st.at)
        for at, event_id, donors, creates, discard, pos in timeline:
            created = tuple(CreatedEntry.of(c.id, c.kind, c.granules) for c in creates)
            kind = GRANULE_TRANSFER if donors else CREATION
            apply_event(kb, EventRec(event_id, at, kind, frozenset(donors), created, frozenset(discard)))
        for st in sorted(scenario.adjacency, key=lambda st: st.at):
            pos = st.pos
            (kb.assert_adjacency if st.connect else kb.retract_adjacency)(st.a, st.b, st.at)
        for st in scenario.subquantity_assertions:
            pos = st.pos
            kb.assert_subquantity(st.part, st.whole)
    except (EngineError, ValueError) as exc:
        raise ScenarioLoadError(str(exc), pos.line, pos.column, exc) from exc
    return kb
