"""Scenario language: parsing, diagnostics, resolution, loading."""

import gc
import json
import random
import re
from bisect import bisect_right
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from matterkb import dsl, event_log, load, parse, parse_bytes
from matterkb.cli import main
from matterkb.errors import ScenarioLoadError, TooFewGranules

from helpers import (
    EVENT_FAULTS, SCENARIO_EVENT_FAULTS, _ref_lex, event_fault_kb, event_fault_scenario, placed_event_faults,
    reference_lex, reference_load, reference_parse, scenario_corpus,
)


def diags(text):
    result = parse(text)
    assert not result.ok
    return result.diagnostics


def scenario(text):
    result = parse(text)
    assert result.ok, result.diagnostics
    return result.scenario


class TestParseCaseStudy:
    def test_structure(self, case_text):
        sc = scenario(case_text)
        assert len(sc.quantity_creations) == 1
        assert len(sc.events) == 2
        assert [e.name for e in sc.events] == ["transfer1", "transfer2"]
        assert len(sc.object_decls) == 6
        assert "grain1" in {o.id for o in sc.object_decls}

    def test_loaded_counts(self, case_kb):
        assert len(event_log(case_kb)) == 3  # one desugared creation + two transfers
        assert len(case_kb.quantities) == 5
        assert "grain1" in case_kb.objects

    def test_determinism(self, case_text):
        first = parse(case_text)
        second = parse(case_text)
        assert first.scenario == second.scenario


class TestParseBasics:
    def test_empty_file(self):
        sc = scenario("")
        assert sc.kind_decls == [] and sc.events == []

    def test_comments_and_blank_lines(self):
        sc = scenario("# header\n\nobject-kind Grain\n  # indented comment\n")
        assert [k.name for k in sc.kind_decls] == ["Grain"]

    def test_crlf_tolerated(self):
        sc = scenario("object-kind Grain\r\nobject g1 : Grain\r\n")
        assert sc.object_decls[0].id == "g1"

    def test_object_default_time(self):
        sc = scenario("object-kind Grain\nobject g1 : Grain\nobject g2 : Grain at t5\n")
        assert sc.object_decls[0].at == 0
        assert sc.object_decls[1].at == 5

    def test_multiline_event_block(self):
        text = (
            "object-kind Grain\n"
            "quantity-kind Rock\n"
            "object a : Grain\nobject b : Grain\n"
            "quantity r1 : Rock at t0 granules { a, b }\n"
            "event split at t1 {\n"
            "  donor r1 ;\n"
            "  create r2 : Rock granules { a, b }\n"
            "}\n"
        )
        sc = scenario(text)
        assert sc.events[0].donors == ("r1",)
        assert sc.events[0].creates[0].granules == ("a", "b")

    def test_requires_list(self):
        sc = scenario("object-kind A\nobject-kind B\nquantity-kind Q requires A, B\n")
        assert sc.kind_decls[2].requires == ("A", "B")

    def test_parse_leaves_no_reference_cycle(self, case_text):
        # A cycle through the parser keeps every token alive until the cyclic collector runs.
        gc.collect()
        gc.disable()
        try:
            parse("object a :\n" + case_text)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestDiagnostics:
    def test_missing_kind_reported_at_colon(self):
        (d,) = diags("quantity rock1 :")
        assert (d.line, d.column) == (1, 16)
        assert d.snippet == "quantity rock1 :"
        assert "expected a kind name" in d.message

    def test_unknown_statement(self):
        (d,) = diags("frobnicate x\n")
        assert d.column == 1 and "unknown statement" in d.message

    def test_keyword_as_identifier(self):
        (d,) = diags("object-kind event\n")
        assert "keyword 'event'" in d.message

    def test_hyphen_in_identifier(self):
        (d,) = diags("object-kind my-grain\n")
        assert "not a valid" in d.message

    def test_missing_time(self):
        (d,) = diags("object-kind G\nobject a : G\nobject b : G\nconnect a b at\n")
        assert d.line == 4 and "time point" in d.message

    def test_unclosed_event_block(self):
        (d,) = diags("event x at t0 {\n  donor r1\n")
        assert "unclosed event block" in d.message
        assert (d.line, d.column) == (1, 15)

    def test_unclosed_granule_block(self):
        out = diags("quantity-kind R\nquantity q : R at t0 granules { a, b\n")
        assert any("expected '}'" in d.message for d in out)

    def test_event_without_create(self):
        out = diags("quantity-kind R\nobject-kind G\nobject a : G\nobject b : G\n"
                    "quantity r1 : R at t0 granules {a, b}\n"
                    "event x at t1 { donor r1 }\n")
        assert any("at least one create clause" in d.message for d in out)

    def test_donorless_event_with_two_creates(self):
        out = diags(
            "quantity-kind R\nobject-kind G\n"
            "object a : G\nobject b : G\nobject c : G\nobject d : G\n"
            "event x at t0 { create p : R granules {a, b} ; create q : R granules {c, d} }\n"
        )
        assert any("can create only one quantity" in d.message for d in out)

    def test_subquantity_missing_of(self):
        (d,) = diags("quantity-kind R\nquantity-kind S\nsubquantity a b\n")
        assert "expected 'of'" in d.message

    def test_requires_without_name(self):
        (d,) = diags("quantity-kind Rock requires\n")
        assert "expected an object kind name" in d.message

    def test_disconnect_missing_at(self):
        (d,) = diags("object-kind G\nobject a : G\nobject b : G\ndisconnect a b t3\n")
        assert "expected 'at'" in d.message

    def test_multiple_statements_each_get_diagnostics(self):
        out = diags("object a :\nobject b :\n")
        assert len(out) == 2
        assert [d.line for d in out] == [1, 2]

    def test_diagnostics_sorted_and_deterministic(self):
        text = "object b :\nobject a :\n"
        first = diags(text)
        second = diags(text)
        assert first == second
        assert [d.line for d in first] == sorted(d.line for d in first)


class TestResolution:
    def test_forward_reference_ok(self):
        sc = scenario("object g1 : Grain\nobject-kind Grain\n")
        assert sc.object_decls[0].kind == "Grain"

    def test_undeclared_kind(self):
        (d,) = diags("object g1 : Grain\n")
        assert "undeclared kind 'Grain'" in d.message

    def test_wrong_meta_kind(self):
        (d,) = diags("quantity-kind Rock\nobject g1 : Rock\n")
        assert "not an object kind" in d.message

    def test_undeclared_granule(self):
        out = diags("quantity-kind Rock\nquantity r : Rock at t0 granules { gx, gy }\n")
        assert len(out) == 2
        assert "undeclared object 'gx'" in out[0].message
        assert "undeclared object 'gy'" in out[1].message

    def test_duplicate_entity_name(self):
        out = diags("object-kind G\nobject a : G\nobject a : G\n")
        assert any("reuses an already declared name" in d.message for d in out)

    def test_undeclared_donor(self):
        out = diags(
            "quantity-kind R\nobject-kind G\nobject a : G\nobject b : G\n"
            "event x at t0 { donor ghost ; create q : R granules {a, b} }\n"
        )
        assert any("undeclared quantity 'ghost' as donor" in d.message for d in out)

    def test_equal_event_times_rejected(self):
        out = diags(
            "quantity-kind R\nobject-kind G\n"
            "object a : G\nobject b : G\nobject c : G\nobject d : G\n"
            "quantity p : R at t0 granules {a, b}\n"
            "quantity q : R at t0 granules {c, d}\n"
        )
        assert any("must strictly increase" in d.message for d in out)


class TestBytesAndTotality:
    def test_invalid_utf8_positioned(self):
        result = parse_bytes(b"object-kind G\nobject \xff : G\n")
        assert not result.ok
        (d,) = result.diagnostics
        assert d.line == 2
        assert "byte offset 21" in d.message

    def test_arbitrary_bytes_never_crash(self):
        rng = random.Random(0)
        for _ in range(200):
            blob = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 120)))
            parse_bytes(blob)  # must not raise

    def test_arbitrary_text_never_crashes(self):
        rng = random.Random(1)
        alphabet = "abc {}:,;#\n\t t0 t1 quantity event donor create"
        for _ in range(300):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 200)))
            parse(text)  # must not raise


class TestLoad:
    def test_engine_error_carries_location(self):
        sc = scenario(
            "quantity-kind R\nobject-kind G\n"
            "object a : G\nobject b : G\nobject c : G\nobject d : G\n"
            "quantity p : R at t0 granules {a, b}\n"
            "event x at t1 { donor p ; create q : R granules {a, b} }\n"
            "event y at t2 { donor p ; create r : R granules {c, d} }\n"
        )
        with pytest.raises(ScenarioLoadError) as exc_info:
            load(sc)
        assert exc_info.value.line == 9
        assert "not live" in exc_info.value.message

    def test_too_few_granules_located(self):
        result = parse(
            "quantity-kind R\nobject-kind G\nobject a : G\n"
            "quantity p : R at t0 granules {a}\n"
        )
        assert result.ok
        with pytest.raises(ScenarioLoadError) as exc_info:
            load(result.scenario)
        assert exc_info.value.line == 4

    @pytest.mark.parametrize("fault, place", placed_event_faults(SCENARIO_EVENT_FAULTS))
    def test_event_batch_names_the_faulty_statement(self, fault, place):
        """One event fault first, in the middle or last in the timeline: the
        statement-by-statement load's line, column, message and cause."""
        text, line = event_fault_scenario(*event_fault_kb(fault, place))
        result = parse(text)
        assert result.ok, result.diagnostics
        outcomes = []
        for build in (load, reference_load):
            with pytest.raises(ScenarioLoadError) as info:
                build(result.scenario)
            outcomes.append((info.value.line, info.value.column, str(info.value), type(info.value.cause)))
        assert outcomes[0] == outcomes[1]
        assert (outcomes[0][:2], outcomes[0][3]) == ((line, 1), EVENT_FAULTS[fault][1])

    def test_named_creation_event(self):
        kb = load(scenario(
            "quantity-kind R\nobject-kind G\nobject a : G\nobject b : G\n"
            "event birth at t0 { create q : R granules {a, b} }\n"
        ))
        assert event_log(kb)[0].id == "birth"
        assert event_log(kb)[0].kind == "creation"

    def test_statement_order_free(self):
        # adjacency written before objects, chronology still applies cleanly
        kb = load(scenario(
            "connect a b at t0\n"
            "disconnect a b at t3\n"
            "quantity q : R at t0 granules {a, b}\n"
            "object a : G\nobject b : G\n"
            "object-kind G\nquantity-kind R\n"
        ))
        assert kb.adjacent_at("a", "b", 2)
        assert not kb.adjacent_at("a", "b", 3)

    def test_subquantity_pattern_loads_clean(self):
        from matterkb import validate_all
        from matterkb.model import SubQuantityAssertion

        kb = load(scenario(
            "object-kind Molecule\n"
            "quantity-kind Wine\nquantity-kind Alcohol\n"
            "object m1 : Molecule\nobject m2 : Molecule\nobject m3 : Molecule\n"
            "quantity wine1 : Wine at t0 granules {m1, m2, m3}\n"
            "quantity alcohol1 : Alcohol at t1 granules {m1, m2}\n"
            "subquantity alcohol1 of wine1\n"
            "connect m1 m2 at t0\nconnect m2 m3 at t0\nconnect m1 m3 at t0\n"
        ))
        assert SubQuantityAssertion("alcohol1", "wine1") in kb.subquantities
        assert validate_all(kb).ok

    def test_non_included_subquantity_fails_to_load(self):
        with pytest.raises(ScenarioLoadError) as info:
            load(scenario(
                "object-kind Molecule\n"
                "quantity-kind Wine\nquantity-kind Alcohol\n"
                "object m1 : Molecule\nobject m2 : Molecule\nobject m3 : Molecule\n"
                "quantity wine1 : Wine at t0 granules {m1, m3}\n"
                "quantity alcohol1 : Alcohol at t1 granules {m1, m2}\n"
                "subquantity alcohol1 of wine1\n"
            ))
        assert (info.value.line, info.value.column) == (9, 1)
        assert "not granules of whole 'wine1'" in info.value.message

    def test_ggd_gap_loads_then_validates_dirty(self):
        from matterkb import validate_all

        kb = load(scenario(
            "object-kind H2OMolecule\nobject-kind Impurity\n"
            "quantity-kind PortionOfWater requires H2OMolecule\n"
            "object i1 : Impurity\nobject i2 : Impurity\n"
            "quantity w : PortionOfWater at t0 granules {i1, i2}\n"
            "connect i1 i2 at t0\n"
        ))
        report = validate_all(kb)
        assert {v.rule for v in report.violations} == {"AA1_GGD"}


def lexed(text):
    """``dsl._lex`` and ``dsl._located`` as positioned tokens ``(kind, value,
    line, column, number)``, lexer diagnostics and split lines. A newline is
    given its line and no column, the end of input neither."""
    tokens, breaks, clean = dsl._lex(text)
    lines = text.split("\n")
    words = [tok for tok in tokens if tok >= " "]
    # One error at each token that is not a newline gives that token's position.
    located = dsl._located(text, lines, [(k, "") for k in range(len(words))])
    diagnostics, places = located[: len(located) - len(words)], located[len(located) - len(words):]
    out, newlines, places = [], 0, iter(places)
    for i, tok in enumerate(tokens):
        line = newlines + bisect_right(breaks, i) + 1
        if tok == "\n":
            out.append(("newline", tok, line, 0, 0))
            newlines += 1
        elif not tok:
            out.append(("eof", tok, 0, 0, 0))
        else:
            place = next(places)
            assert place.line == line
            time = re.fullmatch("t([0-9]+)", tok)
            kind = "time" if time else "word" if tok[0].isalpha() or tok[0] == "_" else "punct"
            out.append((kind, tok, line, place.column, int(time[1]) if time else 0))
    assert clean == (diagnostics == [])
    return out, diagnostics, lines


def reference_lexed(text):
    tokens, diagnostics, lines = reference_lex(text)
    placed = [
        (t.kind, t.value, t.line, t.column, t.number) if t.kind != "newline" else (t.kind, t.value, t.line, 0, 0)
        for t in tokens[:-1]
    ]
    return placed + [("eof", "", 0, 0, 0)], diagnostics, lines


def rendered(result):
    return [(d.render(), d.snippet) for d in result.diagnostics]


class TestLexer:
    def test_unicode_digit_after_t_is_not_a_time(self):
        tokens, (d,), _ = lexed("t\u0661")
        assert tokens == [("word", "t", 1, 1, 0), ("newline", "\n", 1, 0, 0), ("eof", "", 0, 0, 0)]
        assert (d.line, d.column, d.message) == (1, 2, "unexpected character '\u0661'")

    def test_unicode_digit_ends_a_time(self):
        tokens, (d,), _ = lexed("t12\u0661")
        assert tokens[0] == ("time", "t12", 1, 1, 12)
        assert (d.column, d.message) == (4, "unexpected character '\u0661'")

    @pytest.mark.parametrize("word", ["t1x", "t1-a", "t_2", "t"])
    def test_time_matches_whole_words_only(self, word):
        tokens, diagnostics, _ = lexed(f"at {word} ")
        assert tokens[1] == ("word", word, 1, 4, 0) and diagnostics == []

    @pytest.mark.parametrize("ch", ["\f", "\u00a0", "\u00b2", "\r"])
    def test_stray_character_between_words(self, ch):
        tokens, (d,), lines = lexed(f"a{ch}b\n")
        assert [t[:4] for t in tokens] == [
            ("word", "a", 1, 1), ("word", "b", 1, 3),
            ("newline", "\n", 1, 0), ("newline", "\n", 2, 0), ("eof", "", 0, 0),
        ]
        assert (d.line, d.column, d.message, d.snippet) == (1, 2, f"unexpected character {ch!r}", f"a{ch}b")
        assert lines == [f"a{ch}b", ""]

    def test_last_line_ending_in_cr_without_newline(self):
        tokens, diagnostics, lines = lexed("a\nb\r")
        assert tokens == [
            ("word", "a", 1, 1, 0), ("newline", "\n", 1, 0, 0),
            ("word", "b", 2, 1, 0), ("newline", "\n", 2, 0, 0), ("eof", "", 0, 0, 0),
        ]
        assert diagnostics == [] and lines == ["a", "b\r"]

    def test_comment_inside_multiline_brace_block(self):
        tokens, diagnostics, _ = lexed("x { a # } b\n c }\n")
        assert [t[:4] for t in tokens] == [
            ("word", "x", 1, 1), ("punct", "{", 1, 3), ("word", "a", 1, 5),
            ("word", "c", 2, 2), ("punct", "}", 2, 4), ("newline", "\n", 2, 0),
            ("newline", "\n", 3, 0), ("eof", "", 0, 0),
        ]
        assert diagnostics == []

    def test_trailing_blanks_and_comment_at_end_of_input(self):
        tokens = [("word", "a", 1, 1, 0), ("newline", "\n", 1, 0, 0), ("eof", "", 0, 0, 0)]
        assert lexed("a \t# c") == (tokens, [], ["a \t# c"])

    @pytest.mark.parametrize("text", ["a\r\r\n b", "a\r \r\n", "{\r\n\r\n}\r", "a \r\rb\r"])
    def test_only_the_crs_that_end_a_line_are_blank(self, text):
        assert lexed(text) == reference_lexed(text)


FRAGMENTS = sorted(dsl.KEYWORDS) + [
    "t", "t0", "t12", "t1x", "t1-a", "t\u0661", "t12\u0661", "t\u00b2", "a", "b_c", "d-e", "9",
    " ", "\t", "\r", "\f", "\u00a0", "\n", "\r\n", "#", "# c\n", ":", ",", ";", "{", "}",
    "\u0661", "\u00b2", "\u00e9",
]
CHARS = "at01_- \t\r\f\u00a0\n#:,;{}\u0661\u00b2\u00e9"


@settings(derandomize=True, max_examples=2500, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(FRAGMENTS), st.text(CHARS, max_size=4)), max_size=40).map("".join))
def test_lexer_matches_reference(text):
    assert _ref_lex(text) == reference_lex(text)  # the lexer of reference_parse
    assert lexed(text) == reference_lexed(text)
    expected = reference_parse(text)
    assert rendered(parse(text)) == rendered(expected)
    assert parse(text) == expected


class TestParseAtScale:
    """``dsl.parse`` against ``reference_parse`` on the case study repeated and
    reformatted: blocks that span lines, create clauses that share a line, CRLF,
    comments and tabs inside braces (``helpers.scenario_corpus``)."""

    def test_equal_records_and_positions(self):
        text = scenario_corpus(60)
        result = parse(text)
        assert result.ok and len(result.scenario.events) == 120
        assert result == reference_parse(text)

    def test_equal_diagnostics_at_both_ends_and_a_bad_character_between(self):
        """Only the tokens the errors name are placed; the rest of the text is walked past."""
        lines = scenario_corpus(60).split("\n")
        first = next(i for i, line in enumerate(lines) if line[:1].isalpha())
        lines[first] += " :"
        text = "\n".join(lines)
        middle = text.index("\nobject ", len(text) // 2) + 1
        text = text[:middle] + "\f" + text[middle:].rstrip() + " extra\r\n"
        result = parse(text)
        assert [(d.line, d.message) for d in result.diagnostics] == [
            (first + 1, "unexpected ':' after end of statement"),
            (text.count("\n", 0, middle) + 1, "unexpected character '\\x0c'"),
            (text.count("\n"), "unexpected 'extra' after end of statement"),
        ]
        assert result == reference_parse(text)

    def test_equal_diagnostics_after_dropping_or_duplicating_one_token(self):
        """Two copies, one with LF and one with CRLF line ends; every newline
        counts as a token here, also one inside braces, which the lexer drops."""
        text = scenario_corpus(2)
        starts = [0] + [i + 1 for i, ch in enumerate(text) if ch == "\n"]
        words = [t for t in reference_lex(text)[0] if t.kind not in ("newline", "eof")]
        spans = {(starts[t.line - 1] + t.column - 1, len(t.value)) for t in words}
        spans |= {(i, 1) for i, ch in enumerate(text) if ch == "\n"}
        assert len(spans) > 300
        for start, size in sorted(spans):
            end = start + size
            for edited in (text[:start] + text[end:], text[:end] + " " + text[start:]):
                assert rendered(parse(edited)) == rendered(reference_parse(edited)), (start, edited[start - 20:end + 20])


DIAGNOSTICS = json.loads((Path(__file__).parent / "golden" / "diagnostics.json").read_text(encoding="utf-8"))


class TestDiagnosticsGolden:
    """``validate FILE`` on malformed scenarios, byte for byte. ``{file}`` in
    stderr stands for the scenario's path; a lone surrogate in ``source``
    stands for an invalid UTF-8 byte."""

    FAMILIES = (
        "unexpected character", "cannot be used as", "is not a valid", "expected ':', found",
        "error: expected a kind name\n", "unclosed event block", "error: expected '}'\n",
        "more than one discard clause", "at least one create clause", "undeclared kind",
        "undeclared object", "undeclared quantity", "which is not", "reuses an already declared name",
        "declared twice", "shares time point", "invalid UTF-8", "is not live",
    )

    def test_every_message_family_is_covered(self):
        assert all(any(f in r["stderr"] for r in DIAGNOSTICS) for f in self.FAMILIES)

    def test_no_stderr_echoes_a_control_character(self):
        """A TAB stays; a newline only ends a line of stderr."""
        control = re.compile("[\x00-\x08\x0b-\x1f\x7f]")
        assert [r["name"] for r in DIAGNOSTICS if control.search(r["stderr"])] == []

    @pytest.mark.parametrize("ch, shown", [("\x1b", "\\x1b"), ("\x7f", "\\x7f"), ("\x00", "\\x00")])
    def test_snippet_shows_control_characters_escaped(self, ch, shown, tmp_path, capsys):
        path = tmp_path / "scenario.mp"
        path.write_text(f"object-kind G{ch}\n", encoding="utf-8")
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().err.endswith(f"error: unexpected character {ch!r}\n  | object-kind G{shown}\n")

    @pytest.mark.parametrize("record", DIAGNOSTICS, ids=[r["name"] for r in DIAGNOSTICS])
    def test_validate_matches_golden(self, record, tmp_path, capsys):
        path = tmp_path / "scenario.mp"
        path.write_bytes(record["source"].encode("utf-8", "surrogateescape"))
        code = main(["validate", str(path)])
        out, err = capsys.readouterr()
        assert (code, out, err.replace(str(path), "{file}")) == (record["exit"], "", record["stderr"])


def test_an_empty_granule_block_parses_and_fails_to_load_at_its_statement(case_text):
    text = case_text + "quantity rock9 : PortionOfRock at t3 granules { }\n"
    result = parse(text)
    assert result.ok and result == reference_parse(text)
    assert result.scenario.quantity_creations[-1].granules == ()
    with pytest.raises(ScenarioLoadError) as info:
        load(result.scenario)
    assert isinstance(info.value.cause, TooFewGranules)
    assert (info.value.line, info.value.column) == (text.count("\n"), 1)
    assert info.value.message == "quantity 'rock9' needs at least 2 granules, got 0"
