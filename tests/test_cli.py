"""Command-line behaviour: exit codes, determinism, output shapes."""

import builtins
import gc
import io
import json
import os
import subprocess
import sys
from argparse import Namespace
from functools import partial
from pathlib import Path

import pytest

import matterkb
from matterkb import case_study_path, cli, export_document, provenance, validate_all
from matterkb.canonical import dumps
from matterkb.cli import main

from helpers import FAULT_FIXTURES, build_random_kb, moved_chains_kb, report_records


@pytest.fixture()
def case_file():
    return str(case_study_path())


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_clean_scenario(self, capsys, case_file):
        code, out, err = run_cli(capsys, "validate", case_file)
        assert (code, out, err) == (0, "0 violations\n", "")

    def test_violations_exit_code(self, capsys, tmp_path):
        from helpers import fixture_supplementation
        from matterkb import export_document

        path = tmp_path / "broken.mpkb"
        path.write_text(export_document(fixture_supplementation()), encoding="utf-8")
        code, out, err = run_cli(capsys, "validate", str(path))
        assert code == 1
        assert "SUPPLEMENTATION_MIN2 (1)" in out
        assert out.endswith("1 violation\n")

    def test_missing_file(self, capsys):
        code, out, err = run_cli(capsys, "validate", "no/such/file.mp")
        assert code == 2 and out == "" and "cannot read" in err

    def test_parse_error_goes_to_stderr(self, capsys, tmp_path):
        path = tmp_path / "bad.mp"
        path.write_text("quantity rock1 :\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "validate", str(path))
        assert code == 2 and out == ""
        assert "1:16: error: expected a kind name" in err
        assert "| quantity rock1 :" in err

    def test_load_error_includes_position(self, capsys, tmp_path):
        path = tmp_path / "half.mp"
        path.write_text(
            "quantity-kind R\nobject-kind G\nobject a : G\n"
            "quantity p : R at t0 granules {a}\n",
            encoding="utf-8",
        )
        code, out, err = run_cli(capsys, "validate", str(path))
        assert code == 2
        assert f"{path}:4:1: error:" in err

    def test_canonical_format(self, capsys, tmp_path):
        from helpers import fixture_ggd
        from matterkb import export_document

        path = tmp_path / "gap.mpkb"
        path.write_text(export_document(fixture_ggd()), encoding="utf-8")
        code, out, err = run_cli(capsys, "validate", "--format", "canonical", str(path))
        assert code == 1
        records = json.loads(out)
        assert records == [
            {
                "rule": "AA1_GGD",
                "subjects": ["sw", "Salt"],
                "message": "quantity 'sw' of kind 'SaltWater' has no granule of required kind 'Salt'",
            }
        ]

    def test_single_world_flag(self, capsys, tmp_path):
        from helpers import fixture_maximality
        from matterkb import export_document

        path = tmp_path / "adj.mpkb"
        path.write_text(export_document(fixture_maximality()), encoding="utf-8")
        code_t0, out_t0, _ = run_cli(capsys, "validate", "--at", "t0", str(path))
        code_t1, out_t1, _ = run_cli(capsys, "validate", "--at", "t1", str(path))
        assert (code_t0, out_t0) == (0, "0 violations\n")
        assert code_t1 == 1 and "MAXIMALITY_SAME_KIND" in out_t1


class TestQuery:
    def test_history(self, capsys, case_file):
        code, out, _ = run_cli(capsys, "query", case_file, "history", "grain1")
        assert code == 0
        assert out == (
            "rock1 t0..t1 in=create-rock1 out=transfer1\n"
            "rock3 t1..t2 in=transfer1 out=transfer2\n"
            "rock5 t2.. in=transfer2\n"
        )

    def test_provenance_transitive(self, capsys, case_file):
        code, out, _ = run_cli(capsys, "query", case_file, "provenance", "rock5", "--transitive")
        assert code == 0 and out == "rock1\nrock3\n"

    def test_provenance_direct(self, capsys, case_file):
        code, out, _ = run_cli(capsys, "query", case_file, "provenance", "rock5")
        assert code == 0 and out == "rock3\n"

    def test_provenance_canonical_mirrors_edge_fields(self, capsys, case_file):
        code, out, _ = run_cli(
            capsys, "query", case_file, "provenance", "rock5", "--transitive",
            "--format", "canonical",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["donors"] == ["rock1", "rock3"]
        edge = payload["edges"][0]
        assert set(edge) == {
            "inheritor", "donor", "event", "completeInheritance", "completeDonation",
            "isSubPortion",
        }

    def test_world(self, capsys, case_file):
        code, out, _ = run_cli(capsys, "query", case_file, "world", "t1")
        assert code == 0
        assert "  rock1 terminated\n" in out
        assert "  rock2 live\n" in out and "  rock3 live\n" in out
        assert "  rock5 not-yet-created\n" in out

    def test_cohort(self, capsys, case_file):
        code, out, _ = run_cli(capsys, "query", case_file, "cohort", "grain1", "--at", "t0")
        assert code == 0
        assert out.splitlines() == [f"grain{i}" for i in range(1, 7)]

    def test_cohort_needs_at(self, capsys, case_file):
        code, _, err = run_cli(capsys, "query", case_file, "cohort", "grain1")
        assert code == 2 and "--at" in err

    def test_ancestors(self, capsys, case_file):
        code, out, _ = run_cli(capsys, "query", case_file, "ancestors", "rock2", "rock5")
        assert code == 0 and out == "rock1\n"

    def test_classify_all(self, capsys, case_file):
        code, out, _ = run_cli(capsys, "query", case_file, "classify")
        assert code == 0
        assert out == (
            "rock1: OriginalPortion\nrock2: SubPortion\nrock3: SubPortion\n"
            "rock4: SubPortion\nrock5: SubPortion\n"
        )

    def test_unknown_entity_exits_2(self, capsys, case_file):
        code, out, err = run_cli(capsys, "query", case_file, "history", "nosuchgrain")
        assert code == 2 and out == ""
        assert "nosuchgrain" in err

    def test_bad_time_argument(self, capsys, case_file):
        code, _, err = run_cli(capsys, "query", case_file, "world", "noon")
        assert code == 2 and "not a time point" in err

    def test_byte_determinism(self, capsys, case_file):
        first = run_cli(capsys, "query", case_file, "world", "t2")
        second = run_cli(capsys, "query", case_file, "world", "t2")
        assert first == second


@pytest.mark.parametrize("when", ["t\u00b2", "t\u0661"])
@pytest.mark.parametrize(
    "command", [("validate", "--at", "{when}", "{file}"), ("query", "{file}", "world", "{when}")]
)
def test_non_ascii_digits_are_not_time_points(capsys, case_file, command, when):
    argv = [arg.format(when=when, file=case_file) for arg in command]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert f"'{when}' is not a time point" in err


class TestExportAndReplay:
    def test_export_import_export_identical(self, capsys, tmp_path, case_file):
        out1 = tmp_path / "one.mpkb"
        out2 = tmp_path / "two.mpkb"
        assert run_cli(capsys, "export", case_file, str(out1))[0] == 0
        assert run_cli(capsys, "export", str(out1), str(out2))[0] == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_export_stdout(self, capsys, case_file):
        code, out, _ = run_cli(capsys, "export", case_file, "-")
        assert code == 0
        assert json.loads(out)["events"][0]["id"] == "create-rock1"

    def test_export_empty_scenario(self, capsys, tmp_path):
        src = tmp_path / "empty.mp"
        src.write_text("", encoding="utf-8")
        out = tmp_path / "empty.mpkb"
        assert run_cli(capsys, "export", str(src), str(out))[0] == 0
        assert json.loads(out.read_text()) == {
            "kinds": [], "objects": [], "quantities": [], "adjacency": [],
            "subquantities": [], "events": [],
        }

    def test_export_unwritable_path(self, capsys, case_file, tmp_path):
        code, _, err = run_cli(capsys, "export", case_file, str(tmp_path / "no" / "dir.mpkb"))
        assert code == 2 and "cannot write" in err

    def test_replay_check_ok(self, capsys, case_file):
        code, out, _ = run_cli(capsys, "replay-check", case_file)
        assert code == 0 and out.startswith("replay-check: OK (3 events")

    def test_replay_check_detects_inconsistency(self, capsys, tmp_path):
        from helpers import fixture_h1_history
        from matterkb import export_document

        path = tmp_path / "drift.mpkb"
        path.write_text(export_document(fixture_h1_history()), encoding="utf-8")
        code, out, _ = run_cli(capsys, "replay-check", str(path))
        assert code == 1 and "FAILED" in out

    @pytest.mark.parametrize("layout", ["compact", "reordered keys"])
    def test_replay_check_counts_canonical_bytes(self, capsys, case_file, tmp_path, layout):
        """A valid document in another layout reports the length of its
        canonical export, not the size of the file."""
        canonical = _exported(capsys, case_file)
        doc = json.loads(canonical)
        text = json.dumps(doc) if layout == "compact" else json.dumps(_reversed_keys(doc), indent=2)
        path = tmp_path / "other.mpkb"
        path.write_text(text, encoding="utf-8")
        assert text.encode() != canonical and json.loads(text) == doc
        code, out, err = run_cli(capsys, "replay-check", str(path))
        assert (code, out, err) == (0, f"replay-check: OK (3 events, {len(canonical)} bytes)\n", "")


def _reversed_keys(value):
    if isinstance(value, dict):
        return {key: _reversed_keys(value[key]) for key in reversed(value)}
    if isinstance(value, list):
        return [_reversed_keys(v) for v in value]
    return value


def _exported(capsys, scenario) -> bytes:
    code, out, _ = run_cli(capsys, "export", scenario, "-")
    assert code == 0
    return out.encode("utf-8")


@pytest.fixture()
def empty_file(tmp_path):
    path = tmp_path / "empty.mp"
    path.write_text("", encoding="utf-8")
    return str(path)


class TestExportOverwrite:
    """`export` rewrites OUT in place and cuts it to the document's length."""

    @pytest.mark.parametrize("old", [None, b"{" * 200_000, b"old"], ids=["new", "longer", "shorter"])
    def test_written_file_equals_stdout(self, capsys, tmp_path, case_file, old):
        out = tmp_path / "out.mpkb"
        if old is not None:
            out.write_bytes(old)
        assert run_cli(capsys, "export", case_file, str(out))[0] == 0
        assert out.read_bytes() == _exported(capsys, case_file)

    def test_symlink_target_rewritten_and_link_kept(self, capsys, tmp_path, case_file):
        target = tmp_path / "target.mpkb"
        target.write_bytes(b"x" * 100_000)
        link = tmp_path / "link.mpkb"
        link.symlink_to(target)
        assert run_cli(capsys, "export", case_file, str(link))[0] == 0
        assert link.is_symlink()
        assert target.read_bytes() == _exported(capsys, case_file)

    @pytest.mark.skipif(not os.path.exists(os.devnull), reason="no null device")
    def test_null_device(self, capsys, case_file):
        assert run_cli(capsys, "export", case_file, os.devnull) == (0, "", "")

    def test_directory_gives_write_text_message(self, capsys, tmp_path, case_file):
        with pytest.raises(OSError) as exc:
            tmp_path.write_text("", encoding="utf-8")
        code, out, err = run_cli(capsys, "export", case_file, str(tmp_path))
        assert (code, out, err) == (2, "", f"cannot write '{tmp_path}': {exc.value.strerror}\n")

    @pytest.mark.skipif(not hasattr(os, "geteuid") or os.geteuid() == 0, reason="root ignores file modes")
    def test_read_only_file_left_unchanged(self, capsys, tmp_path, case_file):
        out = tmp_path / "ro.mpkb"
        out.write_bytes(b"old contents")
        out.chmod(0o444)
        code, _, err = run_cli(capsys, "export", case_file, str(out))
        assert code == 2 and err.startswith(f"cannot write '{out}': ")
        assert out.read_bytes() == b"old contents"

    def test_new_file_mode_matches_write_text(self, capsys, tmp_path, case_file):
        old_umask = os.umask(0o027)
        try:
            (tmp_path / "reference").write_text("", encoding="utf-8")
            assert run_cli(capsys, "export", case_file, str(tmp_path / "out.mpkb"))[0] == 0
        finally:
            os.umask(old_umask)
        assert (tmp_path / "out.mpkb").stat().st_mode == (tmp_path / "reference").stat().st_mode

    def test_parse_error_leaves_out_untouched(self, capsys, tmp_path, case_file):
        bad = tmp_path / "bad.mp"
        bad.write_text("quantity oops ((\n", encoding="utf-8")
        out = tmp_path / "out.mpkb"
        assert run_cli(capsys, "export", case_file, str(out))[0] == 0
        before = out.read_bytes()
        code, _, err = run_cli(capsys, "export", str(bad), str(out))
        assert code == 2 and "error" in err
        assert out.read_bytes() == before

    def test_overwrite_never_truncates_to_zero(self, capsys, monkeypatch, tmp_path, case_file, empty_file):
        # Truncating a recently written file to zero stalls open() for tens
        # of milliseconds on ext4, so OUT must not be opened with O_TRUNC
        # or in a "w" mode, whatever the old and new lengths.
        out = tmp_path / "out.mpkb"
        expected = {case_file: _exported(capsys, case_file), empty_file: _exported(capsys, empty_file)}
        run_cli(capsys, "export", case_file, str(out))
        opens = []
        real_os_open, real_io_open = os.open, io.open

        def os_open(path, flags, *args, **kwargs):
            if os.fspath(path) == str(out):
                opens.append(("os.open", flags))
            return real_os_open(path, flags, *args, **kwargs)

        def io_open(file, mode="r", *args, **kwargs):
            if not isinstance(file, int) and os.fspath(file) == str(out):
                opens.append(("open", mode))
            return real_io_open(file, mode, *args, **kwargs)

        monkeypatch.setattr(os, "open", os_open)
        monkeypatch.setattr(io, "open", io_open)
        monkeypatch.setattr(builtins, "open", io_open)
        for scenario in (case_file, empty_file, case_file):  # same length, shorter, longer
            opens.clear()
            assert run_cli(capsys, "export", scenario, str(out))[0] == 0
            assert out.read_bytes() == expected[scenario]
            assert opens, "OUT was not opened through a recorded call"
            for how, arg in opens:
                if how == "os.open":
                    assert not arg & os.O_TRUNC
                else:
                    assert "w" not in arg


def _child_env() -> dict[str, str]:
    # The child must import the same matterkb as this process.
    package_root = str(Path(matterkb.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return env


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "matterkb", "validate", str(case_study_path())],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout == "0 violations\n"


DEEP_KINDS = (
    '{"kinds": ' + "[" * 993 + "]" * 993
    + ', "objects": [], "quantities": [], "adjacency": [], "subquantities": [], "events": []}'
)


@pytest.mark.parametrize("text", ["[" * 5000, "[" * 100_000, DEEP_KINDS])
def test_deep_document_is_one_error_line(tmp_path, text):
    path = tmp_path / "deep.mpkb"
    path.write_text(text, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "matterkb", "validate", str(path)],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    lines = proc.stderr.splitlines()
    assert (proc.returncode, proc.stdout, len(lines)) == (2, "", 1)
    # json's C parser counts against the recursion limit up to CPython 3.11
    assert lines[0] == f"{path}: $: nested too deeply to read" or sys.version_info >= (3, 12)


def test_usage_error_exits_2():
    proc = subprocess.run(
        [sys.executable, "-m", "matterkb", "frobnicate"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 2


USAGE_CALLS = [
    [], ["-h"], ["--help"], ["validate", "-h"], ["query", "--help"], ["export", "-h"], ["replay-check", "-h"],
    ["validate"], ["query", "{case}"], ["export", "{case}"], ["replay-check"],
    ["validate", "{missing}"], ["export", "{missing}", "-"],
    ["validate", "{case}", "--format", "yaml"], ["query", "{case}", "classify", "--format=xml"],
    ["frobnicate"], ["frobnicate", "{case}"], ["-x", "validate", "{case}"],
    ["query", "{case}", "lineage"], ["validate", "{case}", "--at"], ["query", "{case}", "cohort", "grain1", "--at"],
    ["validate", "{case}", "extra"], ["replay-check", "{case}", "--transitive"], ["export", "{case}", "-", "x"],
    ["validate", "{case}", "--at", "t1"], ["query", "{case}", "provenance", "rock5", "--transitive"],
    ["validate", "--form", "canonical", "{case}"], ["validate", "{case}", "-h", "--format", "yaml"],
]


@pytest.mark.parametrize("argv", USAGE_CALLS, ids=[" ".join(a) or "(none)" for a in USAGE_CALLS])
def test_main_matches_the_whole_parser_tree(capsys, case_file, tmp_path, argv):
    """Building only the subcommand that runs prints what the whole tree printed."""
    from helpers import reference_main

    argv = [a.format(case=case_file, missing=tmp_path / "missing.mp") for a in argv]
    results = []
    for run in (main, reference_main):
        code = run(list(argv))
        results.append((code, *capsys.readouterr()))
    assert results[0] == results[1]
    assert results[0][1] or results[0][2]  # every call prints something



# -- each command runs with the cyclic collector paused ----------------------------


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    """Scenarios and canonical documents, small and large, and inputs that fail."""
    from helpers import fixture_supplementation, moved_chains_kb, scenario_corpus

    case = case_study_path()
    texts = {
        "case.mp": case.read_text(encoding="utf-8"),
        "case.mpkb": export_document(cli.load_kb(str(case))),
        "corpus.mp": scenario_corpus(20),
        "chains400.mpkb": export_document(moved_chains_kb(400)),
        "chains800.mpkb": export_document(moved_chains_kb(800)),
        "violations.mpkb": export_document(fixture_supplementation()),
        "broken.mpkb": '{"kinds": 1}',
    }
    work = tmp_path_factory.mktemp("documents")
    for name, text in texts.items():
        (work / name).write_text(text, encoding="utf-8")
    return {name: str(work / name) for name in [*texts, "missing.mp"]}


COLLECTOR_CALLS = {
    "ok": (["validate", "case.mp"], 0),
    "violations": (["validate", "violations.mpkb"], 1),
    "missing file": (["validate", "missing.mp"], 2),
    "document error": (["validate", "broken.mpkb"], 2),
    "unknown object": (["query", "case.mp", "history", "nosuch"], 2),
}


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("call", COLLECTOR_CALLS, ids=list(COLLECTOR_CALLS))
def test_main_leaves_the_collector_as_it_found_it(capsys, documents, call, enabled):
    argv, code = COLLECTOR_CALLS[call]
    (gc.enable if enabled else gc.disable)()
    try:
        assert run_cli(capsys, *[documents.get(a, a) for a in argv])[0] == code
        assert gc.isenabled() == enabled
    finally:
        gc.enable()


def test_collector_enabled_again_after_an_unexpected_exception(monkeypatch, documents):
    during = []

    def handler(args):
        during.append(gc.isenabled())
        raise RuntimeError("unexpected")

    summary, _, arguments = cli.SUBCOMMANDS["validate"]
    monkeypatch.setitem(cli.SUBCOMMANDS, "validate", (summary, handler, arguments))
    with pytest.raises(RuntimeError, match="unexpected"):
        main(["validate", documents["case.mp"]])
    assert (during, gc.isenabled()) == ([False], True)


def test_no_collection_while_a_world_query_runs(capsys, monkeypatch, documents):
    """Reading the document alone would set off young collections. What the command
    allocated may set off one young collection, once the pause has ended."""
    summary, query, arguments = cli.SUBCOMMANDS["query"]
    returned, collections = [], []  # the collections, each with whether the handler had returned

    def handler(args):
        code = query(args)
        returned.append(True)
        return code

    def count(phase, info):
        if phase == "start":
            collections.append((info["generation"], bool(returned)))

    monkeypatch.setitem(cli.SUBCOMMANDS, "query", (summary, handler, arguments))
    gc.collect()  # the next young collection is due after 700 more containers
    gc.callbacks.append(count)
    try:
        code, out, _ = run_cli(capsys, "query", documents["chains400.mpkb"], "world", "t400", "--format", "canonical")
    finally:
        gc.callbacks.remove(count)
    assert (code, json.loads(out)["at"]) == (0, 400)
    assert collections in ([], [(0, True)])


GARBAGE_CALLS = [
    ["validate", "{file}"], ["query", "{file}", "classify"], ["query", "{file}", "world", "{t}", "--format", "canonical"],
    ["export", "{file}", "-"], ["export", "{file}", "{out}"], ["replay-check", "{file}"],
]


@pytest.mark.parametrize("command", GARBAGE_CALLS, ids=[" ".join(a for a in c if a != "{file}") for c in GARBAGE_CALLS])
def test_cyclic_garbage_a_command_leaves_does_not_grow_with_the_input(capsys, documents, tmp_path, command):
    """With the collector paused, cyclic garbage built per record would pile up until
    the command ends. What a command leaves (its argparse parser) must not grow."""
    left = {}
    for name, t in [("case.mp", "t2"), ("corpus.mp", "t30"), ("case.mpkb", "t2"), ("chains800.mpkb", "t800")]:
        argv = [a.format(file=documents[name], t=t, out=tmp_path / "out.mpkb") for a in command]
        gc.collect()
        gc.disable()
        try:
            assert run_cli(capsys, *argv)[0] == 0
            left[name] = gc.collect()
        finally:
            gc.enable()
    assert left["corpus.mp"] <= left["case.mp"] and left["chains800.mpkb"] <= left["case.mpkb"], left


# -- canonical output at scale is json.dumps(indent=2) of the payload, byte for byte ----


PAYLOAD_STORES = {
    "moved_chains_kb(200)": partial(moved_chains_kb, 200),
    **{f"build_random_kb({seed}, 60, 150)": partial(build_random_kb, seed, max_events=60, max_objects=150)
       for seed in range(10)},
    **{f"fixture {rule}": make for rule, make in sorted(FAULT_FIXTURES.items())},
}


def _canonical_commands(kb):
    """Each query kind and ``validate`` in full and at one time, as argument lists
    after the file, with their payloads built from the KB."""

    def query(name, *args, transitive=False, at=None):
        ns = Namespace(query=name, args=list(args), format="canonical", transitive=transitive, at=at)
        return cli.run_query(kb, ns)[1]

    def report(at):
        return report_records(validate_all(kb, at=at).violations)

    quantities = sorted(kb.quantities, key=lambda q: (-len(provenance.inherited_from(kb, q, transitive=True)), q))
    objects = sorted(kb.objects, key=lambda o: (-len(provenance.granule_history(kb, o).episodes), o))
    times = sorted({e.at for e in kb.events})
    t = times[len(times) // 2]
    oid = objects[0]
    t_cohort = provenance.granule_history(kb, oid).episodes[-1].start
    faults = [v.at for v in validate_all(kb).violations if v.at is not None]
    t_validate = faults[0] if faults else t
    deep, shallow = quantities[0], quantities[-1]
    commands = [
        (["query", "history", oid], query("history", oid)),
        (["query", "world", f"t{t}"], query("world", f"t{t}")),
        (["query", "cohort", oid, "--at", f"t{t_cohort}"], query("cohort", oid, at=f"t{t_cohort}")),
        (["query", "classify"], query("classify")),
        (["validate"], report(None)),
        (["validate", "--at", f"t{t_validate}"], report(t_validate)),
        (["query", "provenance", deep, "--transitive"], query("provenance", deep, transitive=True)),
        (["query", "provenance", shallow], query("provenance", shallow)),
    ]
    if len(quantities) > 1:  # one fault fixture holds a single quantity
        commands.append((["query", "ancestors", *quantities[:2]], query("ancestors", *quantities[:2])))
    return commands


@pytest.fixture(scope="module")
def scale_documents(tmp_path_factory):
    """Each store's exported document and its canonical commands with their payloads."""
    work = tmp_path_factory.mktemp("scale")
    documents = {}
    for i, (name, make) in enumerate(PAYLOAD_STORES.items()):
        path = work / f"store{i}.mpkb"
        path.write_text(export_document(make()), encoding="utf-8")
        documents[name] = (str(path), _canonical_commands(cli.load_kb(str(path))))
    return documents


@pytest.mark.parametrize("store", PAYLOAD_STORES)
def test_canonical_output_is_json_dumps_at_scale(capsys, scale_documents, store):
    """Query payloads and validate reports of large and faulty stores: ``dumps`` writes
    each as ``json.dumps(indent=2)`` does, and the CLI prints exactly that."""
    path, commands = scale_documents[store]
    for (command, *args), payload in commands:
        text = json.dumps(payload, indent=2)
        assert dumps(payload) == text, args
        code, out, err = run_cli(capsys, command, path, *args, "--format", "canonical")
        assert (out, err) == (text + "\n", ""), args
        assert code == (1 if command == "validate" and payload else 0), args


def test_scale_payloads_cover_every_optional_and_short_shape(scale_documents):
    """The payloads above hold both bools of each provenance flag, episodes with and
    without ``to`` and ``outEvent``, reports with and without ``at``, and empty and
    one-element lists."""
    seen = set()

    def walk(value):
        if isinstance(value, list):
            seen.add(f"list of {min(len(value), 2)}")
            for v in value:
                walk(v)
        elif isinstance(value, dict):
            for key, v in value.items():
                seen.add((key, v) if type(v) is bool else key)
                walk(v)

    for _, commands in scale_documents.values():
        for (command, *_), payload in commands:
            walk(payload)
            if command == "validate":
                seen.update("report with at" if "at" in r else "report without at" for r in payload)
            for episode in payload.get("episodes", []) if isinstance(payload, dict) else []:
                seen.update(f"episode {'with' if k in episode else 'without'} {k}" for k in ("to", "outEvent"))
    flags = ("completeInheritance", "completeDonation", "isSubPortion")
    expected = {"list of 0", "list of 1", "list of 2", "report with at", "report without at",
                *(f"episode {w} {k}" for w in ("with", "without") for k in ("to", "outEvent")),
                *((flag, b) for flag in flags for b in (True, False))}
    assert expected <= seen, expected - seen


def test_a_document_that_is_not_utf8_is_one_error_line(capsys, tmp_path):
    path = tmp_path / "latin1.mpkb"
    path.write_bytes('{"kinds": [{"name": "Géode"}]}'.encode("latin-1"))
    code, out, err = run_cli(capsys, "validate", str(path))
    assert (code, out) == (2, "")
    assert err == f"{path}: not valid UTF-8 (invalid continuation byte)\n"


def test_run_query_refuses_an_unknown_query(case_file):
    kb = cli.load_kb(case_file)
    args = Namespace(query="lineage", args=[], format="text", transitive=False, at=None)
    with pytest.raises(cli._CliError) as info:
        cli.run_query(kb, args)
    assert str(info.value) == (
        "unknown query 'lineage'; choose from provenance, history, world, cohort, ancestors, classify")
