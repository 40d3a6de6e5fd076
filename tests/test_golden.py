"""Byte-exact CLI results on the bundled case study.

``golden/casestudy.json`` holds one record per command: the argv, the exit
code, stdout and stderr. In argv and in the outputs, ``{case}`` stands for the
case-study scenario and ``{doc}`` for its canonical export. Any change to
what the CLI prints shows up here as a failing command.
"""

import json
from pathlib import Path

import pytest

from matterkb import case_study_path
from matterkb.cli import main

RECORDS = json.loads((Path(__file__).parent / "golden" / "casestudy.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    case = str(case_study_path())
    doc = str(tmp_path_factory.mktemp("golden") / "casestudy.mpkb")
    assert main(["export", case, doc]) == 0
    return {"{case}": case, "{doc}": doc}


def _fill(text, paths):
    for key, value in paths.items():
        text = text.replace(key, value)
    return text


@pytest.mark.parametrize("record", RECORDS, ids=[" ".join(r["argv"]) for r in RECORDS])
def test_cli_matches_golden(record, paths, capsys):
    code = main([_fill(a, paths) for a in record["argv"]])
    out, err = capsys.readouterr()
    assert (code, out, err) == (
        record["exit"],
        _fill(record["stdout"], paths),
        _fill(record["stderr"], paths),
    )
