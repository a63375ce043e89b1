"""Byte-identity of the result documents: the nine `pdelin {detsys,linearize,
verify} {burgers,pipeline,telegraph}` jobs, run in process, print exactly the
reference documents stored in bench/refs (compared without `generated-at`)."""

import pathlib
import re

import pytest

from pdelin.cli import main

REFS = pathlib.Path(__file__).resolve().parent.parent / "bench" / "refs"
GENERATED_AT = re.compile(r"^\s*generated-at = .*\n?", re.M)


@pytest.mark.parametrize("system", ("burgers", "pipeline", "telegraph"))
@pytest.mark.parametrize("command", ("detsys", "linearize", "verify"))
def test_document_matches_reference(command, system, capsys):
    assert main([command, system]) == 0
    out = GENERATED_AT.sub("", capsys.readouterr().out)
    ref = (REFS / f"{command}-{system}.txt").read_text(encoding="utf-8")
    assert out == ref
