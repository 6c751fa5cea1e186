"""Byte-for-byte CLI output on every corpus trace.

``golden_corpus.json`` holds the stdout and exit code of each command in
``COMMANDS`` on each ``corpus/*.trace``.  It pins the printed orders,
block graphs, serial witnesses and monitor dumps against any change of
how they are computed.  Rewrite it, when an output change is intended,
with::

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from blockeq.cli import main

HERE = Path(__file__).resolve().parent
CORPUS = HERE.parent / "corpus"
GOLDEN = HERE / "golden_corpus.json"

COMMANDS = (
    ("hb",),
    ("hb", "--format", "dot"),
    ("bhb",),
    ("bhb", "--format", "dot"),
    ("atomicity", "--witness"),
    ("atomicity", "--format", "dot"),
    ("sat",),
)
TRACES = sorted(p.name for p in CORPUS.glob("*.trace"))


def _key(name, command):
    return "%s %s" % (" ".join(command), name)


def _observe(name, command):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command[0], str(CORPUS / name), *command[1:]])
    return {"exit": code, "stdout": out.getvalue()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_the_corpus(golden):
    assert len(TRACES) == 16
    assert set(golden) == {_key(t, c) for t in TRACES for c in COMMANDS}


@pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
@pytest.mark.parametrize("name", TRACES)
def test_corpus_output_matches_golden(golden, name, command):
    assert _observe(name, command) == golden[_key(name, command)]


if __name__ == "__main__":
    record = {_key(t, c): _observe(t, c) for t in TRACES for c in COMMANDS}
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
