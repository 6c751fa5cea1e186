"""Byte-for-byte CLI output on every corpus trace.

``golden_corpus.json`` holds the stdout and exit code of each command in
``COMMANDS`` on each ``corpus/*.trace``.  It pins the printed orders,
block graphs, serial witnesses and monitor dumps against any change of
how they are computed.  ``golden_concurrent.json`` does the same for
``concurrent`` in every mode: with ``--events I J`` for every event pair
I < J, and with ``--c/--d`` for every ordered pair of distinct labels.
Rewrite both, when an output change is intended, with::

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import itertools
import json
from pathlib import Path

import pytest

from blockeq.cli import main
from blockeq.trace import parse_run

HERE = Path(__file__).resolve().parent
CORPUS = HERE.parent / "corpus"
GOLDEN = HERE / "golden_corpus.json"
GOLDEN_CONCURRENT = HERE / "golden_concurrent.json"

COMMANDS = (
    ("hb",),
    ("hb", "--format", "dot"),
    ("bhb",),
    ("bhb", "--format", "dot"),
    ("atomicity", "--witness"),
    ("atomicity", "--format", "dot"),
    ("sat",),
)
CONC_MODES = ("maz", "blocks", "general")
CONC_KINDS = ("--events", "--c")
TRACES = sorted(p.name for p in CORPUS.glob("*.trace"))


def _key(name, command):
    return "%s %s" % (" ".join(command), name)


def _observe(name, command):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command[0], str(CORPUS / name), *command[1:]])
    return {"exit": code, "stdout": out.getvalue()}


def _concurrent_commands(name, mode, kind):
    run = parse_run((CORPUS / name).read_text(encoding="utf-8"))
    head = ("concurrent", "--mode", mode)
    if kind == "--events":
        pairs = itertools.combinations(range(1, len(run) + 1), 2)
        return [head + ("--events", str(i), str(j)) for i, j in pairs]
    labels = sorted({str(lab) for lab in run.labels})
    return [head + ("--c", c, "--d", d) for c, d in itertools.permutations(labels, 2)]


def _all_concurrent():
    return [
        (t, c)
        for t in TRACES
        for m in CONC_MODES
        for k in CONC_KINDS
        for c in _concurrent_commands(t, m, k)
    ]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def golden_concurrent():
    return json.loads(GOLDEN_CONCURRENT.read_text(encoding="utf-8"))


def test_golden_covers_the_corpus(golden, golden_concurrent):
    assert len(TRACES) == 16
    assert set(golden) == {_key(t, c) for t in TRACES for c in COMMANDS}
    assert set(golden_concurrent) == {_key(t, c) for t, c in _all_concurrent()}


@pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
@pytest.mark.parametrize("name", TRACES)
def test_corpus_output_matches_golden(golden, name, command):
    assert _observe(name, command) == golden[_key(name, command)]


@pytest.mark.parametrize("kind", CONC_KINDS)
@pytest.mark.parametrize("mode", CONC_MODES)
@pytest.mark.parametrize("name", TRACES)
def test_concurrent_output_matches_golden(golden_concurrent, name, mode, kind):
    commands = _concurrent_commands(name, mode, kind)
    got = {_key(name, c): _observe(name, c) for c in commands}
    assert got == {k: golden_concurrent[k] for k in got}


if __name__ == "__main__":
    record = {_key(t, c): _observe(t, c) for t in TRACES for c in COMMANDS}
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    record = {_key(t, c): _observe(t, c) for t, c in _all_concurrent()}
    GOLDEN_CONCURRENT.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
