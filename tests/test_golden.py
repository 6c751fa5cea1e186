"""Byte-for-byte CLI output on every corpus trace.

``golden_corpus.json`` holds the stdout and exit code of each command in
``COMMANDS`` on each ``corpus/*.trace``.  It pins the printed orders,
block graphs, serial witnesses and monitor dumps against any change of
how they are computed.  ``golden_concurrent.json`` does the same for
``concurrent`` in every mode: with ``--events I J`` for every event pair
I < J, and with ``--c/--d`` for every ordered pair of distinct labels.
``golden_monitor.json`` pins the streaming monitor below the CLI: per
stream, a sha256 over the ``canonical_text`` of the ``sat_step`` state
after every symbol, and the final ``libat_step`` verdict, for every
corpus trace and for seeded random streams at 2x2, 3x3 and 4x4.
``golden_oracle.json`` pins the class oracles through the CLI: every
``ENUM_COMMANDS`` entry on every corpus trace, and ``gen-hardness
--check`` on every pair of bit strings of length 1 or 2.
Rewrite all four, when an output change is intended, with::

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import itertools
import json
import random
from pathlib import Path

import pytest

from blockeq.atomicity import libat_initial, libat_step
from blockeq.cli import main
from blockeq.monitor import canonical_text, symbols_of
from blockeq.trace import Universe, parse_run

import gen

HERE = Path(__file__).resolve().parent
CORPUS = HERE.parent / "corpus"
GOLDEN = HERE / "golden_corpus.json"
GOLDEN_CONCURRENT = HERE / "golden_concurrent.json"
GOLDEN_MONITOR = HERE / "golden_monitor.json"
GOLDEN_ORACLE = HERE / "golden_oracle.json"

COMMANDS = (
    ("hb",),
    ("hb", "--format", "dot"),
    ("bhb",),
    ("bhb", "--format", "dot"),
    ("atomicity", "--witness"),
    ("atomicity", "--format", "dot"),
    ("sat",),
)
ENUM_RELATIONS = ("maz", "blocks", "rf")
ENUM_COMMANDS = tuple(
    ("enumerate", "--relation", rel) + extra
    for rel in ENUM_RELATIONS
    for extra in ((), ("--limit", "3"), ("--seed", "5", "--limit", "3"))
)
HARDNESS_COMMANDS = tuple(
    ("gen-hardness", "--a", a, "--b", b, "--check")
    for n in (1, 2)
    for a in (format(v, "0%db" % n) for v in range(2 ** n))
    for b in (format(v, "0%db" % n) for v in range(2 ** n))
)
CONC_MODES = ("maz", "blocks", "general")
CONC_KINDS = ("--events", "--c")
TRACES = sorted(p.name for p in CORPUS.glob("*.trace"))
# (threads, variables, seed, marking probability) of the random monitor
# streams; densely marked long streams are almost never liberally atomic,
# sparsely marked ones mostly are
RANDOM_STREAMS = [(n, n, seed, p) for n in (2, 3, 4) for seed, p in enumerate((0.5, 0.5, 0.05, 0.05))]


def _key(name, command):
    return "%s %s" % (" ".join(command), name)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"exit": code, "stdout": out.getvalue()}


def _observe(name, command):
    return _run([command[0], str(CORPUS / name), *command[1:]])


def _all_oracle():
    """Golden key -> argv of every pinned oracle command."""
    out = {_key(t, c): [c[0], str(CORPUS / t), *c[1:]] for t in TRACES for c in ENUM_COMMANDS}
    out.update((" ".join(c), list(c)) for c in HARDNESS_COMMANDS)
    return out


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


def _monitor_streams():
    """Stream name -> (universe, annotated run)."""
    out = {}
    for name in TRACES:
        run = parse_run((CORPUS / name).read_text(encoding="utf-8"))
        out["corpus " + name] = (Universe.from_run(run), run)
    for nt, nv, seed, p in RANDOM_STREAMS:
        rng = random.Random(100 * nt + 10 * nv + seed)
        run = gen.random_annotated_run(rng, rng.randint(150, 300), nt, nv, p)
        threads = ["T%d" % (i + 1) for i in range(nt)]
        variables = ["xyz"[i] if i < 3 else "v%d" % i for i in range(nv)]
        out["random %dx%d seed %d" % (nt, nv, seed)] = (Universe(threads, variables), run)
    return out


def _fold_monitor(universe, run):
    digest = hashlib.sha256()
    q = libat_initial(universe)
    syms = symbols_of(run)
    for s in syms:
        q = libat_step(q, s)
        digest.update(canonical_text(q.sat).encode())
    return {"steps": len(syms), "sha256": digest.hexdigest(), "atomic": q.accepting()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def golden_oracle():
    return json.loads(GOLDEN_ORACLE.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def golden_concurrent():
    return json.loads(GOLDEN_CONCURRENT.read_text(encoding="utf-8"))


def test_monitor_matches_golden():
    golden = json.loads(GOLDEN_MONITOR.read_text(encoding="utf-8"))
    streams = _monitor_streams()
    assert set(golden) == set(streams)
    for name, (universe, run) in streams.items():
        assert _fold_monitor(universe, run) == golden[name], name


def test_golden_covers_the_corpus(golden, golden_concurrent, golden_oracle):
    assert len(TRACES) == 16
    assert set(golden) == {_key(t, c) for t in TRACES for c in COMMANDS}
    assert set(golden_concurrent) == {_key(t, c) for t, c in _all_concurrent()}
    assert set(golden_oracle) == set(_all_oracle())


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


@pytest.mark.parametrize("relation", ENUM_RELATIONS)
@pytest.mark.parametrize("name", TRACES)
def test_enumerate_output_matches_golden(golden_oracle, name, relation):
    for command in ENUM_COMMANDS:
        if command[2] == relation:
            assert _observe(name, command) == golden_oracle[_key(name, command)], command


def test_gen_hardness_check_matches_golden(golden_oracle):
    for command in HARDNESS_COMMANDS:
        assert _run(command) == golden_oracle[" ".join(command)], command


if __name__ == "__main__":
    record = {_key(t, c): _observe(t, c) for t in TRACES for c in COMMANDS}
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    record = {_key(t, c): _observe(t, c) for t, c in _all_concurrent()}
    GOLDEN_CONCURRENT.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    record = {k: _fold_monitor(*v) for k, v in _monitor_streams().items()}
    GOLDEN_MONITOR.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    record = {k: _run(argv) for k, argv in _all_oracle().items()}
    GOLDEN_ORACLE.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
