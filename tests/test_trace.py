"""Tests for trace parsing, validation, and the run primitives."""

import math
import random

import pytest

import gen
from gen import CORPUS
from blockeq.atomicity import is_liberally_atomic
from blockeq.blocks import blocks_from_annotation
from blockeq.trace import (
    Event,
    Label,
    Run,
    TraceError,
    Universe,
    conflicting,
    extended_dep,
    parse_run,
    parse_symbol,
)
from oracles import interleave_threads, same_equiv_rf


def test_parse_round_trip():
    text = "# header comment\nT1 w x @\n\nT2 r x\nT1 w x\n"
    run = parse_run(text)
    assert run.to_text() == "T1 w x @\nT2 r x\nT1 w x\n"
    assert parse_run(run.to_text()).labels == run.labels
    assert run.annotations == (True, False, False)
    assert parse_run("# no events\n").to_text() == ""
    # occurrences count per label
    assert [e.occurrence for e in run.events] == [1, 1, 2]


def test_parse_errors():
    with pytest.raises(TraceError):
        parse_run("T1 w")
    with pytest.raises(TraceError):
        parse_run("T1 q x")
    with pytest.raises(TraceError):
        parse_run("T1 w x !")
    err = None
    try:
        parse_run("T1 w x\nbroken line here")
    except TraceError as exc:
        err = exc
    assert err is not None and err.line == 2
    # reads need a preceding write of their variable
    with pytest.raises(TraceError):
        parse_run("T1 r x")
    with pytest.raises(TraceError):
        parse_run("T1 w y\nT1 r x")


# ---- parse_run against a line-by-line fold of parse_symbol ------------------

MALFORMED = ("T1 q x", "T1 w", "T1 w x y", "T1 w x @ @", "@", "T1 @ x", "w x @ # note")


def outcome(parse, text):
    """A parse's labels and marks, or its error's text and line."""
    try:
        run = parse(text)
    except TraceError as exc:
        return str(exc), exc.line
    return run.labels, run.annotations


def line_fold(text):
    symbols = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if raw.split("#", 1)[0].strip():
            symbols.append(parse_symbol(raw, lineno))
    return Run([lab for lab, _ in symbols], [on for _, on in symbols])


def random_trace_text(rng):
    """Event lines with random spacing, tabs, marks and trailing
    comments, many of them repeats, among blank and comment lines; with
    probability 1/2 a malformed line, given once or more, follows a
    repeated event line."""
    threads, variables = gen.alphabet(rng.randint(1, 3), rng.randint(1, 3))
    lines: list[str] = []
    events: list[str] = []
    for _ in range(rng.randint(0, 40)):
        draw = rng.random()
        if draw < 0.15:
            lines.append(rng.choice(("", "  ", "\t", "# comment", " \t# T1 w x", "#")))
            continue
        if events and draw < 0.55:
            line = rng.choice(events)
        else:
            op = "w" if not events or rng.random() < 0.6 else "r"
            fields = [rng.choice(threads), op, rng.choice(variables)]
            if rng.random() < 0.4:
                fields.append("@")
            gaps = [rng.choice((" ", "  ", "\t", " \t")) for _ in fields]
            line = rng.choice(("", " ", "\t")) + "".join(g + f for g, f in zip(gaps, fields))[1:]
            line += rng.choice(("", " ", "\t", " # note", "# @", "\t#"))
        events.append(line)
        lines.append(line)
    if rng.random() < 0.5:
        bad = rng.choice(MALFORMED)
        repeats = [k for k, line in enumerate(lines) if line in lines[:k]]
        if not repeats:
            lines += [rng.choice(events)] if events else ["T1 w x"] * 2
            repeats = [len(lines) - 1]
        where = rng.choice(repeats) + 1
        lines[where:where] = [bad] * rng.randint(1, 2)
        if rng.random() < 0.5:
            lines.append(bad)
    return "\n".join(lines) + rng.choice(("", "\n"))


def test_parse_run_matches_line_fold():
    rng = random.Random(4242)
    parsed = failed = 0
    for _ in range(600):
        text = random_trace_text(rng)
        want = outcome(line_fold, text)
        assert outcome(parse_run, text) == want, text
        if isinstance(want[0], str):
            failed += want[1] is not None
        else:
            parsed += len(want[0]) > 0
    assert parsed > 100 and failed > 100


def test_conflicting_ignores_marks():
    # a cross-thread write and read of one variable conflict, both ways
    w1 = Label("T1", "w", "x")
    r2 = Label("T2", "r", "x")
    assert conflicting(w1, r2)
    assert conflicting(r2, w1)
    # reads of one variable do not conflict across threads
    assert not conflicting(Label("T1", "r", "x"), Label("T2", "r", "x"))
    # same thread always conflicts
    assert conflicting(Label("T1", "r", "x"), Label("T1", "r", "y"))
    # distinct variables across threads never conflict
    assert not conflicting(Label("T1", "w", "x"), Label("T2", "w", "y"))


@pytest.mark.parametrize("n_threads, n_vars", [(1, 1), (2, 1), (3, 3), (4, 2), (2, 5)])
def test_cross_dep_rows_match_extended_dep(n_threads, n_vars):
    """The universe's cross lists and monitor dependence masks, against
    ``extended_dep`` on every pair of symbols."""
    threads = tuple("T%d" % (i + 1) for i in range(n_threads))
    variables = tuple("v%d" % i for i in range(n_vars))
    u = Universe(threads, variables)
    symbols = [(Label(t, op, v), bit)
               for t in threads for op in ("r", "w") for v in variables for bit in (False, True)]
    assert list(u.symbols) == symbols
    for i, a in enumerate(symbols):
        cross = [j for j, b in enumerate(symbols)
                 if a[0].thread != b[0].thread and extended_dep(a, b)]
        own = [j for j, b in enumerate(symbols) if a[0].thread == b[0].thread]
        assert list(u.cross[i]) == cross, a
        assert u.dep_mask[i] == sum(1 << j for j in cross + own), a


@pytest.mark.parametrize("n_threads,n_vars", [(1, 1), (2, 3), (3, 7), (2, 100), (4, 50)])
def test_column_table_is_linear_in_the_alphabet(n_threads, n_vars):
    """The monitor's column table is one int of at most |T|·|V|·(|Σ| + 1)
    bits, and shifted by v fields it holds the low bit of every field on
    variable v."""
    u = Universe(tuple("T%d" % i for i in range(n_threads)), tuple("v%d" % i for i in range(n_vars)))
    width = len(u.symbols) + 1
    assert u.column_low.bit_length() <= n_threads * n_vars * width
    for v in range(n_vars):
        column = sum(1 << (t * n_vars + v) * width for t in range(n_threads))
        assert u.column_low << v * width == column


def numbered_runs():
    runs = [parse_run(path.read_text()) for path in sorted(CORPUS.glob("*.trace"))]
    rng = random.Random(17)
    for n in range(40):
        runs.append(gen.random_annotated_run(rng, rng.randint(1, 30), 1 + n % 4, 1 + n // 4 % 4))
    return runs


def test_universe_numbers_every_run_it_holds():
    outside = Label("T9", "w", "nowhere")
    for run in numbered_runs():
        u = run.universe
        assert Universe.from_run(run) is u
        assert (u.threads, u.variables) == (run.threads, run.variables)
        for i, (lab, mark) in enumerate(zip(run.labels, run.annotations)):
            k = run.code[i]
            assert u.labels[k] == lab and u.code(lab) == k
            assert u.index((lab, mark)) == 2 * k + mark
            assert u.symbols[2 * k + mark] == (lab, mark)
        assert Run(run.labels).universe is u
        assert u.code(outside) == -1
        with pytest.raises(ValueError, match="outside the universe"):
            u.index((outside, False))


def test_runs_over_one_alphabet_share_one_universe():
    a = parse_run("T1 w x\nT2 r x\nT2 w y\n")
    b = parse_run("T2 w y\nT2 w x @\nT1 r y\nT1 r x @\n")
    assert a.universe is b.universe is Universe.from_run(b)
    assert parse_run("T1 w x\n").universe is not a.universe


def test_unmarked_atomicity_builds_no_label_table():
    # a wide unmarked trace is parsed and found atomic from the name
    # strings and codes alone; the alphabet's Label and symbol tuples
    # are built only when something reads them
    text = "".join("T1 w lazy%d\nT2 r lazy%d\n" % (i, i) for i in range(1000))
    run = parse_run(text)
    assert is_liberally_atomic(run, blocks_from_annotation(run))
    u = run.universe
    assert "labels" not in vars(u) and "symbols" not in vars(u)
    assert u.code(run.labels[1]) == run.code[1]
    assert u.labels[run.code[1]] == run.labels[1]


def test_wide_alphabet_cross_lists_stay_on_their_variable():
    n = 300
    text = "".join("T1 w v%d\nT2 r v%d\n" % (i, i) for i in range(n))
    run = parse_run(text)
    u = run.universe
    assert len(u.symbols) == 2 * 2 * 2 * n
    for (lab, _), cross in zip(u.symbols, u.cross):
        assert len(cross) <= 4 * (len(u.threads) - 1)
        assert all(u.symbols[j][0].variable == lab.variable for j in cross)


def test_run_accessors():
    run = parse_run("T1 w x\nT2 r x\nT1 w x")
    e0, e1, e2 = run.events
    assert run.position(e2) == 2 and run.event_at(0) == e0
    assert run.annotations[1] is False
    assert run.rf_pos == {1: 0} and run.readers == ((1,), (), ())
    missing = Event(Label("T9", "w", "z"), 1)
    with pytest.raises(KeyError):
        run.position(missing)
    core = Run(run.with_annotations([True, True, False]).labels)
    assert core.annotations == (False, False, False)
    assert core.labels == run.labels


def test_run_repr_lists_symbols_with_marks():
    assert repr(parse_run("T1 w x @\nT2 r x @\nT2 w y")) == "Run(T1 w x@; T2 r x@; T2 w y)"
    assert repr(Run([])) == "Run()"


def test_program_order_and_reads_from():
    rng = random.Random(5)
    for _ in range(100):
        run = gen.random_run(rng, rng.randint(1, 9))
        # program order: each thread's positions, in run order
        for t, chain in enumerate(run.by_thread):
            assert list(chain) == [i for i, lab in enumerate(run.labels)
                                   if lab.thread == run.threads[t]]
        assert sorted(i for chain in run.by_thread for i in chain) == list(range(len(run)))
        # reads-from: every read observes the latest earlier write of its variable
        rf = run.rf_pos
        for i, lab in enumerate(run.labels):
            if lab.op == "r":
                w = rf[i]
                assert run.labels[w].op == "w" and run.labels[w].variable == lab.variable
                assert w < i
                assert not any(
                    g.op == "w" and g.variable == lab.variable
                    for g in run.labels[w + 1 : i]
                )
                assert i in run.readers[w]
            else:
                assert i not in rf


def test_same_equiv_rf():
    a = parse_run("T1 w x\nT2 r x\nT1 w y")
    assert same_equiv_rf(a, a)
    # moving the independent y-write keeps po and rf
    b = parse_run("T1 w x\nT1 w y\nT2 r x")
    assert same_equiv_rf(a, b)
    # retargeting the read does not
    c = parse_run("T1 w x\nT1 w y\nT1 w x\nT2 r x")
    d = parse_run("T1 w x\nT1 w y\nT2 r x\nT1 w x")
    assert not same_equiv_rf(c, d)
    # different multisets of labels are never equivalent
    assert not same_equiv_rf(a, parse_run("T1 w x\nT2 r x"))


def test_interleave_threads_counts():
    t1 = [Label("T1", "w", "x"), Label("T1", "r", "x")]
    t2 = [Label("T2", "w", "y"), Label("T2", "r", "y"), Label("T2", "w", "y")]
    words = list(interleave_threads({"T1": t1, "T2": t2}))
    assert len(words) == math.comb(5, 2)
    assert len(set(words)) == len(words)
    for word in words:
        assert [l for l in word if l.thread == "T1"] == t1
        assert [l for l in word if l.thread == "T2"] == t2


# ---- the analyses run on position tables ----------------------------------

def analyses(text):
    """Answers of the library's core paths on one trace, as plain data."""
    from itertools import islice

    from blockeq import oracle
    from blockeq.atomicity import is_conflict_serializable, is_liberally_atomic, serial_witness
    from blockeq.blocks import all_block_sets, annotate, blocks_from_annotation
    from blockeq.concurrency import conc_symbols_blocks, conc_symbols_general, conc_symbols_maz
    from blockeq.oracle import BoundExceeded, enum_block_class, enum_maz_class
    from blockeq.orders import block_hb, mazurkiewicz_hb, saturate

    def attempt(fn, *args):
        try:
            return fn(*args)
        except (TraceError, BoundExceeded, ValueError) as exc:
            return type(exc).__name__

    run = parse_run(text)
    bs = blocks_from_annotation(run)
    sat = saturate(run, bs)
    witness = attempt(serial_witness, run, bs)
    ordered = sorted(run.labels)  # distinct labels, without hashing one
    labels = [lab for i, lab in enumerate(ordered) if i == 0 or ordered[i - 1] != lab]
    pairs = [(c, d) for c in labels for d in labels if c < d]
    return [
        run.labels, run.annotations, bs.masks,
        annotate(Run(run.labels), bs).annotations,
        [b.masks for b in all_block_sets(run)],
        mazurkiewicz_hb(run).succ, block_hb(run, bs).succ,
        sat.order.succ, sorted(sat.block_pairs),
        is_liberally_atomic(run, bs), is_conflict_serializable(run, bs),
        witness if isinstance(witness, str) else (witness.labels, witness.annotations),
        [(conc_symbols_maz(run, c, d), conc_symbols_blocks(run, c, d)) for c, d in pairs],
        [conc_symbols_general(run, c, d) for c, d in pairs[:3]],
        sorted(enum_maz_class(run).words), sorted(enum_block_class(run, bs).words),
        list(islice(oracle._frontier_words(len(run), *oracle._rf_moves(run)), 500)),
    ]


def test_analyses_hash_no_event_or_label(monkeypatch):
    def refuse(self):
        raise AssertionError("an analysis hashed a %s" % type(self).__name__)

    def no_events(run):
        raise AssertionError("an analysis built the events of %r" % (run,))

    texts = [path.read_text() for path in sorted(CORPUS.glob("*.trace"))]
    assert texts
    expected = [analyses(text) for text in texts]
    monkeypatch.setattr(Event, "__hash__", refuse)
    monkeypatch.setattr(Label, "__hash__", refuse)
    monkeypatch.setattr(Run, "events", property(no_events))
    got = [analyses(text) for text in texts]
    monkeypatch.undo()
    assert got == expected


def test_label_and_run_reject_bad_arguments():
    with pytest.raises(ValueError, match="op must be"):
        Label("T1", "x", "y")
    labels = [Label("T1", "w", "x"), Label("T2", "r", "x")]
    for marks in ([True], [True, False, False]):
        with pytest.raises(ValueError, match="annotation list length"):
            Run(labels, marks)
