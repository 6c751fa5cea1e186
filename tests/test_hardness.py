"""Tests for the equality-reduction generator.

The load-bearing fact — the two query events are ordered under
reads-from equivalence exactly when the bit vectors are equal — is
checked exhaustively for vectors of up to four bits, on a seeded
sample of 5 to 10 bits, and on one 388-event instance, through the
memoised search of ``rf_unordered``.
"""

import itertools
import random

import pytest

from blockeq.blocks import blocks_from_annotation
from blockeq.hardness import (
    EqualityInstance,
    check_reduction,
    gen_equality_trace,
    ordered_in_class,
)
from blockeq.monitor import sat_initial, sat_step, symbols_of
from blockeq.oracle import rf_unordered
from blockeq.orders import bits
from blockeq.trace import Universe, parse_run
from oracles import after_set


def test_instance_validation():
    with pytest.raises(ValueError):
        EqualityInstance((0, 1), (0,))
    with pytest.raises(ValueError):
        EqualityInstance((), ())
    with pytest.raises(ValueError):
        EqualityInstance((0, 2), (0, 1))
    with pytest.raises(ValueError):
        EqualityInstance.from_strings("10x", "101")
    with pytest.raises(ValueError):
        EqualityInstance.from_strings("", "")
    inst = EqualityInstance.from_strings("1101", "0110")
    assert len(inst.a) == 4 and inst.a == (1, 1, 0, 1) and inst.b == (0, 1, 1, 0)


def test_trace_shape():
    for n in range(1, 6):
        rng = random.Random(n)
        a = tuple(rng.randint(0, 1) for _ in range(n))
        b = tuple(rng.randint(0, 1) for _ in range(n))
        run, t1, t2 = gen_equality_trace(EqualityInstance(a, b))
        assert len(run) == 6 * n + 4
        assert t1.label.thread == "T1" and t1.label.op == "r" and t1.label.variable == "u"
        assert t2.label.thread == "T2" and t2.label.op == "w" and t2.label.variable == "u"
        assert run.position(t1) + 1 == run.position(t2)
        # generated text round-trips through the parser
        assert parse_run(run.to_text()).labels == run.labels
        assert {l.thread for l in run.labels} == {"T1", "T2"}
        assert {l.variable for l in run.labels} <= {"c", "x0", "x1", "y0", "y1", "u"}


def test_ordered_iff_equal_exhaustive():
    for n in (1, 2, 3, 4):
        for bits in itertools.product((0, 1), repeat=2 * n):
            inst = EqualityInstance(bits[:n], bits[n:])
            assert check_reduction(inst), inst
    # a seeded sample beyond: 20 pairs per length, half of them equal
    # and half differing at least at bit i
    rng = random.Random(5)
    for n in range(5, 11):
        for k in range(20):
            a = tuple(rng.randint(0, 1) for _ in range(n))
            i = rng.randrange(n)
            b = a if k % 2 else tuple(1 - a[j] if j == i else rng.randint(0, 1) for j in range(n))
            inst = EqualityInstance(a, b)
            assert check_reduction(inst), inst


def test_ordered_iff_equal_n3_spot():
    assert check_reduction(EqualityInstance.from_strings("101", "101"))
    assert check_reduction(EqualityInstance.from_strings("101", "110"))


def test_known_inversion_witness():
    # unequal vectors leave a member with the query pair swapped
    run, t1, t2 = gen_equality_trace(EqualityInstance.from_strings("11", "10"))
    assert not ordered_in_class(run, t1, t2)
    run, t1, t2 = gen_equality_trace(EqualityInstance.from_strings("1", "1"))
    assert ordered_in_class(run, t1, t2)
    run, t1, t2 = gen_equality_trace(EqualityInstance.from_strings("1", "0"))
    assert not ordered_in_class(run, t1, t2)


def test_monitor_after_rows_on_reduction_trace():
    # with nothing marked, the monitor's after rows equal the offline
    # commutation-order after sets of each symbol's last occurrence
    run, _, _ = gen_equality_trace(EqualityInstance.from_strings("101", "011"))
    blocks = blocks_from_annotation(run)
    universe = Universe.from_run(run)
    q = sat_initial(universe)
    for s in symbols_of(run):
        q = sat_step(q, s)
    last = {}
    for e in run.events:
        last[(e.label, False)] = e
    for sym, e in last.items():
        row = q.aft[universe.index(sym)]
        assert frozenset(universe.symbols[i] for i in bits(row)) == after_set(run, blocks, e)


def test_ordered_in_class_needs_distinct_labels():
    run = parse_run("T1 w x\nT2 r x\nT1 w x\n")
    with pytest.raises(ValueError, match="distinct labels"):
        ordered_in_class(run, run.event_at(0), run.event_at(2))


def test_rf_unordered_decides_a_long_instance():
    # 388 events: deeper than the recursion limit allows a recursive
    # search, and past the 255 events of a position word
    a = "10" * 32
    for b, ordered in ((a, True), (a[:-1] + "1", False), ("0" + a[1:], False)):
        run, t1, t2 = gen_equality_trace(EqualityInstance.from_strings(a, b))
        assert len(run) == 388
        assert rf_unordered(run, run.position(t1), run.position(t2)) == (not ordered), b
