"""Differential tests for the streaming monitor.

The offline reference computes, for every prefix of an annotated run, the
exact values the monitor's state components are specified to hold —
straight from the saturated block order of that prefix.  The monitor must
agree on the full component domain after every single step.
"""

import random

from hypothesis import given, settings

from blockeq.blocks import blocks_from_annotation
from blockeq.monitor import (
    Universe,
    canonical_text,
    sat_initial,
    sat_run,
    sat_step,
    symbols_of,
)
from blockeq.orders import after_set, saturate
from blockeq.trace import Label, READ, WRITE, Run

import gen


# ---- offline reference ---------------------------------------------------

def expected_components(run, universe):
    """Independently recomputed values of all monitor components for a complete
    (prefix) run: blk and rf per variable, aft per symbol, first-block
    after set and open flag per (symbol, thread, variable)."""
    blocks = blocks_from_annotation(run)
    sat = saturate(run, blocks)
    events = list(run.events)
    ann = {e: run.annotation_at(i) for i, e in enumerate(events)}
    sym_of = {e: (e.label, ann[e]) for e in events}
    last = {}
    for e in events:  # run order: later occurrences overwrite
        last[sym_of[e]] = e

    blk = {}
    rf = {}
    for v in universe.variables:
        writes = [e for e in events if e.label.is_write() and e.label.variable == v]
        if not writes:
            blk[v] = frozenset()
            rf[v] = None
            continue
        w = writes[-1]
        rf[v] = sym_of[w]
        if ann[w]:
            blk[v] = frozenset(sym_of[f] for f in blocks.block_of(w).members())
        else:
            blk[v] = frozenset()

    aft = {}
    for s in universe.symbols:
        e = last.get(s)
        aft[s] = after_set(run, blocks, e, sat) if e is not None else frozenset()

    fba = {}
    fopen = {}
    for s in universe.symbols:
        e = last.get(s)
        for t in universe.threads:
            for v in universe.variables:
                if e is None:
                    fba[s, t, v] = frozenset()
                    fopen[s, t, v] = True
                    continue
                cands = [
                    b for b in blocks.blocks
                    if b.variable == v and b.write.label.thread == t
                    and any(sat.leq(e, f) for f in b.members())
                ]
                if not cands:
                    fba[s, t, v] = frozenset()
                    fopen[s, t, v] = True
                else:
                    first = cands[0]  # blocks are kept in write order
                    out = frozenset()
                    for f in first.members():
                        out |= after_set(run, blocks, f, sat)
                    fba[s, t, v] = out
                    fopen[s, t, v] = len(cands) < 2
    return blk, rf, aft, fba, fopen


def compare_state(q, prefix, universe):
    """Mismatch descriptions between a monitor state and the offline
    components of the prefix it has consumed (empty = agreement)."""
    k = len(prefix)
    blk, rf, aft, fba, fopen = expected_components(prefix, universe)
    mismatches = []
    for v in universe.variables:
        if q.blk_set(v) != blk[v]:
            mismatches.append((k, "blk", v, blk[v], q.blk_set(v)))
        if q.rf_symbol(v) != rf[v]:
            mismatches.append((k, "rf", v, rf[v], q.rf_symbol(v)))
    for s in universe.symbols:
        if q.aft_set(s) != aft[s]:
            mismatches.append((k, "aft", s, aft[s], q.aft_set(s)))
        for t in universe.threads:
            for v in universe.variables:
                if q.fba_set(s, t, v) != fba[s, t, v]:
                    mismatches.append(
                        (k, "fba", (s, t, v), fba[s, t, v], q.fba_set(s, t, v)))
                if q.fba_open(s, t, v) != fopen[s, t, v]:
                    mismatches.append(
                        (k, "open", (s, t, v), fopen[s, t, v], q.fba_open(s, t, v)))
    return mismatches


def compare_prefixes(aw, universe=None, every=1):
    """Run the monitor over aw and diff every component after every
    ``every``-th prefix and after the full run; returns a list of
    mismatch descriptions (empty = agreement)."""
    if universe is None:
        universe = Universe.from_run(aw)
    labels = list(aw.labels)
    bits = list(aw.annotations)
    q = sat_initial(universe)
    mismatches = []
    for k in range(1, len(labels) + 1):
        q = sat_step(q, (labels[k - 1], bits[k - 1]))
        if k % every == 0 or k == len(labels):
            mismatches += compare_state(q, Run(labels[:k], bits[:k]), universe)
    return mismatches


def describe(aw):
    return " | ".join(
        "%s%s" % (lab, " @" if bit else "")
        for lab, bit in zip(aw.labels, aw.annotations)
    )


# ---- tests ---------------------------------------------------------------

def test_monitor_exhaustive_small():
    # every annotated run over 2 threads x 2 variables up to 4 events
    checked = 0
    for n in range(1, 5):
        for aw in gen.all_annotated_runs(n, n_threads=2, n_vars=2):
            mism = compare_prefixes(aw)
            assert not mism, "%s\nfirst mismatch: %r" % (describe(aw), mism[0])
            checked += 1
    assert checked > 3000


def test_monitor_random_runs():
    rng = random.Random(4101)
    for i in range(400):
        aw = gen.random_annotated_run(rng, rng.randint(5, 12))
        mism = compare_prefixes(aw)
        assert not mism, "case %d: %s\nfirst mismatch: %r" % (i, describe(aw), mism[0])


@settings(max_examples=150)
@given(gen.annotated_runs())
def test_monitor_longer_runs(drawn):
    # runs of 15-40 events at alphabets up to 4x4, checked at every 10th
    # prefix and the full run
    threads, variables, aw = drawn
    mism = compare_prefixes(aw, Universe(threads, variables), every=10)
    assert not mism, "%s\nfirst mismatch: %r" % (describe(aw), mism[0])


def test_monitor_matches_batch_fold():
    rng = random.Random(77)
    for _ in range(25):
        aw = gen.random_annotated_run(rng, 10)
        u = Universe.from_run(aw)
        q = sat_initial(u)
        for s in symbols_of(aw):
            q = sat_step(q, s)
        assert q == sat_run(aw, u)


def test_canonical_text_constant_size():
    rng = random.Random(5)
    u = Universe(["T1", "T2", "T3"], ["x", "y", "z"])
    sizes = set()
    for n in (3, 8, 12):
        aw = gen.random_annotated_run(rng, n)
        sizes.add(len(canonical_text(sat_run(aw, u)).encode()))
    assert len(sizes) == 1


def test_rejects_read_before_write():
    u = Universe(["T1"], ["x"])
    q = sat_initial(u)
    try:
        sat_step(q, (Label("T1", READ, "x"), False))
    except ValueError as e:
        assert "no preceding write" in str(e)
    else:
        assert False, "read with no write must be rejected"


def test_rejects_marked_read_of_unmarked_write():
    u = Universe(["T1"], ["x"])
    q = sat_initial(u)
    q = sat_step(q, (Label("T1", WRITE, "x"), False))
    try:
        sat_step(q, (Label("T1", READ, "x"), True))
    except ValueError as e:
        assert "unmarked write" in str(e)
    else:
        assert False, "marked read of an unmarked write must be rejected"


# ---- deliberate dev loop: shrink a failing case ---------------------------

def minimize(aw):
    """Greedy shrink of a disagreeing annotated run: drop events, then
    clear annotation bits, as long as the disagreement survives."""
    labels = list(aw.labels)
    bits = list(aw.annotations)

    def still_fails(ls, bs):
        try:
            cand = Run(ls, bs)
            blocks_from_annotation(cand)
        except Exception:
            return False
        try:
            return bool(compare_prefixes(cand))
        except Exception:
            return False

    changed = True
    while changed:
        changed = False
        for i in range(len(labels) - 1, -1, -1):
            ls = labels[:i] + labels[i + 1:]
            bs = bits[:i] + bits[i + 1:]
            if ls and still_fails(ls, bs):
                labels, bits = ls, bs
                changed = True
        for i in range(len(labels)):
            if bits[i]:
                bs = bits[:i] + [False] + bits[i + 1:]
                if still_fails(labels, bs):
                    bits = bs
                    changed = True
    return Run(labels, bits)


if __name__ == "__main__":
    import sys

    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 4101
    count = int(sys.argv[2]) if len(sys.argv) > 2 else 400
    rng = random.Random(seed)
    bad = 0
    for i in range(count):
        aw = gen.random_annotated_run(rng, rng.randint(5, 12))
        mism = compare_prefixes(aw)
        if mism:
            bad += 1
            small = minimize(aw)
            print("FAIL seed=%d case=%d" % (seed, i))
            print("  full : %s" % describe(aw))
            print("  small: %s" % describe(small))
            for m in compare_prefixes(small)[:4]:
                print("   ", m)
            if bad >= 5:
                break
    print("%d failing of %d" % (bad, count))
