"""Differential tests for the streaming monitor.

The offline reference computes, for every prefix of an annotated run, the
exact values the monitor's state components are specified to hold —
straight from the saturated block order of that prefix.  The monitor must
agree on the full component domain after every single step.
"""

import functools
import random

import pytest
from hypothesis import given, settings

from blockeq.blocks import blocks_from_annotation
from blockeq.atomicity import libat_initial, libat_step
from blockeq.monitor import canonical_text, sat_initial, sat_step, symbols_of
from blockeq.orders import bits, saturate
from blockeq.trace import Label, READ, WRITE, Run, Universe, parse_run

import gen
from monitor_reference import (campaign, flags_steer_order, grown_past_arrival,
                               library_state, lowered_on_empty, ref_initial, reference_mismatch,
                               row_fields, step_mismatch, valid_symbols, walk)
from oracles import after_set
from test_golden import _monitor_streams


# ---- offline reference ---------------------------------------------------

@functools.cache
def universe_of(threads, variables):
    return Universe(threads, variables)


def expected_components(run, universe):
    """Independently recomputed values of all monitor components for a complete
    (prefix) run, as the monitor's own symbol masks: blk and rf per
    variable, aft per symbol, first-block after set and open flag per
    (symbol, thread, variable) row."""
    blocks = blocks_from_annotation(run)
    succ = saturate(run, blocks).order.succ
    sym = [universe.index(s) for s in symbols_of(run)]
    last = {}
    for i, s in enumerate(sym):  # run order: later occurrences overwrite
        last[s] = i

    def symbols(positions):
        m = 0
        for j in bits(positions):
            m |= 1 << sym[j]
        return m

    def after(i):  # symbols at-or-after position i in the saturated order
        return symbols(succ[i] | 1 << i)

    blk = []
    rf = []
    for v in universe.variables:
        writes = [i for i, lab in enumerate(run.labels) if lab.is_write() and lab.variable == v]
        if not writes:
            blk.append(0)
            rf.append(-1)
            continue
        w = writes[-1]
        rf.append(sym[w])
        blk.append(symbols(next((m for m in blocks.masks if m >> w & 1), 0)))

    aft = [after(last[s]) if s in last else 0 for s in range(len(universe.symbols))]

    fba = []
    fopen = []
    for s in range(len(universe.symbols)):
        e = last.get(s)
        for t in universe.threads:
            for v in universe.variables:
                if e is None:
                    fba.append(0)
                    fopen.append(True)
                    continue
                at_or_after = succ[e] | 1 << e
                cands = [
                    mask for w, mask in zip(blocks.writes, blocks.masks)
                    if run.labels[w].variable == v and run.labels[w].thread == t
                    and at_or_after & mask
                ]
                if not cands:
                    fba.append(0)
                    fopen.append(True)
                else:
                    first = cands[0]  # blocks are kept in write order
                    out = 0
                    for f in bits(first):
                        out |= after(f)
                    fba.append(out)
                    fopen.append(len(cands) < 2)
    return tuple(blk), tuple(rf), tuple(aft), tuple(fba), tuple(fopen)


def compare_state(q, prefix, universe):
    """Mismatch descriptions between a monitor state and the offline
    components of the prefix it has consumed (empty = agreement).  The
    masks are compared whole; a mismatch names the first differing
    index of a component."""
    k = len(prefix)
    want = expected_components(prefix, universe)
    got = (q.blk, q.rf, q.aft) + row_fields(q)
    mismatches = []
    for name, w, g in zip(("blk", "rf", "aft", "fba", "open"), want, got):
        if w != g:
            i = next(i for i, (x, y) in enumerate(zip(w, g)) if x != y)
            mismatches.append((k, name, i, w[i], g[i]))
    return mismatches


def compare_prefixes(aw, universe=None, every=1):
    """Run the monitor over aw and diff every component after every
    ``every``-th prefix and after the full run; returns a list of
    mismatch descriptions (empty = agreement)."""
    if universe is None:
        universe = universe_of(aw.threads, aw.variables)
    labels = list(aw.labels)
    marks = list(aw.annotations)
    q = sat_initial(universe)
    mismatches = []
    for k in range(1, len(labels) + 1):
        q = sat_step(q, (labels[k - 1], marks[k - 1]))
        if k % every == 0 or k == len(labels):
            mismatches += compare_state(q, Run(labels[:k], marks[:k]), universe)
    return mismatches


def symbol_set(universe, mask):
    return frozenset(universe.symbols[i] for i in bits(mask))


def sat_fold(aw, universe):
    """The monitor state once every symbol of an annotated run is folded in."""
    q = sat_initial(universe)
    for s in symbols_of(aw):
        q = sat_step(q, s)
    return q


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


def test_state_accessors_match_masks():
    # compare_state reads the masks; read as symbol sets, the monitor's
    # after rows and the recomputed ones must both equal after_set on
    # the saturated order
    rng = random.Random(4102)
    for _ in range(60):
        aw = gen.random_annotated_run(rng, rng.randint(1, 12))
        u = universe_of(aw.threads, aw.variables)
        bs = blocks_from_annotation(aw)
        sat = saturate(aw, bs)
        q = sat_fold(aw, u)
        aft = expected_components(aw, u)[2]
        last = {s: i for i, s in enumerate(symbols_of(aw))}
        for s, i in last.items():
            want = after_set(aw, bs, aw.events[i], sat)
            assert want == symbol_set(u, aft[u.index(s)])
            assert want == symbol_set(u, q.aft[u.index(s)])


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
        q = libat_initial(u)
        for s in symbols_of(aw):
            q = libat_step(q, s)
        assert q.sat == sat_fold(aw, u)


@pytest.mark.parametrize("name", sorted(_monitor_streams()))
def test_step_matches_full_sweep_on_golden_streams(name):
    # the corpus traces and the seeded random streams of the golden file
    universe, run = _monitor_streams()[name]
    assert reference_mismatch(universe, symbols_of(run)) is None


@settings(max_examples=150)
@given(gen.annotated_runs())
def test_step_matches_full_sweep_drawn(drawn):
    threads, variables, aw = drawn
    mism = reference_mismatch(Universe(threads, variables), symbols_of(aw))
    assert mism is None, "%s\nfirst mismatch: %r" % (describe(aw), mism)


def test_step_matches_full_sweep_block_heavy():
    # most writes open a block, on streams longer than the drawn ones, so
    # block openers meet rows that already track older blocks
    rng = random.Random(4111)
    for i in range(200):
        n_threads, n_vars = rng.randint(1, 4), rng.randint(1, 4)
        aw = gen.random_annotated_run(rng, rng.randint(40, 120), n_threads, n_vars,
                                      p=(0.7, 0.9)[i % 2])
        mism = reference_mismatch(universe_of(*gen.alphabet(n_threads, n_vars)), symbols_of(aw))
        assert mism is None, "case %d: %s\nfirst mismatch: %r" % (i, describe(aw), mism)


def test_step_matches_full_sweep_long_stream():
    # one 1,000-symbol 3x3 stream, the length and alphabet of the
    # benchmark's streams: states deep into a stream, where most rows are
    # non-empty and many flags are down, which the shorter streams above
    # do not reach
    aw = gen.random_annotated_run(random.Random(4112), 1000)
    assert reference_mismatch(universe_of(*gen.alphabet(3, 3)), symbols_of(aw)) is None


@pytest.mark.parametrize("shape", [(6, 6), (2, 20), (8, 2)], ids="{0[0]}x{0[1]}".format)
def test_step_matches_full_sweep_wide(shape):
    # the comparisons above stop at 4x4; seeded streams of 80 symbols
    # over wider alphabets, one mostly marked and one half marked
    rng = random.Random(4120 + 100 * shape[0] + shape[1])
    universe = universe_of(*gen.alphabet(*shape))
    for p in (0.9, 0.5):
        aw = gen.random_annotated_run(rng, 80, *shape, p=p)
        mism = reference_mismatch(universe, symbols_of(aw))
        assert mism is None, "p=%s: %s\nfirst mismatch: %r" % (p, describe(aw), mism)


def closure_violation(q):
    """The first (c, b) such that b lies in c's after row or in one of
    c's first-block rows but aft[b] is not inside that row; None if
    there is none.  Also asserts that every open-flag mask lies on the
    fields' guard bits, and that every lowered flag sits on a non-empty
    first-block row (invariant I of monitor.py's docstring)."""
    aft, LOW = q.aft, q.universe.field_low
    GUARD = LOW << len(q.universe.symbols)
    assert all(m & ~GUARD == 0 for m in q.open_), "an open flag lies off the guard bits"
    c = lowered_on_empty(q)
    assert c is None, "symbol %d has a lowered flag on an empty row" % c
    fba = row_fields(q)[0]
    tx = q.universe.stride
    for c, (a, P) in enumerate(zip(aft, q.fba)):
        held = a
        for row in fba[c * tx:(c + 1) * tx]:
            held |= row
        for b in bits(held):
            if a >> b & 1 and aft[b] & ~a:
                return c, b
            hit = P >> b & LOW  # low bits of c's rows that hold b
            if hit and hit * aft[b] & ~P:
                return c, b
    return None


def test_rows_closed_under_after_rows():
    # the invariants that rule 4b's argument and the flags rest on
    # (monitor.py's module docstring): after every step, each after row
    # and each first-block row holds the after row of every symbol in
    # it, and every lowered flag sits on a non-empty row (I); a step
    # whose arrival is not a marked read grows no other symbol's rows
    # beyond the arrival's bit (L)
    streams = list(_monitor_streams().values())
    rng = random.Random(4115)
    for n_threads in range(1, 5):
        for n_vars in range(1, 5):
            aw = gen.random_annotated_run(rng, rng.randint(40, 120), n_threads, n_vars,
                                          p=(0.5, 0.8)[(n_threads + n_vars) % 2])
            streams.append((universe_of(*gen.alphabet(n_threads, n_vars)), aw))
    for shape in ((6, 6), (2, 20)):
        streams.append((universe_of(*gen.alphabet(*shape)),
                        gen.random_annotated_run(rng, 80, *shape, p=0.7)))
    steps = quiet = 0
    for universe, aw in streams:
        q = sat_initial(universe)
        for k, s in enumerate(symbols_of(aw)):
            prev, q = q, sat_step(q, s)
            bad = closure_violation(q)
            assert bad is None, "step %d: %s\n(c, b) = %r" % (k, describe(aw), bad)
            c = grown_past_arrival(prev, q, s)
            assert c is None, "step %d: %s\nsymbol %d grew" % (k, describe(aw), c)
            quiet += not (s[1] and s[0].is_read())
        steps += len(aw)
    assert steps > 3500 and quiet > 3000


def test_order_fields_ignore_the_flags():
    # rules 1-5 read no open flag (monitor.py's docstring): from every
    # state that the golden streams and seeded random streams reach, the
    # step with random guard-bit flags in place of the state's own gives
    # the same blk, rf, aft and fba
    streams = list(_monitor_streams().values())
    rng = random.Random(4126)
    for n_threads in range(1, 5):
        for n_vars in range(1, 5):
            for p in (0.5, 0.8):
                aw = gen.random_annotated_run(rng, rng.randint(40, 120), n_threads, n_vars, p=p)
                streams.append((universe_of(*gen.alphabet(n_threads, n_vars)), aw))
    steps = 0
    for universe, aw in streams:
        q = sat_initial(universe)
        for k, s in enumerate(symbols_of(aw)):
            prev, q = q, sat_step(q, s)
            field = flags_steer_order(prev, q, s)
            assert field is None, "step %d: %s\nrandom flags change %s" % (k, describe(aw), field)
        steps += len(aw)
    assert steps > 5000


def test_opener_pair_rows_hold_the_new_write():
    # what lets the block-opener path of sat_step join the new write a
    # into its pair's rows without testing them (monitor.py's
    # docstring): a row non-empty at the step's start at a's pair holds
    # that pair's block write, an earlier event of a's thread, so a is in
    # the row and in its symbol's after row once the step is done
    streams = list(_monitor_streams().values())
    rng = random.Random(4130)
    for n_threads in range(1, 5):
        for n_vars in range(1, 5):
            for p in (0.3, 0.5, 0.7, 0.85, 1.0):
                aw = gen.random_annotated_run(rng, rng.randint(40, 120), n_threads, n_vars, p=p)
                streams.append((universe_of(*gen.alphabet(n_threads, n_vars)), aw))
    cases = 0
    for universe, aw in streams:
        ns = len(universe.symbols)
        q = sat_initial(universe)
        for step, s in enumerate(symbols_of(aw)):
            prev, q = q, sat_step(q, s)
            if not (s[1] and s[0].is_write()):
                continue
            a = universe.index(s)
            k = universe.sym_thread[a] * len(universe.variables) + universe.var_index[s[0].variable]
            sh = k * (ns + 1)
            for c in range(ns):
                if c == a or not prev.fba[c] >> sh & (1 << ns) - 1:
                    continue
                cases += 1
                assert q.fba[c] >> sh + a & 1 and q.aft[c] >> a & 1, (
                    "step %d, symbol %d: %s" % (step, c, describe(aw)))
    assert cases > 20000


def walk_reference(q, depth, lib=None):
    """Step the reference and the library from reference state q along
    every valid continuation of up to depth symbols, requiring equal
    public fields; the number of steps.  lib is q's library state."""
    lib = library_state(q) if lib is None else lib
    checked = 0
    for sym in valid_symbols(q) if depth else ():
        succ, succ_lib, name = step_mismatch(q, sym, lib)
        assert name is None, (depth, sym, name)
        checked += 1 + walk_reference(succ, depth - 1, succ_lib)
    return checked


def test_step_matches_full_sweep_exhaustive_small():
    # every annotated stream of up to 4 symbols over each alphabet within
    # 2 threads x 2 variables, walked as a tree of reference states so each
    # state is stepped once per continuation: a write takes either mark,
    # and a read the mark of the write it observes
    checked = 0
    for threads in (["T1"], ["T1", "T2"]):
        for variables in (["x"], ["x", "y"]):
            checked += walk_reference(ref_initial(universe_of(tuple(threads), tuple(variables))), 4)
    assert checked > 10000


def test_states_differing_only_in_tir():
    # two 2x2 streams reach reference states whose public fields are equal
    # and whose private tir bits differ; the library keeps only the public
    # fields, so its two end states are equal, and every continuation of up
    # to 3 symbols from either reference state gives the library's fields
    u = universe_of(("T1", "T2"), ("x", "y"))
    streams = ("T1 w x @ / T2 w x @ / T1 r x @ / T2 w y @ / T2 w y @",
               "T1 w x @ / T2 w x @ / T2 w y @ / T2 w y @ / T1 r x @")
    refs, ends = [], []
    for text in streams:
        q, lib = ref_initial(u), sat_initial(u)
        for s in symbols_of(parse_run(text.replace(" / ", "\n"))):
            q, lib = step_mismatch(q, s, library_state(q))[0], sat_step(lib, s)
        refs.append(q)
        ends.append(lib)
    assert library_state(refs[0]) == library_state(refs[1])
    assert refs[0].tir != refs[1].tir
    assert ends[0] == ends[1] == library_state(refs[0])
    for q in refs:
        walk_reference(q, 3)


def test_reference_script_entry_points(capsys):
    # the script's breadth-first walk (which stores states through
    # _pack/_unpack) and its random-stream campaign, each at a small size
    assert walk(2, 1, 4, 250000) == 0
    assert campaign(20, 1) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("2x1 to depth 4: ") and "not capped" in out[0]
    assert out[1].startswith("20 streams, ")


def test_canonical_text_constant_size():
    rng = random.Random(5)
    u = Universe(["T1", "T2", "T3"], ["x", "y", "z"])
    sizes = set()
    for n in (3, 8, 12):
        aw = gen.random_annotated_run(rng, n)
        sizes.add(len(canonical_text(sat_fold(aw, u)).encode()))
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


def test_rejects_symbol_outside_universe():
    q = sat_initial(Universe(["T1"], ["x"]))
    for sym in ((Label("T2", WRITE, "x"), False), (Label("T1", WRITE, "y"), True)):
        with pytest.raises(ValueError, match="outside the universe"):
            sat_step(q, sym)


# ---- deliberate dev loop: shrink a failing case ---------------------------

def minimize(aw):
    """Greedy shrink of a disagreeing annotated run: drop events, then
    clear annotation bits, as long as the disagreement survives."""
    labels = list(aw.labels)
    marks = list(aw.annotations)

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
            bs = marks[:i] + marks[i + 1:]
            if ls and still_fails(ls, bs):
                labels, marks = ls, bs
                changed = True
        for i in range(len(labels)):
            if marks[i]:
                bs = marks[:i] + [False] + marks[i + 1:]
                if still_fails(labels, bs):
                    marks = bs
                    changed = True
    return Run(labels, marks)


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
