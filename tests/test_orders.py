"""Tests for the happens-before orders and saturation.

The commutation order is cross-checked against a from-scratch
transitive closure; the block order against the pair-dropping rule it
is defined by; saturation against a naive fixpoint that re-tests every
same-variable block pair each round, hand-worked corpus instances and
the enumeration lemma that its proper linearizations match the plain
block order's.
"""

import random

import pytest
from hypothesis import given, settings

import gen
from gen import CORPUS, corpus
from blockeq import orders
from blockeq.blocks import BlockSet, blocks_from_annotation
from blockeq.orders import PartialOrder, bits, block_hb, mazurkiewicz_hb, saturate
from blockeq.atomicity import is_liberally_atomic
from blockeq.trace import READ, WRITE, Label, Run, TraceError, conflicting, parse_run
from oracles import (
    after_set,
    interleave_threads,
    is_proper_linearization,
    linearized_by,
    mask_closure,
    mask_edges,
    proper_linearizations,
    transitive_reduction,
)


def pairs(order):
    """The ordered position pairs of an order."""
    return {(i, j) for i, m in enumerate(order.succ) for j in bits(m)}


def closure_by_hand(run, base_pairs):
    n = len(run)
    reach = [set() for _ in range(n)]
    for i, j in base_pairs:
        reach[i].add(j)
    changed = True
    while changed:
        changed = False
        for i in range(n):
            for j in list(reach[i]):
                new = reach[j] - reach[i]
                if new:
                    reach[i] |= new
                    changed = True
    return {(i, j) for i in range(n) for j in reach[i]}


def test_mazurkiewicz_closure_matches_naive():
    rng = random.Random(21)
    runs = [gen.random_run(rng, rng.randint(1, 9)) for _ in range(150)]
    # on a 2x2 alphabet symbols repeat, so orders run through earlier occurrences
    runs += [gen.random_run(rng, rng.randint(20, 40), 2, 2) for _ in range(40)]
    for run in runs:
        base = {
            (i, j)
            for i in range(len(run))
            for j in range(i + 1, len(run))
            if conflicting(run.labels[i], run.labels[j])
        }
        assert pairs(mazurkiewicz_hb(run)) == closure_by_hand(run, base)


def test_block_order_drops_exactly_cross_block_pairs():
    rng = random.Random(22)
    runs = [gen.random_annotated_run(rng, rng.randint(1, 9)) for _ in range(100)]
    runs += [gen.random_annotated_run(rng, rng.randint(20, 40), 2, 2) for _ in range(40)]
    for aw in runs:
        bs = blocks_from_annotation(aw)
        base = set()
        for i in range(len(aw)):
            for j in range(i + 1, len(aw)):
                e, f = aw.labels[i], aw.labels[j]
                if not conflicting(e, f):
                    continue
                be, bf = bs.owner[i], bs.owner[j]
                cross = e.thread != f.thread and be >= 0 and bf >= 0 and be != bf
                if not cross:
                    base.add((i, j))
        assert pairs(block_hb(aw, bs)) == closure_by_hand(aw, base)
        # without blocks the two orders coincide
        bare = Run(aw.labels)
        empty = blocks_from_annotation(bare)
        assert pairs(block_hb(bare, empty)) == pairs(mazurkiewicz_hb(aw))


def test_partial_order_basics():
    run = parse_run("T1 w x\nT1 r x\nT2 w y")
    po = mazurkiewicz_hb(run)
    e0, e1, e2 = run.events
    assert po.ordered(e0, e1) and not po.ordered(e1, e0)
    assert not po.ordered(e0, e0)
    assert not po.ordered(e0, e2)
    assert po.succ == (0b010, 0, 0)
    assert set(po.covering_pairs()) == {(e0, e1)}
    assert linearized_by(po.succ, [0, 1, 2])
    assert linearized_by(po.succ, [2, 0, 1])
    assert not linearized_by(po.succ, [1, 0, 2])
    with pytest.raises(ValueError):
        PartialOrder(run, [[1], [0], []])  # e0 -> e1 -> e0
    # every edge must point forward in run order, even when acyclic
    with pytest.raises(ValueError):
        PartialOrder(run, [[], [0], []])  # e1 -> e0
    with pytest.raises(ValueError):
        PartialOrder(run, [[0], [], []])  # e0 -> e0
    with pytest.raises(ValueError):
        PartialOrder(run, [[], [2, 0], []])  # e1 -> e2, and e1 -> e0 listed last
    # and so must the seed rows saturation closes each round
    edges = [[1], [], []]
    assert PartialOrder(run, edges, [0b100, 0b100, 0]).succ == (0b110, 0b100, 0)
    with pytest.raises(ValueError):
        PartialOrder(run, edges, [0b010, 0b001, 0])  # e0 -> e1 -> e0
    with pytest.raises(ValueError):
        PartialOrder(run, edges, [0, 0b001, 0])  # e1 -> e0
    with pytest.raises(ValueError):
        PartialOrder(run, edges, [0, 0b010, 0])  # e1 -> e1
    with pytest.raises(ValueError):
        PartialOrder(run, edges, [0b010, 0])  # a row short


def seeded_runs():
    """Every corpus trace and 300 seeded random annotated runs."""
    runs = [parse_run(path.read_text()) for path in sorted(CORPUS.glob("*.trace"))]
    rng = random.Random(28)
    return runs + [gen.random_annotated_run(rng, rng.randint(1, 60)) for _ in range(300)]


def check_closure(aw):
    """Both base orders equal the closure of the bitmask edge table."""
    bs = blocks_from_annotation(aw)
    empty = BlockSet(aw, ())
    assert block_hb(aw, bs).succ == tuple(mask_closure(mask_edges(aw, bs))), aw
    assert mazurkiewicz_hb(aw).succ == tuple(mask_closure(mask_edges(aw, empty))), aw


def test_order_length_is_the_run_length():
    run = parse_run("T1 w x @\nT2 r x @\nT2 w y")
    bs = blocks_from_annotation(run)
    assert len(mazurkiewicz_hb(run)) == len(block_hb(run, bs)) == len(saturate(run, bs).order) == 3


def test_closure_matches_mask_tables_small():
    for aw in seeded_runs():
        check_closure(aw)


@settings(max_examples=150)
@given(gen.annotated_runs())
def test_closure_matches_mask_tables(drawn):
    check_closure(drawn[2])


def test_covering_positions_match_naive_reduction():
    for aw in seeded_runs():
        bs = blocks_from_annotation(aw)
        for order in (mazurkiewicz_hb(aw), block_hb(aw, bs), saturate(aw, bs).order):
            assert order.covering_positions() == transitive_reduction(order.succ), aw


def test_saturation_contains_block_order_and_stays_forward():
    rng = random.Random(23)
    for _ in range(120):
        aw = gen.random_annotated_run(rng, rng.randint(1, 9))
        bs = blocks_from_annotation(aw)
        sat = saturate(aw, bs)
        bhb = pairs(block_hb(aw, bs))
        satp = pairs(sat.order)
        assert bhb <= satp
        assert all(i < j for i, j in satp)


def saturate_by_hand(run, blocks):
    """Naive fixpoint: every same-variable block pair is tested against
    the whole closed relation, and the relation is re-closed after each
    round.  Returns the position pairs and the block index pairs."""
    members = [list(bits(m)) for m in blocks.masks]
    var = [run.vid[w] for w in blocks.writes]
    rel = pairs(block_hb(run, blocks))
    overlay = set()
    while True:
        new = {
            (a, b)
            for a in range(len(blocks))
            for b in range(len(blocks))
            if a != b and var[a] == var[b] and (a, b) not in overlay
            and any((e, f) in rel for e in members[a] for f in members[b])
        }
        if not new:
            return rel, overlay
        overlay |= new
        rel |= {(e, f) for a, b in new for e in members[a] for f in members[b]}
        rel = closure_by_hand(run, rel)


def check_saturation(aw):
    bs = blocks_from_annotation(aw)
    sat = saturate(aw, bs)
    rel, overlay = saturate_by_hand(aw, bs)
    assert pairs(sat.order) == rel
    assert sat.block_pairs == overlay
    assert sat.overlay == {(bs.blocks[a], bs.blocks[b]) for a, b in overlay}


def test_saturation_matches_naive_fixpoint_small():
    rng = random.Random(27)
    for _ in range(150):
        check_saturation(gen.random_annotated_run(rng, rng.randint(1, 12)))


@settings(max_examples=100)
@given(gen.annotated_runs())
def test_saturation_matches_naive_fixpoint(drawn):
    check_saturation(drawn[2])


def test_block_pairs_are_built_on_demand():
    run = corpus("saturation_chain.trace")
    bs = blocks_from_annotation(run)
    sat = saturate(run, bs)
    assert "block_pairs" not in vars(sat)
    assert sat.block_pairs and "overlay" not in vars(sat)
    assert len(sat.overlay) == len(sat.block_pairs)
    assert "overlay" in vars(sat)


def test_saturate_closes_once_per_round(monkeypatch):
    """One closure for the block order and one per round that grew it;
    the last round, which finds nothing new, closes nothing."""
    calls = []
    closure = orders.transitive_closure

    def counting(*tables):
        calls.append(len(tables[0]))
        return closure(*tables)

    monkeypatch.setattr(orders, "transitive_closure", counting)
    run = corpus("saturation_chain.trace")
    saturate(run, BlockSet(run, ()))
    assert len(calls) == 1
    for name in ("saturation_chain.trace", "retroactive_pair.trace"):
        run = corpus(name)
        calls.clear()
        saturate(run, blocks_from_annotation(run))
        assert len(calls) == 2, name


def extensions(run, threads, variables):
    """Every valid one-event extension of an annotated run over the
    alphabet, with whether the new event is a marked read: a write with
    either mark, a read with the mark of the write it observes."""
    last = {lab.variable: on for lab, on in zip(run.labels, run.annotations) if lab.is_write()}
    for t in threads:
        for v in variables:
            for lab, marks in ((Label(t, WRITE, v), (False, True)),
                               (Label(t, READ, v), (last[v],) if v in last else ())):
                for on in marks:
                    ext = Run(run.labels + (lab,), run.annotations + (on,))
                    yield ext, on and lab.is_read()


def reorders_past(run):
    """Whether the last event of an annotated run changes the saturated
    order among the events before it."""
    pre = Run(run.labels[:-1], run.annotations[:-1])
    before = saturate(pre, blocks_from_annotation(pre)).order.succ
    after = saturate(run, blocks_from_annotation(run)).order.succ
    earlier = (1 << len(pre)) - 1
    return any(a & earlier != b for a, b in zip(after, before))


def test_only_a_marked_read_reorders_the_past():
    # invariant L of monitor.py's docstring, offline: appending an event
    # that is not a marked read leaves the saturated order among the
    # earlier events as it was, whether or not the blocks are liberally
    # atomic; a marked read may order two blocks after the fact
    rng = random.Random(29)
    atomic, quiet, reordered = set(), 0, 0
    for _ in range(500):
        threads, variables = gen.alphabet(rng.randint(1, 3), rng.randint(1, 3))
        aw = gen.random_annotated_run(rng, rng.randint(1, 14), len(threads), len(variables),
                                      p=rng.choice((0.5, 0.8)))
        atomic.add(is_liberally_atomic(aw, blocks_from_annotation(aw)))
        for ext, marked_read in extensions(aw, threads, variables):
            if marked_read:
                reordered += reorders_past(ext)
            else:
                assert not reorders_past(ext), ext.to_text()
                quiet += 1
    assert atomic == {False, True} and quiet > 4000 and reordered > 50, (quiet, reordered)
    # the corpus regression: T4's last r(y) joins T3's y-block and only
    # then chains T1's w(x) before T2's first w(u)
    run = corpus("retroactive_pair.trace")
    assert run.labels[-1].is_read() and run.annotations[-1] and reorders_past(run)


def test_saturation_chain_corpus():
    run = corpus("saturation_chain.trace")
    bs = blocks_from_annotation(run)
    sat = saturate(run, bs)
    ev = run.events
    t5rx = ev[3]
    # T5's r(x) gains order to both members of T4's x-block...
    assert sat.ordered(t5rx, ev[7]) and sat.ordered(t5rx, ev[8])
    # ...that the raw block order does not have
    bhb = block_hb(run, bs)
    assert not bhb.ordered(t5rx, ev[7])
    # the overlay records the blockwise fold between the two x-blocks
    folded = {
        (run.position(b1.write), run.position(b2.write))
        for b1, b2 in sat.overlay
    }
    assert (1, 7) in folded
    # the z-blocks stay unordered blockwise
    assert (0, 5) not in folded and (5, 0) not in folded


def test_block_hb_demo_corpus():
    run = corpus("block_hb_demo.trace")
    bs = blocks_from_annotation(run)
    hb = mazurkiewicz_hb(run)
    sat = saturate(run, bs)
    assert len(pairs(sat.order)) == len(pairs(block_hb(run, bs))) == 10
    assert len(pairs(hb)) == 20
    # the two w(z) writes: pinned by commutation order, freed by blocks
    wz1, wz2 = run.events[0], run.events[8]
    assert hb.ordered(wz1, wz2)
    assert not sat.ordered(wz1, wz2) and not sat.ordered(wz2, wz1)


def test_after_sets_are_alphabet_bounded():
    rng = random.Random(24)
    for _ in range(60):
        aw = gen.random_annotated_run(rng, rng.randint(1, 8))
        bs = blocks_from_annotation(aw)
        sat = saturate(aw, bs)
        symbol = [(lab, b >= 0) for lab, b in zip(aw.labels, bs.owner)]
        for i, e in enumerate(aw.events):
            got = after_set(aw, bs, e, sat)
            want = {symbol[i]}
            want |= {symbol[j] for j, f in enumerate(aw.events) if sat.ordered(e, f)}
            assert got == frozenset(want)


def test_proper_linearizations_same_for_block_and_saturated_order():
    # the two filters accept the same words
    rng = random.Random(25)
    for _ in range(40):
        aw = gen.random_annotated_run(rng, rng.randint(2, 7))
        bs = blocks_from_annotation(aw)
        sat = saturate(aw, bs)
        bhb = block_hb(aw, bs)
        per_thread = {}
        for lab in aw.labels:
            per_thread.setdefault(lab.thread, []).append(lab)
        for word in interleave_threads(per_thread):
            try:
                cand = Run(word)
            except TraceError:
                continue  # a read drifted before every write: not a run
            a = is_proper_linearization(cand, aw, bs, order=bhb)
            b = is_proper_linearization(cand, aw, bs, order=sat.order)
            assert a == b


def test_proper_linearizations_oracle_agrees_with_predicate():
    rng = random.Random(26)
    for _ in range(30):
        aw = gen.random_annotated_run(rng, rng.randint(2, 7))
        bs = blocks_from_annotation(aw)
        lins = proper_linearizations(aw, bs)
        assert all(is_proper_linearization(r, aw, bs) for r in lins)
        assert tuple(aw.labels) in {
            tuple(r.labels) for r in lins
        }, "the run itself is always a proper linearization of its blocks"
