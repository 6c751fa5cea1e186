"""Tests for the brute-force equivalence-class oracles.

The three class enumerations are checked for the containment hierarchy
(commutation ⊆ block ⊆ reads-from), for exactness against the proper-
linearization characterization, and for the strict gaps on the corpus
witness.  These oracles anchor every other module's tests, so they get
the most independent scrutiny.
"""

import itertools
import math
import random

import pytest

import gen
from gen import CORPUS, corpus
from blockeq.atomicity import is_liberally_atomic
from blockeq.blocks import BlockSet, all_block_sets, blocks_from_annotation
from blockeq.oracle import (
    SWAP_BOUND,
    BoundExceeded,
    _completes,
    enum_block_class,
    enum_maz_class,
    enum_rf_class,
    proper_topological_sort,
    rf_unordered,
)
from blockeq.orders import block_hb, mazurkiewicz_hb, saturate
from blockeq.trace import Label, Run, conflicting, parse_run
from oracles import (
    check_scope,
    count_linear_extensions,
    intersection_order,
    linearized_by,
    member_runs,
    proper_linearizations,
    same_equiv_rf,
)


def label_sets(cls):
    return set(cls.members)


def test_class_hierarchy_random():
    rng = random.Random(41)
    for _ in range(80):
        aw = gen.random_annotated_run(rng, rng.randint(1, 8))
        bs = blocks_from_annotation(aw)
        maz = label_sets(enum_maz_class(aw))
        blk = label_sets(enum_block_class(aw, bs))
        rf = label_sets(enum_rf_class(aw))
        assert maz <= blk <= rf
        assert tuple(aw.labels) in maz


def test_members_really_equivalent():
    # every member of the rf class has the base's program order and rf;
    # every member of the maz class differs by independent swaps only
    # (checked via equal commutation orders on relabelled positions)
    rng = random.Random(42)
    for _ in range(40):
        run = gen.random_run(rng, rng.randint(1, 7))
        for labs in enum_rf_class(run).members:
            assert same_equiv_rf(run, Run(labs))
        base_pairs = {
            (run.events[i], run.events[j])
            for i in range(len(run))
            for j in range(i + 1, len(run))
            if conflicting(run.labels[i], run.labels[j])
        }
        for member in member_runs(enum_maz_class(run)):
            pos = {e: i for i, e in enumerate(member.events)}
            assert all(pos[e] < pos[f] for e, f in base_pairs)


def test_completeness_members_equal_proper_linearizations():
    rng = random.Random(43)
    hits = 0
    for _ in range(60):
        aw = gen.random_annotated_run(rng, rng.randint(2, 8))
        bs = blocks_from_annotation(aw)
        if not is_liberally_atomic(aw, bs):
            continue
        hits += 1
        cls = enum_block_class(aw, bs)
        lins = proper_linearizations(aw, bs)
        assert {tuple(r.labels) for r in lins} == set(cls.members)
    assert hits > 20


def test_soundness_saturated_order_is_the_common_order():
    # e saturation-before f  <=>  every member runs e before f
    rng = random.Random(44)
    for _ in range(40):
        aw = gen.random_annotated_run(rng, rng.randint(2, 7))
        bs = blocks_from_annotation(aw)
        if not is_liberally_atomic(aw, bs):
            continue
        sat = saturate(aw, bs)
        members = member_runs(enum_block_class(aw, bs))
        positions = [{e: i for i, e in enumerate(m.events)} for m in members]
        for e, f in itertools.combinations(aw.events, 2):
            always = all(p[e] < p[f] for p in positions)
            assert sat.ordered(e, f) == always


def test_proper_inclusion_corpus_witness():
    run = corpus("block_vs_rf_gap.trace")
    ev = run.events

    # commutation ⊊ block: group the x-write of T1 with its read, leave
    # T2's x-write its own block, swap the two thread-disjoint x-blocks
    bs = BlockSet(run, [0, 3])
    assert [b.write for b in bs] == [ev[0], ev[3]]
    blk = enum_block_class(run, bs)
    maz = enum_maz_class(run)
    assert maz.words < blk.words  # one representative, so one word space

    # block ⊊ reads-from: swap the two halves of the p/q gadget
    # wholesale; po and rf survive, but the p-blocks can never become
    # contiguous (a same-thread event is wedged inside each), so no
    # block choice reaches the word
    word = list(run.labels)
    word[4:12] = word[8:12] + word[4:8]
    witness = Run(word)
    assert same_equiv_rf(run, witness)
    target = tuple(witness.labels)
    assert target in enum_rf_class(run)
    assert target not in blk
    # every other block choice misses the word too: most keep an inverted
    # dependent pair, which a cheap order check rules out; the handful
    # whose order the word does linearize get enumerated outright
    at = [run.position(e) for e in witness.events]
    for choice in all_block_sets(run):
        if linearized_by(block_hb(run, choice).succ, at):
            assert target not in enum_block_class(run, choice)


def test_label_tuples_are_built_on_demand():
    run = corpus("block_hb_demo.trace")
    cls = enum_rf_class(run)
    assert len(cls) == 842 and run in cls and run.labels[::-1] not in cls
    assert member_runs(cls)[0] in cls
    assert "members" not in vars(cls)
    assert len(cls.members) == len(cls) and run.labels in cls.members
    assert [tuple(r.labels) for r in member_runs(cls)] == sorted(cls.members)


def test_conciseness_corpus():
    n2 = corpus("conciseness_n2.trace")
    assert len(enum_maz_class(n2).members) == 1
    assert len(enum_block_class(n2, blocks_from_annotation(n2)).members) == math.comb(4, 2)
    n3 = corpus("conciseness_n3.trace")
    assert len(enum_maz_class(n3).members) == 1
    assert len(enum_block_class(n3, blocks_from_annotation(n3)).members) == math.comb(6, 3)


def test_two_wr_pairs_class_and_intersection():
    run = corpus("two_wr_pairs.trace")
    cls = enum_block_class(run, blocks_from_annotation(run))
    assert len(cls.members) == 2
    common = intersection_order(cls)
    # the common order keeps each thread's pair and nothing else, so it
    # linearizes in C(4,2) = 6 ways, strictly more than the 2 members
    assert count_linear_extensions(common) == 6


def test_corpus_membership_stories():
    serial = corpus("serial_two_blocks.trace")
    scrambled = corpus("scrambled_two_blocks.trace")
    bs = blocks_from_annotation(serial)
    assert tuple(scrambled.labels) in label_sets(enum_block_class(serial, bs))
    assert tuple(scrambled.labels) not in label_sets(enum_maz_class(serial))
    assert same_equiv_rf(serial, scrambled)

    zx = corpus("three_thread_zx.trace")
    var = corpus("three_thread_zx_variant.trace")
    assert tuple(var.labels) in label_sets(enum_rf_class(zx))
    assert tuple(var.labels) not in label_sets(enum_maz_class(zx))


def test_intersection_order_is_common_order():
    rng = random.Random(45)
    for _ in range(30):
        aw = gen.random_annotated_run(rng, rng.randint(2, 7))
        bs = blocks_from_annotation(aw)
        cls = enum_block_class(aw, bs)
        common = intersection_order(cls)
        positions = [
            {e: i for i, e in enumerate(m.events)} for m in member_runs(cls)
        ]
        for e, f in itertools.permutations(aw.events, 2):
            assert common.ordered(e, f) == all(p[e] < p[f] for p in positions)


def test_count_linear_extensions():
    run = parse_run("T1 w x\nT1 r x\nT1 w y")
    chain = mazurkiewicz_hb(run)
    assert count_linear_extensions(chain) == 1
    anti = parse_run("T1 w x\nT2 w y\nT3 w z")
    assert count_linear_extensions(mazurkiewicz_hb(anti)) == 6
    # against brute force on random small orders
    rng = random.Random(46)
    for _ in range(25):
        run = gen.random_run(rng, rng.randint(1, 6))
        po = mazurkiewicz_hb(run)
        brute = sum(
            1 for perm in itertools.permutations(range(len(run))) if linearized_by(po.succ, perm)
        )
        assert count_linear_extensions(po) == brute


def test_proper_topological_sort():
    rng = random.Random(47)
    for _ in range(40):
        aw = gen.random_annotated_run(rng, rng.randint(1, 8))
        bs = blocks_from_annotation(aw)
        if not is_liberally_atomic(aw, bs):
            continue
        lins = proper_linearizations(aw, bs)
        srt = proper_topological_sort(aw, bs)
        assert tuple(srt.labels) in {tuple(r.labels) for r in lins}


def test_proper_topological_sort_refuses_non_atomic_blocks():
    # the block on x read by T1 and T2's block on x intertwine, yet the
    # sort would not get stuck: with the thread tie-break it would emit
    # T1's events before T2's write, a run outside the one-member class
    aw = parse_run("T2 w x @\nT1 w x @\nT1 w y @\nT1 r x @")
    bs = blocks_from_annotation(aw)
    assert not is_liberally_atomic(aw, bs)
    assert len(enum_block_class(aw, bs)) == 1
    with pytest.raises(ValueError, match="not liberally atomic"):
        proper_topological_sort(aw, bs, tie_break=lambda e: e.label.thread)


def test_check_scope():
    rng = random.Random(48)
    good = 0
    for _ in range(60):
        aw = gen.random_annotated_run(rng, rng.randint(2, 7))
        bs = blocks_from_annotation(aw)
        if not is_liberally_atomic(aw, bs):
            continue
        sat = saturate(aw, bs)
        # any saturation-minimal event can be scheduled right away
        for k, e in enumerate(aw.events):
            if any(sat.ordered(f, e) for f in aw.events):
                continue
            assert check_scope(aw, bs, 0, k)
            good += 1
    assert good > 30

    run = corpus("block_hb_demo.trace")
    bs = blocks_from_annotation(run)
    with pytest.raises(ValueError):
        check_scope(run, bs, 1, 3)  # prefix splits the first z-block
    with pytest.raises(ValueError):
        check_scope(run, bs, 0, 3)  # pivot has predecessors in the window


def test_bounds():
    long_run = Run([Label("T%d" % (i % 3 + 1), "w", "x") for i in range(13)])
    with pytest.raises(BoundExceeded):
        enum_maz_class(long_run)
    with pytest.raises(BoundExceeded):
        enum_block_class(long_run, blocks_from_annotation(long_run))
    # explicit bound overrides the default
    assert len(enum_maz_class(long_run, bound=13).members) >= 1
    very_long = Run([Label("T%d" % (i % 3 + 1), "w", "x") for i in range(23)])
    with pytest.raises(BoundExceeded):
        enum_rf_class(very_long)
    # override check on a single-thread run, whose class is a singleton
    single = Run([Label("T1", "w", "x") for _ in range(23)])
    assert len(enum_rf_class(single, bound=23).members) == 1


def test_class_size_is_the_number_of_listed_words():
    # len() counts paths through the frontier states; words lists them
    runs = [parse_run(path.read_text()) for path in sorted(CORPUS.glob("*.trace"))]
    runs.append(Run([]))
    rng = random.Random(27)
    shape = lambda: (rng.randint(1, 4), rng.randint(1, 3))  # threads, variables
    runs += [gen.random_run(rng, SWAP_BOUND, *shape()) for _ in range(20)]
    runs += [gen.random_run(rng, rng.randint(0, 12), *shape()) for _ in range(500)]
    for run in runs:
        for enum in (enum_maz_class, enum_rf_class):
            assert len(enum(run)) == len(enum(run).words), (enum.__name__, run.labels)
    assert len(enum_rf_class(Run([]))) == 1


def test_class_excludes_runs_with_foreign_labels():
    cls = enum_maz_class(parse_run("T1 w x\nT2 w y\n"))
    assert parse_run("T2 w y\nT1 w x\n") in cls
    assert parse_run("T1 w x\nT2 w z\n") not in cls
    assert parse_run("T1 w x\nT2 w y\nT2 w y\n") not in cls


# ---- the reads-from order decision -------------------------------------------

def _rf_decisions_match_class_scan(run):
    """rf_unordered on every pair of positions, both ways round, against
    the pairs that some word of the enumerated class inverts."""
    common = intersection_order(enum_rf_class(run)).succ  # bit j of row i: i before j in every word
    for i, j in itertools.combinations(range(len(run)), 2):
        want = not common[i] >> j & 1
        assert rf_unordered(run, i, j) == rf_unordered(run, j, i) == want, (run, i, j)


def test_rf_unordered_matches_class_scan_corpus():
    for path in sorted(CORPUS.glob("*.trace")):
        _rf_decisions_match_class_scan(parse_run(path.read_text()))


def test_rf_unordered_matches_class_scan_random():
    rng = random.Random(46)
    inverted = 0
    for k in range(200):
        run = gen.random_run(rng, rng.randint(2, 9), n_threads=2 + k % 3)
        _rf_decisions_match_class_scan(run)
        inverted += any(rf_unordered(run, i, j) for i, j in itertools.combinations(range(len(run)), 2))
    assert inverted > 100


def test_rf_unordered_rejects_positions_outside_the_run():
    run = corpus("two_wr_pairs.trace")
    for i, j in ((-1, 0), (0, len(run)), (len(run), len(run))):
        with pytest.raises(IndexError, match="the run has 4 events"):
            rf_unordered(run, i, j)


def test_completes_expands_each_state_once():
    # (a, b) on a 6x6 grid, each move adding 1 to one coordinate: the
    # longest path has 10 moves, so one of 11 exists only once (5, 5)
    # gets a way out.  A search without the memo would expand a state
    # once per path that reaches it.
    def grid(exit_from=None):
        expanded = []

        def moves(s):
            expanded.append(s)
            a, b = s
            out = [(a + 1, b)] if a < 5 else []
            out += [(a, b + 1)] if b < 5 else []
            return out + ([(6, 6)] if s == exit_from else [])

        return moves, expanded

    moves, expanded = grid()
    assert not _completes(11, (0, 0), moves)
    assert sorted(expanded) == sorted(itertools.product(range(6), repeat=2))
    moves, expanded = grid(exit_from=(5, 5))
    assert _completes(11, (0, 0), moves)
