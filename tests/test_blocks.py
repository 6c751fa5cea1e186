"""Tests for block construction, annotation, and selection.

A block is a write plus every read observing it, so choosing blocks is
choosing a subset of writes; annotations must mark exactly the members
of such a choice.
"""

import random
import re

import pytest

import gen
from gen import CORPUS
from blockeq.blocks import (
    BlockSet,
    all_block_sets,
    annotate,
    blocks_from_annotation,
    is_well_annotated,
    parse_block_selector,
)
from blockeq.trace import TraceError, parse_run
from oracles import blocks_in_run_order_disjoint


def test_candidate_blocks_cover_reads():
    rng = random.Random(11)
    for _ in range(120):
        run = gen.random_run(rng, rng.randint(1, 10))
        writes = [i for i, lab in enumerate(run.labels) if lab.op == "w"]
        cands = BlockSet(run, writes)
        assert cands.writes == tuple(writes)
        for b, (w, mask) in enumerate(zip(cands.writes, cands.masks)):
            readers = {r for r, rw in run.rf_pos.items() if rw == w}
            assert mask == sum(1 << i for i in readers | {w})
            assert {i for i, o in enumerate(cands.owner) if o == b} == readers | {w}
            for r in readers:
                assert run.labels[r].variable == run.labels[w].variable


def test_block_set_roundtrip_through_annotation():
    rng = random.Random(12)
    for _ in range(120):
        run = gen.random_run(rng, rng.randint(1, 9))
        for bs in all_block_sets(run):
            aw = annotate(run, bs)
            assert is_well_annotated(aw)
            back = blocks_from_annotation(aw)
            assert back.writes == bs.writes
            # every member marked, everything else unmarked
            for i, b in enumerate(bs.owner):
                assert aw.annotations[i] == (b >= 0)


def test_all_block_sets_is_write_powerset():
    run = parse_run("T1 w x\nT1 r x\nT2 w x\nT2 w y\nT1 r y")
    sets = list(all_block_sets(run))
    assert len(sets) == 2 ** 3
    keys = {bs.writes for bs in sets}
    assert len(keys) == len(sets)


def test_invalid_annotations_rejected():
    # marked write, unmarked observing read
    bad1 = parse_run("T1 w x @\nT2 r x")
    assert not is_well_annotated(bad1)
    with pytest.raises(TraceError):
        blocks_from_annotation(bad1)
    # marked read, unmarked writer
    bad2 = parse_run("T1 w x\nT2 r x @")
    assert not is_well_annotated(bad2)
    with pytest.raises(TraceError):
        blocks_from_annotation(bad2)


def test_blocks_from_writes_picks_readers():
    run = parse_run("T1 w x\nT2 r x\nT1 w x\nT1 r x")
    bs = BlockSet(run, [0])
    (blk,) = list(bs)
    assert blk.write == run.events[0]
    assert [str(r) for r in blk.reads] == ["T2 r x #1"]
    assert bs.owner == (0, 0, -1, -1)
    assert bs.masks == (0b0011,)


def test_blocks_from_writes_names_bad_events():
    run = parse_run("T1 w x\nT2 r x\nT1 w x\nT1 r x")
    for p in (-1, 4, 9, 1):  # out of range, and a read
        with pytest.raises(ValueError, match="position %d is not a write" % p):
            BlockSet(run, [p])
    with pytest.raises(ValueError, match=re.escape("T1 w x #2")):
        BlockSet(run, [2, 0, 2])


def test_block_set_takes_candidate_blocks_only():
    run = parse_run("T1 w x\nT2 r x\nT1 w x\nT1 r x")
    assert BlockSet(run, [2, 0]) == parse_block_selector(run, "all")
    # each write brings all its readers, so the blocks are candidate blocks
    assert [str(b) for b in BlockSet(run, [0, 2])] == ["{T1 w x #1, T2 r x #1}",
                                                       "{T1 w x #2, T1 r x #1}"]
    with pytest.raises(ValueError):
        BlockSet(run, [1])  # a read
    with pytest.raises(ValueError):
        BlockSet(run, [0, 0])


def test_annotate_marks_events_of_a_permuted_run():
    run = parse_run("T1 w x\nT2 r x\nT2 w y\nT1 r y")
    bs = BlockSet(run, [0])
    perm = parse_run("T2 w y\nT1 w x\nT1 r y\nT2 r x")
    assert annotate(perm, bs).annotations == (False, True, False, True)
    assert annotate(run, bs).annotations == (True, True, False, False)


def test_selector_grammar():
    run = parse_run("T1 w x\nT2 r x\nT1 w x\nT1 r x")
    assert len(list(parse_block_selector(run, "none"))) == 0
    assert len(list(parse_block_selector(run, "all"))) == 2
    bs = parse_block_selector(run, "writes=1,3")
    assert bs.writes == (0, 2)
    with pytest.raises(TraceError):
        parse_block_selector(run, "writes=2")  # a read position
    with pytest.raises(TraceError):
        parse_block_selector(run, "writes=9")  # out of range
    with pytest.raises(TraceError):
        parse_block_selector(run, "sideways")


def test_same_variable_windows_never_interleave():
    # a read observes the latest write, so two blocks of one variable
    # can never overlap in run order; holds for every block choice
    rng = random.Random(13)
    for _ in range(150):
        run = gen.random_run(rng, rng.randint(1, 9))
        for bs in all_block_sets(run):
            assert blocks_in_run_order_disjoint(run, bs)


def test_edge_rows_ascend_and_point_forward():
    """Each row of a block set's direct edges lists its successors in
    ascending order, once each, all after the position itself."""
    runs = [parse_run(path.read_text()) for path in sorted(CORPUS.glob("*.trace"))]
    rng = random.Random(14)
    runs += [gen.random_annotated_run(rng, rng.randint(1, 60)) for _ in range(300)]
    for run in runs:
        for bs in (BlockSet(run, ()), blocks_from_annotation(run)):
            edges = bs._edges
            assert len(edges) == len(run)
            for i, row in enumerate(edges):
                assert list(row) == sorted(set(row)), (run, i)
                assert all(j > i for j in row), (run, i)
