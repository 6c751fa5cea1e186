"""Tests for block construction, annotation, and selection.

A block is a write plus every read observing it, so choosing blocks is
choosing a subset of writes; annotations must mark exactly the members
of such a choice.
"""

import random
import re

import pytest

import gen
from blockeq.blocks import (
    Block,
    BlockSet,
    all_block_sets,
    annotate,
    blocks_from_annotation,
    blocks_from_writes,
    blocks_in_run_order_disjoint,
    candidate_blocks,
    is_well_annotated,
    parse_block_selector,
)
from blockeq.trace import Event, Label, TraceError, parse_run


def test_candidate_blocks_cover_reads():
    rng = random.Random(11)
    for _ in range(120):
        run = gen.random_run(rng, rng.randint(1, 10))
        cands = candidate_blocks(run)
        writes = [e for e in run.events if e.label.op == "w"]
        assert [b.write for b in cands] == writes
        rf = run.reads_from()
        for b in cands:
            assert set(b.reads) == {e for e, w in rf.items() if w == b.write}
            assert b.variable == b.write.label.variable
            for r in b.reads:
                assert r.label.variable == b.variable


def test_block_set_roundtrip_through_annotation():
    rng = random.Random(12)
    for _ in range(120):
        run = gen.random_run(rng, rng.randint(1, 9))
        for bs in all_block_sets(run):
            aw = annotate(run, bs)
            assert is_well_annotated(aw)
            back = blocks_from_annotation(aw)
            assert {b.write for b in back} == {b.write for b in bs}
            # every member marked, everything else unmarked
            members = set(bs.members())
            for i, e in enumerate(aw.events):
                assert aw.annotation_at(i) == (e in members)


def test_all_block_sets_is_write_powerset():
    run = parse_run("T1 w x\nT1 r x\nT2 w x\nT2 w y\nT1 r y")
    sets = list(all_block_sets(run))
    assert len(sets) == 2 ** 3
    keys = {frozenset(run.position(b.write) for b in bs) for bs in sets}
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
    bs = blocks_from_writes(run, [run.events[0]])
    (blk,) = list(bs)
    assert blk.write == run.events[0]
    assert [str(r) for r in blk.reads] == ["T2 r x #1"]
    assert [i for i, b in enumerate(bs.owner) if b < 0] == [2, 3]
    assert bs.is_member(run.events[1]) and not bs.is_member(run.events[3])
    assert bs.block_of(run.events[1]) is blk
    assert bs.block_of(run.events[2]) is None


def test_blocks_from_writes_names_bad_events():
    run = parse_run("T1 w x\nT2 r x\nT1 w x\nT1 r x")
    foreign = (Event(Label("T9", "w", "q"), 1), Event(Label("T1", "w", "x"), 3))
    for e in foreign + (run.events[1],):
        with pytest.raises(ValueError, match=re.escape(str(e))):
            blocks_from_writes(run, [e])


def test_block_set_takes_candidate_blocks_only():
    run = parse_run("T1 w x\nT2 r x\nT1 w x\nT1 r x")
    assert BlockSet(run, reversed(candidate_blocks(run))) == parse_block_selector(run, "all")
    with pytest.raises(ValueError):
        BlockSet(run, [Block(run.events[0], ())])  # its reader is missing
    with pytest.raises(ValueError):
        BlockSet(run, [Block(run.events[1], ())])  # a read
    with pytest.raises(ValueError):
        BlockSet(run, candidate_blocks(run)[:1] * 2)


def test_annotate_marks_events_of_a_permuted_run():
    run = parse_run("T1 w x\nT2 r x\nT2 w y\nT1 r y")
    bs = blocks_from_writes(run, [run.events[0]])
    perm = parse_run("T2 w y\nT1 w x\nT1 r y\nT2 r x")
    assert annotate(perm, bs).annotations == (False, True, False, True)
    assert annotate(run, bs).annotations == (True, True, False, False)


def test_selector_grammar():
    run = parse_run("T1 w x\nT2 r x\nT1 w x\nT1 r x")
    assert len(list(parse_block_selector(run, "none"))) == 0
    assert len(list(parse_block_selector(run, "all"))) == 2
    bs = parse_block_selector(run, "writes=1,3")
    assert {run.position(b.write) for b in bs} == {0, 2}
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
