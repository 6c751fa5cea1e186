"""Differential tests of the class oracles against slow references.

``reference_swap_closure`` is the swap closure written directly over
tuples of ``Event``s, with block contiguity looked up in a map from
each member event to its ``Block``: the straightforward form of the commutation and
block classes.  The reads-from class is checked against a filter of
every permutation of the run through ``same_equiv_rf``, which uses no
search at all.  Both references are slow and kept here only as test
oracles.
"""

import itertools
import random

from blockeq.blocks import blocks_from_annotation
from blockeq.oracle import enum_block_class, enum_maz_class, enum_rf_class
from blockeq.trace import Run, TraceError, conflicting

import gen
from oracles import same_equiv_rf


def _contiguous_spans(word, block_of):
    """(first, last, block) for every block whose members sit contiguously
    in the given permutation, sorted by first position."""
    lo, hi = {}, {}
    for i, e in enumerate(word):
        b = block_of.get(e)
        if b is None:
            continue
        lo.setdefault(b, i)
        hi[b] = i
    spans = [(first, hi[b], b) for b, first in lo.items() if hi[b] - first + 1 == len(b.members())]
    spans.sort(key=lambda s: s[0])
    return spans


def _block_threads(b):
    return frozenset(e.label.thread for e in b.members())


def _neighbors(word, block_of):
    # adjacent independent event swaps
    for i in range(len(word) - 1):
        a, b = word[i], word[i + 1]
        if not conflicting(a.label, b.label):
            yield word[:i] + (b, a) + word[i + 2:]
    if not block_of:
        return
    # adjacent contiguous thread-disjoint block swaps
    spans = _contiguous_spans(word, block_of)
    for (f1, l1, b1), (f2, l2, b2) in zip(spans, spans[1:]):
        if l1 + 1 != f2:
            continue
        if _block_threads(b1) & _block_threads(b2):
            continue
        yield word[:f1] + word[f2:l2 + 1] + word[f1:l1 + 1] + word[l2 + 1:]


def reference_swap_closure(run, blocks=None):
    """Label words of the breadth-first closure of the run under the
    swaps above."""
    block_of = {}  # member event -> its block
    if blocks is not None:
        block_of = {e: blocks.blocks[b] for e, b in zip(run.events, blocks.owner) if b >= 0}
    start = tuple(run.events)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for word in frontier:
            for neighbor in _neighbors(word, block_of):
                if neighbor not in seen:
                    seen.add(neighbor)
                    nxt.append(neighbor)
        frontier = nxt
    return {tuple(e.label for e in w) for w in seen}


def reference_rf_class(run):
    """Label words of every permutation of the run that is reads-from
    equivalent to it."""
    out = set()
    for word in set(itertools.permutations(run.labels)):
        try:
            other = Run(word)
        except TraceError:
            continue  # a read before every write of its variable
        if same_equiv_rf(run, other):
            out.add(word)
    return out


def test_swap_classes_match_reference():
    rng = random.Random(51)
    sizes = set()
    for k in range(400):
        aw = gen.random_annotated_run(rng, rng.randint(1, 9), n_threads=2 + k % 3)
        bs = blocks_from_annotation(aw)
        maz = enum_maz_class(aw)
        blk = enum_block_class(aw, bs)
        assert set(maz.members) == reference_swap_closure(aw), aw
        ref = reference_swap_closure(aw, bs)
        assert set(blk.members) == ref, aw
        assert all(labels in blk for labels in ref)
        assert len(maz) == len(maz.members) and len(blk) == len(blk.members)
        sizes.add(len(blk))
    assert max(sizes) > 100


def test_rf_classes_match_permutation_filter():
    rng = random.Random(52)
    sizes = set()
    for k in range(150):
        run = gen.random_run(rng, rng.randint(1, 7), n_threads=2 + k % 3)
        cls = enum_rf_class(run)
        ref = reference_rf_class(run)
        assert set(cls.members) == ref, run
        fresh = enum_rf_class(run)  # membership before the members are read
        for word in set(itertools.permutations(run.labels)):
            assert (word in fresh) == (word in ref)
        assert run.labels[:-1] not in fresh
        assert len(cls) == len(cls.members)
        sizes.add(len(cls))
    assert max(sizes) > 20
