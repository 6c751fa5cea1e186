"""Differential tests of the class oracles against slow references.

``reference_swap_closure`` is the swap closure written directly over
tuples of ``Event``s, with block contiguity looked up in a map from
each member event to its ``Block``: the straightforward form of the commutation and
block classes.  The reads-from class is checked against a filter of
every permutation of the run through ``same_equiv_rf``, which uses no
search at all.  Both references are slow and kept here only as test
oracles.  The frontier enumerations are also compared word for word
with the searches they replaced, kept in ``oracles.py``.
"""

import itertools
import random

from blockeq import oracle
from blockeq.blocks import blocks_from_annotation
from blockeq.oracle import SWAP_BOUND, enum_block_class, enum_maz_class, enum_rf_class
from blockeq.trace import Run, TraceError, conflicting, parse_run

import gen
from gen import CORPUS
from oracles import rf_words_dfs, same_equiv_rf, swap_closure_words


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
    spans = [(first, hi[b], b) for b, first in lo.items() if hi[b] - first == len(b.reads)]
    spans.sort(key=lambda s: s[0])
    return spans


def _block_threads(b):
    return frozenset(e.label.thread for e in (b.write,) + b.reads)


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
        assert aw.labels[:-1] not in maz and aw.labels[:-1] not in blk
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


def _matches_word_by_word_search(run, blocks, rf=True):
    """The frontier classes of the run equal the word-by-word ones, and
    the reads-from words come once each; returns the commutation and
    block class sizes."""
    maz, blk = enum_maz_class(run).words, enum_block_class(run, blocks).words
    assert maz == swap_closure_words(run, None), run
    assert blk == swap_closure_words(run, blocks), run
    if rf:
        words = list(oracle._frontier_words(len(run), *oracle._rf_moves(run)))
        assert len(words) == len(set(words)), run
        assert set(words) == set(rf_words_dfs(run)), run
    return len(maz), len(blk)


def test_frontier_classes_match_word_by_word_search_corpus():
    for path in sorted(CORPUS.glob("*.trace")):
        run = parse_run(path.read_text())
        assert len(run) <= SWAP_BOUND, path.name
        _matches_word_by_word_search(run, blocks_from_annotation(run))


def test_frontier_classes_match_word_by_word_search_random():
    # Runs of 10-12 events, where the middle split has states to share
    # and marked runs join several commutation classes.  The reads-from
    # classes are compared on the runs of 3 and 4 threads only: on 5 and
    # 6 threads they reach millions of words, which the word-by-word
    # reference takes tens of seconds to list.
    rng = random.Random(53)
    joined = 0
    for k in range(200):
        n_threads = 3 + k % 4
        aw = gen.random_annotated_run(rng, rng.randint(10, 12), n_threads=n_threads)
        maz, blk = _matches_word_by_word_search(aw, blocks_from_annotation(aw), rf=n_threads <= 4)
        joined += maz < blk
    assert joined > 20


def test_block_classes_match_swap_closure_exhaustive_small():
    # Every annotated run of 1-4 events on 2 threads x 2 variables and of
    # 1-3 events on 3 x 2, against the word-by-word closure.
    runs = joined = 0
    for n_events, n_threads in [(n, 2) for n in range(1, 5)] + [(n, 3) for n in range(1, 4)]:
        for aw in gen.all_annotated_runs(n_events, n_threads=n_threads):
            bs = blocks_from_annotation(aw)
            blk = enum_block_class(aw, bs)
            assert blk.words == swap_closure_words(aw, bs), aw
            runs += 1
            joined += len(blk) > len(enum_maz_class(aw))
    assert runs == 13852
    assert joined > 0
