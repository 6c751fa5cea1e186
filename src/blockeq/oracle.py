"""Brute-force ground truth for the streaming components.

The class enumerations are order-free and bounded: equivalence classes
by breadth-first closure under the allowed swaps and reads-from classes
by interleaving search never consult the offline orders, and their
length caps keep them at desk scale, so they certify the incremental
algorithms by an independent route.  ``proper_topological_sort`` is
not order-free: it emits one proper linearization along ``saturate``,
with no bound.

Class members are *position words*: ``bytes`` whose k-th byte is the
run position of the k-th event.  The swap closure reads a commutation
mask and a block id per position, both computed once per run, so a
swap is a byte splice and a visited check hashes one ``bytes``.  Label
tuples are built only when ``EquivClass.members`` is read.  One byte
per position caps every enumeration at 255 events.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Iterable, Iterator, Optional

from .blocks import BlockSet
from .orders import bits, rows_union, saturate
from .trace import Event, Label, Run, conflicting

SWAP_BOUND = 12  # breadth-first closure under swaps
RF_BOUND = 22    # reads-from interleaving search
WORD_LIMIT = 255  # a position word spends one byte per event


class BoundExceeded(ValueError):
    """The instance is too large for explicit enumeration."""


def _check_bound(run: Run, bound: Optional[int], default: int, what: str) -> None:
    limit = min(default if bound is None else bound, WORD_LIMIT)
    if len(run) > limit:
        raise BoundExceeded(
            "%s enumeration is limited to %d events, got %d" % (what, limit, len(run))
        )


class EquivClass:
    """An explicitly enumerated equivalence class.

    ``words`` holds the members as position words over the
    representative.  Same-label events never reorder under any relation
    considered here (they share a thread), so each member is equally
    determined by its label sequence; ``members``, the set of those
    label sequences, is built on first access.
    """

    def __init__(self, relation: str, representative: Run, words: Iterable[bytes]):
        assert relation in ("maz", "blocks", "rf")
        self.relation = relation
        self.representative = representative
        self.words: frozenset[bytes] = frozenset(words)
        assert bytes(range(len(representative))) in self.words, \
            "representative must belong to its class"

    @cached_property
    def members(self) -> frozenset[tuple[Label, ...]]:
        at = self.representative.labels.__getitem__
        return frozenset(tuple(map(at, w)) for w in self.words)

    def __len__(self):
        return len(self.words)

    def __contains__(self, item) -> bool:
        labels = item.labels if isinstance(item, Run) else item
        rep = self.representative
        slots = [list(reversed(s)) for s in rep.by_code]  # each code's positions, last first
        try:
            return bytes(slots[rep.universe.code(lab)].pop() for lab in labels) in self.words
        except IndexError:
            return False  # a label the representative lacks, or too many of one

    def sorted_words(self) -> list[bytes]:
        """The words in the order of their label sequences."""
        codes = self.representative.code
        rank = {k: r for r, k in enumerate(sorted(set(codes)))}
        table = bytes(rank[k] for k in codes).ljust(256, b"\0")
        return sorted(self.words, key=lambda w: w.translate(table))

    def __repr__(self):
        return "EquivClass(%s, %d members)" % (self.relation, len(self.words))


# ---- swap-closure enumeration ---------------------------------------------

def _swap_closure(run: Run, blocks: Optional[BlockSet]) -> set[bytes]:
    """Breadth-first closure of the run under adjacent independent event
    swaps and, with blocks, swaps of two adjacent, contiguous,
    thread-disjoint blocks, re-derived from each word as it is reached."""
    n = len(run)
    code, tid = run.code, run.tid
    # indep[k] >> k2 & 1: label codes k and k2 commute
    reps = dict(zip(code, run.labels))
    indep = {}
    for k, lab in reps.items():
        indep[k] = sum(1 << k2 for k2, l2 in reps.items() if not conflicting(lab, l2))
    masks = blocks.masks if blocks is not None else ()
    block = blocks.owner if masks else None  # block index per position
    threads = [sum({1 << tid[p] for p in bits(m)}) for m in masks]  # thread mask per block

    start = bytes(range(n))
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for w in frontier:
            found = []
            for i in range(n - 1):
                if indep[code[w[i]]] >> code[w[i + 1]] & 1:
                    found.append(w[:i] + w[i + 1:i + 2] + w[i:i + 1] + w[i + 2:])
            if masks:
                # (start, end, thread mask) of each contiguous block, in word order
                spans = []
                i = 0
                while i < n:
                    k = block[w[i]]
                    j = i + 1
                    if k >= 0:
                        while j < n and block[w[j]] == k:
                            j += 1
                        if j - i == masks[k].bit_count():
                            spans.append((i, j, threads[k]))
                    i = j
                for (f1, l1, t1), (f2, l2, t2) in zip(spans, spans[1:]):
                    if l1 == f2 and not t1 & t2:
                        found.append(w[:f1] + w[f2:l2] + w[f1:l1] + w[l2:])
            for v in found:
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return seen


def enum_maz_class(run: Run, bound: Optional[int] = None) -> EquivClass:
    """Closure under adjacent swaps of independent events."""
    _check_bound(run, bound, SWAP_BOUND, "swap-class")
    return EquivClass("maz", run, _swap_closure(run, None))


def enum_block_class(run: Run, blocks: BlockSet, bound: Optional[int] = None) -> EquivClass:
    """Closure under adjacent independent event swaps plus swaps of two
    adjacent, contiguous, thread-disjoint blocks.  Contiguity and
    adjacency are re-derived from each permutation as it is reached."""
    _check_bound(run, bound, SWAP_BOUND, "swap-class")
    return EquivClass("blocks", run, _swap_closure(run, blocks))


def rf_class_words(run: Run, bound: Optional[int] = None) -> Iterator[bytes]:
    """Position words of all interleavings that preserve each thread's
    order and give every read the same writer it has in the original
    run, generated one at a time, depth first.  Reads are checked as
    they are placed, so every completed word is a member outright."""
    _check_bound(run, bound, RF_BOUND, "reads-from class")
    n = len(run)
    var = run.vid
    writer = [run.rf_pos.get(p, -1) for p in range(n)]  # -1: a write
    seqs = run.by_thread
    ptrs = [0] * len(seqs)
    acc = bytearray()
    last_write = [-1] * len(run.variables)

    def rec():
        if len(acc) == n:
            yield bytes(acc)
            return
        for k, seq in enumerate(seqs):
            i = ptrs[k]
            if i == len(seq):
                continue
            p = seq[i]
            x = var[p]
            prev = last_write[x]
            if writer[p] < 0:
                last_write[x] = p
            elif prev != writer[p]:
                continue
            ptrs[k] = i + 1
            acc.append(p)
            yield from rec()
            acc.pop()
            ptrs[k] = i
            last_write[x] = prev

    return rec()


def enum_rf_class(run: Run, bound: Optional[int] = None) -> EquivClass:
    """The reads-from class: every word of ``rf_class_words``."""
    return EquivClass("rf", run, rf_class_words(run, bound))


# ---- proper topological sort -----------------------------------------------

def _busy(blocks: BlockSet, placed: int) -> int:
    """Variable mask of the blocks with some but not all members placed."""
    vid = blocks.run.vid
    open_writes = [w for w, m in zip(blocks.writes, blocks.masks) if placed & m not in (0, m)]
    return sum({1 << vid[w] for w in open_writes})


def proper_topological_sort(
    run: Run,
    blocks: BlockSet,
    tie_break: Optional[Callable[[Event], object]] = None,
) -> Run:
    """Emit events one at a time: always a saturation-minimal pending
    event that is a read or whose variable has no partially emitted
    block.  For liberally atomic blocks this never gets stuck and the
    output is a proper linearization whatever the tie-break; a stuck
    state is reported because it witnesses a non-atomic input (or a
    bug)."""
    succ = saturate(run, blocks).order.succ
    key = None if tie_break is None else (lambda i: tie_break(run.event_at(i)))
    pending = (1 << len(run)) - 1
    picked: list[int] = []
    while pending:
        busy = _busy(blocks, ~pending)
        eligible = [
            i for i in bits(pending & ~rows_union(succ, pending))
            if not run.is_write[i] or not busy >> run.vid[i] & 1
        ]
        if not eligible:
            raise ValueError(
                "proper topological sort is stuck after %d events; "
                "the blocks are not liberally atomic" % len(picked)
            )
        i = min(eligible, key=key)
        pending &= ~(1 << i)
        picked.append(i)
    return Run([run.labels[i] for i in picked], [run.annotations[i] for i in picked])
