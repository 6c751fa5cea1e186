"""Brute-force ground truth for the streaming components.

Everything in this module enumerates explicitly: equivalence classes by
breadth-first closure under the allowed swaps, reads-from classes by
interleaving search, proper linearizations by topological DFS.  All of
it is deliberately bounded, and none of it is built on the offline
orders: the point is certifying the incremental algorithms on
desk-scale instances by an independent route.

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
from .orders import PartialOrder, bits, block_hb, saturate
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

    def __init__(self, relation: str, representative: Run, words: Iterable[bytes],
                 blocks: Optional[BlockSet] = None):
        assert relation in ("maz", "blocks", "rf")
        self.relation = relation
        self.representative = representative
        self.words: frozenset[bytes] = frozenset(words)
        self.blocks = blocks
        assert bytes(range(len(representative))) in self.words, \
            "representative must belong to its class"

    @cached_property
    def members(self) -> frozenset[tuple[Label, ...]]:
        at = self.representative.labels.__getitem__
        return frozenset(tuple(map(at, w)) for w in self.words)

    def __len__(self):
        return len(self.words)

    def __contains__(self, item) -> bool:
        labels = item.labels if isinstance(item, Run) else tuple(item)
        slots: dict[Label, list[int]] = {}  # label -> its positions, last first
        for p in reversed(range(len(self.representative))):
            slots.setdefault(self.representative.labels[p], []).append(p)
        try:
            return bytes(slots[lab].pop() for lab in labels) in self.words
        except (KeyError, IndexError):
            return False  # a label the representative lacks, or too many of one

    def sorted_words(self) -> list[bytes]:
        """The words in the order of their label sequences."""
        labels = self.representative.labels
        rank = {lab: k for k, lab in enumerate(sorted(set(labels)))}
        table = bytes(rank[lab] for lab in labels).ljust(256, b"\0")
        return sorted(self.words, key=lambda w: w.translate(table))

    def member_runs(self) -> list[Run]:
        """Members as runs in label order, each event keeping the
        annotation it carries in the representative."""
        rep = self.representative
        return [
            Run([rep.labels[p] for p in w], [rep.annotations[p] for p in w])
            for w in self.sorted_words()
        ]

    def __repr__(self):
        return "EquivClass(%s, %d members)" % (self.relation, len(self.words))


# ---- swap-closure enumeration ---------------------------------------------

def _swap_closure(run: Run, blocks: Optional[BlockSet]) -> set[bytes]:
    """Breadth-first closure of the run under adjacent independent event
    swaps and, with blocks, swaps of two adjacent, contiguous,
    thread-disjoint blocks, re-derived from each word as it is reached."""
    n = len(run)
    labels = run.labels
    # free[a] >> b & 1: positions a and b commute
    free = [sum(1 << b for b in range(n) if not conflicting(la, labels[b])) for la in labels]
    block = [-1] * n  # block id per position
    size, threads = [], []  # member count and thread mask per block
    for k, blk in enumerate(blocks or ()):
        ps = [run.position(e) for e in blk.members()]
        for p in ps:
            block[p] = k
        size.append(len(ps))
        threads.append(sum({1 << run.threads.index(labels[p].thread) for p in ps}))

    start = bytes(range(n))
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for w in frontier:
            found = []
            for i in range(n - 1):
                if free[w[i]] >> w[i + 1] & 1:
                    found.append(w[:i] + w[i + 1:i + 2] + w[i:i + 1] + w[i + 2:])
            if size:
                # (start, end, thread mask) of each contiguous block, in word order
                spans = []
                i = 0
                while i < n:
                    k = block[w[i]]
                    j = i + 1
                    if k >= 0:
                        while j < n and block[w[j]] == k:
                            j += 1
                        if j - i == size[k]:
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
    return EquivClass("blocks", run, _swap_closure(run, blocks), blocks)


def rf_class_words(run: Run, bound: Optional[int] = None) -> Iterator[bytes]:
    """Position words of all interleavings that preserve each thread's
    order and give every read the same writer it has in the original
    run, generated one at a time, depth first.  Reads are checked as
    they are placed, so every completed word is a member outright."""
    _check_bound(run, bound, RF_BOUND, "reads-from class")
    n = len(run)
    labels = run.labels
    var = [run.variables.index(lab.variable) for lab in labels]
    writer = [run.rf_pos.get(p, -1) for p in range(n)]  # -1: a write
    seqs = [[p for p in range(n) if labels[p].thread == t] for t in run.threads]
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


# ---- proper linearizations -------------------------------------------------

def _block_masks(run: Run, blocks: BlockSet) -> list[tuple[str, int]]:
    """(variable, member position mask) of every block."""
    return [(b.variable, sum(1 << run.position(e) for e in b.members())) for b in blocks]


def _open_variables(block_masks: list[tuple[str, int]], placed: int) -> set[str]:
    """Variables of the blocks with some but not all members placed."""
    return {var for var, m in block_masks if placed & m not in (0, m)}


def _minimal(succ: tuple[int, ...], pending: int) -> int:
    """Mask of the pending positions with no pending predecessor."""
    blocked = 0
    for i in bits(pending):
        blocked |= succ[i]
    return pending & ~blocked


def _proper_search(run: Run, blocks: BlockSet, forced: Iterable[int] = (),
                   first_only: bool = False) -> list[tuple[int, ...]]:
    """Topological DFS over the block happens-before order that never
    lets two same-variable blocks overlap, as position sequences.
    ``forced`` pins the first placements (callers guarantee those
    respect the order); with ``first_only`` the search stops at the
    first completion."""
    succ = block_hb(run, blocks).succ
    block_masks = _block_masks(run, blocks)
    out: list[tuple[int, ...]] = []
    acc = list(forced)
    full = (1 << len(run)) - 1

    def dfs(placed: int) -> bool:
        if placed == full:
            out.append(tuple(acc))
            return first_only
        busy = _open_variables(block_masks, placed)
        fresh = [m for var, m in block_masks if var in busy and not placed & m]
        for i in bits(_minimal(succ, full & ~placed)):
            if any(m >> i & 1 for m in fresh):
                continue  # starting this block would interleave an open one
            acc.append(i)
            done = dfs(placed | 1 << i)
            acc.pop()
            if done:
                return True
        return False

    dfs(sum(1 << i for i in acc))
    return out


def proper_linearizations(run: Run, blocks: BlockSet, bound: Optional[int] = None) -> set[Run]:
    """Every permutation of the run that linearizes the block
    happens-before order without interleaving two blocks on the same
    variable."""
    _check_bound(run, bound, SWAP_BOUND, "proper-linearization")
    return {
        Run([run.labels[i] for i in w], [run.annotations[i] for i in w])
        for w in _proper_search(run, blocks)
    }


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
    key = tie_break if tie_break is not None else run.position
    events = run.events
    block_masks = _block_masks(run, blocks)
    pending = (1 << len(events)) - 1
    picked: list[int] = []
    while pending:
        busy = _open_variables(block_masks, ~pending)
        eligible = [
            events[i] for i in bits(_minimal(succ, pending))
            if events[i].label.is_read() or events[i].label.variable not in busy
        ]
        if not eligible:
            raise ValueError(
                "proper topological sort is stuck after %d events; "
                "the blocks are not liberally atomic" % len(picked)
            )
        i = run.position(min(eligible, key=key))
        pending &= ~(1 << i)
        picked.append(i)
    return Run([run.labels[i] for i in picked], [run.annotations[i] for i in picked])


# ---- derived order queries --------------------------------------------------

def intersection_order(cls: EquivClass) -> PartialOrder:
    """The pairs ordered the same way in every member of the class."""
    n = len(cls.representative)
    keep = [(1 << n) - 1] * n
    for w in cls.words:
        later = 0
        for p in reversed(w):
            keep[p] &= later
            later |= 1 << p
    return PartialOrder(cls.representative.events, keep)


def count_linear_extensions(order: PartialOrder) -> int:
    """Number of linearizations, by dynamic programming over downward
    closed sets."""
    succ = order.succ
    memo = {0: 1}

    def count(mask: int) -> int:
        got = memo.get(mask)
        if got is None:
            # remove a maximal element of the downward closed set
            got = memo[mask] = sum(count(mask ^ 1 << i) for i in bits(mask) if not succ[i] & mask)
        return got

    return count((1 << len(succ)) - 1)


def check_scope(
    run: Run,
    blocks: BlockSet,
    prefix_len: int,
    event_pos: int,
    bound: Optional[int] = None,
) -> bool:
    """Decompose the run as v·w·e·w' with v the first ``prefix_len``
    events and e the event at ``event_pos``.  Requires that v contains
    every block wholly or not at all, and that no event of w is
    saturation-ordered before e; violations raise ValueError.  Returns
    whether some completion v·e·v' is a proper linearization — which the
    scope property guarantees whenever the blocks are liberally atomic."""
    _check_bound(run, bound, SWAP_BOUND, "scope-completion")
    if not (0 <= prefix_len <= event_pos < len(run)):
        raise ValueError("need 0 <= prefix_len <= event_pos < run length")
    events = run.events
    v = list(events[:prefix_len])
    e = events[event_pos]
    w = events[prefix_len:event_pos]

    vset = set(v)
    for b in blocks:
        ms = set(b.members())
        if ms & vset and not ms <= vset:
            raise ValueError("the prefix splits the block %s" % (b,))
    sat = saturate(run, blocks)
    for f in w:
        if sat.ordered(f, e):
            raise ValueError("%s is ordered before the pivot %s" % (f, e))

    forced = list(range(prefix_len)) + [event_pos]
    return bool(_proper_search(run, blocks, forced=forced, first_only=True))
