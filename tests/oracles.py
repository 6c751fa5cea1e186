"""Reference code the tests compare the library against.

Brute-force searches and order queries that no part of ``blockeq``
calls: the bitmask direct-edge builder and closure that the order
tables were once built with, the word-by-word class searches that the
frontier enumeration replaced, the proper-linearization search over
``block_hb`` and the scope
check built on it, the common order of an enumerated class and its
linear-extension count, the proper-linearization predicate, after sets
read off the saturated order, the window-disjointness check of a block
set, and reads-from equivalence of two runs.  All of them read the
library's position tables; events appear only where a caller passes
them in.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence

from blockeq.blocks import BlockSet, _position_of
from blockeq.oracle import SWAP_BOUND, EquivClass, _busy, _check_bound
from blockeq.orders import PartialOrder, SaturationResult, bits, block_hb, rows_union, saturate
from blockeq.trace import AnnLabel, Event, Label, Run, conflicting, extended_dep


# ---- the bitmask order tables -----------------------------------------------

def mask_edges(run: Run, blocks: BlockSet) -> list[int]:
    """Direct edges of the block order as each position's mask of direct
    successors: from the previous event of the thread, from the last
    earlier occurrence of every other-thread symbol the event
    extended-depends on (tested with ``extended_dep`` on the symbols
    themselves), and from the write it reads from."""
    syms = list(zip(run.labels, (b >= 0 for b in blocks.owner)))
    last: dict[AnnLabel, int] = {}  # each symbol's latest position so far
    prev: dict[str, int] = {}
    edges = [0] * len(run)
    for j, a in enumerate(syms):
        thread = a[0].thread
        for b, i in last.items():
            if b[0].thread != thread and extended_dep(a, b):
                edges[i] |= 1 << j
        if thread in prev:
            edges[prev[thread]] |= 1 << j
        if j in run.rf_pos:
            edges[run.rf_pos[j]] |= 1 << j
        prev[thread] = last[a] = j
    return edges


def mask_closure(edges: Sequence[int]) -> list[int]:
    """Successor masks of the transitive closure of forward mask edges,
    closed in reverse run order."""
    succ = list(edges)
    for i in range(len(succ) - 1, -1, -1):
        succ[i] |= rows_union(succ, succ[i])
    return succ


def transitive_reduction(succ: Sequence[int]) -> list[tuple[int, int]]:
    """The pairs (i, j) of a closed order with no k between them, in
    row order."""
    return [(i, j) for i, m in enumerate(succ) for j in bits(m)
            if not any(succ[k] >> j & 1 for k in bits(m))]


# ---- word-by-word class searches -------------------------------------------

def swap_closure_words(run: Run, blocks: Optional[BlockSet]) -> set[bytes]:
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


def rf_words_dfs(run: Run) -> Iterator[bytes]:
    """Position words of the reads-from class, one at a time, depth
    first: each thread's next event is tried in turn, and a read only
    when its variable's last placed write is the one it reads from."""
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


# ---- proper linearizations --------------------------------------------------

def _proper_search(run: Run, blocks: BlockSet, forced: Iterable[int] = (),
                   first_only: bool = False) -> list[tuple[int, ...]]:
    """Topological DFS over the block happens-before order that never
    lets two same-variable blocks overlap, as position sequences.
    ``forced`` pins the first placements (callers guarantee those
    respect the order); with ``first_only`` the search stops at the
    first completion."""
    succ = block_hb(run, blocks).succ
    vid = run.vid
    out: list[tuple[int, ...]] = []
    acc = list(forced)
    full = (1 << len(run)) - 1

    def dfs(placed: int) -> bool:
        if placed == full:
            out.append(tuple(acc))
            return first_only
        busy = _busy(blocks, placed)
        pending = full & ~placed
        for i in bits(pending & ~rows_union(succ, pending)):
            b = blocks.owner[i]
            if b >= 0 and not placed & blocks.masks[b] and busy >> vid[i] & 1:
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
    prefix = (1 << prefix_len) - 1
    for b, m in enumerate(blocks.masks):
        if m & prefix and m & ~prefix:
            raise ValueError("the prefix splits the block %s" % (blocks.blocks[b],))
    succ = saturate(run, blocks).order.succ
    for p in range(prefix_len, event_pos):
        if succ[p] >> event_pos & 1:
            raise ValueError(
                "%s is ordered before the pivot %s" % (run.event_at(p), run.event_at(event_pos))
            )

    forced = list(range(prefix_len)) + [event_pos]
    return bool(_proper_search(run, blocks, forced=forced, first_only=True))


def linearized_by(succ: Sequence[int], order: Sequence[int]) -> bool:
    """True iff listing the positions in ``order`` respects every edge
    of the successor table ``succ``."""
    later = 0
    for i in reversed(order):
        if succ[i] & ~later:
            return False
        later |= 1 << i
    return True


def is_proper_linearization(
    candidate: Run,
    base: Run,
    blocks: BlockSet,
    order: Optional[PartialOrder] = None,
) -> bool:
    """True iff candidate permutes base's events, respects the block
    happens-before of (base, blocks), and no two same-variable blocks
    occupy overlapping position windows in candidate.

    ``order`` substitutes a different order to respect (e.g. the saturated
    one); the accepted set is provably the same either way, which the
    tests check by enumeration.
    """
    if len(candidate) != len(base):
        raise ValueError("candidate is not a permutation of the base run's events")
    order_in_base = [_position_of(base, e) for e in candidate.events]
    if order is None:
        order = block_hb(base, blocks)
    return linearized_by(order.succ, order_in_base) and _windows_disjoint(blocks, order_in_base)


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
    return PartialOrder(cls.representative, [()] * n, keep)


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


def member_runs(cls: EquivClass) -> list[Run]:
    """Members as runs in label order, each event keeping the
    annotation it carries in the representative."""
    rep = cls.representative
    return [
        Run([rep.labels[p] for p in w], [rep.annotations[p] for p in w])
        for w in cls.sorted_words()
    ]


def after_set(
    run: Run,
    blocks: BlockSet,
    e: Event,
    sat: Optional[SaturationResult] = None,
) -> frozenset[AnnLabel]:
    """Annotated labels of all events at-or-after e in the saturated order.

    Bounded by the alphabet size regardless of run length, which is what
    makes the streaming monitor's state constant."""
    if sat is None:
        sat = saturate(run, blocks)
    i = run.position(e)
    after = sat.order.succ[i] | 1 << i
    return frozenset((run.labels[j], blocks.owner[j] >= 0) for j in bits(after))


# ---- block windows ----------------------------------------------------------

def blocks_in_run_order_disjoint(run: Run, block_set: BlockSet) -> bool:
    """Check that same-variable blocks occupy disjoint position windows.

    Always true for valid block sets (a read between two writes of x
    observes the later write).  ``run`` may be any permutation of the
    block set's run.
    """
    return _windows_disjoint(block_set, [_position_of(block_set.run, e) for e in run.events])


def _windows_disjoint(block_set: BlockSet, order: Iterable[int]) -> bool:
    """True iff listing the block set's run positions in ``order`` never
    interleaves two blocks on one variable, that is, iff each block
    starts exactly one streak among its variable's members."""
    last: dict[int, int] = {}  # variable -> block of its latest member
    streaks = 0
    for p in order:
        b, x = block_set.owner[p], block_set.run.vid[p]
        if b >= 0 and last.get(x) != b:
            last[x] = b
            streaks += 1
    return streaks == len(block_set)


# ---- reads-from equivalence and interleavings -------------------------------

def same_equiv_rf(run_a: Run, run_b: Run) -> bool:
    """Reads-from equivalence: equal event sets, equal program order and
    equal reads-from maps."""
    if set(run_a.events) != set(run_b.events):
        return False
    if program_order(run_a) != program_order(run_b):
        return False
    return reads_from(run_a) == reads_from(run_b)


def program_order(run: Run) -> frozenset[tuple[Event, Event]]:
    """All pairs (e, f) with e before f in the same thread."""
    ev = run.events
    return frozenset((ev[p], ev[q]) for chain in run.by_thread
                     for k, p in enumerate(chain) for q in chain[k + 1:])


def reads_from(run: Run) -> dict[Event, Event]:
    """Map from each read event to the write event it observes."""
    return {run.events[r]: run.events[w] for r, w in run.rf_pos.items()}


def interleave_threads(per_thread: dict[str, list[Label]]) -> Iterable[tuple[Label, ...]]:
    """All interleavings of the given per-thread label sequences, in a
    deterministic order."""
    threads = sorted(per_thread)
    seqs = [tuple(per_thread[t]) for t in threads]

    def rec(ptrs):
        if all(p == len(s) for p, s in zip(ptrs, seqs)):
            yield ()
            return
        for k, (p, s) in enumerate(zip(ptrs, seqs)):
            if p < len(s):
                nxt = list(ptrs)
                nxt[k] += 1
                for rest in rec(tuple(nxt)):
                    yield (s[p],) + rest

    return rec(tuple(0 for _ in seqs))
