"""Brute-force ground truth for the streaming components.

The class enumerations are order-free and bounded: they never consult
the offline orders, and their length caps keep them at desk scale, so
they certify the incremental algorithms by an independent route.
``proper_topological_sort`` is not order-free: it emits one proper
linearization along ``saturate``, with no bound.

Every class is listed by one frontier routine, ``_frontier_words``: a
search whose state summarizes a placed prefix, memoised on that state
and meeting in the middle, so that words through one state share its
completions.  The commutation class's state is the set of placed
positions, a union of thread prefixes; an event is ready once every
earlier conflicting event is placed.  The reads-from class's state adds
each variable's last placed write, the frontier of Mathur, Pavlogiannis
and Viswanathan (LICS 2020).  The block class is a union of commutation
classes, since both of its swaps keep each thread's order: only the
block-swap scan runs per word, and a swapped word not yet seen brings
in its whole commutation class.  ``rf_unordered`` decides one pair's
order under reads-from equivalence by the same states, remembering the
failing ones, with no length cap.

Class members are *position words*: ``bytes`` whose k-th byte is the
run position of the k-th event, so extending a word is a byte splice
and a visited check hashes one ``bytes``.  Label tuples are built only
when ``EquivClass.members`` is read.  One byte per position caps every
enumeration at 255 events.
"""

from __future__ import annotations

import re
from functools import cached_property
from itertools import chain
from typing import Callable, Hashable, Iterable, Iterator, Optional

from .blocks import BlockSet
from .orders import bits, rows_union, saturate
from .trace import Event, Label, Run, conflicting

SWAP_BOUND = 12  # commutation and block classes
RF_BOUND = 22    # reads-from classes
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


# ---- frontier enumeration -------------------------------------------------

_BYTE = [bytes((p,)) for p in range(WORD_LIMIT)]  # the one-byte word of each position

# A search's moves: from a state, each position that may come next and
# the state that placing it leads to.
Moves = Callable[[Hashable], list[tuple[int, Hashable]]]


def _frontier_words(n: int, start: Hashable, moves: Moves) -> Iterator[bytes]:
    """Every word of n positions that ``moves`` admits from ``start``,
    each once, as the concatenations of a prefix with a completion.

    The search meets in the middle: the prefixes of length n // 2 are
    grouped by the state they reach, and each state from there on lists
    its completions once, deepest states first, by prefixing its moves
    to the completions of the states they lead to.  A word is then one
    prefix of a middle state followed by one completion of that state.
    Words that reach one state share its completions, which is the whole
    gain over a word-by-word search.  A word fixes the state its prefix
    reaches, so no word is listed twice.  Each middle state's lists are
    freed as its words are handed out."""
    half = n // 2
    heads: dict[Hashable, list[bytes]] = {start: [b""]}
    for _ in range(half):
        nxt: dict[Hashable, list[bytes]] = {}
        for s, words in heads.items():
            for p, t in moves(s):
                step = _BYTE[p]
                nxt.setdefault(t, []).extend([w + step for w in words])
        heads = nxt
    layers = []  # per depth from the middle on, each state's moves
    frontier = heads.keys()
    for _ in range(half, n):
        layer = {s: moves(s) for s in frontier}
        layers.append(layer)
        frontier = {t for ms in layer.values() for _, t in ms}
    tails = dict.fromkeys(frontier, [b""])  # every event placed
    while layers:
        tails = {s: [_BYTE[p] + r for p, t in ms for r in tails[t]]
                 for s, ms in layers.pop().items()}

    def joined():
        while heads:
            s, words = heads.popitem()
            ends = tails.pop(s)
            for w in words if ends else ():
                yield map(w.__add__, ends)

    return chain.from_iterable(joined())


def _commutation(run: Run) -> Callable[[bytes], Iterator[bytes]]:
    """The words of the commutation class of a word, for permutations of
    the run's positions that keep each thread's order.  A state is the
    mask of the placed positions, a union of thread prefixes, so it
    stands for each thread's count of placed events.  An event may come
    next once every event before it in the word that conflicts with it
    is placed."""
    code = run.code
    reps = dict(zip(code, run.labels))
    dep = {k: sum(1 << k2 for k2, l2 in reps.items() if conflicting(lab, l2))
           for k, lab in reps.items()}  # bit k2 of dep[k]: codes k and k2 conflict
    threads = [sum(1 << p for p in seq) for seq in run.by_thread]  # each thread's positions

    def words(word: bytes) -> Iterator[bytes]:
        need = [0] * len(word)  # the positions that must be placed before each one
        for a, p in enumerate(word):
            row = dep[code[p]]
            need[p] = sum(1 << q for q in word[:a] if row >> code[q] & 1)

        def moves(s: int) -> list[tuple[int, int]]:
            out = []
            for t in threads:
                rest = t & ~s
                if rest:
                    low = rest & -rest  # the thread's next event
                    p = low.bit_length() - 1
                    if not need[p] & ~s:
                        out.append((p, s | low))
            return out

        return _frontier_words(len(word), 0, moves)

    return words


def enum_maz_class(run: Run, bound: Optional[int] = None) -> EquivClass:
    """Closure under adjacent swaps of independent events: the
    interleavings of the threads that keep every conflicting pair in
    run order."""
    _check_bound(run, bound, SWAP_BOUND, "swap-class")
    return EquivClass("maz", run, _commutation(run)(bytes(range(len(run)))))


def _block_swaps(run: Run, blocks: BlockSet) -> Optional[Callable[[bytes], list[bytes]]]:
    """The words one swap of two adjacent, contiguous, thread-disjoint
    blocks makes of a word; None when no two blocks are thread-disjoint.
    A word's positions are translated to their block index + 1 (0
    unblocked), in which a contiguous block is its index repeated as
    often as it has members, so one search for every thread-disjoint
    pair of such runs, overlaps included, finds each swap."""
    table = bytes(b + 1 for b in blocks.owner).ljust(256, b"\0")
    runs = [(bytes((k + 1,)) * m.bit_count(), sum({1 << run.tid[p] for p in bits(m)}))
            for k, m in enumerate(blocks.masks)]  # each block's contiguous run, thread mask
    split = {a + b: len(a) for a, ta in runs for b, tb in runs if not ta & tb}
    if not split:
        return None
    pairs = re.compile(b"(?=(%s))" % b"|".join(map(re.escape, split)))

    def swaps(w: bytes) -> list[bytes]:
        out = []
        for m in pairs.finditer(w.translate(table)):
            f1, l2 = m.span(1)
            l1 = f1 + split[m[1]]
            out.append(w[:f1] + w[l1:l2] + w[f1:l1] + w[l2:])
        return out

    return swaps


def enum_block_class(run: Run, blocks: BlockSet, bound: Optional[int] = None) -> EquivClass:
    """Closure under adjacent independent event swaps plus swaps of two
    adjacent, contiguous, thread-disjoint blocks.  Both swaps keep each
    thread's order, so the class is a union of commutation classes: each
    word is scanned for block swaps, and a swapped word not yet seen
    brings in its whole commutation class."""
    _check_bound(run, bound, SWAP_BOUND, "swap-class")
    maz = _commutation(run)
    seen = set(maz(bytes(range(len(run)))))
    swaps = _block_swaps(run, blocks)
    if swaps is not None:
        todo = [list(seen)]
        while todo:
            for w in todo.pop():
                for v in swaps(w):
                    if v not in seen:
                        cls = list(maz(v))
                        seen.update(cls)
                        todo.append(cls)
    return EquivClass("blocks", run, seen)


def _rf_moves(run: Run) -> tuple[tuple, Moves]:
    """The start state and moves of the reads-from search.  A state is
    each thread's count of placed events followed by each variable's
    last placed write (-1 before any), and a read may come next only
    when its variable's last write is the one it reads from."""
    seqs, var = run.by_thread, run.vid
    nt = len(seqs)
    writer = [run.rf_pos.get(p, -1) for p in range(len(run))]  # -1: a write

    def moves(s: tuple) -> list[tuple[int, tuple]]:
        out = []
        for k, seq in enumerate(seqs):
            i = s[k]
            if i < len(seq):
                p = seq[i]
                x = nt + var[p]
                w = writer[p]
                if w < 0:
                    out.append((p, s[:k] + (i + 1,) + s[k + 1:x] + (p,) + s[x + 1:]))
                elif s[x] == w:
                    out.append((p, s[:k] + (i + 1,) + s[k + 1:]))
        return out

    return (0,) * nt + (-1,) * len(run.variables), moves


def rf_class_words(run: Run, bound: Optional[int] = None) -> Iterator[bytes]:
    """Position words of all interleavings that preserve each thread's
    order and give every read the same writer it has in the original
    run, each once.  Reads are checked as they are placed, so every
    completed word is a member outright."""
    _check_bound(run, bound, RF_BOUND, "reads-from class")
    return _frontier_words(len(run), *_rf_moves(run))


def enum_rf_class(run: Run, bound: Optional[int] = None) -> EquivClass:
    """The reads-from class: every word of ``rf_class_words``."""
    return EquivClass("rf", run, rf_class_words(run, bound))


# ---- reads-from order decision ---------------------------------------------

def rf_unordered(run: Run, i: int, j: int) -> bool:
    """Do positions i and j occur in both orders among the words of the
    run's reads-from class?  The run itself has them in run order, so
    this asks for a word that inverts them: a depth-first search over
    the states of ``rf_class_words`` that never places the earlier one
    while the later one is pending, remembering every state from which
    no word completes.  The states number at most the product of the
    threads' lengths plus one and of the variables' writes plus one, so
    the search is polynomial for a fixed alphabet; it runs on an explicit
    stack, with no bound on the run's length."""
    n = len(run)
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError("positions %d and %d, but the run has %d events" % (i, j, n))
    i, j = sorted((i, j))
    tid = run.tid
    if i == j or tid[i] == tid[j]:
        return False
    start, moves = _rf_moves(run)
    tj, kj = tid[j], run.by_thread[tid[j]].index(j)  # j is placed once tj's count passes kj
    failed: set[tuple] = set()
    states, pending = [start], [iter(moves(start))]
    while pending:
        for p, t in pending[-1]:
            if p == i and t[tj] <= kj or t in failed:
                continue  # i before j, or a state known to fail
            if len(pending) == n:
                return True
            states.append(t)
            pending.append(iter(moves(t)))
            break
        else:
            pending.pop()
            failed.add(states.pop())
    return False


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
