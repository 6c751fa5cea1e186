"""Brute-force ground truth for the streaming components.

The class enumerations are order-free and bounded: they never consult
the offline orders, and their length caps keep them at desk scale, so
they certify the incremental algorithms by an independent route.
``proper_topological_sort`` is not order-free: it emits one proper
linearization along ``saturate``, with no bound.

A commutation or reads-from class is the set of paths through one
frontier search: a state summarizes a placed prefix, and a move places
one more event.  The commutation class's state is the set of placed
positions, a union of thread prefixes; an event is ready once every
earlier conflicting event is placed.  The reads-from class's state adds
each variable's last placed write, the frontier of Mathur, Pavlogiannis
and Viswanathan (LICS 2020).  A word fixes the state that each of its
prefixes reaches, so each word is exactly one path of ``len(run)``
moves, and the class's size is a path count, ``_frontier_count``, that
lists no word.  Its words are listed only on demand, by
``_frontier_words``: a search memoised on the state and meeting in the
middle, so that words through one state share its completions.
``rf_unordered`` decides one pair's order under reads-from equivalence
by the same states, with no length cap, through ``_completes``: a
depth-first path search that remembers the failing states.  The
general-mode ``stream`` strategy of ``concurrency`` runs the same
search over the mark-guessing automaton.

The block class is a union of commutation classes, since both of its
swaps keep each thread's order: one search per class it joins.  A
commutation class is named by its ``need`` table, per position the
conflicting positions placed before it.  No independent swap reorders a
conflicting pair, so every word of the class has this table, and its
closure is the class's order (events of one thread conflict).  Some
word of the class places block A, contiguous, right before a
thread-disjoint block B, contiguous, iff no member of B precedes a
member of A and no event outside A ∪ B lies between two of their
members.  Only if: that word has A before B, and an event between two
members would lie inside the pair.  If: the events D outside A ∪ B that
precede a member are closed downward, since a predecessor of one of
them precedes that member too and is not in A ∪ B, or the D event would
lie between two members; D ∪ A is closed too, as no member of B precedes
one of A.  So D, A, B and the rest, each in the order of one word of
the class, is a word of it, and each pair is decided once per class.
Swapping the pair places B before A and keeps every other pair in
order, so the swapped word's table is the class's with exactly its
conflicting A × B pairs flipped: the swapped class is the same whichever
word of the class witnessed the pair.

Class members are *position words*: ``bytes`` whose k-th byte is the
run position of the k-th event, so extending a word is a byte splice
and a visited check hashes one ``bytes``.  Label tuples are built only
when ``EquivClass.members`` is read.  One byte per position caps every
enumeration at 255 events.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain
from typing import Callable, Hashable, Iterable, Iterator, Optional, Sequence

from .atomicity import is_liberally_atomic
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
    """An equivalence class of a representative run, held as disjoint
    frontier searches ``(start, moves)``: a member is a path of
    ``len(representative)`` moves from one search's start.  A commutation
    or reads-from class is one search, a block class one per commutation
    class it joins.  ``len()`` is the path count, made when the class is
    built; ``words``, the members as position words, lists the paths on
    first read; ``in`` walks one word through the moves.  Same-label
    events never reorder (they share a thread), so each member is equally
    determined by its label sequence; ``members``, the set of those label
    sequences, is built on first access."""

    def __init__(self, relation: str, representative: Run, searches: Iterable[tuple[Hashable, Moves]]):
        assert relation in ("maz", "blocks", "rf")
        self.relation = relation
        self.representative = representative
        self._searches = list(searches)
        n = len(representative)
        assert _admits(*self._searches[0], range(n)), "the first search must hold the representative"
        self._count = sum(_frontier_count(n, *s) for s in self._searches)

    @cached_property
    def words(self) -> frozenset[bytes]:
        n = len(self.representative)
        return frozenset(chain.from_iterable(_frontier_words(n, *s) for s in self._searches))

    @cached_property
    def members(self) -> frozenset[tuple[Label, ...]]:
        at = self.representative.labels.__getitem__
        return frozenset(tuple(map(at, w)) for w in self.words)

    def __len__(self):
        return self._count

    def __contains__(self, item) -> bool:
        labels = item.labels if isinstance(item, Run) else item
        rep = self.representative
        if len(labels) != len(rep):
            return False  # a path of moves may stop early
        slots = [list(reversed(s)) for s in rep.by_code]  # each code's positions, last first
        try:
            word = [slots[rep.universe.code(lab)].pop() for lab in labels]
        except IndexError:
            return False  # a label the representative lacks, or too many of one
        return any(_admits(start, moves, word) for start, moves in self._searches)

    def sorted_words(self) -> list[bytes]:
        """The words in the order of their label sequences."""
        codes = self.representative.code
        rank = {k: r for r, k in enumerate(sorted(set(codes)))}
        table = bytes(rank[k] for k in codes).ljust(256, b"\0")
        return sorted(self.words, key=lambda w: w.translate(table))

    def __repr__(self):
        return "EquivClass(%s, %d members)" % (self.relation, len(self))


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


def _frontier_count(n: int, start: Hashable, moves: Moves) -> int:
    """The number of words of n positions that ``moves`` admits from
    ``start``, listing none: forward layers map each state to the number
    of prefixes that reach it.  A word fixes the state each of its
    prefixes reaches, so each word is one path, counted once."""
    layer = {start: 1}
    for _ in range(n):
        nxt: dict[Hashable, int] = {}
        for s, k in layer.items():
            for _, t in moves(s):
                nxt[t] = nxt.get(t, 0) + k
        layer = nxt
    return sum(layer.values())


def _admits(start: Hashable, moves: Moves, word: Iterable[int]) -> bool:
    """Is ``word`` a path of moves from ``start``?"""
    s = start
    for p in word:
        s = dict(moves(s)).get(p)
        if s is None:
            return False
    return True


def _commutation(run: Run) -> tuple[Callable[[bytes], tuple[int, ...]], Callable[[Sequence[int]], Moves]]:
    """For permutations of the run's positions that keep each thread's
    order: the ``need`` table of a word, each position's mask of the
    conflicting positions before it, and the moves, from the empty state
    0, of the commutation class with a given table.  A state is the mask
    of the placed positions, a union of thread prefixes, so it stands for
    each thread's count of placed events.  An event may come next once
    its ``need`` is placed."""
    code = run.code
    reps = dict(zip(code, run.labels))
    at = dict.fromkeys(reps, 0)  # each code's positions
    for p, k in enumerate(code):
        at[k] |= 1 << p
    rows = {k: sum(m for k2, m in at.items() if conflicting(lab, reps[k2])) for k, lab in reps.items()}
    conflicts = [rows[k] for k in code]  # the positions each one conflicts with
    threads = [sum(1 << p for p in seq) for seq in run.by_thread]  # each thread's positions

    def need_of(word: bytes) -> tuple[int, ...]:
        need, placed = [0] * len(word), 0
        for p in word:
            need[p] = conflicts[p] & placed
            placed |= 1 << p
        return tuple(need)

    def moves_of(need: Sequence[int]) -> Moves:
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

        return moves

    return need_of, moves_of


def enum_maz_class(run: Run, bound: Optional[int] = None) -> EquivClass:
    """Closure under adjacent swaps of independent events: the
    interleavings of the threads that keep every conflicting pair in
    run order."""
    _check_bound(run, bound, SWAP_BOUND, "swap-class")
    need_of, moves_of = _commutation(run)
    return EquivClass("maz", run, [(0, moves_of(need_of(bytes(range(len(run))))))])


def enum_block_class(run: Run, blocks: BlockSet, bound: Optional[int] = None) -> EquivClass:
    """Closure under adjacent independent event swaps plus swaps of two
    adjacent, contiguous, thread-disjoint blocks: the commutation classes
    that block swaps reach from the run's, each reached by one word and
    named by its ``need`` table.  Per class, each thread-disjoint pair
    (A, B) that some word places contiguously as A then B brings in the
    class of the word placing A ∪ B's predecessors, B, A, then the rest
    (module docstring)."""
    _check_bound(run, bound, SWAP_BOUND, "swap-class")
    need_of, moves_of = _commutation(run)
    tids = [sum({1 << run.tid[p] for p in bits(m)}) for m in blocks.masks]  # each block's threads
    pairs = [(a, b) for a, ta in zip(blocks.masks, tids)
             for b, tb in zip(blocks.masks, tids) if not ta & tb]
    word = bytes(range(len(run)))
    found = {need_of(word): word}  # each class's table and the word that reached it
    todo = list(found.items()) if pairs else []
    while todo:
        need, word = todo.pop()
        down = [0] * len(word)  # each position's predecessors in the class's order
        for p in word:
            down[p] = need[p] | rows_union(down, need[p])
        for a, b in pairs:
            u = a | b
            pre = rows_union(down, u) & ~u
            if rows_union(down, a) & b or rows_union(down, pre) & u:
                continue  # B precedes A somewhere, or an event lies between two members
            swapped = bytes(p for part in (pre, b, a, ~(pre | u)) for p in word if part >> p & 1)
            key = need_of(swapped)
            if key not in found:
                found[key] = swapped
                todo.append((key, swapped))
    return EquivClass("blocks", run, [(0, moves_of(need)) for need in found])


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
    """The reads-from class: the words of ``rf_class_words``, counted
    by ``len()`` and listed on first use."""
    _check_bound(run, bound, RF_BOUND, "reads-from class")
    return EquivClass("rf", run, [_rf_moves(run)])


# ---- reads-from order decision ---------------------------------------------

def _completes(n: int, start: Hashable, moves: Callable[[Hashable], Iterable[Hashable]]) -> bool:
    """Is there a path of n >= 1 moves from ``start``?  A depth-first
    search on an explicit stack that stops at the first path found and
    remembers every state from which none completes, so that each state
    is expanded at most once.  The memo is sound because every state
    fixes the number of moves that reach it."""
    failed: set[Hashable] = set()
    states, pending = [start], [iter(moves(start))]
    while pending:
        for t in pending[-1]:
            if t in failed:
                continue
            if len(pending) == n:
                return True
            states.append(t)
            pending.append(iter(moves(t)))
            break
        else:
            pending.pop()
            failed.add(states.pop())
    return False


def rf_unordered(run: Run, i: int, j: int) -> bool:
    """Do positions i and j occur in both orders among the words of the
    run's reads-from class?  The run itself has them in run order, so
    this asks for a word that inverts them: a ``_completes`` search over
    the states of ``rf_class_words`` whose moves never place the earlier
    one while the later one is pending.  The states number at most the
    product of the threads' lengths plus one and of the variables'
    writes plus one, so the search is polynomial for a fixed alphabet,
    with no bound on the run's length."""
    n = len(run)
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError("positions %d and %d, but the run has %d events" % (i, j, n))
    i, j = sorted((i, j))
    tid = run.tid
    if i == j or tid[i] == tid[j]:
        return False
    start, moves = _rf_moves(run)
    tj, kj = tid[j], run.by_thread[tid[j]].index(j)  # j is placed once tj's count passes kj
    return _completes(n, start, lambda s: (t for p, t in moves(s) if p != i or t[tj] > kj))


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
    output is a proper linearization whatever the tie-break.  Blocks
    that are not liberally atomic raise ValueError up front: the sort
    seldom gets stuck on them, but what it emits may lie outside the
    block class.  A stuck state is reported as well, as it would
    witness a bug."""
    if not is_liberally_atomic(run, blocks):
        raise ValueError("blocks are not liberally atomic; no proper topological sort exists")
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
            raise ValueError("proper topological sort is stuck after %d events" % len(picked))
        i = min(eligible, key=key)
        pending &= ~(1 << i)
        picked.append(i)
    return Run([run.labels[i] for i in picked], [run.annotations[i] for i in picked])
