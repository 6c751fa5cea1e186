"""Happens-before orders over a run: the trace order, the block order, and
its saturation.

Three orders, coarsest to finest:

* ``mazurkiewicz_hb`` — transitive closure of all dependent pairs in run
  order; its linearizations form the plain commutation class.
* ``block_hb``        — the same, minus cross-thread dependent pairs whose
  endpoints lie in two distinct blocks of a chosen block set.
* ``saturate``        — the least fixpoint that re-adds block-level
  ordering: a same-variable ordered pair between two blocks orders the
  blocks, and ordered blocks order all their members crosswise.

Orders are built from direct edges and kept closed.  The direct edges
are one list per run position of its successor positions, ascending;
an event has at most |Σ| + 2 predecessors, so the table has O(n·|Σ|)
entries.  A closed order is one table indexed by run position:
``succ[i]`` is the bitmask of the positions ordered after position i.
Every edge of every order here points forward in run order, so the run
itself linearizes each of them and run order is a topological order of
each.  That is why ``transitive_closure`` needs no sort: one pass from
the last position to the first finds every successor row already
closed.  ``PartialOrder`` refuses an edge list or a seed mask with a
backward edge or a self loop, which also rules out every cycle; the
edges ``saturate`` adds pass the same check.

The direct edges of the two base orders are built in one pass in run
order.  The run's ``Universe`` (trace.py) numbers the annotated symbols
and lists the other-thread symbols each extended-depends on.  Each
event gets an edge from the previous event of its thread (same-thread
symbols always depend), from the last earlier occurrence of every
other-thread symbol it depends on (occurrences of one symbol share a
thread, so earlier ones are reached through the last), and from the
write it reads from; an edge that an earlier event of the same thread
already has is left out.  Block membership comes from the block set's
owner table.  The edges depend only on the run and the block set, so
``BlockSet._edges`` (blocks.py) builds them on first use and keeps
them: ``block_hb`` and ``saturate`` close that one copy, and the
atomicity checks, which need only reachability, read it without
closing it.  ``mazurkiewicz_hb`` reads the edges of an empty block set.

``saturate`` computes only the order.  Rule 2 reads each block's reach
off its write's row, since the write precedes every member, and maps
the bits that fall in other same-variable blocks to blocks through the
block set's owner table, so a round costs one step per new block pair.
Rule 3 ORs each block's new targets into its members' rows of a copy of
the closed table, and a new ``PartialOrder`` closes those rows as its
seed.  ``block_pairs`` and ``overlay`` are read off the saturated order
when first asked for.

Everything here is offline; the constant-space streaming counterpart
lives in monitor.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

from .blocks import Block, BlockSet
from .trace import Event, Run


def bits(mask: int) -> Iterator[int]:
    """Indexes of the set bits of a mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def rows_union(succ: Sequence[int], mask: int) -> int:
    """Union of the rows of the positions in ``mask``, where those rows
    are closed: a position inside a row already merged is skipped, since
    its own row lies inside that row too."""
    acc = 0
    while mask:
        low = mask & -mask
        row = succ[low.bit_length() - 1]
        acc |= row
        mask &= ~(row | low)
    return acc


def transitive_closure(edges: Sequence[Sequence[int]], seed: Sequence[int] = ()) -> list[int]:
    """Successor masks of the transitive closure of a direct-edge table
    (``edges[i]`` lists the direct successors of i) together with the
    optional ``seed`` masks of further successors, where every edge
    points forward (j > i).  One pass in reverse run order, so each
    successor's row is closed before it is merged: a seed row merges the
    rows of its positions through ``rows_union``, and a listed successor
    merges its own row and itself."""
    succ = list(seed) if seed else [0] * len(edges)
    for i in range(len(succ) - 1, -1, -1):
        acc = succ[i]
        if acc:
            acc |= rows_union(succ, acc)
        for j in edges[i]:
            acc |= succ[j] | 1 << j
        succ[i] = acc
    return succ


class PartialOrder:
    """A strict partial order over the events of one run.

    ``succ[i]`` is the mask of the positions ordered after position i of
    ``run``.  Built from a table of direct edges, each position's list
    of successor positions, and optionally from ``seed`` masks of
    further successors, which it closes.  Every edge must point forward
    in run order; a backward edge or a self loop in either table raises
    ValueError, and so does any cycle."""

    def __init__(self, run: Run, edges: Sequence[Sequence[int]], seed: Sequence[int] = ()):
        if seed and len(seed) != len(edges):
            raise ValueError("the seed table has %d rows, not %d" % (len(seed), len(edges)))
        for i, row in enumerate(edges):
            if row and min(row) <= i:
                raise ValueError("an edge from position %d does not point forward" % i)
        for i, mask in enumerate(seed):
            if mask & ((2 << i) - 1):
                raise ValueError("an edge from position %d does not point forward" % i)
        self.run = run
        self.succ: tuple[int, ...] = tuple(transitive_closure(edges, seed))

    def ordered(self, e: Event, f: Event) -> bool:
        """True iff e strictly before f."""
        return self.succ[self.run.position(e)] >> self.run.position(f) & 1 == 1

    def covering_positions(self) -> list[tuple[int, int]]:
        """Transitive reduction as position pairs, in row order: a
        successor is covering unless another successor's row holds it."""
        succ = self.succ
        out = []
        for i, m in enumerate(succ):
            m &= ~rows_union(succ, m)
            while m:
                low = m & -m
                out.append((i, low.bit_length() - 1))
                m ^= low
        return out

    def covering_pairs(self) -> list[tuple[Event, Event]]:
        """Transitive reduction, for edge-list display."""
        ev = self.run.events
        return [(ev[i], ev[j]) for i, j in self.covering_positions()]

    def __len__(self):
        return len(self.succ)


def mazurkiewicz_hb(run: Run) -> PartialOrder:
    """Happens-before of the plain commutation equivalence: the transitive
    closure of all dependent pairs in run order."""
    return PartialOrder(run, BlockSet(run, ())._edges)


def block_hb(run: Run, blocks: BlockSet) -> PartialOrder:
    """Block happens-before: dependent pairs in run order, except that a
    cross-thread pair whose two events lie in two distinct blocks is
    dropped.  With no blocks this equals mazurkiewicz_hb."""
    return PartialOrder(run, blocks._edges)


@dataclass(frozen=True)
class SaturationResult:
    """Fixpoint of the saturation rules.

    ``order`` is the saturated event order, one successor mask per run
    position; ``blocks.run`` linearizes it.  ``block_pairs``, the block pairs
    it orders as index pairs into ``blocks.blocks``, and ``overlay``, the
    same set as ``Block`` pairs, are read off the order on first use."""

    blocks: BlockSet
    order: PartialOrder

    @cached_property
    def block_pairs(self) -> frozenset[tuple[int, int]]:
        """(a, b) iff a != b, the blocks share a variable and a's write
        is ordered before a member of b; one ``owner`` step per pair."""
        bs, succ, vid = self.blocks, self.order.succ, self.blocks.run.vid
        masks, owner = bs.masks, bs.owner
        pairs = []
        for a, (w, mask) in enumerate(zip(bs.writes, masks)):
            reach = succ[w] & bs.by_variable[vid[w]] & ~mask
            while reach:
                b = owner[(reach & -reach).bit_length() - 1]
                pairs.append((a, b))
                reach &= ~masks[b]
        return frozenset(pairs)

    @cached_property
    def overlay(self) -> frozenset[tuple[Block, Block]]:
        bl = self.blocks.blocks
        return frozenset((bl[a], bl[b]) for a, b in self.block_pairs)

    def ordered(self, e: Event, f: Event) -> bool:
        return self.order.ordered(e, f)


def saturate(run: Run, blocks: BlockSet) -> SaturationResult:
    """Least fixpoint of:

    1. every block-happens-before pair is in the result;
    2. a same-variable result pair between members of two distinct blocks
       orders those blocks;
    3. an ordered block pair orders every member of the first block before
       every member of the second;

    closed under transitivity.  Rule 2 is restricted to events that are
    block members (events outside every block never order blocks).  All
    members of a block access its variable, and the block's write
    precedes its reads, so block a reaches block b exactly when the
    write's row meets b's member mask.  ``rivals[a]`` holds the members
    of the same-variable blocks that a is not yet ordered before; the
    bits of the write's row inside it name the new pairs through
    ``owner``.  Rule 3 ORs a's new targets into its members' rows of a
    copy, which ``PartialOrder`` closes for the next round.

    Every added edge points forward.  Candidate blocks on one variable
    never interleave (blocks.py, fact 2), and every edge of the closed
    order points forward, so a member of b that a's write reaches lies
    after that write, and b's window (write to last member) lies wholly
    after a's: every rule-2 target follows a's last member.  Were that
    ever false, ``PartialOrder`` would raise ValueError on the backward
    edge instead of returning a table that is not a partial order."""
    order = PartialOrder(run, blocks._edges)
    unlisted = ((),) * len(run)  # later rounds close seed rows only
    writes, readers, owner = blocks.writes, run.readers, blocks.owner
    rivals = [blocks.by_variable[run.vid[w]] & ~mask for w, mask in zip(writes, blocks.masks)]
    clear = [~mask for mask in blocks.masks]
    while True:
        succ = list(order.succ)
        grew = False
        for a, w in enumerate(writes):
            rest = rivals[a]
            fresh = succ[w] & rest
            if not fresh:
                continue
            while fresh:
                b = owner[(fresh & -fresh).bit_length() - 1]
                rest &= clear[b]
                fresh &= rest
            targets = rivals[a] ^ rest
            rivals[a] = rest
            grew = True
            succ[w] |= targets
            for i in readers[w]:
                succ[i] |= targets
        if not grew:
            return SaturationResult(blocks, order)
        order = PartialOrder(run, unlisted, succ)
