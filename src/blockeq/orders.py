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

Every order is one table indexed by run position: ``succ[i]`` is the
bitmask of the positions ordered after position i.  Every edge of every
order here points forward in run order, so the run itself linearizes
each of them and run order is a topological order of each.  That is why
``transitive_closure`` needs no sort: one pass from the last position
to the first finds every successor row already closed.  ``PartialOrder``
refuses a table with a backward edge or a self loop, which also rules
out every cycle; ``saturate`` checks the edges it adds and reports a
backward one through ``cyclic`` instead.

The direct edges of the two base orders take O(n·|Σ|) to build.  The
annotated symbols of the run are numbered once, with one mask per
symbol of the other-thread symbols it extended-depends on.  Each event
gets an edge from the previous event of its thread (same-thread symbols
always depend), from the last earlier occurrence of every other-thread
symbol it depends on (occurrences of one symbol share a thread, so
earlier ones are reached through the last), and from the write it reads
from.  Block membership comes from the block set's position masks.
Consumers that need only reachability, such as the atomicity checks,
use the direct edges and never close them.

``saturate`` keeps the closed table between rounds.  Rule 2 reads each
block's reach off its write's row, since the write precedes every
member, and maps the bits that fall in other same-variable blocks to
blocks through an owner table, so a round costs one step per new block
pair.  Rule 3 ORs each block's new targets into its members' rows, and
the table is closed again.  The block pairs are kept as index pairs and
turned into ``Block`` pairs only when ``overlay`` is first read.

Everything here is offline; the constant-space streaming counterpart
lives in monitor.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from heapq import heappop, heappush
from typing import Iterator, Optional, Sequence

from .blocks import Block, BlockSet, blocks_in_run_order_disjoint
from .trace import AnnLabel, Event, Run, extended_dep


def bits(mask: int) -> Iterator[int]:
    """Indexes of the set bits of a mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def topological_order(edges: Sequence[int]) -> Optional[list[int]]:
    """Kahn order of a direct-edge table (``edges[i]`` is the mask of the
    direct successors of i), lowest ready index first; None on a cycle.
    For graphs whose edges may point backward, such as block graphs;
    orders over a run are already sorted by run order."""
    indeg = [0] * len(edges)
    for mask in edges:
        while mask:
            low = mask & -mask
            indeg[low.bit_length() - 1] += 1
            mask ^= low
    ready = [i for i, d in enumerate(indeg) if d == 0]
    order = []
    while ready:
        i = heappop(ready)
        order.append(i)
        mask = edges[i]
        while mask:
            low = mask & -mask
            j = low.bit_length() - 1
            indeg[j] -= 1
            if indeg[j] == 0:
                heappush(ready, j)
            mask ^= low
    return order if len(order) == len(edges) else None


def transitive_closure(edges: Sequence[int]) -> list[int]:
    """Successor masks of the transitive closure of a direct-edge table
    whose edges all point forward (every bit j of ``edges[i]`` has
    j > i), in one pass in reverse run order: each successor's row is
    closed before it is merged.  A successor already reached through an
    earlier one is skipped, since its own row is already merged."""
    succ = list(edges)
    for i in range(len(succ) - 1, -1, -1):
        acc = todo = succ[i]
        while todo:
            low = todo & -todo
            row = succ[low.bit_length() - 1]
            acc |= row
            todo &= ~(row | low)
        succ[i] = acc
    return succ


class PartialOrder:
    """A strict partial order over the events of one run.

    ``succ[i]`` is the mask of the positions of ``universe`` ordered after
    ``universe[i]``.  Built from a table of direct edges, which it closes.
    Every edge must point forward in ``universe`` order; a backward edge
    or a self loop raises ValueError, and so does any cycle."""

    def __init__(self, universe: Sequence[Event], edges: Sequence[int]):
        self.universe: tuple[Event, ...] = tuple(universe)
        for i, mask in enumerate(edges):
            if mask & ((2 << i) - 1):
                raise ValueError("an edge from position %d does not point forward" % i)
        self.succ: tuple[int, ...] = tuple(transitive_closure(edges))

    @cached_property
    def _index(self) -> dict[Event, int]:
        return {e: i for i, e in enumerate(self.universe)}

    def ordered(self, e: Event, f: Event) -> bool:
        """True iff e strictly before f."""
        return self.succ[self._index[e]] >> self._index[f] & 1 == 1

    def leq(self, e: Event, f: Event) -> bool:
        return e == f or self.ordered(e, f)

    def successors(self, e: Event) -> frozenset[Event]:
        return frozenset(self.universe[j] for j in bits(self.succ[self._index[e]]))

    def pairs(self) -> frozenset[tuple[Event, Event]]:
        return frozenset(
            (e, self.universe[j]) for e, m in zip(self.universe, self.succ) for j in bits(m)
        )

    def covering_pairs(self) -> list[tuple[Event, Event]]:
        """Transitive reduction, for edge-list display: a successor is
        covering unless another successor's row holds it."""
        out = []
        for e, m in zip(self.universe, self.succ):
            below = 0
            todo = m
            while todo:
                low = todo & -todo
                row = self.succ[low.bit_length() - 1]
                below |= row
                todo &= ~(row | low)
            out.extend((e, self.universe[j]) for j in bits(m & ~below))
        return out

    def is_linearized_by(self, seq: Sequence[Event]) -> bool:
        if len(seq) != len(self.universe) or set(seq) != set(self.universe):
            return False
        later = 0
        for e in reversed(seq):
            i = self._index[e]
            if self.succ[i] & ~later:
                return False
            later |= 1 << i
        return True

    def __len__(self):
        return len(self.universe)

    def __eq__(self, other):
        return (
            isinstance(other, PartialOrder)
            and self.universe == other.universe
            and self.succ == other.succ
        )

    def __hash__(self):
        return hash((self.universe, self.succ))


def _direct_edges(run: Run, blocks: BlockSet) -> list[int]:
    """Direct edges of the block order: from the previous event of the
    same thread, from the last earlier occurrence of each other-thread
    symbol that the event extended-depends on, and from the write it
    reads from (which covers the pairs inside one block).  Same-thread
    symbols always depend, and every earlier event of the thread is
    reached through the previous one.  Symbols are numbered in order of
    first occurrence; ``cross[k]`` is the mask of the other-thread
    symbols that symbol k extended-depends on."""
    marked = bytearray(len(run))
    for mask in blocks.masks:
        for i in bits(mask):
            marked[i] = 1
    ids: dict[AnnLabel, int] = {}
    code = [ids.setdefault((lab, m == 1), len(ids)) for lab, m in zip(run.labels, marked)]
    cross = [
        sum(1 << k for k, t in enumerate(ids) if s[0].thread != t[0].thread and extended_dep(s, t))
        for s in ids
    ]
    last = [0] * len(ids)
    seen = 0
    prev: dict[str, int] = {}
    edges = [0] * len(run)
    rf = run.rf_pos
    for j, (k, lab) in enumerate(zip(code, run.labels)):
        bit = 1 << j
        hit = cross[k] & seen
        while hit:
            low = hit & -hit
            edges[last[low.bit_length() - 1]] |= bit
            hit ^= low
        if lab.thread in prev:
            edges[prev[lab.thread]] |= bit
        if j in rf:
            edges[rf[j]] |= bit
        prev[lab.thread] = last[k] = j
        seen |= 1 << k
    return edges


def mazurkiewicz_hb(run: Run) -> PartialOrder:
    """Happens-before of the plain commutation equivalence: the transitive
    closure of all dependent pairs in run order."""
    return PartialOrder(run.events, _direct_edges(run, BlockSet(run, ())))


def block_hb(run: Run, blocks: BlockSet) -> PartialOrder:
    """Block happens-before: dependent pairs in run order, except that a
    cross-thread pair whose two events lie in two distinct blocks is
    dropped.  With no blocks this equals mazurkiewicz_hb."""
    return PartialOrder(run.events, _direct_edges(run, blocks))


@dataclass(frozen=True)
class SaturationResult:
    """Fixpoint of the saturation rules.

    ``order`` is the saturated event order, one successor mask per run
    position.  ``block_pairs`` holds the block pairs the fixpoint
    ordered, as index pairs into ``blocks.blocks``; ``overlay`` is the
    same set as ``Block`` pairs, built on first read.  Saturation only
    adds edges that point forward in run order, so the run itself
    linearizes the result.  On valid block sets that always holds,
    because same-variable blocks never interleave; it is checked anyway.
    A backward edge stops the fixpoint and sets ``cyclic``; then
    ``order`` is the last stage before that edge, not the saturation."""

    run: Run
    blocks: BlockSet
    order: PartialOrder
    block_pairs: frozenset[tuple[int, int]]
    cyclic: bool

    @cached_property
    def overlay(self) -> frozenset[tuple[Block, Block]]:
        bl = self.blocks.blocks
        return frozenset((bl[a], bl[b]) for a, b in self.block_pairs)

    def ordered(self, e: Event, f: Event) -> bool:
        return self.order.ordered(e, f)

    def leq(self, e: Event, f: Event) -> bool:
        return self.order.leq(e, f)


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
    ``owner``.  Rule 3 ORs the new targets into the rows of a's members,
    and the table is closed again for the next round."""
    succ = transitive_closure(_direct_edges(run, blocks))
    masks = blocks.masks
    owner = [0] * len(run)
    by_var: dict[str, int] = {}
    for a, (b, mask) in enumerate(zip(blocks.blocks, masks)):
        for i in bits(mask):
            owner[i] = a
        by_var[b.variable] = by_var.get(b.variable, 0) | mask
    rivals = [by_var[b.variable] & ~mask for b, mask in zip(blocks.blocks, masks)]
    write = [(mask & -mask).bit_length() - 1 for mask in masks]
    clear = [~mask for mask in masks]
    pairs: list[tuple[int, int]] = []
    cyclic = False
    while True:
        grown = []
        for a, mask in enumerate(masks):
            rest = rivals[a]
            fresh = succ[write[a]] & rest
            if not fresh:
                continue
            while fresh:
                b = owner[(fresh & -fresh).bit_length() - 1]
                pairs.append((a, b))
                rest &= clear[b]
                fresh &= rest
            targets = rivals[a] ^ rest
            rivals[a] = rest
            grown.append((mask, targets))
            # the earliest new target must come after a's last member
            cyclic = cyclic or (targets & -targets) < 1 << (mask.bit_length() - 1)
        if not grown or cyclic:
            break
        for mask, targets in grown:
            for i in bits(mask):
                succ[i] |= targets
        succ = transitive_closure(succ)
    return SaturationResult(run, blocks, PartialOrder(run.events, succ), frozenset(pairs), cyclic)


def ann_label(blocks: BlockSet, e: Event) -> AnnLabel:
    """The annotated-alphabet symbol of an event: label plus membership bit."""
    return (e.label, blocks.is_member(e))


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
    after = sat.order.succ[run.position(e)] | 1 << run.position(e)
    return frozenset(ann_label(blocks, run.events[j]) for j in bits(after))


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
    if set(candidate.events) != set(base.events) or len(candidate) != len(base):
        raise ValueError("candidate is not a permutation of the base run's events")
    if order is None:
        order = block_hb(base, blocks)
    return order.is_linearized_by(candidate.events) and blocks_in_run_order_disjoint(
        candidate, blocks
    )
