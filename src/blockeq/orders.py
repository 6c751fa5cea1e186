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
bitmask of the positions ordered after position i.  An order is built
from a table of direct edges, and ``transitive_closure`` closes it in one
pass in reverse ``topological_order``; those two routines are the only
closure and the only topological sort in the package.  The direct edges
of the two base orders take O(n·|Σ|) to build: each event gets an edge
from the last earlier occurrence of every annotated symbol it depends on
(occurrences of one symbol share a thread, so earlier ones are reached
through the last), plus one from the write it reads from.  Every edge of
every order here points forward in run order, so the run itself always
linearizes it; ``saturate`` checks this for the edges it adds.

Everything here is offline and dense; the constant-space streaming
counterpart lives in monitor.py.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    direct successors of i), lowest ready index first; None on a cycle."""
    indeg = [0] * len(edges)
    for mask in edges:
        for j in bits(mask):
            indeg[j] += 1
    ready = [i for i, d in enumerate(indeg) if d == 0]
    order = []
    while ready:
        i = heappop(ready)
        order.append(i)
        for j in bits(edges[i]):
            indeg[j] -= 1
            if indeg[j] == 0:
                heappush(ready, j)
    return order if len(order) == len(edges) else None


def transitive_closure(edges: Sequence[int]) -> Optional[list[int]]:
    """Successor masks of the transitive closure of a direct-edge table,
    in one pass in reverse topological order; None on a cycle.  A
    successor already reached through an earlier one is skipped, since
    its own row is closed and already merged."""
    order = topological_order(edges)
    if order is None:
        return None
    succ = list(edges)
    for i in reversed(order):
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
    ``universe[i]``.  Built from a table of direct edges, which it closes;
    raises ValueError when the edges form a cycle."""

    def __init__(self, universe: Sequence[Event], edges: Sequence[int]):
        self.universe: tuple[Event, ...] = tuple(universe)
        self._index = {e: i for i, e in enumerate(self.universe)}
        succ = transitive_closure(edges)
        if succ is None:
            raise ValueError("the edges form a cycle")
        self.succ: tuple[int, ...] = tuple(succ)

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
    """Direct edges of the block order: from the last earlier occurrence
    of each annotated symbol that the event extended-depends on, and from
    the write it reads from (which covers the pairs inside one block)."""
    edges = [0] * len(run)
    last: dict[AnnLabel, int] = {}
    for j, e in enumerate(run.events):
        sym = (e.label, blocks.is_member(e))
        bit = 1 << j
        for other, i in last.items():
            if extended_dep(other, sym):
                edges[i] |= bit
        if j in run.rf_pos:
            edges[run.rf_pos[j]] |= bit
        last[sym] = j
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
    position, and ``overlay`` the block pairs the fixpoint ordered.
    Saturation only adds edges that point forward in run order, so the
    run itself linearizes the result.  On valid block sets that always
    holds, because same-variable blocks never interleave; it is checked
    anyway.  A backward edge stops the fixpoint and sets ``cyclic``; then
    ``order`` is the last stage before that edge, not the saturation."""

    run: Run
    blocks: BlockSet
    order: PartialOrder
    overlay: frozenset[tuple[Block, Block]]
    cyclic: bool

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
    members of a block access its variable, so rule 2 is one mask test
    per pair of blocks on one variable, and rule 3 adds the second
    block's member mask to the direct edges of the first block's
    members (only the bits the order does not already hold)."""
    edges = _direct_edges(run, blocks)
    bl = blocks.blocks
    pos = [[run.position(e) for e in b.members()] for b in bl]
    mask = [sum(1 << i for i in p) for p in pos]
    by_var: dict[str, list[int]] = {}
    for a, b in enumerate(bl):
        by_var.setdefault(b.variable, []).append(a)
    same_var = [(a, b) for group in by_var.values() for a in group for b in group if a != b]
    overlay: set[tuple[int, int]] = set()
    cyclic = False
    while not cyclic:
        order = PartialOrder(run.events, edges)
        reach = [0] * len(bl)
        for a, p in enumerate(pos):
            for i in p:
                reach[a] |= order.succ[i]
        new = [(a, b) for a, b in same_var if (a, b) not in overlay and reach[a] & mask[b]]
        if not new:
            break
        overlay.update(new)
        for a, b in new:
            cyclic = cyclic or max(pos[a]) > min(pos[b])
            for i in pos[a]:
                edges[i] |= mask[b] & ~order.succ[i]
    pairs = frozenset((bl[a], bl[b]) for a, b in overlay)
    return SaturationResult(run, blocks, order, pairs, cyclic)


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
