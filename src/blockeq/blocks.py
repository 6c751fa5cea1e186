"""Blocks: a write grouped with the reads that observe it.

A block of a run is a maximal-or-smaller group {w, r1, ..., rk} where w is
a write event and every ri is a read event observing w.  A block set is any
pairwise-disjoint collection of blocks; a run together with a chosen block
set is an *annotated* run, encoded positionally by marking exactly the
member events.

Two structural facts this module relies on (both checked by the tests):

* the candidate block of a write is w plus *all* its readers, so valid
  block sets correspond exactly to subsets of the writes;
* in the run order, the members of a block on variable x are never
  interleaved with members of a different block on x, because any read
  lying between two writes of x observes the later one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from heapq import heappop, heappush
from typing import Iterable, Optional, Sequence

from .trace import Event, Run, TraceError


@dataclass(frozen=True)
class Block:
    """One write event together with every read observing it."""

    write: Event
    reads: tuple[Event, ...]  # in run order

    def members(self) -> tuple[Event, ...]:
        return (self.write,) + self.reads

    def __str__(self):
        return "{" + ", ".join(str(e) for e in self.members()) + "}"


class BlockSet:
    """A pairwise-disjoint set of blocks over one run, given by the
    positions of their writes; each block is the candidate block of its
    write (see above).  ``writes`` are those positions, ascending,
    ``masks`` the blocks' member masks, ``owner`` the block index of each
    position (-1 when unblocked) and ``by_variable`` the members on each
    variable of the run.  ``Block`` objects are built when ``blocks`` is
    read, and the block order's direct edges (``_edges``) and the block
    graph's Kahn order (``_serial``) on first use.  A position that is
    not a write of the run, or that is given twice, raises ValueError."""

    def __init__(self, run: Run, writes: Iterable[int]):
        self.run = run
        self.writes: tuple[int, ...] = tuple(sorted(writes))
        owner = [-1] * len(run)
        masks, by_variable = [], [0] * len(run.variables)
        for b, w in enumerate(self.writes):
            if not (0 <= w < len(run) and run.is_write[w]):
                raise ValueError("position %r is not a write of the run" % (w,))
            if owner[w] >= 0:
                raise ValueError("write %s is given twice" % (run.event_at(w),))
            members = (w,) + run.readers[w]
            for i in members:
                owner[i] = b
            masks.append(sum(1 << i for i in members))
            by_variable[run.vid[w]] |= masks[-1]
        self.owner: tuple[int, ...] = tuple(owner)
        self.masks: tuple[int, ...] = tuple(masks)
        self.by_variable: tuple[int, ...] = tuple(by_variable)

    @cached_property
    def blocks(self) -> tuple[Block, ...]:
        ev = self.run.events
        return tuple(Block(ev[w], tuple(ev[r] for r in self.run.readers[w])) for w in self.writes)

    @cached_property
    def _edges(self) -> tuple[tuple[int, ...], ...]:
        """Direct edges that generate the block order, as each position's
        successor positions, ascending and without repeats.  An event
        gets an edge from the previous event of its thread, from the last
        earlier occurrence of each other-thread symbol that it
        extended-depends on, and from the write it reads from (which
        covers the pairs inside one block).  Same-thread symbols always
        depend, and every earlier event of the thread is reached through
        the previous one.  An edge is left out when an earlier event of
        the same thread already has one from that occurrence, since the
        thread's order reaches on from there; that drops every repeat
        too.  So an event has at most |Σ| + 2 predecessors, and the one
        pass in run order appends each row's entries in ascending order.
        A position's symbol is numbered by the run's universe with the
        block set's membership bit, ``deps[k]`` lists the other-thread
        symbols that symbol k extended-depends on, and ``fed[t][k]`` is
        the occurrence of symbol k that thread t last got an edge from."""
        run = self.run
        sym = run.universe.indexes(run.code, (b >= 0 for b in self.owner))
        deps = run.universe.cross
        last = [-1] * len(deps)  # each symbol's latest position so far
        fed = [[-1] * len(deps) for _ in run.threads]
        prev = [-1] * len(run.threads)
        edges: list[list[int]] = [[] for _ in sym]
        tid, rf = run.tid, run.rf_pos
        for j, (k, t) in enumerate(zip(sym, tid)):
            into = fed[t]
            for k2 in deps[k]:
                i = last[k2]
                if i != into[k2]:
                    edges[i].append(j)
                    into[k2] = i
            if prev[t] >= 0:
                edges[prev[t]].append(j)
            if j in rf:
                # a write of the same thread precedes j in program order
                i = rf[j]
                if tid[i] != t and into[sym[i]] != i:
                    edges[i].append(j)
                    into[sym[i]] = i
            prev[t] = last[k] = j
        return tuple(map(tuple, edges))

    @cached_property
    def _serial(self) -> Optional[list[list[int]]]:
        """The member positions of each node of the block graph of
        ``_edges``, nodes in Kahn order (see ``_condense``); None when
        the graph has a cycle."""
        members, node_succ = _condense(self, self._edges)
        order = topological_order(node_succ)
        return None if order is None else [members[k] for k in order]

    def __len__(self):
        return len(self.writes)

    def __iter__(self):
        return iter(self.blocks)

    def __eq__(self, other):
        return isinstance(other, BlockSet) and self.run == other.run and self.writes == other.writes

    def __hash__(self):
        return hash((self.run, self.writes))

    def __str__(self):
        return "[" + "; ".join(str(b) for b in self.blocks) + "]"


def _condense(blocks: BlockSet, edges: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """Each node's member positions, ascending, and its successor nodes
    (a node may be listed more than once, which Kahn's counts absorb)
    of the position graph ``edges``, each position's successor
    positions, collapsed onto the blocks plus one singleton per
    unblocked event.  Nodes are numbered by their first position (a
    block's write precedes its reads), so one pass in run order numbers
    every position's node and lists its members."""
    owner, writes = blocks.owner, blocks.writes
    node_of: list[int] = []
    members: list[list[int]] = []
    for i, b in enumerate(owner):
        if b < 0 or writes[b] == i:
            node_of.append(len(members))
            members.append([i])
        else:
            k = node_of[writes[b]]
            node_of.append(k)
            members[k].append(i)
    node_succ = [[m for i in nodes for j in edges[i] if (m := node_of[j]) != k]
                 for k, nodes in enumerate(members)]
    return members, node_succ


def topological_order(edges: Sequence[Sequence[int]]) -> Optional[list[int]]:
    """Kahn order of a graph given as each node's list of successor
    nodes, lowest ready index first; None on a cycle.  A successor
    listed twice is counted twice on both sides, so repeats change
    nothing.  For graphs whose edges may point backward, such as block
    graphs; orders over a run are already sorted by run order."""
    indeg = [0] * len(edges)
    for row in edges:
        for j in row:
            indeg[j] += 1
    ready = [i for i, d in enumerate(indeg) if d == 0]
    order = []
    while ready:
        i = heappop(ready)
        order.append(i)
        for j in edges[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                heappush(ready, j)
    return order if len(order) == len(edges) else None


def _position_of(run: Run, e: Event) -> int:
    try:
        return run.position(e)
    except KeyError:
        raise ValueError("%s is not an event of the run" % (e,)) from None


def _write_positions(run: Run) -> list[int]:
    return [i for i, w in enumerate(run.is_write) if w]


def annotate(run: Run, block_set: BlockSet) -> Run:
    """Mark exactly the members of the block set on a copy of the run,
    which may list the block set's events in another order."""
    owner = block_set.owner
    if run.labels == block_set.run.labels:
        return run.with_annotations(b >= 0 for b in owner)
    return run.with_annotations(owner[_position_of(block_set.run, e)] >= 0 for e in run.events)


def is_well_annotated(run: Run) -> bool:
    """True iff the marked positions of the run are exactly the members of
    some valid block set."""
    try:
        blocks_from_annotation(run)
    except TraceError:
        return False
    return True


def blocks_from_annotation(run: Run) -> BlockSet:
    """Decode the marked events of an annotated run back into a BlockSet.

    Raises TraceError when the marking is not a valid block set: a marked
    read whose writer is unmarked, or a marked write with an unmarked
    reader.
    """
    marked = run.annotations
    for r, w in run.rf_pos.items():
        if marked[r] and not marked[w]:
            raise TraceError(
                "marked read %s observes unmarked write %s" % (run.event_at(r), run.event_at(w))
            )
    # every reader of a marked write must itself be marked
    for r, w in run.rf_pos.items():
        if marked[w] and not marked[r]:
            raise TraceError(
                "write %s is marked but its reader %s is not" % (run.event_at(w), run.event_at(r))
            )
    return BlockSet(run, [i for i, on in enumerate(marked) if on and run.is_write[i]])


def all_block_sets(run: Run) -> Iterable[BlockSet]:
    """Every valid block set of the run (2^#writes of them), smallest
    first.  Deterministic order; intended for small runs."""
    writes = _write_positions(run)
    n = len(writes)
    for mask in range(1 << n):
        yield BlockSet(run, [writes[i] for i in range(n) if mask >> i & 1])


def parse_block_selector(run: Run, spec: str) -> BlockSet:
    """Interpret a block selector string against a run.

    ``all``       -> one block per write (the maximal block set)
    ``none``      -> the empty block set
    ``writes=i,j``-> blocks of the writes at 1-based run positions i, j
    """
    if spec == "all":
        return BlockSet(run, _write_positions(run))
    if spec == "none":
        return BlockSet(run, ())
    if spec.startswith("writes="):
        body = spec[len("writes="):]
        positions = []
        for tok in body.split(","):
            tok = tok.strip()
            if not tok:
                continue
            if not (tok.isascii() and tok.isdigit()):
                raise TraceError("bad write position %r in block selector" % tok)
            positions.append(int(tok))
        for p in positions:
            if not 1 <= p <= len(run):
                raise TraceError("write position %d out of range 1..%d" % (p, len(run)))
            if not run.is_write[p - 1]:
                raise TraceError("position %d is %s, not a write" % (p, run.labels[p - 1]))
        return BlockSet(run, {p - 1 for p in positions})
    raise TraceError("bad block selector %r (expected all, none or writes=...)" % spec)
