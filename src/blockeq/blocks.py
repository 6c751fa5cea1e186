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
from typing import Iterable, Optional, Sequence

from .trace import Event, Run, TraceError


@dataclass(frozen=True)
class Block:
    """One write event together with every read observing it."""

    write: Event
    reads: tuple[Event, ...]  # in run order

    @property
    def variable(self) -> str:
        return self.write.label.variable

    def members(self) -> tuple[Event, ...]:
        return (self.write,) + self.reads

    def __contains__(self, e: Event) -> bool:
        return e == self.write or e in self.reads

    def __str__(self):
        return "{" + ", ".join(str(e) for e in self.members()) + "}"


class BlockSet:
    """A pairwise-disjoint set of blocks over one run."""

    def __init__(self, run: Run, blocks: Iterable[Block]):
        self.run = run
        self.blocks: tuple[Block, ...] = tuple(
            sorted(blocks, key=lambda b: run.position(b.write))
        )
        self._owner: dict[Event, Block] = {}
        for b in self.blocks:
            for e in b.members():
                if e in self._owner:
                    raise ValueError("event %s belongs to two blocks" % (e,))
                self._owner[e] = b

    def __len__(self):
        return len(self.blocks)

    def __iter__(self):
        return iter(self.blocks)

    @cached_property
    def masks(self) -> tuple[int, ...]:
        """Run-position mask of each block's members, in block order."""
        return tuple(sum(1 << self.run.position(e) for e in b.members()) for b in self.blocks)

    def block_of(self, e: Event) -> Optional[Block]:
        return self._owner.get(e)

    def is_member(self, e: Event) -> bool:
        return e in self._owner

    def members(self) -> frozenset[Event]:
        return frozenset(self._owner)

    def unblocked(self) -> list[Event]:
        return [e for e in self.run.events if e not in self._owner]

    def __eq__(self, other):
        return (
            isinstance(other, BlockSet)
            and self.run == other.run
            and set(self.blocks) == set(other.blocks)
        )

    def __hash__(self):
        return hash((self.run, frozenset(self.blocks)))

    def __str__(self):
        return "[" + "; ".join(str(b) for b in self.blocks) + "]"


def candidate_blocks(run: Run) -> list[Block]:
    """One candidate block per write event: the write plus all its readers.

    Every valid block of the run is one of these (a block must contain the
    write and *all* reads observing it), so the valid block sets are exactly
    the subsets of this list — they are automatically disjoint.
    """
    rf = run.reads_from()
    readers: dict[Event, list[Event]] = {}
    for r in sorted(rf, key=run.position):
        readers.setdefault(rf[r], []).append(r)
    out = []
    for e in run.events:
        if e.label.is_write():
            out.append(Block(e, tuple(readers.get(e, ()))))
    return out


def blocks_from_writes(run: Run, writes: Iterable[Event]) -> BlockSet:
    """The block set whose blocks are the candidate blocks of the given
    write events."""
    chosen = set(writes)
    for e in chosen:
        if not e.label.is_write():
            raise ValueError("%s is not a write event" % (e,))
    cands = {b.write: b for b in candidate_blocks(run)}
    return BlockSet(run, [cands[w] for w in chosen])


def annotate(run: Run, block_set: BlockSet) -> Run:
    """Mark exactly the members of the block set on a copy of the run."""
    member = block_set.members()
    return run.with_annotations(e in member for e in run.events)


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
    rf = run.reads_from()
    marked = {e for i, e in enumerate(run.events) if run.annotation_at(i)}
    writes = []
    for e in marked:
        if e.label.is_write():
            writes.append(e)
        else:
            w = rf[e]
            if w not in marked:
                raise TraceError(
                    "marked read %s observes unmarked write %s" % (e, w)
                )
    # every reader of a marked write must itself be marked
    for r, w in rf.items():
        if w in marked and r not in marked:
            raise TraceError(
                "write %s is marked but its reader %s is not" % (w, r)
            )
    return blocks_from_writes(run, writes)


def all_block_sets(run: Run) -> Iterable[BlockSet]:
    """Every valid block set of the run (2^#writes of them), smallest
    first.  Deterministic order; intended for small runs."""
    cands = candidate_blocks(run)
    n = len(cands)
    for mask in range(1 << n):
        yield BlockSet(run, [cands[i] for i in range(n) if mask >> i & 1])


def blocks_in_run_order_disjoint(run: Run, block_set: BlockSet) -> bool:
    """Check that same-variable blocks occupy disjoint position windows.

    Always true for valid block sets (a read between two writes of x
    observes the later write); exposed for the property tests.
    """
    spans: dict[str, list[tuple[int, int]]] = {}
    for b in block_set:
        ps = [run.position(e) for e in b.members()]
        spans.setdefault(b.variable, []).append((min(ps), max(ps)))
    for var_spans in spans.values():
        var_spans.sort()
        for (lo1, hi1), (lo2, hi2) in zip(var_spans, var_spans[1:]):
            if lo2 <= hi1:
                return False
    return True


def parse_block_selector(run: Run, spec: str) -> BlockSet:
    """Interpret a block selector string against a run.

    ``all``       -> one block per write (the maximal block set)
    ``none``      -> the empty block set
    ``writes=i,j``-> blocks of the writes at 1-based run positions i, j
    """
    if spec == "all":
        return BlockSet(run, candidate_blocks(run))
    if spec == "none":
        return BlockSet(run, [])
    if spec.startswith("writes="):
        body = spec[len("writes="):]
        positions = []
        for tok in body.split(","):
            tok = tok.strip()
            if not tok:
                continue
            if not tok.isdigit():
                raise TraceError("bad write position %r in block selector" % tok)
            positions.append(int(tok))
        writes = []
        for p in positions:
            if not 1 <= p <= len(run):
                raise TraceError("write position %d out of range 1..%d" % (p, len(run)))
            e = run.event_at(p - 1)
            if not e.label.is_write():
                raise TraceError("position %d is %s, not a write" % (p, e.label))
            writes.append(e)
        return blocks_from_writes(run, writes)
    raise TraceError("bad block selector %r (expected all, none or writes=...)" % spec)
