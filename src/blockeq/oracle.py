"""Brute-force ground truth for the streaming components.

Everything in this module enumerates explicitly: equivalence classes by
breadth-first closure under the allowed swaps, reads-from classes by
interleaving search, proper linearizations by topological DFS.  All of
it is deliberately bounded — the point is certifying the incremental
algorithms on desk-scale instances, not performance.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Optional

from .blocks import Block, BlockSet
from .orders import PartialOrder, bits, block_hb, saturate
from .trace import Event, Label, Run, conflicting

SWAP_BOUND = 12  # breadth-first closure under swaps
RF_BOUND = 22    # reads-from interleaving search


class BoundExceeded(ValueError):
    """The instance is too large for explicit enumeration."""


def _check_bound(run: Run, bound: Optional[int], default: int, what: str) -> None:
    limit = default if bound is None else bound
    if len(run) > limit:
        raise BoundExceeded(
            "%s enumeration is limited to %d events, got %d" % (what, limit, len(run))
        )


def _events_of(labels: Iterable[Label]) -> list[Event]:
    seen: dict[Label, int] = {}
    out = []
    for lab in labels:
        n = seen.get(lab, 0) + 1
        seen[lab] = n
        out.append(Event(lab, n))
    return out


def _annotation_map(run: Run) -> dict[Event, bool]:
    return {e: run.annotation_at(i) for i, e in enumerate(run.events)}


class EquivClass:
    """An explicitly enumerated equivalence class.

    Members are stored canonically as label sequences; same-label events
    never reorder under any relation considered here (they share a
    thread), so a label sequence determines the event permutation.
    """

    def __init__(
        self,
        relation: str,
        representative: Run,
        members: Iterable[tuple[Label, ...]],
        blocks: Optional[BlockSet] = None,
    ):
        assert relation in ("maz", "blocks", "rf")
        self.relation = relation
        self.representative = representative
        self.members: frozenset[tuple[Label, ...]] = frozenset(members)
        self.blocks = blocks
        assert representative.labels in self.members, "representative must belong to its class"

    def __len__(self):
        return len(self.members)

    def __contains__(self, item) -> bool:
        labels = item.labels if isinstance(item, Run) else tuple(item)
        return labels in self.members

    def member_runs(self) -> list[Run]:
        """Members as runs in a deterministic order, each event keeping
        the annotation it carries in the representative."""
        annot = _annotation_map(self.representative)
        out = []
        for labels in sorted(self.members):
            events = _events_of(labels)
            out.append(Run(labels, [annot[e] for e in events]))
        return out

    def __repr__(self):
        return "EquivClass(%s, %d members)" % (self.relation, len(self.members))


# ---- swap-closure enumeration ---------------------------------------------

def _contiguous_spans(word: tuple[Event, ...], blocks: BlockSet) -> list[tuple[int, int, Block]]:
    """(first, last, block) for every block whose members sit contiguously
    in the given permutation, sorted by first position."""
    lo: dict[Block, int] = {}
    hi: dict[Block, int] = {}
    for i, e in enumerate(word):
        b = blocks.block_of(e)
        if b is None:
            continue
        if b not in lo:
            lo[b] = i
        hi[b] = i
    spans = []
    for b, first in lo.items():
        last = hi[b]
        if last - first + 1 == len(b.members()):
            spans.append((first, last, b))
    spans.sort(key=lambda s: s[0])
    return spans


def _block_threads(b: Block) -> frozenset[str]:
    return frozenset(e.label.thread for e in b.members())


def _neighbors(word: tuple[Event, ...], blocks: Optional[BlockSet]):
    # adjacent independent event swaps
    for i in range(len(word) - 1):
        a, b = word[i], word[i + 1]
        if not conflicting(a.label, b.label):
            yield word[:i] + (b, a) + word[i + 2:]
    if blocks is None or len(blocks) == 0:
        return
    # adjacent contiguous thread-disjoint block swaps
    spans = _contiguous_spans(word, blocks)
    for (f1, l1, b1), (f2, l2, b2) in zip(spans, spans[1:]):
        if l1 + 1 != f2:
            continue
        if _block_threads(b1) & _block_threads(b2):
            continue
        yield word[:f1] + word[f2:l2 + 1] + word[f1:l1 + 1] + word[l2 + 1:]


def _swap_closure(run: Run, blocks: Optional[BlockSet]) -> set[tuple[Event, ...]]:
    start = tuple(run.events)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for word in frontier:
            for neighbor in _neighbors(word, blocks):
                if neighbor not in seen:
                    seen.add(neighbor)
                    nxt.append(neighbor)
        frontier = nxt
    return seen


def enum_maz_class(run: Run, bound: Optional[int] = None) -> EquivClass:
    """Closure under adjacent swaps of independent events."""
    _check_bound(run, bound, SWAP_BOUND, "swap-class")
    words = _swap_closure(run, None)
    return EquivClass("maz", run, (tuple(e.label for e in w) for w in words))


def enum_block_class(run: Run, blocks: BlockSet, bound: Optional[int] = None) -> EquivClass:
    """Closure under adjacent independent event swaps plus swaps of two
    adjacent, contiguous, thread-disjoint blocks.  Contiguity and
    adjacency are re-derived from each permutation as it is reached."""
    _check_bound(run, bound, SWAP_BOUND, "swap-class")
    words = _swap_closure(run, blocks)
    return EquivClass("blocks", run, (tuple(e.label for e in w) for w in words), blocks)


def rf_class_words(run: Run, bound: Optional[int] = None) -> Iterator[tuple[Label, ...]]:
    """Label words of all interleavings that preserve each thread's order
    and give every read the same writer it has in the original run,
    generated one at a time, depth first.  Reads are checked as they are
    placed, so every completed word is a member outright."""
    _check_bound(run, bound, RF_BOUND, "reads-from class")
    rf = run.reads_from()
    by_thread: dict[str, list[Event]] = {}
    for e in run.events:
        by_thread.setdefault(e.label.thread, []).append(e)
    seqs = [by_thread[t] for t in sorted(by_thread)]
    ptrs = [0] * len(seqs)
    acc: list[Event] = []
    last_write: dict[str, Event] = {}

    def rec():
        if len(acc) == len(run):
            yield tuple(e.label for e in acc)
            return
        for k, seq in enumerate(seqs):
            if ptrs[k] == len(seq):
                continue
            e = seq[ptrs[k]]
            var = e.label.variable
            if e.label.is_read():
                if last_write.get(var) != rf[e]:
                    continue
                undo = None
            else:
                undo = (var, last_write.get(var))
                last_write[var] = e
            ptrs[k] += 1
            acc.append(e)
            yield from rec()
            acc.pop()
            ptrs[k] -= 1
            if undo is not None:
                var, prev = undo
                if prev is None:
                    del last_write[var]
                else:
                    last_write[var] = prev

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


def _proper_search(
    run: Run,
    blocks: BlockSet,
    forced: Optional[list[Event]] = None,
    first_only: bool = False,
) -> list[tuple[Event, ...]]:
    """Topological DFS over the block happens-before order that never
    lets two same-variable blocks overlap.  ``forced`` pins the first
    placements (callers guarantee those respect the order); with
    ``first_only`` the search stops at the first completion."""
    succ = block_hb(run, blocks).succ
    events = run.events
    block_masks = _block_masks(run, blocks)
    out: list[tuple[Event, ...]] = []
    acc = [run.position(e) for e in forced or []]
    full = (1 << len(events)) - 1

    def dfs(placed: int) -> bool:
        if placed == full:
            out.append(tuple(events[i] for i in acc))
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
    annot = _annotation_map(run)
    words = _proper_search(run, blocks)
    return {
        Run([e.label for e in w], [annot[e] for e in w])
        for w in words
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
    events = tuple(cls.representative.events)
    index = {e: i for i, e in enumerate(events)}
    keep = [(1 << len(events)) - 1] * len(events)
    for labels in cls.members:
        later = 0
        for e in reversed(_events_of(labels)):
            keep[index[e]] &= later
            later |= 1 << index[e]
    return PartialOrder(events, keep)


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

    return bool(_proper_search(run, blocks, forced=v + [e], first_only=True))
