"""Causal-concurrency decisions: can two accesses be reordered?

Two occurrences are causally concurrent under an equivalence when some
equivalent run executes them in the other order.  The question is
answered for symbols (all occurrence pairs of two labels) and for
individual events, under three equivalences:

* plain commutation (``conc_symbols_maz``) — no blocks at all;
* a fixed block set (``conc_symbols_blocks``) — the block equivalence
  of the run's annotation, provided its blocks are liberally atomic;
* any block set (``conc_symbols_general``) — some liberally atomic
  annotation renders the pair concurrent.

Trace equivalence is block equivalence with no blocks, and under either
two events can be reordered exactly when the (saturated) order leaves
them unordered.  So every run-level decision asks whether some order
the mode ranges over leaves some pair unordered (``_orders``):
``mazurkiewicz_hb``, which reads no marks, the saturation of the run's
own blocks, or the saturation of every liberally atomic block set, each
over the input run.  Every edge points forward in run order, so
positions i < j are unordered exactly when bit j of ``succ[i]`` is
clear.

Symbol queries examine occurrence pairs in both relative orders, and
within one orientation only *inner* pairs: a c-occurrence with the
first d-occurrence after it.  Occurrences of one symbol share a thread,
so they chain in program order; if any (c, d)-occurrence pair is
unordered, the inner pair obtained by moving the c-occurrence forward to
the last one before that d-occurrence — and the d-occurrence backward to
the first one after it — is unordered too.  A label query takes both
marks of each side, so on a marked run each unordered occurrence pair
still has an unordered inner pair among those listed, and the answer is
that of the unmarked run.

The streaming automaton (``ConcState``/``conc_step``) serves callers
that see the run one symbol at a time.  It carries the block monitor,
the after set of the most recent c-occurrence and a monotone witness
bit, set when a d-occurrence arrives outside that after set.  With no
marked events the pair's order is settled when the d-occurrence
arrives, so the bit is exact.  With blocks a later marked read can
order two whole blocks retroactively, so the arrival-time bit
over-approximates concurrency; no other arrival orders events already
seen (``monitor.py``'s docstring), so a bit set with no marked read
after it is exact.  A regression test pins the gap, and the ``stream``
strategy of ``conc_symbols_general`` inherits it.  That strategy
searches the automaton's mark guesses with ``oracle._completes``, the
memoised path search that also decides reads-from order.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Iterator, Union

from .atomicity import LibAtState, is_liberally_atomic, libat_initial, libat_step
from .blocks import _position_of, all_block_sets, blocks_from_annotation
from .oracle import _completes
from .orders import PartialOrder, mazurkiewicz_hb, saturate
from .trace import AnnLabel, Event, Label, Run, Universe

MAZURKIEWICZ = "maz"
GIVEN_BLOCKS = "blocks"
MOST_GENERAL = "general"
MODES = (MAZURKIEWICZ, GIVEN_BLOCKS, MOST_GENERAL)


# ---- the streaming pair automaton ----------------------------------------

@dataclass(frozen=True)
class ConcState:
    """Block-monitor state extended with one tracked symbol pair.

    ``found`` latches when a d-occurrence arrives outside the monitor's
    after row of the c symbol (the after set of its most recent
    occurrence, empty while none has occurred); it is monotone along the
    stream.  It is exact when no marked read follows the arrival that
    set it, and over-approximates concurrency otherwise: a later marked
    read can order the pair after the fact (see the module docstring).
    """

    libat: LibAtState
    c_hat: AnnLabel
    d_hat: AnnLabel
    found: bool = False

    def accepting(self) -> bool:
        return self.libat.accepting() and self.found


def conc_initial(universe: Universe, c_hat: AnnLabel, d_hat: AnnLabel) -> ConcState:
    for s in (c_hat, d_hat):
        universe.index(s)  # ValueError outside the universe
    return ConcState(libat_initial(universe), c_hat, d_hat, False)


def _pair_witnessed(sat_aft: tuple[int, ...], ci: int, di: int) -> bool:
    """Arrival-time witness check for an arrival of the tracked d, on
    the post-step after rows: some c-occurrence precedes it, and the
    after set of the last one does not contain the arrival.  Equal c and
    d never witness (their occurrences share a thread)."""
    if ci == di:
        return False
    row = sat_aft[ci]
    return row != 0 and not row >> di & 1


def conc_step(state: ConcState, sym: AnnLabel) -> ConcState:
    libat = libat_step(state.libat, sym)
    found = state.found
    if not found and sym == state.d_hat:  # only a d-occurrence can witness
        u = libat.sat.universe
        found = _pair_witnessed(libat.sat.aft, u.index(state.c_hat), u.index(sym))
    return ConcState(libat, state.c_hat, state.d_hat, found)


# ---- inner occurrence pairs -----------------------------------------------

def inner_pair_positions(run: Run, c_hat: AnnLabel, d_hat: AnnLabel) -> list[tuple[int, int]]:
    """Positions (i, j) pairing each c-occurrence with the first
    d-occurrence after it; occurrences with no later d drop out."""
    (c, c_on), (d, d_on) = c_hat, d_hat
    d_pos = [j for j in run.by_code[run.universe.code(d)] if run.annotations[j] == d_on]
    out = []
    for i in run.by_code[run.universe.code(c)]:
        k = bisect_right(d_pos, i)
        if run.annotations[i] == c_on and k < len(d_pos):
            out.append((i, d_pos[k]))
    return out


def _query_combos(c: Union[Label, AnnLabel], d: Union[Label, AnnLabel]) -> list[tuple[AnnLabel, AnnLabel]]:
    """Label-level queries range over both membership bits of each side;
    annotated symbols are taken as given.  Both orientations are
    produced, since a pair can be witnessed in either relative order."""
    cs = [(c, False), (c, True)] if isinstance(c, Label) else [c]
    ds = [(d, False), (d, True)] if isinstance(d, Label) else [d]
    both = [(ch, dh) for ch in cs for dh in ds]
    both += [(dh, ch) for ch, dh in both]
    return both


# ---- run-level decisions ---------------------------------------------------

def _orders(run: Run, mode: str) -> Iterator[PartialOrder]:
    """The orders a mode ranges over, all over the input run.  Maz and
    general queries are labels, so by the module docstring's inner-pair
    argument the run's marks do not change their answer; the maz order
    reads no marks.  Raises TraceError in blocks mode when the marking
    is not a valid block set."""
    if mode == MAZURKIEWICZ:
        yield mazurkiewicz_hb(run)
    elif mode == GIVEN_BLOCKS:
        bs = blocks_from_annotation(run)
        if is_liberally_atomic(run, bs):
            yield saturate(run, bs).order
    elif mode == MOST_GENERAL:
        for bs in all_block_sets(run):
            if is_liberally_atomic(run, bs):
                yield saturate(run, bs).order
    else:
        raise ValueError("mode must be one of %s, got %r" % (", ".join(MODES), mode))


def _symbols_unordered(run: Run, mode: str, c: Union[Label, AnnLabel], d: Union[Label, AnnLabel]) -> bool:
    """True iff some order of the mode leaves some inner (c, d)-pair, in
    either orientation, unordered."""
    pairs = [p for c_hat, d_hat in _query_combos(c, d) for p in inner_pair_positions(run, c_hat, d_hat)]
    return any(not order.succ[i] >> j & 1 for order in _orders(run, mode) for i, j in pairs)


def conc_symbols_maz(run: Run, c: Label, d: Label) -> bool:
    """True iff some (c, d)-occurrence pair, in either order, is
    unordered by the plain commutation order.  Annotations are ignored.
    A symbol that never occurs has no occurrence pair."""
    return _symbols_unordered(run, MAZURKIEWICZ, c, d)


def conc_symbols_blocks(aw: Run, c: Union[Label, AnnLabel], d: Union[Label, AnnLabel]) -> bool:
    """True iff the annotated run's blocks are liberally atomic and some
    inner occurrence pair is unordered by the saturated block order —
    equivalently, some equivalent run executes the pair in the other
    order.  Label-level queries disjoin over the four annotated-symbol
    combinations.  Raises TraceError when the marking is not a valid
    block set."""
    return _symbols_unordered(aw, GIVEN_BLOCKS, c, d)


def conc_symbols_general(run: Run, c: Label, d: Label, strategy: str = "enumerate") -> bool:
    """True iff some valid block set with liberally atomic blocks makes
    (c, d) concurrent.  The annotation of the input run is ignored; the
    block sets of a run are exactly the subsets of its writes.

    ``enumerate`` (the default) tries every block set and is exact.
    ``stream`` searches the branches of the nondeterministic
    mark-guessing automaton depth first, stopping at the first accepting
    one and remembering the states from which none accepts; its
    per-branch witness bit is the arrival-time approximation, so it can
    answer true where enumeration answers false (never the reverse).
    """
    if strategy not in ("enumerate", "stream"):
        raise ValueError("strategy must be 'enumerate' or 'stream', got %r" % (strategy,))
    if c not in run.labels or d not in run.labels or c.thread == d.thread:
        return False  # no occurrence pair, or program order orders each one
    if strategy == "enumerate":
        return _symbols_unordered(run, MOST_GENERAL, c, d)
    return _general_stream(run, c, d)


def _general_stream(run: Run, c: Label, d: Label) -> bool:
    """Depth-first search of the mark-guessing automaton.

    A node is a position, the block monitor's state before it and one
    witness bit.  Writes branch on their membership bit, marked first; a
    read's bit is forced to its writer's (any other choice is not a
    valid marking).  Branches that reject atomicity are dropped, since
    rejection is absorbing, and so are branches still unwitnessed after
    the last occurrence of c or d, since only the arrival of one of them
    can witness.  The bit latches when some combination of
    ``_query_combos`` is witnessed on arrival and is never cleared.  The
    search is ``oracle._completes``: it accepts at the first branch that
    reaches the end and expands each node at most once.
    """
    universe = run.universe
    labels, vid, rf_pos, n = run.labels, run.vid, run.rf_pos, len(run)
    index = [universe.indexes(run.code, [bit] * n) for bit in (False, True)]  # per mark, per position
    pairs: dict[int, list[int]] = {}  # each tracked d's symbol index: the c's
    for ch, dh in _query_combos(c, d):
        pairs.setdefault(universe.index(dh), []).append(universe.index(ch))
    last = max(run.by_code[universe.code(c)][-1], run.by_code[universe.code(d)][-1])

    def moves(node: tuple[int, LibAtState, bool]) -> Iterator[tuple[int, LibAtState, bool]]:
        k, q, seen = node
        lab = labels[k]
        if lab.is_write():
            bits: Iterable[bool] = (True, False)
        else:  # the writer's mark: rf holds the writer's symbol, marked or not
            bits = (q.sat.rf[vid[k]] == index[True][rf_pos[k]],)
        for bit in bits:
            q2 = libat_step(q, (lab, bit))
            if q2.rejected:
                continue
            ai = index[bit][k]
            hit = seen or any(_pair_witnessed(q2.sat.aft, ci, ai) for ci in pairs.get(ai, ()))
            if hit or k < last:
                yield k + 1, q2, hit

    # a path of n moves ends witnessed, since unwitnessed branches end at last
    return _completes(n, (0, libat_initial(universe), False), moves)


# ---- event-level queries ----------------------------------------------------

def conc_events(run: Run, e: Event, f: Event, mode: str = GIVEN_BLOCKS) -> bool:
    """Can these two specific events execute in the other order in some
    equivalent run?  True iff some order of the mode leaves them
    unordered."""
    i, j = _position_of(run, e), _position_of(run, f)
    if i == j:
        raise ValueError("need two distinct events")
    if j < i:
        i, j = j, i
    if mode == MOST_GENERAL and run.tid[i] == run.tid[j]:
        return False  # program order orders the pair under every block set
    return any(not order.succ[i] >> j & 1 for order in _orders(run, mode))
