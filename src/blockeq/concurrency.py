"""Causal-concurrency decisions: can two accesses be reordered?

Two occurrences are causally concurrent under an equivalence when some
equivalent run executes them in the other order.  Three granularities of
the question are answered here, for symbols (all occurrence pairs of two
labels) and for individual events:

* plain commutation order (``conc_symbols_maz``) — no blocks at all;
* a fixed block set (``conc_symbols_blocks``) — concurrency under the
  block equivalence of a given annotation, provided its blocks are
  liberally atomic;
* any block set (``conc_symbols_general``) — some liberally atomic
  annotation renders the pair concurrent.

Reorderability is symmetric, so the label-level decisions examine
occurrence pairs in both relative orders.  Within one orientation, only
*inner* occurrence pairs matter: a c-occurrence paired with the first
d-occurrence after it.  Occurrences of one symbol share a thread, so
they chain in program order; if any (c, d)-occurrence pair is
unordered, the inner pair obtained by moving the c-occurrence forward to
the last one before that d-occurrence — and the d-occurrence backward to
the first one after it — is unordered too.  Checking inner pairs is
therefore complete.

The streaming automaton (``ConcState``/``conc_step``) carries the block
monitor plus the after set of the most recent c-occurrence and a
monotone witness bit, set when a d-occurrence arrives outside that after
set.  On streams with no marked events the pair's order is settled the
moment the d-occurrence arrives, so the bit is exact and
``conc_symbols_maz`` runs entirely on this automaton.  With blocks the
saturated order can still acquire the pair *after* its second element
has arrived (a later read can order two whole blocks retroactively), so
the arrival-time bit over-approximates concurrency.  The run-level
block decision therefore evaluates inner pairs against the fully
saturated order computed offline; the automaton remains available as
the constant-space arrival-time approximation, and the gap between the
two is pinned down by a regression test.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, replace
from typing import Iterable, Union

from .atomicity import LibAtState, is_liberally_atomic, libat_initial, libat_step
from .blocks import all_block_sets, annotate, blocks_from_annotation
from .monitor import Universe, symbols_of
from .orders import saturate
from .trace import AnnLabel, Event, Label, Run

MAZURKIEWICZ = "maz"
GIVEN_BLOCKS = "blocks"
MOST_GENERAL = "general"
MODES = (MAZURKIEWICZ, GIVEN_BLOCKS, MOST_GENERAL)


@dataclass(frozen=True)
class ConcQuery:
    """A reorderability question: two distinct labels and the equivalence
    to ask it under."""

    c: Label
    d: Label
    mode: str = GIVEN_BLOCKS

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError("mode must be one of %s, got %r" % (", ".join(MODES), self.mode))
        if self.c == self.d:
            raise ValueError(
                "need two distinct labels; relabel the two occurrences "
                "with fresh marks to compare events of one label"
            )


def conc_decide(run: Run, query: ConcQuery) -> bool:
    if query.mode == MAZURKIEWICZ:
        return conc_symbols_maz(run, query.c, query.d)
    if query.mode == GIVEN_BLOCKS:
        return conc_symbols_blocks(run, query.c, query.d)
    return conc_symbols_general(run, query.c, query.d)


# ---- the streaming pair automaton ----------------------------------------

@dataclass(frozen=True)
class ConcState:
    """Block-monitor state extended with one tracked symbol pair.

    ``found`` latches when a d-occurrence arrives outside the monitor's
    after row of the c symbol (the after set of its most recent
    occurrence, empty while none has occurred); it is monotone along the
    stream.  See the module docstring for when the latch is exact.
    """

    libat: LibAtState
    c_hat: AnnLabel
    d_hat: AnnLabel
    found: bool = False

    def accepting(self) -> bool:
        return self.libat.accepting() and self.found


def conc_initial(universe: Universe, c_hat: AnnLabel, d_hat: AnnLabel) -> ConcState:
    for s in (c_hat, d_hat):
        if s not in universe.sym_index:
            raise ValueError("symbol %s outside the universe" % (s,))
    return ConcState(libat_initial(universe), c_hat, d_hat, False)


def _pair_witnessed(sat_aft: tuple[int, ...], ci: int, di: int, ai: int) -> bool:
    """Arrival-time witness check, on the post-step after rows: the
    arriving symbol is the tracked d, some c-occurrence precedes it, and
    the after set of the last one does not contain the arrival.  Equal c
    and d never witness (their occurrences share a thread)."""
    if ai != di or ci == di:
        return False
    row = sat_aft[ci]
    return row != 0 and not row >> di & 1


def conc_step(state: ConcState, sym: AnnLabel) -> ConcState:
    libat = libat_step(state.libat, sym)
    found = state.found
    if not found:
        u = libat.sat.universe
        found = _pair_witnessed(
            libat.sat.aft,
            u.sym_index[state.c_hat],
            u.sym_index[state.d_hat],
            u.sym_index[sym],
        )
    return ConcState(libat, state.c_hat, state.d_hat, found)


# ---- inner occurrence pairs -----------------------------------------------

def inner_pair_positions(run: Run, c_hat: AnnLabel, d_hat: AnnLabel) -> list[tuple[int, int]]:
    """Positions (i, j) pairing each c-occurrence with the first
    d-occurrence after it; occurrences with no later d drop out."""
    syms = symbols_of(run)
    d_pos = [j for j, s in enumerate(syms) if s == d_hat]
    out = []
    for i, s in enumerate(syms):
        if s != c_hat:
            continue
        k = bisect_right(d_pos, i)
        if k < len(d_pos):
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

def conc_symbols_maz(run: Run, c: Label, d: Label) -> bool:
    """True iff some (c, d)-occurrence pair, in either order, is
    unordered by the plain commutation order.  Single pass of one pair
    automaton per orientation, state bounded by the alphabet: with
    nothing marked the order between two arrived events never changes
    afterwards, so the arrival-time latch is exact.  A symbol that never
    occurs has no occurrence pair."""
    if c not in run.labels or d not in run.labels:
        return False
    universe = Universe.from_run(run)
    qa = conc_initial(universe, (c, False), (d, False))
    qb = conc_initial(universe, (d, False), (c, False))
    for lab in run.labels:
        qa = conc_step(qa, (lab, False))
        qb = conc_step(qb, (lab, False))
    return qa.accepting() or qb.accepting()


def conc_symbols_blocks(aw: Run, c: Union[Label, AnnLabel], d: Union[Label, AnnLabel]) -> bool:
    """True iff the annotated run's blocks are liberally atomic and some
    inner occurrence pair is unordered by the saturated block order —
    equivalently, some equivalent run executes the pair in the other
    order.  Label-level queries disjoin over the four annotated-symbol
    combinations.  Raises TraceError when the marking is not a valid
    block set."""
    bs = blocks_from_annotation(aw)
    if not is_liberally_atomic(aw, bs):
        return False
    sat = saturate(aw, bs)
    for c_hat, d_hat in _query_combos(c, d):
        for i, j in inner_pair_positions(aw, c_hat, d_hat):
            if not sat.ordered(aw.events[i], aw.events[j]):
                return True
    return False


def conc_symbols_general(run: Run, c: Label, d: Label, strategy: str = "enumerate") -> bool:
    """True iff some valid block set with liberally atomic blocks makes
    (c, d) concurrent.  The annotation of the input run is ignored; the
    block sets of a run are exactly the subsets of its writes.

    ``enumerate`` (the default) tries every block set and is exact.
    ``stream`` tracks the reachable states of the nondeterministic
    mark-guessing automaton in one pass; its per-branch witness bit is
    the arrival-time approximation, so it can answer true where
    enumeration answers false (never the reverse).
    """
    base = run.core()
    if strategy == "enumerate":
        for bs in all_block_sets(base):
            if not is_liberally_atomic(base, bs):
                continue
            aw = annotate(base, bs)
            sat = saturate(aw, bs)
            for c_hat, d_hat in _query_combos(c, d):
                for i, j in inner_pair_positions(aw, c_hat, d_hat):
                    if not sat.ordered(aw.events[i], aw.events[j]):
                        return True
        return False
    if strategy == "stream":
        return _general_stream(base, c, d)
    raise ValueError("strategy must be 'enumerate' or 'stream', got %r" % (strategy,))


def _general_stream(run: Run, c: Label, d: Label) -> bool:
    """Reachable-state-set pass of the mark-guessing automaton.

    Writes branch on their membership bit; a read's bit is forced to its
    writer's (any other choice is not a valid marking).  Branches that
    reject atomicity are dropped — rejection is absorbing.  Acceptance:
    some branch ends accepting with some combination's witness bit set.
    """
    if c not in run.labels or d not in run.labels:
        return False
    universe = Universe.from_run(run)
    pair_idx = [
        (universe.sym_index[ch], universe.sym_index[dh])
        for ch, dh in _query_combos(c, d)
    ]
    branches: set[tuple[LibAtState, int]] = {(libat_initial(universe), 0)}
    for lab in run.labels:
        nxt: set[tuple[LibAtState, int]] = set()
        for q, fnd in branches:
            if lab.is_write():
                bits: Iterable[bool] = (False, True)
            else:
                wi = q.sat.rf[universe.var_index[lab.variable]]
                bits = (universe.symbols[wi][1],)
            for bit in bits:
                q2 = libat_step(q, (lab, bit))
                if q2.rejected:
                    continue
                ai = universe.sym_index[(lab, bit)]
                f2 = fnd
                for k, (ci, di) in enumerate(pair_idx):
                    if not f2 >> k & 1 and _pair_witnessed(q2.sat.aft, ci, di, ai):
                        f2 |= 1 << k
                nxt.add((q2, f2))
        branches = nxt
    return any(fnd != 0 for _, fnd in branches)


# ---- event-level queries ----------------------------------------------------

def _with_fresh_marks(run: Run, positions: list[int]) -> Run:
    """Relabel the given occurrences with fresh marks, making each a
    symbol of its own that conflicts exactly like the original."""
    used = [l.mark for l in run.labels if l.mark is not None]
    nxt = max(used) + 1 if used else 1
    labels = list(run.labels)
    for k, p in enumerate(positions):
        labels[p] = replace(labels[p], mark=nxt + k)
    return Run(labels, run.annotations)


def conc_events(run: Run, e: Event, f: Event, mode: str = GIVEN_BLOCKS) -> bool:
    """Can these two specific events execute in the other order in some
    equivalent run?  The pair is relabelled with fresh marks and the
    question delegated to the symbol-level decision; each fresh symbol
    occurs once, so its single inner pair is exactly (e, f)."""
    try:
        i, j = run.position(e), run.position(f)
    except KeyError as exc:
        raise ValueError("%s is not an event of the run" % (exc.args[0],)) from None
    if i == j:
        raise ValueError("need two distinct events")
    if j < i:
        i, j = j, i
    if mode == GIVEN_BLOCKS:
        blocks_from_annotation(run)  # report a bad marking in the caller's events
    tagged = _with_fresh_marks(run, [i, j])
    c_lab, d_lab = tagged.labels[i], tagged.labels[j]
    if mode == MAZURKIEWICZ:
        return conc_symbols_maz(tagged, c_lab, d_lab)
    if mode == GIVEN_BLOCKS:
        return conc_symbols_blocks(
            tagged, (c_lab, tagged.annotation_at(i)), (d_lab, tagged.annotation_at(j))
        )
    if mode == MOST_GENERAL:
        return conc_symbols_general(tagged, c_lab, d_lab)
    raise ValueError("mode must be one of %s, got %r" % (", ".join(MODES), mode))
