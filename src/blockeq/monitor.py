"""Constant-space streaming monitor for the saturated block order.

The monitor consumes an annotated run one symbol at a time (a symbol is a
label plus its block-membership bit) and maintains, per annotated label,
the after set of that label's most recent occurrence — together with
enough block-tracking bookkeeping to stay exact under block-level
saturation.  Its state size depends only on the alphabet (threads and
variables), never on the length of the stream.

State components (all keyed by the fixed alphabet):

* ``blk``  — per variable, the symbols of the running block (empty if the
  last write on the variable is unmarked);
* ``rf``   — per variable, the symbol of the last write;
* ``aft``  — per symbol, the after set of its last occurrence;
* ``fba``  — per (symbol, thread, variable), the after set of the first
  block on that variable, with that writer thread, holding an event
  at-or-after the symbol's last occurrence;
* ``open_``— per (symbol, thread, variable), whether that first block is
  the only one seen so far (flips once a second such block appears);
* ``tir``  — private helper bit per (symbol, thread, variable): whether
  the tracked first block is still the variable's running block.  It is
  excluded from the canonical serialization; the five public components
  above determine the monitor's answers.

The transition is a least-fixpoint computation per input symbol.  Sets are
bitmasks over the symbol universe, so each step costs time polynomial in
the alphabet size and constant in the stream length.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .orders import bits
from .trace import READ, WRITE, AnnLabel, Label, Run, extended_dep


class Universe:
    """Fixed alphabet for a family of runs: every label over the given
    threads and variables, with index tables and dependence rows
    precomputed."""

    def __init__(self, threads: Iterable[str], variables: Iterable[str]):
        self.threads: tuple[str, ...] = tuple(sorted(set(threads)))
        self.variables: tuple[str, ...] = tuple(sorted(set(variables)))
        self.labels: tuple[Label, ...] = tuple(
            Label(t, op, v)
            for t in self.threads
            for op in (READ, WRITE)
            for v in self.variables
        )
        self.symbols: tuple[AnnLabel, ...] = tuple(
            (lab, bit) for lab in self.labels for bit in (False, True)
        )
        self.sym_index: dict[AnnLabel, int] = {s: i for i, s in enumerate(self.symbols)}
        self.thread_index = {t: i for i, t in enumerate(self.threads)}
        self.var_index = {v: i for i, v in enumerate(self.variables)}
        n = len(self.symbols)
        self.dep_mask: list[int] = [0] * n
        for i, si in enumerate(self.symbols):
            m = 0
            for j, sj in enumerate(self.symbols):
                if extended_dep(si, sj):
                    m |= 1 << j
            self.dep_mask[i] = m
        # symbol index of the annotated write (thread t, variable v) per (t, v)
        self.block_write_sym = {
            (t, v): self.sym_index[(Label(t, WRITE, v), True)]
            for t in self.threads
            for v in self.variables
        }

    @classmethod
    def from_run(cls, run: Run) -> "Universe":
        return cls(run.threads, run.variables)

    def row(self, c: int, t: int, v: int) -> int:
        return (c * len(self.threads) + t) * len(self.variables) + v

    def nrows(self) -> int:
        return len(self.symbols) * len(self.threads) * len(self.variables)

    def symbol_set(self, mask: int) -> frozenset[AnnLabel]:
        return frozenset(self.symbols[i] for i in bits(mask))


@dataclass(frozen=True)
class SatState:
    universe: Universe
    blk: tuple[int, ...]      # per variable: mask of running-block symbols
    rf: tuple[int, ...]       # per variable: symbol index of last write, -1 if none
    aft: tuple[int, ...]      # per symbol: after-set mask
    fba: tuple[int, ...]      # per (symbol, thread, variable) row: mask
    open_: tuple[bool, ...]   # per row: first tracked block still unique?
    tir: tuple[bool, ...]     # per row: tracked block is the running block

    # -- reading the state ------------------------------------------------

    def blk_set(self, variable: str) -> frozenset[AnnLabel]:
        return self.universe.symbol_set(self.blk[self.universe.var_index[variable]])

    def rf_symbol(self, variable: str) -> Optional[AnnLabel]:
        i = self.rf[self.universe.var_index[variable]]
        return None if i < 0 else self.universe.symbols[i]

    def aft_set(self, sym: AnnLabel) -> frozenset[AnnLabel]:
        return self.universe.symbol_set(self.aft[self.universe.sym_index[sym]])

    def fba_set(self, sym: AnnLabel, thread: str, variable: str) -> frozenset[AnnLabel]:
        u = self.universe
        r = u.row(u.sym_index[sym], u.thread_index[thread], u.var_index[variable])
        return u.symbol_set(self.fba[r])

    def fba_open(self, sym: AnnLabel, thread: str, variable: str) -> bool:
        u = self.universe
        r = u.row(u.sym_index[sym], u.thread_index[thread], u.var_index[variable])
        return self.open_[r]


def sat_initial(universe: Universe) -> SatState:
    """All-empty maps, no last write, every open flag raised."""
    nv = len(universe.variables)
    ns = len(universe.symbols)
    nr = universe.nrows()
    return SatState(
        universe,
        blk=(0,) * nv,
        rf=(-1,) * nv,
        aft=(0,) * ns,
        fba=(0,) * nr,
        open_=(True,) * nr,
        tir=(False,) * nr,
    )


def _dep_in(state: SatState, ai: int) -> int:
    """Mask of symbols whose last occurrence is directly ordered before an
    arriving occurrence of symbol ai: the extended-dependence row, plus
    (for a read) the symbol of the write it observes."""
    u = state.universe
    lab = u.symbols[ai][0]
    mask = u.dep_mask[ai]
    if lab.is_read():
        wi = state.rf[u.var_index[lab.variable]]
        if wi < 0:
            raise ValueError("read %s %s with no preceding write" % (lab.thread, lab.variable))
        mask |= 1 << wi
    return mask


def sat_step(state: SatState, sym: AnnLabel) -> SatState:
    """Process one annotated symbol and return the successor state."""
    u = state.universe
    if sym not in u.sym_index:
        raise ValueError("symbol %s outside the universe" % (sym,))
    ai = u.sym_index[sym]
    lab, marked = sym
    xi = u.var_index[lab.variable]
    ti = u.thread_index[lab.thread]
    nT, nX = len(u.threads), len(u.variables)
    ns = len(u.symbols)
    abit = 1 << ai

    dep_in = _dep_in(state, ai)  # validates reads against rf

    # running-block and last-write updates
    blk = list(state.blk)
    if marked:
        blk[xi] = (state.blk[xi] | abit) if lab.is_read() else abit
    else:
        blk[xi] = 0
    rf = list(state.rf)
    if lab.is_write():
        rf[xi] = ai

    # per-variable writer thread of the running block
    btheta = [-1] * nX
    for v in range(nX):
        for mi in bits(blk[v]):
            ml = u.symbols[mi][0]
            if ml.is_write():
                btheta[v] = u.thread_index[ml.thread]
    if marked and lab.is_read() and btheta[xi] < 0:
        raise ValueError(
            "marked read %s %s observes an unmarked write" % (lab.thread, lab.variable)
        )

    # ---- least fixpoint over after rows and first-block rows ----------
    # Blocks on one (writer thread, variable) pair are always ordered
    # blockwise: their writes are program-ordered, so the block-level step
    # applies to every such pair.  Hence the tracked first block is the
    # *last* block of its kind exactly when the row's open flag is up, and
    # the flag goes down precisely when a later same-kind block exists.
    A = list(state.aft)
    F = list(state.fba)
    eff_open = list(state.open_)

    # "tracked first block is the running block": a new annotated write
    # replaces the running block on its variable, an unannotated event
    # clears it; rows that start tracking this step are set below.
    eff_tir = list(state.tir)
    if (marked and lab.is_write()) or not marked:
        for c in range(ns):
            for t in range(nT):
                eff_tir[u.row(c, t, xi)] = False
    new_block = marked and lab.is_write()

    def block_closure(v: int) -> int:
        # after set of the running block on v: the members plus everything
        # after any member's latest occurrence.  The arriving symbol's own
        # stored row is stale (it describes the previous occurrence), and
        # the current occurrence is last, so only its member bit counts.
        m = blk[v]
        for mi in bits(blk[v]):
            if mi != ai:
                m |= A[mi]
        return m

    def mask_rules() -> bool:
        changed = False

        # 1. the arriving symbol joins every row it depends into
        for c in range(ns):
            if A[c] & dep_in and not A[c] & abit:
                A[c] |= abit
                changed = True
        for r in range(len(F)):
            if F[r] & dep_in and not F[r] & abit:
                F[r] |= abit
                changed = True

        for v in range(nX):
            if blk[v] == 0:
                continue
            th = btheta[v]
            closure = block_closure(v)

            for c in range(ns):
                if c == ai:
                    continue
                r = u.row(c, th, v)
                # 2. start tracking: a running-block member inside an
                # after row opens first-block tracking for that row
                if A[c] & blk[v] and state.fba[r] == 0 and not eff_tir[r]:
                    eff_tir[r] = True
                    changed = True
                # 3. a tracked running block keeps its row in sync with
                # the block's growing after set
                if eff_tir[r] and F[r] | closure != F[r]:
                    F[r] |= closure
                    changed = True

            # 4. block-level step: a first-block row holding a member of
            # a *different* running block on its variable orders the whole
            # running block after the tracked block and the row's label
            for c in range(ns):
                if c == ai:
                    continue
                for t in range(nT):
                    r = u.row(c, t, v)
                    if F[r] == 0:
                        continue
                    if t == th and eff_tir[r]:
                        continue  # tracked block is the running block itself
                    if F[r] & blk[v]:
                        if A[c] | closure != A[c]:
                            A[c] |= closure
                            changed = True
                        if F[r] | closure != F[r]:
                            F[r] |= closure
                            changed = True

        # 4b. transitivity through after rows: a symbol inside a
        # first-block row pins everything after its own last occurrence
        # into that row as well (the arriving symbol's stored after row is
        # stale, but its fresh contribution is exactly the joins rule 1
        # already makes)
        for r in range(len(F)):
            fr = F[r]
            if fr == 0:
                continue
            for s in bits(fr):
                if s != ai and A[s] | fr != fr:
                    fr |= A[s]
            if fr != F[r]:
                F[r] = fr
                changed = True

        # 5. inheritance: anything after the row's label is after every
        # first block that is after that label's last occurrence, and the
        # first blocks per (thread, variable) chain nest downward — so a
        # row absorbs the same-kind rows of every symbol in its after set
        for rho in range(ns):
            if rho == ai:
                continue
            rbase = rho * nT * nX
            rows = [F[rbase + k] for k in range(nT * nX)]
            if not any(rows):
                continue
            rbit = 1 << rho
            for c in range(ns):
                if c == ai or not A[c] & rbit:
                    continue
                cbase = c * nT * nX
                for k in range(nT * nX):
                    fr = rows[k]
                    if fr and F[cbase + k] | fr != F[cbase + k]:
                        F[cbase + k] |= fr
                        changed = True

        # 6. a lowered open flag proves a later same-kind block exists and
        # sits fully after the row's label, so the label is ordered before
        # that kind's latest annotated write occurrence.  When that write
        # is the arriving symbol itself, its stored row still describes
        # the previous occurrence; that older content is justified only if
        # the flag was already down before this step (a second block
        # already existed, pinning the previous occurrence after it).
        for c in range(ns):
            for t in range(nT):
                for v in range(nX):
                    r = u.row(c, t, v)
                    if eff_open[r] or F[r] == 0:
                        continue
                    w_sym = u.block_write_sym[(u.threads[t], u.variables[v])]
                    if F[r] >> w_sym & 1:
                        if w_sym != ai:
                            add = A[w_sym] | (1 << w_sym)
                        elif not state.open_[r]:
                            add = state.aft[ai] | abit
                        else:
                            add = abit
                        if A[c] | add != A[c]:
                            A[c] |= add
                            changed = True
        return changed

    def flag_rules() -> bool:
        # Lower open flags on fresh evidence of a second same-kind block.
        # Evidence is monotone: a row inherits a lowered flag from any
        # symbol in its after set, and the arrival of a new block lowers
        # every row already tracking an older first block.
        changed = False
        local = True
        while local:
            local = False
            for c in range(ns):
                if c == ai or A[c] == 0:
                    continue
                cbase = c * nT * nX
                for rho in bits(A[c]):
                    if rho == ai:
                        continue
                    rbase = rho * nT * nX
                    for k in range(nT * nX):
                        if (not eff_open[rbase + k] and F[rbase + k]
                                and eff_open[cbase + k]):
                            eff_open[cbase + k] = False
                            local = changed = True
            if new_block:
                for c in range(ns):
                    if c == ai:
                        continue
                    r = u.row(c, ti, xi)
                    if not eff_open[r] or F[r] == 0:
                        continue
                    flip = state.fba[r] != 0
                    if not flip:
                        for rho in bits(A[c]):
                            if rho == ai:
                                continue
                            rr = u.row(rho, ti, xi)
                            if F[rr] != 0 and not A[rho] >> ai & 1:
                                flip = True
                                break
                    if flip:
                        eff_open[r] = False
                        local = changed = True
        return changed

    while True:
        while mask_rules():
            pass
        if not flag_rules():
            break

    open_ = eff_open

    # ---- input-letter overrides ----------------------------------------
    A[ai] = abit
    base = ai * nT * nX
    for r in range(base, base + nT * nX):
        F[r] = 0
        open_[r] = True
        eff_tir[r] = False
    if marked:
        if lab.is_write():
            F[u.row(ai, ti, xi)] = abit
            eff_tir[u.row(ai, ti, xi)] = True
        else:
            F[u.row(ai, btheta[xi], xi)] = A[state.rf[xi]] | abit
            eff_tir[u.row(ai, btheta[xi], xi)] = True

    return SatState(u, tuple(blk), tuple(rf), tuple(A), tuple(F),
                    tuple(open_), tuple(eff_tir))


def sat_run(aw: Run, universe: Optional[Universe] = None) -> SatState:
    """Fold sat_step over an annotated run from the initial state."""
    if universe is None:
        universe = Universe.from_run(aw)
    q = sat_initial(universe)
    for s in symbols_of(aw):
        q = sat_step(q, s)
    return q


# ---- canonical serialization -------------------------------------------

def canonical_text(state: SatState) -> str:
    """Deterministic fixed-width rendering of the five public components.

    Every row of the fixed alphabet is emitted whether empty or not, and
    set rows are fixed-width hex bitmasks, so two states over the same
    universe always serialize to byte strings of identical length."""
    u = state.universe
    width = (len(u.symbols) + 3) // 4
    sw = max(2, len(str(len(u.symbols))))
    lines = []
    for v, var in enumerate(u.variables):
        lines.append("blk %s %0*x" % (var, width, state.blk[v]))
    for v, var in enumerate(u.variables):
        lines.append("rf %s %*d" % (var, sw, state.rf[v]))
    for c in range(len(u.symbols)):
        lines.append("aft %0*d %0*x" % (sw, c, width, state.aft[c]))
    for c in range(len(u.symbols)):
        for t in range(len(u.threads)):
            for v in range(len(u.variables)):
                r = u.row(c, t, v)
                lines.append(
                    "fba %0*d %d %d %0*x %d"
                    % (sw, c, t, v, width, state.fba[r], 0 if state.open_[r] else 1)
                )
    return "\n".join(lines) + "\n"


def symbols_of(run: Run) -> list[AnnLabel]:
    """The annotated symbol stream of a run."""
    return [(e.label, run.annotation_at(i)) for i, e in enumerate(run.events)]
