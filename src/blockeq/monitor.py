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

The transition is a least-fixpoint computation per input symbol: passes
of the rules, in a fixed order, until one changes nothing.  Each pass
re-examines, in the same order, only the rule instances whose inputs
changed since their rule last ran, and only instances that cannot fire
are skipped, so every pass leaves the state a sweep of every instance
would (``tests/monitor_reference.py`` keeps such a step and the tests
compare the two from every state they reach).  Sets are bitmasks over
the symbol universe, so each step costs time polynomial in the alphabet
size and constant in the stream length; two arguments let the first
pass, too, do work in proportion to what the step changes.

*Rule 1 runs once per step, outside the change log.*  Rule 1 joins the
arriving symbol a into every row that meets its dependence set D.  D is
new every step, so the step opens with one sweep of every row for it.
No later pass needs another: every other rule grows a row by joining in
other rows, and bits b whose after row it joins as well (a's own bit
aside; b's row holds b), so a join that brings D into a row brings a row
that meets D, which holds a.  Every row that meets D holds a from the
sweep on.  Rules 4b, 5 and 6 and the flags read none of the sweep's
joins: they mask a out of the rows they read, and when rule 1 adds a to
a row R that some row S has to contain, S contains R's other bits, so S
met D as well and took a in the same sweep.  (Rule 6 reads a's bit in
the rows of a's own pair when a is a block write, and examines those
rows on its first run; one whose flag drops later is examined again as a
lowered row, and one that gains a later is logged.)  Only rules 2-4,
whose running block on a's variable may hold a, read the sweep's joins,
and the first pass sweeps that variable.  A join of a made by any other
rule is logged like any change, as that row need not meet D; an A row
whose one gain was a gives rules 5 and the flags nothing to fire on, as
they mask a out.

*A block opener's own rows are settled without re-examination.*  A
marked write a on variable x by thread t opens a block, and rule 2
starts tracking it in the empty rows, at a's own pair (t, x), of the
symbols c whose after row holds a: each such row becomes exactly {a}.
While its flag is up such a row is not logged, as no reader needs it:

* rules 2-4 sweep x in full on the first pass; the running block's
  after set is {a} all step, so rule 3 has nothing to add, and rule 4
  skips the row, the running block's own;
* rule 4b masks a out of the rows it reads;
* rule 5 passes c's row only to a symbol d with c in A[d].  In the
  step's fixpoint a is in A[d] as well (d's last occurrence precedes
  c's, which precedes a), so d's row at (t, x) holds a: rule 2 opened it
  like c's, or it already tracked an older block of the pair, whose
  write is a's previous occurrence;
* rule 6 reads only rows whose flag is down, and a row whose flag drops
  is examined again as a lowered row;
* the flags' new-block flip reads the rows at (t, x) directly, and
  inheritance starts only from lowered rows, one the flip lowered among
  them.

A row whose flag is already down would be missed by inheritance, which
finds the grown lowered rows in the log, so it is logged.  None occurs:
a flag drops only on a non-empty row, by the flip, or by inheritance
from a lowered, non-empty row of a symbol in the row's after set, and
the flags run at a fixpoint of the mask rules, where rule 5 (or, for a
row {a}, the argument above) has joined that row into the heir's.

*The previous fixpoint carries over.*  A step starts from a state that
was closed under every rule, with the previous arrival p masked out,
before the overrides at the end of that step rewrote p's rows: A[p] =
{p}, p's flags up, p's first-block rows empty but one, r0.  Masking out
a instead of p drops the constraints on a and adds those on p, so only
what involves p can fail to hold:

* rules 2-4 and 4b may fire on r0 and on p's tir bits, so the log they
  read opens with the non-empty rows of every symbol whose after row is
  just its own bit (p is one of them; the state does not name p), and
  rules 2-4 sweep a's variable, whose running block changed;
* rule 5 needs nothing: for each c with p in A[c], row (c, r0's pair)
  already held r0.  Rule 2 made such a row track p's running block if it
  was empty, and a non-empty row holds the bit of its pair's block write,
  a member of that block; either way rule 3 or 4 put the block's after
  set, which contains r0, into it;
* rule 6 and the flags need nothing: p's rows are all open.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Iterable, Optional

from .orders import bits
from .trace import READ, WRITE, AnnLabel, Label, Run, cross_dep_rows


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
        # extended-dependence rows: the cross-thread row of the symbol's
        # place in its thread's block, plus that whole block (same-thread
        # symbols always depend)
        cross = cross_dep_rows(self.threads, self.variables)
        span = len(cross)  # symbols per thread
        self.dep_mask: list[int] = [
            cross[i % span] | ((1 << span) - 1) << i // span * span
            for i in range(len(self.symbols))
        ]
        # row (c, t, v) is c * stride + t * |variables| + v: a symbol's rows
        # are one slice, and the offset t * |variables| + v names a pair
        self.stride = len(self.threads) * len(self.variables)
        # per offset, the symbol of that pair's annotated write
        self.block_write = tuple(self.sym_index[(Label(t, WRITE, v), True)]
                                 for t in self.threads for v in self.variables)
        self.write_offset = {w: k for k, w in enumerate(self.block_write)}
        self.block_write_mask = sum(1 << w for w in self.block_write)
        self.write_mask = sum(1 << i for i, (lab, _) in enumerate(self.symbols) if lab.is_write())
        self.sym_thread = tuple(self.thread_index[lab.thread] for lab, _ in self.symbols)

    @classmethod
    def from_run(cls, run: Run) -> "Universe":
        return cls(run.threads, run.variables)

    def row(self, c: int, t: int, v: int) -> int:
        return c * self.stride + t * len(self.variables) + v

    def nrows(self) -> int:
        return len(self.symbols) * self.stride


@dataclass(frozen=True)
class SatState:
    universe: Universe
    blk: tuple[int, ...]      # per variable: mask of running-block symbols
    rf: tuple[int, ...]       # per variable: symbol index of last write, -1 if none
    aft: tuple[int, ...]      # per symbol: after-set mask
    fba: tuple[int, ...]      # per (symbol, thread, variable) row: mask
    open_: tuple[bool, ...]   # per row: first tracked block still unique?
    tir: tuple[bool, ...]     # per row: tracked block is the running block


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
    nX = len(u.variables)
    ns, tx = len(u.symbols), u.stride
    nr = ns * tx
    abit = 1 << ai
    notai = ~abit
    others = [c for c in range(ns) if c != ai]
    new_block = marked and lab.is_write()
    kx = ti * nX + xi  # offset of the arriving symbol's own pair

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

    # per-variable writer thread of the running block (its one write)
    btheta = [u.sym_thread[(m & u.write_mask).bit_length() - 1] if m & u.write_mask else -1
              for m in blk]
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
    old_F = state.fba
    eff_open = list(state.open_)

    # "tracked first block is the running block": a new annotated write
    # replaces the running block on its variable, an unannotated event
    # clears it; rows that start tracking this step are set below.
    eff_tir = list(state.tir)
    if new_block or not marked:
        eff_tir[xi::nX] = [False] * (nr // nX)  # the rows on variable xi

    # Change log: a row r of F that grew is logged as r, a symbol c whose A
    # row grew as nr + c, a raised tir bit as -1.  Each change-driven
    # section reads the entries logged since its previous run began.  The
    # log opens with the non-empty rows of the symbols the previous
    # step's overrides may have rewritten, read by rules 2-4 and 4b
    # only, and rule 1's sweep is not logged (module docstring).
    seeds = [c for c, a in enumerate(state.aft) if a == 1 << c and c != ai]
    log = [r for c in seeds for r in range(c * tx, (c + 1) * tx) if old_F[r]]
    since = dict.fromkeys(("5", "6", "flags"), len(log))
    since.update(dict.fromkeys(("24", "4b", "dropped"), 0))
    dropped: list[int] = []  # rows whose open flag went down, in order
    closures: list[Optional[int]] = [None] * nX  # rules 2-4: each block's last after set
    unswept = set(range(kx, nr, tx)) if new_block else set()  # rule 6: its first run only

    # 1. the arriving symbol joins every row it depends into
    A = [a | abit if a & dep_in else a for a in state.aft]
    F = [f | abit if f & dep_in else f for f in old_F]

    def changes(pos: int, syms: int = 0,
                rows: Optional[set[int]] = None) -> tuple[int, set[int]]:
        # since pos: mask of symbols whose A row grew, F rows that grew;
        # added to syms and rows when given
        rows = set() if rows is None else rows
        for e in log[pos:]:
            if e >= nr:
                syms |= 1 << (e - nr)
            elif e >= 0:
                rows.add(e)
        return syms, rows

    def mask_rules() -> bool:
        start = len(log)

        # changes since the last run began, caught up as this run logs more
        read, since["24"] = since["24"], len(log)
        syms24, rows24 = 0, set()
        for v in range(nX):
            bv = blk[v]
            if bv == 0:
                continue
            th = btheta[v]
            # after set of the running block on v: the members plus
            # everything after any member's latest occurrence.  The
            # arriving symbol's own stored row is stale (it describes the
            # previous occurrence), and the current occurrence is last, so
            # only its member bit counts.
            closure = bv
            m = bv & notai
            while m:
                low = m & -m
                closure |= A[low.bit_length() - 1]
                m ^= low

            # every instance on v is examined when the block's after set
            # changed, and on the arriving symbol's variable in the first
            # run; otherwise those whose rows changed since the last run
            prev, closures[v] = closures[v], closure
            full = closure != prev if prev is not None else v == xi
            off = th * nX + v
            opens = new_block and v == xi  # the new block's own pair
            if full:  # the instances below that can fire
                cands = [c for c in others if eff_tir[c * tx + off] or A[c] & bv]
            else:
                syms24, rows24 = changes(read, syms24, rows24)
                read = len(log)
                if prev is None:
                    syms24 |= sum(1 << c for c in seeds)
                cands = bits(syms24 & notai)
            for c in cands:
                r = c * tx + off
                # 2. start tracking: a running-block member inside an
                # after row opens first-block tracking for that row
                if not eff_tir[r] and A[c] & bv and not old_F[r]:
                    eff_tir[r] = True
                    if opens and not F[r] and eff_open[r]:
                        F[r] = abit  # settled unlogged (module docstring)
                        continue
                    log.append(-1)
                # 3. a tracked running block keeps its row in sync with
                # the block's growing after set
                if eff_tir[r] and F[r] | closure != F[r]:
                    F[r] |= closure
                    log.append(r)

            # 4. block-level step: a first-block row holding a member of
            # a *different* running block on its variable orders the whole
            # running block after the tracked block and the row's label
            if not full:
                syms24, rows24 = changes(read, syms24, rows24)
                read = len(log)
            rows = range(v, nr, nX) if full else sorted(rows24)
            for r in [r for r in rows if r % nX == v and F[r] & bv and r // tx != ai]:
                if r % tx == off and eff_tir[r]:
                    continue  # the running block itself
                c = r // tx
                if A[c] | closure != A[c]:
                    A[c] |= closure
                    log.append(nr + c)
                if F[r] | closure != F[r]:
                    F[r] |= closure
                    log.append(r)

        # 4b. transitivity through after rows: a symbol inside a
        # first-block row pins everything after its own last occurrence
        # into that row as well (the arriving symbol's stored after row is
        # stale, but its fresh contribution is exactly the joins rule 1
        # already makes).  Only rows that grew, or hold a symbol whose A
        # row grew, since the last run can gain; equal rows gain alike.
        syms, rows = changes(since["4b"])
        since["4b"] = len(log)
        syms &= notai
        if syms:
            rows.update(r for r in range(nr) if F[r] & syms)
        memo: dict[int, int] = {}
        for r in rows:
            fr = F[r]
            out = memo.get(fr)
            if out is None:
                out = fr
                m = fr & notai
                while m:
                    low = m & -m
                    out |= A[low.bit_length() - 1]
                    m ^= low
                memo[fr] = out
            if out != fr:
                F[r] = out
                log.append(r)

        # 5. inheritance: anything after the row's label is after every
        # first block that is after that label's last occurrence, and the
        # first blocks per (thread, variable) chain nest downward — so a
        # row absorbs the same-kind rows of every symbol in its after set.
        # Swept with rho ascending, rho's rows are final when rho is
        # visited, so each c gains the rows of every symbol in A[c] as they
        # stand once the lower ones are done: computed per c, lower first.
        # A pair (rho, c) can add something at an offset only if rho's row
        # there grew (also earlier in this run) or A[c] changed since the
        # last run.  Each offset is swept on its own, over its column as
        # the rows stand now.
        syms, rows = changes(since["5"])
        since["5"] = len(log)
        syms &= notai
        owners = [0] * tx  # per offset, the symbols whose row there grew
        for r in rows:
            owners[r % tx] |= 1 << (r // tx)
        for k in range(tx):
            own = owners[k]
            if not own and not syms:
                continue
            col = F[k::tx]
            grew = 0
            for above in (False, True):
                # the symbols c with a pair to examine, lowest first; in
                # the first sweep a c that grows joins the owners, and
                # the higher symbols holding it join the sweep
                todo = syms | sum(1 << c for c in others if A[c] & own)
                joins: dict[int, int] = {}  # rho mask -> union of their rows
                while todo:
                    c = (todo & -todo).bit_length() - 1
                    todo &= todo - 1
                    m = A[c] & notai & ((-2 << c) if above else ((1 << c) - 1))
                    if not syms >> c & 1:
                        m &= own
                    add = joins.get(m)
                    if add is None:
                        add, rest = 0, m
                        while rest:
                            low = rest & -rest
                            add |= col[low.bit_length() - 1]
                            rest ^= low
                        joins[m] = add
                    if col[c] | add != col[c]:
                        col[c] |= add
                        grew |= 1 << c
                        joins.clear()
                        if not above:
                            own |= 1 << c
                            todo |= sum(1 << d for d in others if d > c and A[d] >> c & 1)
            for c in bits(grew):
                F[c * tx + k] = col[c]
                log.append(c * tx + k)

        rule_6()
        return len(log) != start

    def rule_6() -> bool:
        # 6. a lowered open flag proves a later same-kind block exists and
        # sits fully after the row's label, so the label is ordered before
        # that kind's latest annotated write occurrence.  When that write
        # is the arriving symbol itself, its stored row still describes
        # the previous occurrence; that older content is justified only if
        # the flag was already down before this step (a second block
        # already existed, pinning the previous occurrence after it).
        # Examined in row order: rows that grew or were lowered since the
        # last run, the rows of a write whose A row grew (also earlier in
        # this run, on later rows), and, on the first run, those of the
        # arriving write; the arriving symbol's own rows are skipped, as
        # only A[ai] could grow.
        start = len(log)
        syms, rows = changes(since["6"])
        since["6"] = len(log)
        rows.update(dropped[since["dropped"]:])
        since["dropped"] = len(dropped)
        for w in bits(syms & u.block_write_mask & notai):
            rows.update(range(u.write_offset[w], nr, tx))
        rows |= unswept
        unswept.clear()
        bw = u.block_write
        heap = [r for r in rows
                if r // tx != ai and not eff_open[r] and F[r] >> bw[r % tx] & 1]
        heapify(heap)
        while heap:
            r = heappop(heap)
            w_sym = bw[r % tx]
            if w_sym != ai:
                add = A[w_sym] | (1 << w_sym)
            elif not state.open_[r]:
                add = state.aft[ai] | abit
            else:
                add = abit
            c = r // tx
            if A[c] | add != A[c]:
                A[c] |= add
                log.append(nr + c)
                if u.block_write_mask >> c & 1:
                    for r2 in range(u.write_offset[c], nr, tx):
                        if (r2 > r and r2 // tx != ai and r2 not in rows
                                and not eff_open[r2] and F[r2] >> c & 1):
                            rows.add(r2)
                            heappush(heap, r2)
        return len(log) != start

    def flag_rules() -> bool:
        # Lower open flags on fresh evidence of a second same-kind block.
        # Evidence is monotone: a row inherits a lowered flag from any
        # symbol in its after set whose row at the same offset is lowered
        # and non-empty, and the arrival of a new block lowers every row
        # already tracking an older first block: the least fixpoint of
        # both, in any order.  Since the last run a symbol whose A row grew
        # can inherit at any offset; any other only at the offset of a
        # row lowered, or grown while lowered, since then, from its
        # symbol, and a row lowered there passes it on at that offset.
        syms, rows = changes(since["flags"])
        since["flags"] = len(log)
        fresh = [0] * tx  # per offset, symbols whose row there may newly pass it on
        for r in rows:
            if not eff_open[r]:
                fresh[r % tx] |= 1 << (r // tx)
        start = len(dropped)

        def lower(c: int, k: int) -> None:
            r = c * tx + k
            eff_open[r] = False
            dropped.append(r)
            if F[r]:
                fresh[k] |= 1 << c

        if new_block:
            older = sum(1 << c for c in others if F[c * tx + kx] and not A[c] & abit)
            for c in others:
                r = c * tx + kx
                if eff_open[r] and F[r] and (old_F[r] or A[c] & older):
                    lower(c, kx)
        syms &= notai
        if syms:
            # per offset, the symbols whose row there is lowered and non-empty
            lowered = [0] * tx
            for r in range(nr):
                if not eff_open[r] and F[r]:
                    lowered[r % tx] |= 1 << (r // tx)
            for c in bits(syms):
                a = A[c] & notai
                for k in range(tx):
                    if eff_open[c * tx + k] and a & lowered[k]:
                        lower(c, k)
        for k in range(tx):
            while fresh[k] & notai:
                new, fresh[k] = fresh[k] & notai, 0
                for c in [c for c in others if eff_open[c * tx + k] and A[c] & new]:
                    lower(c, k)
        return len(dropped) != start

    # Rule 6 is the only mask rule that reads the flags, so after they
    # drop it runs alone.  The other rules, and the flags, can gain only
    # from a row it grew, so the loop ends when it grows none.
    while True:
        while mask_rules():
            pass
        if not flag_rules() or not rule_6():
            break

    # ---- input-letter overrides ----------------------------------------
    A[ai] = abit
    base = ai * tx
    F[base:base + tx] = [0] * tx
    eff_open[base:base + tx] = [True] * tx
    eff_tir[base:base + tx] = [False] * tx
    if marked:
        r = base + (ti if new_block else btheta[xi]) * nX + xi
        F[r] = abit if new_block else A[state.rf[xi]] | abit
        eff_tir[r] = True

    return SatState(u, tuple(blk), tuple(rf), tuple(A), tuple(F),
                    tuple(eff_open), tuple(eff_tir))


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
    return list(zip(run.labels, run.annotations))
