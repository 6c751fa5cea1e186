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
  the only one seen so far (flips once a second such block appears).

The transition is a least-fixpoint computation per input symbol: passes
of the mask rules 1-5, in a fixed order, until one changes nothing, then
one pass of the flags, which no mask rule reads.  Each pass
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
sweep on.  Rules 4b and 5 and the flags read none of the sweep's joins:
they mask a out of the rows they read, and when rule 1 adds a to a row R
that some row S has to contain, S contains R's other bits, so S met D as
well and took a in the same sweep.  Only rules 2-4, whose running block
on a's variable may hold a, read the sweep's joins, and the first pass
sweeps that variable.  A join of a made by any other rule is logged like
any change, as that row need not meet D; an A row whose one gain was a
gives rule 5 and the flags nothing to fire on, as they mask a out.

*A block opener's own rows are settled without re-examination.*  A
marked write a on variable x by thread t opens a block, and rule 2
starts tracking it in the empty rows, at a's own pair (t, x), of the
symbols c whose after row holds a: each such row becomes exactly {a}.
Such a row is not logged, as no reader needs it:

* rules 2-4 sweep x in full on the first pass; the running block's
  after set is {a} all step, so rule 3 has nothing to add, and rule 4
  skips the row, the running block's own;
* rule 4b masks a out of the rows it reads;
* rule 5 passes c's row only to a symbol d with c in A[d].  In the
  step's fixpoint a is in A[d] as well (d's last occurrence precedes
  c's, which precedes a), so d's row at (t, x) holds a: rule 2 opened it
  like c's, or it already tracked an older block of the pair, whose
  write is a's previous occurrence;
* the flags' new-block flip reads the rows at (t, x) directly, and
  inheritance reads A rows only.

*The previous fixpoint carries over.*  A step starts from a state that
was closed under every rule, with the previous arrival p masked out,
before the overrides at the end of that step rewrote p's rows: A[p] =
{p}, p's flags up, p's first-block rows empty but one, r0, which tracks
p's running block.  Masking out a instead of p drops the constraints on
a and adds those on p, so only what involves p can fail to hold:

* rules 2-4 and 4b may fire on r0, so the log they read opens with the
  non-empty rows of every symbol whose after row is just its own bit (p
  is one of them; the state does not name p), and rules 2-4 sweep a's
  variable, whose running block changed;
* rule 5 needs nothing: for each c with p in A[c], row (c, r0's pair)
  already held r0.  Rule 2 made such a row track p's running block if it
  was empty, and a non-empty row holds the bit of its pair's block write,
  a member of that block; either way rule 3 or 4 put the block's after
  set, which contains r0, into it;
* the flags need nothing: p's rows are all open.

*Which rows track the running block is derived, not stored.*  Rules 2-4
treat a row r = (c, t, v) as tracking v's running block B when rule 2
started it this step, or when at the step's start r is non-empty, its
flag is up, B's writer is t, and the arriving symbol does not replace B.
At a step's start this is exact: a non-empty row tracks the first block
of its kind after c, that block is the last of its kind iff the flag is
up, and B is the last block of its kind.  The reference step in
``tests/monitor_reference.py`` stores the bit, and keeps it up on some
rows whose flag is down.  There rule 4 fires where the reference applies
rule 3, and adds to A[c] only what the fixpoint puts there anyway: the
flag says a later block of the row's kind follows all of c, and B is
the last block of that kind.

*A lowered flag needs no rule of its own.*  For a row (c, t, v) whose
flag is down, A[c] holds A[w] and w, w being the write of the latest
block of the kind, which lies wholly after c; rules 1, 4 and 5 keep it
there.  The flag went down by inheritance from a symbol d in A[c], whose
A row lies inside A[c] and holds them by the same argument, or by the
flip, when a later block B' of the kind opened with write w'.  In that
step B''s after set is {w'}, and A[c] holds w': rule 2 started the row
tracking B', which needs w' in A[c], or the row, which holds an earlier
write of w''s thread and so w' (rule 1), made rule 4 fire.  While B'
runs, the row, its flag down, does not track B', so rule 4 joins B''s
growing after set into A[c]; the same holds for every later block of
the kind.  A[w] grows after that by rule 1, which joins A[c] too, as
A[c] holds A[w], or by rule 4 through a row of w, which rule 5 joined
into c's row at that offset, so rule 4 fires for c as well.

*The flags pass no drop on.*  A drop at a non-empty row (d, k), lowered
or grown this step, would reach each open row (c, k) with d in A[c], and
on from there; each such row is lowered without that.  If A[c] grew
this step, c inherits from d's row directly, or, when d inherited this
step, from the row d inherited from, whose symbol A[c] holds too.  If
A[c] did not grow, d was in A[c] at the step's start, so c's row held
d's (rule 5) and A[c] held A[d].  If the flip lowered (d, k), its
reason, a row that was non-empty or a symbol of ``older`` in A[d], holds
for c as well, so the flip lowers (c, k).  A drop that d had before the
step, or inherited from a row lowered before it, c had already, as the
state the step starts from is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
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


def sat_initial(universe: Universe) -> SatState:
    """All-empty maps, no last write, every open flag raised."""
    nv = len(universe.variables)
    nr = universe.nrows()
    return SatState(
        universe,
        blk=(0,) * nv,
        rf=(-1,) * nv,
        aft=(0,) * len(universe.symbols),
        fba=(0,) * nr,
        open_=(True,) * nr,
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

    # per variable, the symbols whose row at the running block's pair
    # tracks that block: non-empty rows with their flag up, unless this
    # symbol replaced the block; rule 2 adds the rows it starts
    track = [0] * nX
    for v, th in enumerate(btheta):
        if th >= 0 and (v != xi or not new_block):
            col = zip(old_F[th * nX + v::tx], state.open_[th * nX + v::tx])
            track[v] = sum(1 << c for c, (f, up) in enumerate(col) if f and up)

    # Change log: a row r of F that grew is logged as r, a symbol c whose A
    # row grew as nr + c.  Each change-driven section reads the entries
    # logged since its previous run began.  The log opens with the
    # non-empty rows of the symbols the previous step's overrides may
    # have rewritten, read by rules 2-4 and 4b only, and rule 1's sweep is
    # not logged (module docstring).
    seeds = [c for c, a in enumerate(state.aft) if a == 1 << c and c != ai]
    log = [r for c in seeds for r in range(c * tx, (c + 1) * tx) if old_F[r]]
    since = dict.fromkeys(("5", "flags"), len(log))
    since.update(dict.fromkeys(("24", "4b"), 0))
    closures: list[Optional[int]] = [None] * nX  # rules 2-4: each block's last after set

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
            else:
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
                cands = [c for c in others if track[v] >> c & 1 or A[c] & bv]
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
                if not track[v] >> c & 1 and A[c] & bv and not old_F[r]:
                    track[v] |= 1 << c
                    if opens and not F[r]:
                        F[r] = abit  # settled unlogged (module docstring)
                        continue
                # 3. a tracked running block keeps its row in sync with
                # the block's growing after set
                if track[v] >> c & 1 and F[r] | closure != F[r]:
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
                c = r // tx
                if r % tx == off and track[v] >> c & 1:
                    continue  # the running block itself
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

        return len(log) != start

    while mask_rules():
        pass

    # Flags, once, at the fixpoint of the mask rules, none of which reads
    # them: lower open flags on evidence of a second same-kind block.  The
    # arrival of a new block lowers every row already tracking an older
    # first block, and a symbol whose A row grew this step inherits a
    # lowered flag from any symbol in its after set whose row at the same
    # offset is lowered and non-empty (module docstring).
    if new_block:
        older = sum(1 << c for c in others if F[c * tx + kx] and not A[c] & abit)
        for c in others:
            r = c * tx + kx
            if eff_open[r] and F[r] and (old_F[r] or A[c] & older):
                eff_open[r] = False
    syms = changes(since["flags"])[0] & notai
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
                    eff_open[c * tx + k] = False

    # ---- input-letter overrides ----------------------------------------
    A[ai] = abit
    base = ai * tx
    F[base:base + tx] = [0] * tx
    eff_open[base:base + tx] = [True] * tx
    if marked:
        r = base + (ti if new_block else btheta[xi]) * nX + xi
        F[r] = abit if new_block else A[state.rf[xi]] | abit

    return SatState(u, tuple(blk), tuple(rf), tuple(A), tuple(F), tuple(eff_open))


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
