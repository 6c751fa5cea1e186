"""Constant-space streaming monitor for the saturated block order.

The monitor consumes an annotated run one symbol at a time (a symbol is a
label plus its block-membership bit) and maintains, per annotated label,
the after set of that label's most recent occurrence — together with
enough block-tracking bookkeeping to stay exact under block-level
saturation.  Its state size depends only on the alphabet (threads and
variables), never on the length of the stream.  The alphabet's
``Universe`` (trace.py) numbers the symbols and holds the step's tables.

State components (all keyed by the fixed alphabet):

* ``blk``  — per variable, the symbols of the running block (empty if the
  last write on the variable is unmarked);
* ``rf``   — per variable, the symbol of the last write;
* ``aft``  — per symbol, the after set of its last occurrence;
* ``fba``  — per symbol, one int holding its first-block rows: for each
  (thread t, variable v), at offset k = t * |variables| + v, the field
  of |symbols| + 1 bits at bit k * (|symbols| + 1) holds the after set
  of the first block on v, with writer thread t, holding an event
  at-or-after the symbol's last occurrence; the field's top bit, its
  guard, is always clear;
* ``open_``— per symbol, a mask whose bit k is up while the first block
  at offset k is the only one seen so far (it drops once a second such
  block appears).

*Rows are packed per symbol.*  The guard bit lets one addition test
every field of a symbol at once: with each field masked to a set S,
adding 2^|symbols| - 1 to every field carries into the guard exactly
the fields that meet S, and no carry crosses a guard.  So rule 1 finds
the fields that meet its dependence set in a few integer operations per
symbol and joins the arriving symbol into them by shifting those guard
bits down to its bit; rule 4 finds a symbol's fields on a variable that
meet the running block the same way, and multiplying the hit fields'
low bits by the block's after set writes it into all of them at once;
and rule 5, which joins rows at the same offset, joins packed ints
whole.

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
the last block of that kind.  The flag test stays although no check
has seen it change a state: the next argument, which lets a lowered
flag go without a rule of its own, needs rule 4 to fire on a
flag-down row while a later block of its kind runs, and a row that
tracked that block would be skipped by rule 4.

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
from itertools import compress, repeat
from operator import and_, eq
from typing import Optional

from .orders import bits
from .trace import AnnLabel, Run, Universe


@dataclass(frozen=True)
class SatState:
    universe: Universe
    blk: tuple[int, ...]      # per variable: mask of running-block symbols
    rf: tuple[int, ...]       # per variable: symbol index of last write, -1 if none
    aft: tuple[int, ...]      # per symbol: after-set mask
    fba: tuple[int, ...]      # per symbol: its first-block rows, one field per pair
    open_: tuple[int, ...]    # per symbol: bit k up while row k's first block is unique


def sat_initial(universe: Universe) -> SatState:
    """All-empty maps, no last write, every open flag raised."""
    nv, ns = len(universe.variables), len(universe.symbols)
    return SatState(
        universe,
        blk=(0,) * nv,
        rf=(-1,) * nv,
        aft=(0,) * ns,
        fba=(0,) * ns,
        open_=((1 << universe.stride) - 1,) * ns,
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
    ai = u.index(sym)
    marked = sym[1]
    nX = len(u.variables)
    ns, tx = len(u.symbols), u.stride
    xi, ti = u.var_index[sym[0].variable], u.sym_thread[ai]
    is_write = u.write_mask >> ai & 1
    abit = 1 << ai
    notai = ~abit
    new_block = marked and is_write
    kx = ti * nX + xi  # offset of the arriving symbol's own pair

    dep_in = _dep_in(state, ai)  # validates reads against rf

    # running-block and last-write updates
    blk = list(state.blk)
    if marked:
        blk[xi] = abit if is_write else state.blk[xi] | abit
    else:
        blk[xi] = 0
    rf = list(state.rf)
    if is_write:
        rf[xi] = ai

    # per-variable writer thread of the running block (its one write)
    btheta = [u.sym_thread[(m & u.write_mask).bit_length() - 1] if m & u.write_mask else -1
              for m in blk]
    if marked and not is_write and btheta[xi] < 0:
        raise ValueError(
            "marked read %s %s observes an unmarked write" % (sym[0].thread, sym[0].variable)
        )

    # Field arithmetic: FULL is one row's mask, LOW and GUARD hold each
    # field's low and guard bit, DATA every field's row bits.  Adding
    # DATA to a packed int whose fields are masked sets the guard bit of
    # exactly the fields that are non-empty, and no carry crosses a guard.
    FULL = (1 << ns) - 1
    LOW = u.field_low
    GUARD = LOW << ns
    DATA = GUARD - LOW

    def grown(old: int, new: int) -> int:
        # guard bits of the fields in which new exceeds old
        return ((new ^ old) + DATA) & GUARD

    # ---- least fixpoint over after rows and first-block rows ----------
    # Blocks on one (writer thread, variable) pair are always ordered
    # blockwise: their writes are program-ordered, so the block-level step
    # applies to every such pair.  Hence the tracked first block is the
    # *last* block of its kind exactly when the row's open flag is up, and
    # the flag goes down precisely when a later same-kind block exists.
    old_F = state.fba
    O = list(state.open_)

    # per variable, the symbols whose row at the running block's pair
    # rule 2 started tracking that block this step
    started = [0] * nX

    # Change log: (c, g) when symbol c's fields under guard bits g grew,
    # (c, 0) when c's A row grew.  Each change-driven section reads the
    # entries logged since its previous run began.  The log opens with
    # the non-empty rows of the symbols the previous step's overrides may
    # have rewritten, read by rules 2-4 and 4b only, and rule 1's sweep is
    # not logged (module docstring).
    single = u.single
    seeds = sum(compress(single, map(eq, state.aft, single))) & notai
    log = [(c, (old_F[c] + DATA) & GUARD) for c in bits(seeds) if old_F[c]]
    since = dict.fromkeys(("5", "flags"), len(log))
    since.update(dict.fromkeys(("24", "4b"), 0))
    closures: list[Optional[int]] = [None] * nX  # rules 2-4: each block's last after set

    # 1. the arriving symbol joins every row it depends into: a field
    # meets dep_in iff its masked value carries into the guard bit
    A = [a | abit if a & dep_in else a for a in state.aft]
    spread, down = dep_in * LOW, ns - ai
    F = [P | g >> down if P and (g := ((P & spread) + DATA) & GUARD) else P for P in old_F]

    def changes(pos: int, syms: int = 0,
                fields: Optional[dict[int, int]] = None) -> tuple[int, dict[int, int]]:
        # since pos: mask of symbols whose A row grew, and per symbol the
        # guard bits of its fields that grew; added to syms and fields
        fields = {} if fields is None else fields
        for c, g in log[pos:]:
            if g:
                fields[c] = fields.get(c, 0) | g
            else:
                syms |= 1 << c
        return syms, fields

    def mask_rules() -> bool:
        start = len(log)

        # changes since the last run began, caught up as this run logs more
        read, since["24"] = since["24"], len(log)
        syms24, fields24 = 0, {}
        for v in range(nX):
            bv = blk[v]
            if bv == 0:
                continue
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
            k = btheta[v] * nX + v  # the running block's pair
            sh = k * (ns + 1)
            field, gbit = FULL << sh, 1 << sh + ns  # its field and guard bit
            ngbit = ~gbit
            col = u.column_low << v * (ns + 1)
            # a row that was non-empty at the step's start tracks the
            # block iff its flag is up and the block is not the arriving
            # symbol's new one; an empty one iff rule 2 started it
            opens = new_block and v == xi
            kept = 0 if opens else 1 << k
            tv = started[v]
            if opens and full:
                # The new block's after set is {a}.  Rule 4 writes nothing
                # into first-block rows, which hold a wherever they meet
                # the block, and joins a into the A rows that lack it; no
                # row tracks the block but those rule 2 starts, in the
                # empty rows of the symbols whose A row holds a.
                hits = col << ai
                for c in range(ns):
                    if c == ai:
                        continue
                    if A[c] & abit:
                        if not old_F[c] & field:
                            tv |= 1 << c
                            P = F[c]
                            F[c] = P | abit << sh
                            if P & field and F[c] != P:
                                log.append((c, gbit))
                    elif F[c] & hits:
                        A[c] |= abit
                        log.append((c, 0))
                started[v] = tv
                continue
            if full:
                # rules 2-4 for one symbol read and write its own rows and
                # A row only, so each symbol takes them in turn
                rows = range(ns)
            else:
                syms24, fields24 = changes(read, syms24, fields24)
                read = len(log)
                if prev is None:
                    syms24 |= seeds
                rows = sorted(set(bits(syms24)).union(fields24))
            spread, data, guard = bv * col, (col << ns) - col, col << ns
            for c in rows:
                if c == ai:
                    continue
                P = F[c]
                if old_F[c] & field:
                    tracked = O[c] & kept
                elif tv >> c & 1:
                    tracked = True
                elif A[c] & bv and (full or syms24 >> c & 1):
                    # 2. start tracking: a running-block member inside an
                    # after row opens first-block tracking for that row
                    tv |= 1 << c
                    tracked = True
                    if opens and not P & field:
                        # the row becomes {a}, the closure; settled
                        # unlogged (module docstring)
                        F[c] = P = P | closure << sh
                else:
                    tracked = False
                # 4. block-level step: a first-block row holding a member
                # of a *different* running block on its variable orders the
                # whole running block after the tracked block and the row's
                # label.  One guard test finds the symbol's fields on v that
                # meet the block.
                hit = P & spread
                g = hit and (hit + data) & guard
                if g and not full:
                    g &= fields24.get(c, 0)
                if tracked:
                    g &= ngbit  # the running block itself
                if g and A[c] | closure != A[c]:
                    A[c] |= closure
                    log.append((c, 0))
                # 3. a tracked running block keeps its row in sync with
                # the block's growing after set.  Multiplying the low bits
                # of that field and of rule 4's by the closure writes it
                # into all of them at once.
                if tracked and (full or syms24 >> c & 1):
                    g |= gbit
                if g:
                    new = P | (g >> ns) * closure
                    if new != P:
                        F[c] = new
                        log.append((c, grown(P, new)))
            started[v] = tv

        # 4b. transitivity through after rows: a symbol inside a
        # first-block row pins everything after its own last occurrence
        # into that row as well (the arriving symbol's stored after row is
        # stale, but its fresh contribution is exactly the joins rule 1
        # already makes).  Only rows that grew, or hold a symbol whose A
        # row grew, since the last run can gain; equal rows gain alike.
        # A row that did not grow gains only the A rows that grew, each
        # joined into every field holding its symbol by one product.
        syms, fields = changes(since["4b"])
        since["4b"] = len(log)
        gains: dict[int, int] = {}
        memo: dict[int, int] = {}
        for c, g in fields.items():
            P, add = F[c], 0
            while g:
                low = g & -g
                g ^= low
                sh = low.bit_length() - 1 - ns
                fr = P >> sh & FULL
                out = memo.get(fr)
                if out is None:
                    out = fr
                    m = fr & notai
                    while m:
                        low = m & -m
                        out |= A[low.bit_length() - 1]
                        m ^= low
                    memo[fr] = out
                add |= out << sh
            gains[c] = add
        if syms & notai:
            joins = [(b, A[b]) for b in bits(syms & notai)]
            for c, P in enumerate(F):
                add = 0
                for b, row in joins:
                    hit = P >> b & LOW
                    if hit:
                        add |= hit * row
                if add:
                    gains[c] = gains.get(c, 0) | add
        for c, add in gains.items():
            P = F[c]
            if P | add != P:
                F[c] = P | add
                log.append((c, grown(P, P | add)))

        # 5. inheritance: anything after the row's label is after every
        # first block that is after that label's last occurrence, and the
        # first blocks per (thread, variable) chain nest downward — so a
        # row absorbs the same-kind rows of every symbol in its after set.
        # Same-kind rows sit at the same offset, so a symbol's packed rows
        # absorb a packed int whole.  Swept with rho ascending, rho's rows
        # are final when rho is visited, so each c gains the rows of every
        # symbol in A[c] as they stand once the lower ones are done:
        # computed per c, lower first.  A pair (rho, c) can add something
        # only if rho's rows grew (also earlier in this run) or A[c]
        # changed since the last run.
        syms, fields = changes(since["5"])
        since["5"] = len(log)
        syms &= notai
        own = sum(1 << c for c in fields)
        if own or syms:
            before: dict[int, int] = {}  # grown symbols: rows at the start
            for above in (False, True):
                # the symbols c with a pair to examine, lowest first; in
                # the first sweep a c that grows joins the owners, and
                # the higher symbols holding it join the sweep
                todo = (syms | sum(compress(single, map(and_, A, repeat(own))))) & notai
                joins: dict[int, int] = {}  # rho mask -> union of their rows
                while todo:
                    c = (todo & -todo).bit_length() - 1
                    todo &= todo - 1
                    m = A[c] & notai & ((-2 << c) if above else ((1 << c) - 1))
                    if not syms >> c & 1:
                        m &= own
                    if not m:
                        continue
                    add = joins.get(m)
                    if add is None:
                        add, rest = 0, m
                        while rest:
                            low = rest & -rest
                            add |= F[low.bit_length() - 1]
                            rest ^= low
                        joins[m] = add
                    P = F[c]
                    if P | add != P:
                        before.setdefault(c, P)
                        F[c] = P | add
                        joins.clear()
                        if not above:
                            own |= 1 << c
                            todo |= sum(compress(single, map(and_, A, repeat(1 << c)))) & (
                                notai & -2 << c)
            for c, P in before.items():
                log.append((c, grown(P, F[c])))

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
        field, kb = FULL << kx * (ns + 1), 1 << kx
        rows = [c for c, P in enumerate(F) if P & field and c != ai]
        older = sum(1 << c for c in rows if not A[c] & abit)
        for c in rows:
            if O[c] & kb and (old_F[c] & field or A[c] & older):
                O[c] ^= kb
    syms = changes(since["flags"])[0] & notai
    if syms:
        up = tuple(O)
        lowered: dict[int, int] = {}  # per symbol, offsets of its lowered non-empty rows
        for c in bits(syms):
            m = A[c] & notai
            while m:
                low = m & -m
                m ^= low
                d = low.bit_length() - 1
                drop = lowered.get(d)
                if drop is None:
                    g = (F[d] + DATA) & GUARD
                    drop = lowered[d] = sum(
                        1 << k for k in range(tx) if g >> k * (ns + 1) + ns & 1) & ~up[d]
                O[c] &= ~drop

    # ---- input-letter overrides ----------------------------------------
    A[ai] = abit
    O[ai] = (1 << tx) - 1
    F[ai] = 0
    if marked:
        k = (ti if new_block else btheta[xi]) * nX + xi
        F[ai] = (abit if new_block else A[state.rf[xi]] | abit) << k * (ns + 1)

    return SatState(u, tuple(blk), tuple(rf), tuple(A), tuple(F), tuple(O))


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
    full, span = (1 << len(u.symbols)) - 1, len(u.symbols) + 1
    for c in range(len(u.symbols)):
        for t in range(len(u.threads)):
            for v in range(len(u.variables)):
                k = t * len(u.variables) + v
                lines.append(
                    "fba %0*d %d %d %0*x %d"
                    % (sw, c, t, v, width, state.fba[c] >> k * span & full,
                       0 if state.open_[c] >> k & 1 else 1)
                )
    return "\n".join(lines) + "\n"


def symbols_of(run: Run) -> list[AnnLabel]:
    """The annotated symbol stream of a run."""
    return list(zip(run.labels, run.annotations))
