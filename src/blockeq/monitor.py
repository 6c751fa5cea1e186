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
* ``open_``— per symbol, a mask of flags in the layout of ``fba``: the
  guard bit of the field at offset k is up while that field's first
  block is the only one seen so far (it drops once a second such block
  appears).

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
whole.  A row's open flag sits on its guard bit, so flags and rows
share one layout, and one mask lowers or passes on a symbol's flags.

The transition is a least-fixpoint computation per input symbol: rule
1's sweep, then passes of the mask rules 2-5, in a fixed order, until a
pass grows no row, then the flags, which no mask rule reads: a marked
write lowers its pair's flags, and a marked read passes lowered flags
on.  A pass keeps two masks of symbols: those whose A row grew in it,
and those whose first-block rows grew.  That one pair per pass carries
all that each rule must read of the growth since it last ran.  Rules 2-4
examine every row on a variable whose running block's after set changed
(and on the arriving symbol's in the first pass), elsewhere the rows of
the symbols in the previous pass's masks, of which the first pass has
none.  Rules 4b and 5 read the A rows that grew in the current pass:
after rule 1's sweep only rules 2-4 grow A rows, rule 4b writes only
first-block rows, and rule 5's joins need no reader, so that mask is
all the A growth either rule has not yet read.  The flags read the A
rows that grew over the whole step.  Every rule is monotone, and an
instance whose inputs have not grown since it last fired, or since the
step's start, adds nothing when it fires again: its conclusion holds
from then on, or from the previous fixpoint.  So rules 2-4 fire on every
field of each row they examine, changed or not, and only instances that
cannot fire are skipped.  A pass's growth is read in the next pass at
the latest, but for three kinds that no reader needs, each argued below:
rule 1's sweep, a block opener's own rows and rule 5's joins.  So the
step ends at the least fixpoint that repeated sweeps of every instance
reach (``tests/monitor_reference.py`` keeps such a step and the tests
compare the two from every state they reach).  Sets are bitmasks over the
symbol universe, so each step costs time polynomial in the alphabet
size and constant in the stream length; two arguments let the first
pass, too, do work in proportion to what the step changes.

*Rule 1 runs once per step, before the passes.*  Rule 1 joins the
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
sweeps that variable.  A join of a made by any other rule enters the
pass's masks like any growth, as that row need not meet D; an A row
whose one gain was a gives rule 5 and the flags nothing to fire on, as
they mask a out.

*A block opener's own rows are settled without re-examination.*  A
marked write a on variable x by thread t opens a block with after set
{a} all step.  Each pass, rules 2-4 on x take their own path over the
rows it examines, and the general rules never see the block.  Rule 4
joins a into the A rows with a field on x that holds a.  Rules 2 and 3
put a into the row at (t, x) of each c with a in A[c]; a row non-empty
at the step's start held its block's write, an earlier event of t, so
rule 1 added a.  Such a row enters no pass mask:

* the path reads the row only against A[c], which holds a, and rules
  2-4 on other variables read no field on x;
* rule 4b joins only the A rows of other symbols (a's is stale);
* rule 5 passes c's row only to a symbol d with c in A[d].  In the
  step's fixpoint a is in A[d] as well (d's last occurrence precedes
  c's, which precedes a), so the path puts a into d's row like c's;
* the flags' new-block flip reads the rows as they stood at the
  step's start, and inheritance does not run on a write.

*The previous fixpoint carries over.*  A step starts from a state that
was closed under every rule, with the previous arrival p masked out,
before the overrides at the end of that step rewrote p's rows: A[p] =
{p}, p's flags up, p's first-block rows empty but one, r0, at the pair
of p's running block.  Masking out a instead of p drops the constraints
on a and adds those on p, which hold already:

* r0 is A[w] | p, w the block's write ({p} if p is that write): exactly
  the block's after set at that fixpoint.  Rule 1 joins a into r0
  whenever it joins a into a member's A row, so the two stay equal:
  rule 3 has nothing to sync, and rule 4 skips r0, the block's own row.
  A[p] meets no running block but p's own, so rule 2 starts no row of p;
* rule 5 adds nothing to p's rows, as A[p] holds only p.  For each c
  with p in A[c], row (c, r0's pair) already held r0.  Rule 2 made such
  a row track p's running block if it was empty, and a non-empty row
  holds the bit of its pair's block write, a member of that block;
  either way rule 3 or 4 put the block's after set, r0, into it;
* the flags need nothing: p's rows are all open.

*Rule 4b joins only A rows that grew.*  Call a set closed when it holds
A[b] for each b in it but a.  Every first-block row is closed at the
step's start (r0 too), and every rule writes into one only closed sets:
rule 1 adds a alone; rules 2-4 a running block's after set, its members
and their A rows; rule 4b A rows; rule 5 rows of other symbols.  So a
row stops being closed only when the A row of a symbol b in it grows.
Rule 1's growth, a, reached the row in the same sweep (above); any
other is made by rules 2-4 and marked in the pass's A mask, and rule 4b
joins A[b] into every row holding b in that pass.  A set may be written
while the A row of a symbol b in it lags behind that of a symbol d in
A[b]; A rows are closed at the fixpoint (the
order is transitive), so A[b] grows in a later pass to hold A[d].

*Rule 5 runs only for after rows that grew.*  Rule 5 joins the rows of
the symbols b in A[c] into c's, for a growth of A[c] in the pass; a b
that enters A[c] during the step is such a growth.  A growth of b's rows
needs no run of its own when b was in A[c] at the step's start: c's
row held b's row then (the fixpoint carries over), and each rule that
grows a field of b makes the same firing test on c's field at that
pair, a test monotone in the field's contents.  Rule 1 joins a into
every field that meets D; rule 3, or rule 2 then rule 3, syncs a
tracked row; rule 4 fires on a field that meets the running block; and
rule 4b joins A[d] into every field that holds d.  So c's field grows
at least as much as b's.

*Rule 5's joins enter no pass mask.*  Rule 4b and the flags read only
A rows' growth.  Rule 5 needs no mask bit: a symbol d with c in A[d] has
b in A[d] by the fixpoint, so d takes F[b] itself, for the growth of A[d]
that brings b in, or, if b was in A[d] at the step's start, as b's row
grows (above).  Rules 2-4 need none: a running block's member that
F[b] brings into c's row was in b's row at that pair already.  Either rule 4 joined
the block's after set into that row, which c's row now holds, and into
A[b], which A[c] holds; or b's row tracks the block and holds no more
than its after set, which rule 3 or 4 puts into c's row as well.

*Which rows track the running block is derived, not stored.*  Off the
opener path the arrival keeps v's running block B, and rules 2-4 take a
row r = (c, t, v), t B's writer, to track B when r was non-empty at the
step's start or A[c] meets B (rule 2), which then holds all step: B is
fixed and A rows only grow.  No flag is read.  Where r's flag is up this
is exact: r tracks the first block of its kind after c, which is then
the last of its kind, as B is.  A flag-down row tracks an older block,
yet is taken to track B, so rule 3 syncs it and rule 4 skips its field;
the reference step in ``tests/monitor_reference.py`` stores the bit, and
on some such rows applies rule 4 instead.  At the fixpoint neither adds
anything there, as A[c] and r already hold B's after set:

* the flag is down, so a later block of r's kind opened after r's
  first block.  Same-kind blocks are ordered blockwise, so that block,
  and B, follow all of c;
* if the flip lowered the flag, it did so in the step that opened the
  later block with write w.  The row did not track that block, as the
  arrival replaced the old one, and it held an earlier write of w's
  thread on w's variable, so rule 1 joined w into the row, and rule 4
  into A[c].  From then on, rule 1 brings every member of each later
  block of the kind, B's among them, into both: each depends on its
  block's write, and that write on the write of the block before.
  Closedness under A rows (rule 4b's paragraph) brings their after
  sets in too;
* if inheritance lowered it, from a symbol d in A[c], then A[d] and d's
  row hold B's after set, by induction on the step that lowered the
  flag, and A[c] holds A[d] and c's row holds d's (rule 5).

*(L) Only a marked read orders events already seen.*  A step whose
arrival a is not a marked read grows every A row but a's, and every
first-block field, by at most a's bit.  By induction over the firings
from the carried-over fixpoint: rule 1 adds a alone.  Rules 4b and 5
join A rows and rows of symbols other than a, grown by a at most, into
rows that held their old values.  Off a's variable each running block
and its after set are those of the previous fixpoint, grown by a at
most, and a is a member of none, so rules 2-4 fire where they fired
then and add a at most.  On a's variable an unmarked arrival ends the
running block, and a marked write opens one whose after set is {a}.  So
a row that a block opener makes non-empty is a rule-2 start {a} that
tracks the new block, and the flip skips it.  Inheritance has nothing
to pass on: each symbol d that A[c] holds but a was in A[c] at the
step's start, so c's row held d's (rule 5) and, the state being exact,
c's flag was down wherever d's was; and when the flip lowers d's row,
that row was non-empty at the start, so c's was too and the flip lowers
it as well.  On a marked read the flip does not run, so every flag that
inheritance passes on was down at the start.  A symbol whose A row
holds d holds A[d] (the order is transitive), so c inherits directly
from every symbol d could inherit from, and one pass over the A rows
that grew, reading the flags as they stood, reaches the fixpoint.

*(I) A lowered flag sits on a non-empty row.*  The flip lowers only
rows that are non-empty.  Inheritance lowers c's flag at offset k only
where the flag of a symbol d in A[c] is down, so d's row at k is
non-empty, and c's row holds d's (rule 5).  No row shrinks but the
arrival's, and the override raises that symbol's flags.  So inheritance
reads d's flags alone: where d's row is empty, d's flag is up and
passes nothing on.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    open_: tuple[int, ...]    # per symbol: row k's guard bit up while its first block is unique


def sat_initial(universe: Universe) -> SatState:
    """All-empty maps, no last write, every open flag raised."""
    nv, ns = len(universe.variables), len(universe.symbols)
    return SatState(
        universe,
        blk=(0,) * nv,
        rf=(-1,) * nv,
        aft=(0,) * ns,
        fba=(0,) * ns,
        open_=(universe.field_low << ns,) * ns,
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
    nX, ns = len(u.variables), len(u.symbols)
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

    if marked and not is_write and not state.blk[xi]:
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

    # ---- least fixpoint over after rows and first-block rows ----------
    # Blocks on one (writer thread, variable) pair are always ordered
    # blockwise: their writes are program-ordered, so the block-level step
    # applies to every such pair.
    old_F = state.fba
    closures: list[Optional[int]] = [None] * nX  # rules 2-4: each block's last after set

    # 1. the arriving symbol joins every row it depends into: a field
    # meets dep_in iff its masked value carries into the guard bit
    A = [a | abit if a & dep_in else a for a in state.aft]
    spread, down = dep_in * LOW, ns - ai
    F = [P | g >> down if P and (g := ((P & spread) + DATA) & GUARD) else P for P in old_F]

    # Passes of rules 2-5 until one grows nothing.  Per pass, grew_a and
    # grew_f mask the symbols whose A row and whose first-block rows grew
    # in it; changed is the previous pass's union, and grown_a the A rows
    # that grew over the whole step (module docstring).
    changed = grown_a = 0
    while True:
        grew_a = grew_f = 0
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

            # every row is examined when the block's after set changed,
            # and on the arriving symbol's variable in the first pass;
            # otherwise the rows of the symbols that grew in the last pass
            prev, closures[v] = closures[v], closure
            full = closure != prev if prev is not None else v == xi
            # the running block's pair: its one write is the variable's last
            sh = (u.sym_thread[rf[v]] * nX + v) * (ns + 1)
            field, gbit = FULL << sh, 1 << sh + ns  # its field and guard bit
            ngbit = ~gbit
            col = u.column_low << v * (ns + 1)
            if new_block and v == xi:
                # The new block's after set is {a}.  Rule 4 writes nothing
                # into first-block rows, which hold a wherever they meet
                # the block, and joins a into the A rows that lack it;
                # rules 2 and 3 put a into the block's row of each symbol
                # whose A row holds a (module docstring).
                hits = col << ai
                for c in range(ns) if full else bits(changed):
                    if c == ai:
                        continue
                    if A[c] & abit:
                        F[c] |= abit << sh
                    elif F[c] & hits:
                        A[c] |= abit
                        grew_a |= 1 << c
                continue
            # rules 2-4 for one symbol read and write its own rows and A
            # row only, so each symbol takes them in turn
            spread, data, guard = bv * col, (col << ns) - col, col << ns
            for c in range(ns) if full else bits(changed):
                if c == ai:
                    continue
                P = F[c]
                # 2. a row tracks the running block if it was non-empty at
                # the step's start, or once its symbol's after row meets
                # the block (module docstring)
                tracked = old_F[c] & field or A[c] & bv
                # 4. block-level step: a first-block row holding a member
                # of a *different* running block on its variable orders the
                # whole running block after the tracked block and the row's
                # label.  One guard test finds the symbol's fields on v that
                # meet the block.
                hit = P & spread
                g = hit and (hit + data) & guard
                if tracked:
                    g &= ngbit  # the running block itself
                if g and A[c] | closure != A[c]:
                    A[c] |= closure
                    grew_a |= 1 << c
                # 3. a tracked running block keeps its row in sync with
                # the block's growing after set.  Multiplying the low bits
                # of that field and of rule 4's by the closure writes it
                # into all of them at once.
                if tracked:
                    g |= gbit
                if g:
                    new = P | (g >> ns) * closure
                    if new != P:
                        F[c] = new
                        grew_f |= 1 << c

        # 4b. transitivity through after rows: a symbol inside a
        # first-block row pins everything after its own last occurrence
        # into that row as well (the arriving symbol's stored after row is
        # stale, but its fresh contribution is exactly the joins rule 1
        # already makes, and no rule grows it).  Rows stay closed under A
        # rows but for the A rows that rules 2-4 grew in this pass (module
        # docstring), each joined into every field holding its symbol by
        # one product.
        if grew_a:
            joins = [(b, A[b]) for b in bits(grew_a)]
            for c, P in enumerate(F):
                add = 0
                for b, row in joins:
                    hit = P >> b & LOW
                    if hit:
                        add |= hit * row
                if P | add != P:
                    F[c] = P | add
                    grew_f |= 1 << c

        # 5. inheritance: anything after the row's label is after every
        # first block that is after that label's last occurrence, and the
        # first blocks per (thread, variable) chain nest downward — so a
        # row absorbs the same-kind rows of every symbol in its after set.
        # Same-kind rows sit at the same offset, so a symbol's packed rows
        # absorb a packed int whole.  Only a symbol whose A row grew in
        # this pass can gain here: the rule that grew a row of a symbol in
        # A[c] grew c's row at least as much.  No later pass needs to
        # re-read what it joins (module docstring).
        todo = grew_a
        while todo:
            c = (todo & -todo).bit_length() - 1
            todo &= todo - 1
            m = A[c] & notai
            add = 0
            while m:
                low = m & -m
                add |= F[low.bit_length() - 1]
                m ^= low
            F[c] |= add

        grown_a |= grew_a
        changed = grew_a | grew_f
        if not changed:
            break

    # Flags, once, at the fixpoint of the mask rules, none of which reads
    # them: lower open flags on evidence of a second same-kind block.  A
    # new block lowers its pair's flag on every row that tracked an older
    # first block at the step's start.  Only a marked read orders events
    # already seen, so only then does a symbol whose A row grew inherit
    # the lowered flags of the symbols in its after set; a lowered flag
    # sits on a non-empty row (module docstring).
    O = list(state.open_)
    if new_block:
        sh = kx * (ns + 1)
        field, kb = FULL << sh, 1 << sh + ns  # the pair's field and flag
        for c, P in enumerate(old_F):
            if P & field:
                O[c] &= ~kb
    elif marked:
        for c in bits(grown_a):
            for d in bits(A[c] & notai):
                O[c] &= state.open_[d]

    # ---- input-letter overrides ----------------------------------------
    A[ai] = abit
    O[ai] = GUARD
    F[ai] = 0
    if marked:
        # the running block's after set at its own pair; A[ai] is {a}, so a
        # new block's is {a}
        w = rf[xi]
        F[ai] = (A[w] | abit) << (u.sym_thread[w] * nX + xi) * (ns + 1)

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
    ns = len(u.symbols)
    full, span = (1 << ns) - 1, ns + 1
    for c in range(ns):
        for t in range(len(u.threads)):
            for v in range(len(u.variables)):
                k = t * len(u.variables) + v
                lines.append(
                    "fba %0*d %d %d %0*x %d"
                    % (sw, c, t, v, width, state.fba[c] >> k * span & full,
                       0 if state.open_[c] >> k * span + ns & 1 else 1)
                )
    return "\n".join(lines) + "\n"


def symbols_of(run: Run) -> list[AnnLabel]:
    """The annotated symbol stream of a run."""
    return list(zip(run.labels, run.annotations))
