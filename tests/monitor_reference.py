"""Full-sweep reference for the streaming monitor's step.

``sat_step`` below is the monitor's step as it stood before the step
became delta-driven: the first pass of each step sweeps every rule
instance, and only later passes are change-driven.  It is kept verbatim
as a test reference; ``test_monitor.py`` steps it and the library's
``sat_step`` from every state a stream reaches and requires all six
state fields, the private ``tir`` bits included, to be equal.

Run as a script, it compares the two steps on random streams::

    PYTHONPATH=src python tests/monitor_reference.py --streams 5000 --seed 1

Each stream draws 1-5 threads, 1-4 variables, 5-120 events and a marking
probability from 0.3 to 0.9 (``gen.random_annotated_run``), over the
whole alphabet of its threads and variables.  From every state the
library's step reaches, both steps take the next symbol and all six
fields must be equal.  It prints the stream and step counts, or the
first mismatch as (seed, stream, step, field) with the stream, and
exits 1.
"""

import argparse
import random
import sys

from blockeq.monitor import SatState, Universe, _dep_in, sat_initial, symbols_of
from blockeq.monitor import sat_step as library_step
from blockeq.trace import AnnLabel

import gen


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
    ns, tx = len(u.symbols), u.stride
    nr = ns * tx
    abit = 1 << ai
    notai = ~abit
    others = [c for c in range(ns) if c != ai]
    new_block = marked and lab.is_write()

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
    A = list(state.aft)
    F = list(state.fba)
    old_F = state.fba
    eff_open = list(state.open_)

    # "tracked first block is the running block": a new annotated write
    # replaces the running block on its variable, an unannotated event
    # clears it; rows that start tracking this step are set below.
    eff_tir = list(state.tir)
    if new_block or not marked:
        for r in range(xi, nr, nX):  # the rows on variable xi
            eff_tir[r] = False

    # Change log: a row r of F that grew is logged as r, a symbol c whose A
    # row grew as nr + c, a raised tir bit as -1.  Change-driven sections
    # keep the log position at their previous run's start (-1: none yet).
    log: list[int] = []
    since = dict.fromkeys(("1", "4b", "5", "flags"), -1)
    packed = [0] * ns  # rule 5's rows per symbol, ns bits per offset

    def changes(pos: int) -> tuple[int, set[int], int]:
        # since pos: mask of symbols whose A row grew, F rows that grew, mask of their symbols
        syms, rows, owners = 0, set(), 0
        for e in log[pos:]:
            if e >= nr:
                syms |= 1 << (e - nr)
            elif e >= 0:
                rows.add(e)
                owners |= 1 << (e // tx)
        return syms, rows, owners

    def mask_rules() -> bool:
        start = len(log)

        # 1. the arriving symbol joins every row it depends into (a row
        # that did not grow since the last run has nothing new to join)
        if since["1"] < 0:
            arows, frows = range(ns), range(nr)
        else:
            syms, frows, _ = changes(since["1"])
            arows = [c for c in range(ns) if syms >> c & 1]
        since["1"] = len(log)
        for c in arows:
            if A[c] & dep_in and not A[c] & abit:
                A[c] |= abit
                log.append(nr + c)
        for r in frows:
            if F[r] & dep_in and not F[r] & abit:
                F[r] |= abit
                log.append(r)

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

            for c in others:
                r = c * tx + th * nX + v
                # 2. start tracking: a running-block member inside an
                # after row opens first-block tracking for that row
                if not eff_tir[r] and A[c] & bv and not old_F[r]:
                    eff_tir[r] = True
                    log.append(-1)
                # 3. a tracked running block keeps its row in sync with
                # the block's growing after set
                if eff_tir[r] and F[r] | closure != F[r]:
                    F[r] |= closure
                    log.append(r)

            # 4. block-level step: a first-block row holding a member of
            # a *different* running block on its variable orders the whole
            # running block after the tracked block and the row's label
            for c in others:
                for t in range(nT):
                    r = c * tx + t * nX + v
                    if not F[r] & bv or (t == th and eff_tir[r]):
                        continue  # no member, or the running block itself
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
        if since["4b"] < 0:
            rows = range(nr)
        else:
            syms, rows, _ = changes(since["4b"])
            syms &= notai
            if syms:
                rows |= {r for r in range(nr) if F[r] & syms}
        since["4b"] = len(log)
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
        # A pair (rho, c) can add something only if rho's rows grew (also
        # earlier in this run) or A[c] changed since the last run.
        if since["5"] < 0:
            syms = owners = -1
        else:
            syms, _, owners = changes(since["5"])
        since["5"] = len(log)
        for c in range(ns):
            if owners >> c & 1:
                p = 0
                for f in reversed(F[c * tx:(c + 1) * tx]):
                    p = p << ns | f
                packed[c] = p
        grew = 0
        for above in (False, True):
            for c in others:
                m = A[c] & notai & ((-2 << c) if above else ((1 << c) - 1))
                if not syms >> c & 1:
                    m &= owners
                new = packed[c]
                while m:
                    low = m & -m
                    new |= packed[low.bit_length() - 1]
                    m ^= low
                if new != packed[c]:
                    packed[c] = new
                    grew |= 1 << c
                    if not above:
                        owners |= 1 << c
        full = (1 << ns) - 1
        while grew:
            low = grew & -grew
            grew ^= low
            c = low.bit_length() - 1
            p = packed[c]
            for r in range(c * tx, (c + 1) * tx):
                if p & full != F[r]:
                    F[r] = p & full
                    log.append(r)
                p >>= ns

        # 6. a lowered open flag proves a later same-kind block exists and
        # sits fully after the row's label, so the label is ordered before
        # that kind's latest annotated write occurrence.  When that write
        # is the arriving symbol itself, its stored row still describes
        # the previous occurrence; that older content is justified only if
        # the flag was already down before this step (a second block
        # already existed, pinning the previous occurrence after it).
        for r in range(nr):
            if eff_open[r]:
                continue
            w_sym = u.block_write[r % tx]
            if not F[r] >> w_sym & 1:
                continue
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
        return len(log) != start

    def flag_rules() -> bool:
        # Lower open flags on fresh evidence of a second same-kind block.
        # Evidence is monotone: a row inherits a lowered flag from any
        # symbol in its after set, and the arrival of a new block lowers
        # every row already tracking an older first block: the least
        # fixpoint of both, in any order.  Since the last run only symbols
        # whose A row changed or holds one with a grown row can inherit.
        if since["flags"] < 0:
            todo = (1 << ns) - 1
        else:
            todo, _, owners = changes(since["flags"])
            todo |= sum(1 << c for c in range(ns) if A[c] & owners)
        since["flags"] = len(log)
        # per offset, the symbols whose row there is lowered and non-empty
        lowered = [0] * tx
        for r in range(nr):
            if not eff_open[r] and F[r]:
                lowered[r % tx] |= 1 << (r // tx)
        changed = False
        if new_block:
            kx = ti * nX + xi
            older = sum(1 << c for c in range(ns)
                        if c != ai and F[c * tx + kx] and not A[c] & abit)
            for c in range(ns):
                r = c * tx + kx
                if c != ai and eff_open[r] and F[r] and (old_F[r] or A[c] & older):
                    eff_open[r] = False
                    lowered[kx] |= 1 << c
                    changed = True
            todo |= sum(1 << c for c in range(ns) if A[c] & lowered[kx])
        while todo:
            m, todo, grew = todo & notai, 0, 0
            while m:
                low = m & -m
                m ^= low
                a = A[low.bit_length() - 1] & notai
                base = (low.bit_length() - 1) * tx
                for k in range(tx):
                    if a & lowered[k] and eff_open[base + k]:
                        eff_open[base + k] = False
                        changed = True
                        if F[base + k]:
                            lowered[k] |= low
                            grew |= low
            if grew:
                todo = sum(1 << c for c in range(ns) if A[c] & grew)
        return changed

    while True:
        while mask_rules():
            pass
        if not flag_rules():
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


STATE_FIELDS = ("blk", "rf", "aft", "fba", "open_", "tir")


def reference_mismatch(universe, syms):
    """Fold the library's ``sat_step`` over the symbols, and from every
    state reached step both it and the full-sweep reference; the first
    (step, field) whose values differ, or None.  ``tir`` is compared
    too, although ``canonical_text`` leaves it out."""
    q = sat_initial(universe)
    for k, s in enumerate(syms):
        got, want = library_step(q, s), sat_step(q, s)
        for name in STATE_FIELDS:
            if getattr(got, name) != getattr(want, name):
                return k, name
        q = got
    return None


def campaign(streams: int, seed: int) -> int:
    rng = random.Random(seed)
    steps = 0
    for i in range(streams):
        n_threads, n_vars = rng.randint(1, 5), rng.randint(1, 4)
        aw = gen.random_annotated_run(rng, rng.randint(5, 120), n_threads, n_vars,
                                      p=rng.uniform(0.3, 0.9))
        mism = reference_mismatch(Universe(*gen.alphabet(n_threads, n_vars)), symbols_of(aw))
        if mism:
            print("mismatch: seed %d, stream %d, step %d, field %s" % ((seed, i) + mism))
            print(aw.to_text(), end="")
            return 1
        steps += len(aw.labels)
    print("%d streams, %d steps: all fields equal after every step" % (streams, steps))
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--streams", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    sys.exit(campaign(args.streams, args.seed))
