"""Full-sweep reference for the streaming monitor's step.

``sat_step`` below is the monitor's step as it stood before the step
became delta-driven: the first pass of each step sweeps every rule
instance, and only later passes are change-driven.  It is kept as a
test reference, on its own state type: ``RefState`` holds the monitor's
five public fields, ``fba`` and ``open_`` one entry per (symbol, thread,
variable) row, plus the private ``tir`` bit per row ("the tracked first
block is the variable's running block"), which the reference stores and
the library derives per step.  The library packs a symbol's rows into
one int and its flags into one mask, each flag on its row's guard bit;
``library_state`` and ``row_fields`` convert between the two layouts.

``test_monitor.py`` walks the reference's states.  From each one it
builds a library ``SatState`` of the five public fields, steps both, and
requires the five public fields of the successors to be equal.  Two
reference states may share their public fields and differ in ``tir``;
both are stepped.  Each library step must also keep two invariants of
``monitor.py``'s docstring: (I) every lowered flag sits on a non-empty
first-block row, and (L) an arrival other than a marked read grows no
other symbol's after row or first-block field beyond its own bit.  And
the open flags must not steer the order: stepped again with its flags
replaced by random guard-bit masks, the library state must reach the
same ``blk``, ``rf``, ``aft`` and ``fba``.

Run as a script, it runs the same comparison on random streams, or on a
breadth-first walk of every reachable reference state::

    PYTHONPATH=src python tests/monitor_reference.py --streams 5000 --seed 1
    PYTHONPATH=src python tests/monitor_reference.py --walk 2 2 7 --cap 250000

Each random stream draws 1-5 threads, 1-4 variables, 5-120 events and a
marking probability from 0.3 to 0.9 (``gen.random_annotated_run``), over
the whole alphabet of its threads and variables.  ``--walk THREADS VARS
DEPTH`` steps every state within DEPTH - 1 symbols of the initial state
with every valid symbol: a write with either mark, a read with the mark
of the write it observes.  ``--cap N`` steps from at most N states.  The
script prints the step count, or the first mismatch, broken invariant
or order field that random flags change, with the symbols that reach
it, and exits 1.
"""

import argparse
import random
import sys
from dataclasses import dataclass, replace
from operator import lshift

from blockeq.monitor import SatState, _dep_in, symbols_of
from blockeq.monitor import sat_step as library_step
from blockeq.trace import WRITE, AnnLabel, Label, Universe

import gen


@dataclass(frozen=True)
class RefState:
    universe: Universe
    blk: tuple[int, ...]      # per variable: mask of running-block symbols
    rf: tuple[int, ...]       # per variable: symbol index of last write, -1 if none
    aft: tuple[int, ...]      # per symbol: after-set mask
    fba: tuple[int, ...]      # per (symbol, thread, variable) row: mask
    open_: tuple[bool, ...]   # per row: first tracked block still unique?
    tir: tuple[bool, ...]     # per row: tracked block is the running block


def ref_initial(universe: Universe) -> RefState:
    nv, nr = len(universe.variables), len(universe.symbols) * universe.stride
    return RefState(universe, (0,) * nv, (-1,) * nv, (0,) * len(universe.symbols),
                    (0,) * nr, (True,) * nr, (False,) * nr)


def sat_step(state: RefState, sym: AnnLabel) -> RefState:
    """Process one annotated symbol and return the successor state."""
    u = state.universe
    ai = u.index(sym)
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
    # per offset, the symbol of that pair's annotated write
    block_write = [u.index((Label(t, WRITE, v), True)) for t in u.threads for v in u.variables]

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
            w_sym = block_write[r % tx]
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

    return RefState(u, tuple(blk), tuple(rf), tuple(A), tuple(F),
                    tuple(eff_open), tuple(eff_tir))


PUBLIC_FIELDS = ("blk", "rf", "aft", "fba", "open_")
ORDER_FIELDS = PUBLIC_FIELDS[:4]


def library_state(q: RefState) -> SatState:
    """The library state holding a reference state's five public fields.
    The library packs a symbol's first-block rows into one int, the row
    at offset k in the field of |symbols| + 1 bits at k * (|symbols| +
    1), and its open flags into one mask, the flag at offset k on that
    field's guard bit, k * (|symbols| + 1) + |symbols|."""
    u = q.universe
    ns, tx = len(u.symbols), u.stride
    shifts = range(0, tx * (ns + 1), ns + 1)
    guards = range(ns, tx * (ns + 1), ns + 1)
    fba = tuple(sum(map(lshift, q.fba[i:i + tx], shifts)) for i in range(0, ns * tx, tx))
    open_ = tuple(sum(map(lshift, q.open_[i:i + tx], guards)) for i in range(0, ns * tx, tx))
    return SatState(u, q.blk, q.rf, q.aft, fba, open_)


def row_fields(q: SatState) -> tuple[tuple[int, ...], tuple[bool, ...]]:
    """A library state's first-block rows and open flags, one per
    (symbol, thread, variable) row, as the reference stores them: the
    row at offset k is the field at k * (|symbols| + 1), and its flag
    that field's guard bit."""
    u = q.universe
    ns = len(u.symbols)
    full, width = (1 << ns) - 1, ns + 1
    offsets = range(u.stride)
    return (tuple(p >> k * width & full for p in q.fba for k in offsets),
            tuple(bool(m >> k * width + ns & 1) for m in q.open_ for k in offsets))


def lowered_on_empty(q: SatState) -> "int | None":
    """The first symbol with a lowered flag on an empty first-block row
    (invariant I fails), or None."""
    u = q.universe
    GUARD = u.field_low << len(u.symbols)
    DATA = GUARD - u.field_low
    # adding DATA raises the guard bits of exactly the non-empty fields
    return next((c for c, (P, m) in enumerate(zip(q.fba, q.open_))
                 if ~m & GUARD & ~(P + DATA)), None)


def grown_past_arrival(prev: SatState, q: SatState, sym: AnnLabel) -> "int | None":
    """For an arrival sym that is not a marked read, the first symbol
    other than the arrival whose after row or first-block fields grew
    from prev to q by more than the arrival's bit (invariant L fails),
    or None."""
    if sym[1] and sym[0].is_read():
        return None
    u = q.universe
    ai = u.index(sym)
    own = u.field_low << ai  # the arrival's bit in every field
    return next((c for c in range(len(u.symbols)) if c != ai and (
        q.aft[c] & ~prev.aft[c] & ~(1 << ai) or q.fba[c] & ~prev.fba[c] & ~own)), None)


def flags_steer_order(prev: SatState, q: SatState, sym: AnnLabel) -> "str | None":
    """Step prev again with its open flags replaced by random guard-bit
    masks, drawn from a generator seeded by prev's rows and the symbol;
    the first order field (blk, rf, aft or fba) whose value differs from
    that of q, prev's own successor, or None."""
    u = prev.universe
    guard = u.field_low << len(u.symbols)
    rng = random.Random(hash((prev.aft, prev.fba, u.index(sym))))
    flags = tuple(rng.getrandbits(guard.bit_length()) & guard for _ in prev.open_)
    blind = library_step(replace(prev, open_=flags), sym)
    return next((name for name in ORDER_FIELDS if getattr(blind, name) != getattr(q, name)), None)


def step_mismatch(q: RefState, sym: AnnLabel,
                  lib: SatState) -> tuple[RefState, SatState, "str | None"]:
    """Step the reference from q and the library from lib, the library
    state of q's public fields; the reference's successor, its library
    state, and the first failure, or None: a public field whose values
    differ ("field aft"), else an invariant that the library's step
    breaks ("invariant I" or "invariant L"), else an order field that
    random flags change ("flags change aft")."""
    succ = sat_step(q, sym)
    got, want = library_step(lib, sym), library_state(succ)
    name = next(("field " + name for name in PUBLIC_FIELDS
                 if getattr(got, name) != getattr(want, name)), None)
    if name is None and lowered_on_empty(got) is not None:
        name = "invariant I"
    if name is None and grown_past_arrival(lib, got, sym) is not None:
        name = "invariant L"
    if name is None and (field := flags_steer_order(lib, got, sym)) is not None:
        name = "flags change " + field
    return succ, want, name


def reference_mismatch(universe, syms):
    """Fold the reference's ``sat_step`` over the symbols, and from every
    state reached step it and the library (module docstring); the first
    (step, failure) that ``step_mismatch`` reports, or None."""
    q = ref_initial(universe)
    lib = library_state(q)
    for k, s in enumerate(syms):
        q, lib, name = step_mismatch(q, s, lib)
        if name:
            return k, name
    return None


def valid_symbols(q: RefState):
    """Every symbol that may follow the stream that reached q."""
    u = q.universe
    for lab in u.labels:
        if lab.is_write():
            yield (lab, False)
            yield (lab, True)
        else:
            w = q.rf[u.var_index[lab.variable]]
            if w >= 0:
                yield (lab, u.symbols[w][1])


def _pack(q: RefState) -> bytes:
    # a walk holds many states: one byte string each, fields at fixed width
    w = (len(q.universe.symbols) + 7) // 8
    ints = q.blk + tuple(x + 1 for x in q.rf) + q.aft + q.fba
    flags = sum(b << i for i, b in enumerate(q.open_ + q.tir))
    return (b"".join(x.to_bytes(w, "little") for x in ints)
            + flags.to_bytes((2 * len(q.fba) + 7) // 8, "little"))


def _unpack(u: Universe, key: bytes) -> RefState:
    w = (len(u.symbols) + 7) // 8
    nv, ns = len(u.variables), len(u.symbols)
    nr = ns * u.stride
    end = (2 * nv + ns + nr) * w
    ints = [int.from_bytes(key[i:i + w], "little") for i in range(0, end, w)]
    flags = int.from_bytes(key[end:], "little")
    bools = tuple(bool(flags >> i & 1) for i in range(2 * nr))
    return RefState(u, tuple(ints[:nv]), tuple(x - 1 for x in ints[nv:2 * nv]),
                    tuple(ints[2 * nv:2 * nv + ns]), tuple(ints[2 * nv + ns:2 * nv + ns + nr]),
                    bools[:nr], bools[nr:])


def walk(n_threads: int, n_vars: int, depth: int, cap: int) -> int:
    u = Universe(*gen.alphabet(n_threads, n_vars))
    start = _pack(ref_initial(u))
    seen = {start}
    paths = {start: ()}  # the first stream that reached each state of the frontier
    level, states, steps = [start], 0, 0
    for d in range(depth):
        nxt = []
        for key in level:
            states += 1
            q = _unpack(u, key)
            lib = library_state(q)
            for sym in valid_symbols(q):
                succ, _, name = step_mismatch(q, sym, lib)
                steps += 1
                if name:
                    print("mismatch in %s after %s" % (name, " / ".join(
                        "%s%s" % (lab, " @" if bit else "") for lab, bit in paths[key] + (sym,))))
                    return 1
                k = _pack(succ)
                if d + 1 < depth and k not in seen and len(seen) < cap:
                    seen.add(k)
                    paths[k] = paths[key] + (sym,)
                    nxt.append(k)
            del paths[key]
        level = nxt
    print("%dx%d to depth %d: %d states, %d steps, %s; public fields equal, "
          "invariants I and L hold, the flags left the order unchanged, after every step"
          % (n_threads, n_vars, depth, states, steps,
             "capped at %d" % cap if len(seen) >= cap else "not capped"))
    return 0


def campaign(streams: int, seed: int) -> int:
    rng = random.Random(seed)
    steps = 0
    for i in range(streams):
        n_threads, n_vars = rng.randint(1, 5), rng.randint(1, 4)
        aw = gen.random_annotated_run(rng, rng.randint(5, 120), n_threads, n_vars,
                                      p=rng.uniform(0.3, 0.9))
        mism = reference_mismatch(Universe(*gen.alphabet(n_threads, n_vars)), symbols_of(aw))
        if mism:
            print("mismatch: seed %d, stream %d, step %d, %s" % ((seed, i) + mism))
            print(aw.to_text(), end="")
            return 1
        steps += len(aw.labels)
    print("%d streams, %d steps: public fields equal, invariants I and L hold, "
          "the flags left the order unchanged, after every step" % (streams, steps))
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--streams", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--walk", type=int, nargs=3, metavar=("THREADS", "VARS", "DEPTH"))
    parser.add_argument("--cap", type=int, default=250000)
    args = parser.parse_args()
    if args.walk:
        sys.exit(walk(*args.walk, args.cap))
    sys.exit(campaign(args.streams, args.seed))
