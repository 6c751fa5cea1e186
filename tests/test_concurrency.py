"""Differential tests for the causal-concurrency decisions.

Each decision procedure is checked against an answer computed another
way: the streaming pair automaton against the offline commutation
order, the fixed-block decision against brute-force class enumeration
(does any member execute the pair in the other order?), the
existential decision against the mode hierarchy, and the ``stream``
strategy's depth-first search against the layered pass of
``oracles.reference_general_stream``.  The known gap of the
arrival-time witness bit is pinned by regressions.  A census of every
event pair checks the modes' nesting against reads-from concurrency:
maz within blocks (for liberally atomic blocks) within general within
rf, with the corpus's strict gaps pinned.
"""

import itertools
import random

import pytest
from hypothesis import given, settings

import gen
from gen import CORPUS, corpus
from blockeq import atomicity, concurrency
from blockeq.atomicity import is_liberally_atomic
from blockeq.blocks import all_block_sets, annotate, blocks_from_annotation
from blockeq.concurrency import (
    MODES,
    conc_events,
    conc_initial,
    conc_step,
    conc_symbols_blocks,
    conc_symbols_general,
    conc_symbols_maz,
    inner_pair_positions,
)
from blockeq.monitor import symbols_of
from blockeq.oracle import enum_block_class, rf_unordered
from blockeq.orders import mazurkiewicz_hb, saturate
from blockeq.trace import Label, Run, TraceError, Universe, parse_run
import oracles
from oracles import reference_general_stream, same_equiv_rf


def distinct_label_pairs(run):
    labs = sorted(set(run.labels), key=str)
    return itertools.combinations(labs, 2)


def test_inner_pairs_by_hand():
    run = parse_run("T1 w x\nT2 w y\nT1 w x\nT2 w y\nT2 w y")
    c, d = (Label("T1", "w", "x"), False), (Label("T2", "w", "y"), False)
    assert inner_pair_positions(run, c, d) == [(0, 1), (2, 3)]
    assert inner_pair_positions(run, d, c) == [(1, 2)]
    missing = (Label("T9", "w", "x"), False)
    assert inner_pair_positions(run, c, missing) == []


def test_inner_pairs_of_a_bare_label_take_either_mark():
    run = Run(parse_run("T1 w x\nT2 w y\nT1 w x\nT2 w y").labels, [True, False, False, True])
    c, d = Label("T1", "w", "x"), Label("T2", "w", "y")
    assert inner_pair_positions(run, c, d) == [(0, 1), (2, 3)]
    assert inner_pair_positions(run, (c, True), d) == [(0, 1)]
    assert inner_pair_positions(run, c, (d, True)) == [(0, 3), (2, 3)]
    assert inner_pair_positions(run, (c, False), (d, False)) == []


def test_label_query_is_the_or_of_its_annotated_symbol_queries():
    # a bare label names its occurrences of either mark, an annotated
    # symbol those with its mark, so a label query answers the OR of its
    # four annotated-symbol queries in every mode; each combination is
    # the only witness of some query, so dropping a mark shows
    rng = random.Random(0x0CC)
    sole = set()
    combos = list(itertools.product((False, True), repeat=2))
    for _ in range(100):
        aw = gen.random_annotated_run(rng, rng.randint(2, 9))
        modes = ("maz", "blocks") + (("general",) if len(aw) <= 7 else ())
        for c, d in distinct_label_pairs(aw):
            for mode in modes:
                hits = [cm for cm in combos if concurrency._symbols_unordered(aw, mode, (c, cm[0]), (d, cm[1]))]
                assert concurrency._symbols_unordered(aw, mode, c, d) == bool(hits), (gen.describe(aw), mode, c, d)
                if len(hits) == 1:
                    sole.add((mode, hits[0]))
    assert sole == set(itertools.product(MODES, combos))


# ---- commutation-order queries ----------------------------------------------

def offline_unordered_pair(run, c, d):
    hb = mazurkiewicz_hb(run)
    ce = [e for e in run.events if e.label == c]
    de = [e for e in run.events if e.label == d]
    return any(
        not hb.ordered(e, f) and not hb.ordered(f, e)
        for e in ce
        for f in de
    )


def latch_both_orientations(run, c, d):
    # fold the pair automaton over the unannotated stream, once per
    # orientation of the pair
    u = Universe.from_run(run)
    found = False
    for c_hat, d_hat in (((c, False), (d, False)), ((d, False), (c, False))):
        q = conc_initial(u, c_hat, d_hat)
        for s in symbols_of(Run(run.labels)):
            q = conc_step(q, s)
        found = found or q.accepting()
    return found


def test_maz_matches_offline_order():
    # on unmarked streams the arrival-time latch is exact: in either
    # orientation it equals checking every occurrence pair against the
    # offline order.  conc_symbols_maz (inner pairs against the offline
    # order) gives the same answer.  The long runs over a 2x2 alphabet
    # repeat every symbol many times.
    rng = random.Random(2026)
    runs = [gen.random_run(rng, rng.randint(2, 9)) for _ in range(300)]
    runs += [gen.random_run(rng, rng.randint(20, 40), 2, 2) for _ in range(20)]
    for run in runs:
        for c, d in distinct_label_pairs(run):
            want = offline_unordered_pair(run, c, d)
            assert latch_both_orientations(run, c, d) == want
            assert conc_symbols_maz(run, c, d) == want


def test_maz_ignores_marks():
    # commutation reads no marks: on a marked run, every label pair and
    # every event pair gets the answer of the same run unmarked
    rng = random.Random(2121)
    runs = [corpus(p.name) for p in sorted(CORPUS.glob("*.trace"))]
    runs += [gen.random_annotated_run(rng, rng.randint(2, 12)) for _ in range(200)]
    marked = concurrent = 0
    for aw in runs:
        bare = Run(aw.labels)
        marked += any(aw.annotations)
        labs = sorted(set(aw.labels), key=str)
        for c, d in itertools.product(labs, repeat=2):
            want = conc_symbols_maz(bare, c, d)
            assert conc_symbols_maz(aw, c, d) == want, (aw, c, d)
            concurrent += want
        for e, f in itertools.combinations(aw.events, 2):
            assert conc_events(aw, e, f, "maz") == conc_events(bare, e, f, "maz"), (aw, e, f)
    assert marked > 150 and concurrent > 1000


def test_maz_edge_cases():
    run = parse_run("T1 w x\nT2 w y")
    assert conc_symbols_maz(run, Label("T1", "w", "x"), Label("T2", "w", "y"))
    # a symbol with no occurrence cannot be concurrent with anything
    assert not conc_symbols_maz(run, Label("T1", "r", "x"), Label("T2", "w", "y"))
    # same-thread symbols are totally ordered by program order
    rng = random.Random(7)
    for _ in range(120):
        r = gen.random_run(rng, rng.randint(2, 8))
        for c, d in distinct_label_pairs(r):
            if c.thread == d.thread:
                assert not conc_symbols_maz(r, c, d)


def test_corpus_three_thread_zx():
    run = corpus("three_thread_zx.trace")
    # no r(x) in T1 at all, so the pair has no occurrences
    assert not conc_symbols_maz(run, Label("T1", "r", "x"), Label("T2", "w", "x"))
    # T1's w(z) feeds T2's r(z): ordered under every mode
    e, f = run.events[5], run.events[6]
    assert e.label == Label("T1", "w", "z") and f.label == Label("T2", "r", "z")
    for mode in MODES:
        assert not conc_events(run, e, f, mode)
    # the variant really is a different word with the same po and rf
    var = corpus("three_thread_zx_variant.trace")
    assert same_equiv_rf(run, var)
    assert tuple(run.labels) != tuple(var.labels)


# ---- fixed-block queries ------------------------------------------------------

def check_blocks_against_class(aw):
    """conc_symbols_blocks on every distinct label pair against class
    inversion; returns the number of pairs checked against the class."""
    bs = blocks_from_annotation(aw)
    if not is_liberally_atomic(aw, bs):
        for c, d in distinct_label_pairs(aw):
            assert not conc_symbols_blocks(aw, c, d)
        return 0
    cls = enum_block_class(aw, bs)
    checked = 0
    for c, d in distinct_label_pairs(aw):
        assert conc_symbols_blocks(aw, c, d) == gen.class_inverts_pair(aw, cls, c, d), (aw, c, d)
        checked += 1
    return checked


def test_blocks_matches_class_inversion():
    # concurrent exactly when some member of the block equivalence
    # class executes an occurrence pair in the other order
    rng = random.Random(77)
    checked = 0
    for _ in range(120):
        checked += check_blocks_against_class(gen.random_annotated_run(rng, rng.randint(2, 8)))
    assert checked > 200


@settings(max_examples=200)
@given(gen.annotated_runs(max_threads=3, max_vars=3, min_events=2, max_events=10))
def test_blocks_matches_class_inversion_drawn(drawn):
    check_blocks_against_class(drawn[2])


def test_blocks_rejects_invalid_annotation():
    # a marked write whose reader is unmarked is not a block set
    bad = parse_run("T1 w x @\nT2 r x")
    with pytest.raises(TraceError):
        conc_symbols_blocks(bad, Label("T1", "w", "x"), Label("T2", "r", "x"))


def test_blocks_on_non_atomic_run_is_false():
    run = corpus("intertwined_blocks.trace")
    bs = blocks_from_annotation(run)
    assert not is_liberally_atomic(run, bs)
    for c, d in distinct_label_pairs(run):
        assert not conc_symbols_blocks(run, c, d)


def test_corpus_five_thread_blocks():
    run = corpus("five_thread_blocks.trace")
    # the two w(z) events sit in thread-disjoint blocks with no
    # saturated path between them: reorderable
    assert conc_symbols_blocks(run, Label("T1", "w", "z"), Label("T5", "w", "z"))
    # ... and the class oracle agrees
    cls = enum_block_class(run, blocks_from_annotation(run))
    assert gen.class_inverts_pair(run, cls, Label("T1", "w", "z"), Label("T5", "w", "z"))
    # same-thread pair: never
    assert not conc_symbols_blocks(run, Label("T3", "w", "y"), Label("T3", "r", "y"))
    # the z-chain through T2 pins T1's w(z) before T2's w(x)
    assert not conc_symbols_blocks(run, Label("T1", "w", "z"), Label("T2", "w", "x"))


# ---- the arrival-time witness bit ---------------------------------------------

def run_pair_automaton(run, c_hat, d_hat):
    u = Universe.from_run(run)
    q = conc_initial(u, c_hat, d_hat)
    trail = []
    for s in symbols_of(run):
        q = conc_step(q, s)
        trail.append(q.found)
    return q, trail


def test_arrival_bit_overapproximates_smallest():
    # the relabelling read arrives after both writes, joins the second
    # write's block, and only then orders the two blocks; a verdict
    # frozen when the second write arrived is stuck with "concurrent"
    run = parse_run("T1 w x @\nT2 w x @\nT1 r x @")
    c_hat = (Label("T1", "w", "x"), True)
    d_hat = (Label("T2", "w", "x"), True)
    q, trail = run_pair_automaton(run, c_hat, d_hat)
    assert q.accepting() and trail == [False, True, True]
    # the exact decision knows better: the class is a singleton
    assert not conc_symbols_blocks(run, c_hat, d_hat)
    cls = enum_block_class(run, blocks_from_annotation(run))
    assert len(cls.members) == 1


def test_arrival_bit_flip_after_second_occurrence():
    # corpus regression: the pair stays genuinely unordered past the
    # second d-occurrence and flips only on the final read
    run = corpus("retroactive_pair.trace")
    bs = blocks_from_annotation(run)
    assert is_liberally_atomic(run, bs)
    c, d = Label("T1", "w", "x"), Label("T2", "w", "u")
    q, trail = run_pair_automaton(run, (c, False), (d, False))
    assert q.accepting() and trail[5:] == [True, True, True]
    assert not conc_symbols_blocks(run, c, d)
    # drop the last read and the pair is unordered for real
    prefix = run.labels[:-1]
    pre = parse_run("\n".join(
        "%s %s %s%s" % (l.thread, l.op, l.variable, " @" if a else "")
        for l, a in zip(prefix, run.annotations)
    ))
    bsp = blocks_from_annotation(pre)
    sat = saturate(pre, bsp)
    e, f1, f2 = pre.events[0], pre.events[5], pre.events[6]
    assert is_liberally_atomic(pre, bsp)
    assert not sat.ordered(e, f1) and not sat.ordered(e, f2)
    assert conc_symbols_blocks(pre, c, d)


def test_latch_exact_without_a_later_marked_read():
    # only a marked read orders events already seen (invariant L of
    # monitor.py's docstring), so a latch set at arrival t with no marked
    # read after t is exact: the last c-occurrence before t and the
    # d-occurrence at t stay unordered in the saturated order of the
    # whole run
    rng = random.Random(2027)
    runs, checked = 0, 0
    while runs < 250:
        aw = gen.random_annotated_run(rng, rng.randint(6, 16), rng.randint(2, 3),
                                      rng.randint(1, 3), p=rng.choice((0.3, 0.6)))
        bs = blocks_from_annotation(aw)
        if not is_liberally_atomic(aw, bs):
            continue
        runs += 1
        succ = saturate(aw, bs).order.succ
        syms = symbols_of(aw)
        last_marked_read = max((k for k, (lab, on) in enumerate(syms) if on and lab.is_read()),
                               default=-1)
        u = Universe.from_run(aw)
        for c_hat, d_hat in itertools.permutations(sorted(set(syms), key=str), 2):
            if c_hat[0].thread == d_hat[0].thread or not inner_pair_positions(aw, c_hat, d_hat):
                continue  # the latch cannot be set
            q = conc_initial(u, c_hat, d_hat)
            for t, s in enumerate(syms):
                q = conc_step(q, s)
                if q.found:
                    break
            if not q.found or t < last_marked_read:
                continue
            i = max(k for k in range(t) if syms[k] == c_hat)
            assert not succ[i] >> t & 1, (aw.to_text(), c_hat, d_hat)
            checked += 1
    assert checked > 700, checked


# ---- existential queries -------------------------------------------------------

def certifying_block_sets(run, c, d):
    out = []
    for bs in all_block_sets(run):
        if not is_liberally_atomic(run, bs):
            continue
        aw = annotate(run, bs)
        if conc_symbols_blocks(aw, c, d):
            out.append(bs)
    return out


def test_corpus_no_single_certifying_annotation():
    run = corpus("no_maximal_annotation.trace")
    q1 = (Label("T2", "w", "x"), Label("T3", "w", "x"))
    q2 = (Label("T1", "w", "y"), Label("T3", "w", "y"))
    assert conc_symbols_general(run, *q1)
    assert conc_symbols_general(run, *q2)
    # but no block choice witnesses both at once
    s1 = certifying_block_sets(run, *q1)
    s2 = certifying_block_sets(run, *q2)
    assert s1 and s2
    keys = lambda sets: {tuple(sorted(run.position(b.write) for b in bs)) for bs in sets}
    assert not keys(s1) & keys(s2)
    # without blocks neither pair moves
    assert not conc_symbols_maz(run, *q1)
    assert not conc_symbols_maz(run, *q2)


def test_general_contains_maz_and_stream_contains_general():
    rng = random.Random(31337)
    for _ in range(100):
        run = gen.random_run(rng, rng.randint(2, 7))
        for c, d in distinct_label_pairs(run):
            m = conc_symbols_maz(run, c, d)
            g = conc_symbols_general(run, c, d)
            s = conc_symbols_general(run, c, d, strategy="stream")
            assert not (m and not g)
            assert not (g and not s)


def pair_census(run):
    """Per mode, the event pairs i < j that some order of the mode leaves
    unordered (the test ``conc_events`` makes, with each mode's orders
    built once per run), and under ``rf`` those ``rf_unordered`` finds
    inverted in the reads-from class."""
    pairs = list(itertools.combinations(range(len(run)), 2))
    found = {}
    for mode in MODES:
        orders = list(concurrency._orders(run, mode))
        found[mode] = {(i, j) for i, j in pairs if any(not o.succ[i] >> j & 1 for o in orders)}
    found["rf"] = {(i, j) for i, j in pairs if rf_unordered(run, i, j)}
    return found


def check_hierarchy(run):
    found = pair_census(run)
    assert found["maz"] <= found["general"]
    if is_liberally_atomic(run, blocks_from_annotation(run)):
        assert found["maz"] <= found["blocks"]
    else:
        assert not found["blocks"]
    assert found["blocks"] <= found["general"]
    assert found["general"] <= found["rf"]
    return found


def test_census_hierarchy_random():
    rng = random.Random(7)
    counts = dict.fromkeys(("maz", "blocks", "general", "rf"), 0)
    for k in range(60):
        found = check_hierarchy(gen.random_annotated_run(rng, 5 + k % 4, 2 + k % 2, 2))
        for mode in counts:
            counts[mode] += len(found[mode])
    assert counts == {"maz": 153, "blocks": 212, "general": 490, "rf": 490}


@pytest.mark.parametrize("path", sorted(CORPUS.glob("*.trace")), ids=lambda p: p.name)
def test_census_hierarchy_corpus(path):
    check_hierarchy(parse_run(path.read_text()))


def test_census_strict_gaps():
    # blocks recover part of reads-from concurrency, commutation less
    run = corpus("block_vs_rf_gap.trace")
    found = pair_census(run)
    assert (len(found["general"]), len(found["rf"])) == (42, 56)
    assert (5, 9) in found["rf"] - found["general"]
    assert not conc_events(run, run.events[5], run.events[9], "general")
    run = corpus("three_thread_zx_variant.trace")
    found = pair_census(run)
    assert (len(found["maz"]), len(found["general"])) == (5, 19)
    i, j = min(found["general"] - found["maz"])
    assert conc_events(run, run.events[i], run.events[j], "general")
    assert not conc_events(run, run.events[i], run.events[j], "maz")


def test_general_stream_strictly_looser():
    # the nondeterministic stream inherits the arrival-time bit, so it
    # accepts the smallest gap instance that exact enumeration refuses
    run = parse_run("T1 w x\nT2 w x\nT1 r x")
    c, d = Label("T1", "w", "x"), Label("T2", "w", "x")
    assert not conc_symbols_general(run, c, d)
    assert conc_symbols_general(run, c, d, strategy="stream")
    with pytest.raises(ValueError):
        conc_symbols_general(run, c, d, strategy="guess")


def share_transitions(monkeypatch):
    """Route both searches' ``libat_step`` calls through one table of
    transitions.  The step is a pure function of its state and symbol,
    so the answers stay the same; the table is cleared per run by
    calling the returned function."""
    table = {}

    def step(q, sym):
        key = q, sym
        got = table.get(key)
        if got is None:
            got = table[key] = atomicity.libat_step(q, sym)
        return got

    monkeypatch.setattr(concurrency, "libat_step", step)
    monkeypatch.setattr(oracles, "libat_step", step)
    return table.clear


def check_stream_against_layered_pass(run):
    """The depth-first search against the layered pass on every ordered
    label pair, equal labels included; returns the number of pairs.  A
    query covers both orientations of its pair, so the layered pass is
    asked once per unordered pair."""
    labs = sorted(set(run.labels))
    for c, d in itertools.combinations_with_replacement(labs, 2):
        want = reference_general_stream(run, c, d)
        assert conc_symbols_general(run, c, d, strategy="stream") == want, (run, c, d)
        assert conc_symbols_general(run, d, c, strategy="stream") == want, (run, d, c)
    return len(labs) ** 2


def test_general_stream_matches_layered_pass(monkeypatch):
    clear = share_transitions(monkeypatch)
    rng = random.Random(2020)
    checked = 0
    for _ in range(100):
        clear()
        run = gen.random_run(rng, rng.randint(1, 10), rng.randint(1, 3), rng.randint(1, 3))
        checked += check_stream_against_layered_pass(run)
    assert checked > 1000


@settings(max_examples=40, deadline=None)
@given(gen.annotated_runs(max_threads=3, max_vars=3, min_events=1, max_events=8))
def test_general_stream_matches_layered_pass_drawn(drawn):
    # the drawn marks are ignored: general mode guesses its own
    check_stream_against_layered_pass(drawn[2])


def test_general_stream_stops_at_first_accepting_branch(monkeypatch):
    # a "yes" that the first branch settles: writes are tried marked
    # first, and that branch is witnessed and never rejected, so the
    # search makes one step per event, where the layered pass of
    # reference_general_stream makes 34,526
    calls = []

    def counting(q, sym):
        calls.append(sym)
        return atomicity.libat_step(q, sym)

    monkeypatch.setattr(concurrency, "libat_step", counting)
    run = gen.random_run(random.Random(3), 16, 2, 2)
    assert conc_symbols_general(run, run.labels[0], run.labels[-1], strategy="stream")
    assert len(calls) <= 2 * len(run)


# ---- event-level queries ---------------------------------------------------------

def test_conc_events_matches_saturated_order():
    rng = random.Random(424242)
    for _ in range(60):
        aw = gen.random_annotated_run(rng, rng.randint(2, 8))
        bs = blocks_from_annotation(aw)
        atomic = is_liberally_atomic(aw, bs)
        sat = saturate(aw, bs) if atomic else None
        hb = mazurkiewicz_hb(aw)
        for e, f in itertools.combinations(aw.events, 2):
            want_b = bool(atomic and not sat.ordered(e, f) and not sat.ordered(f, e))
            assert conc_events(aw, e, f, "blocks") == want_b
            want_m = not hb.ordered(e, f) and not hb.ordered(f, e)
            assert conc_events(aw, e, f, "maz") == want_m


def test_conc_events_same_label_occurrences():
    # fresh marks let two occurrences of one label be compared
    run = corpus("two_wr_pairs.trace")
    e, f = run.events[0], run.events[2]  # the two w(x) writes
    assert conc_events(run, e, f, "blocks")
    assert not conc_events(run, e, f, "maz")
    run2 = corpus("conciseness_n2.trace")
    # first write of T1 against T1's own later write: program order pins it
    assert not conc_events(run2, run2.events[0], run2.events[2], "blocks")


def test_conc_events_errors():
    run = parse_run("T1 w x\nT2 r x")
    e = run.events[0]
    from blockeq.trace import Event

    with pytest.raises(ValueError):
        conc_events(run, e, Event(Label("T9", "w", "q"), 1))
    with pytest.raises(ValueError):
        conc_events(run, e, e)
    with pytest.raises(ValueError):
        conc_events(run, e, run.events[1], "sideways")


# ---- state stays small -------------------------------------------------------------

def test_pair_state_constant_on_periodic_input():
    period = "T1 w x\nT1 r x\nT2 w y\nT2 r y"
    c_hat = (Label("T1", "w", "x"), False)
    d_hat = (Label("T2", "w", "y"), False)

    u = Universe.from_run(parse_run(period))

    def state_after(reps):
        run = parse_run("\n".join([period] * reps))
        q = conc_initial(u, c_hat, d_hat)
        for s in symbols_of(run):
            q = conc_step(q, s)
        return q

    a, b = state_after(3), state_after(30)
    assert a.found and b.found
    assert a == b


def test_symbols_absent_from_the_trace_are_not_concurrent():
    # a symbol that never occurs has no occurrence pair in any mode
    run = corpus("two_wr_pairs.trace")
    absent, present = Label("T9", "w", "q"), Label("T1", "w", "x")
    assert not conc_symbols_maz(run, absent, present)
    assert not conc_symbols_maz(run, present, absent)
    assert not conc_symbols_blocks(run, absent, present)
    for strategy in ("enumerate", "stream"):
        assert not conc_symbols_general(run, absent, present, strategy=strategy)
        assert not conc_symbols_general(run, present, absent, strategy=strategy)


def test_general_absent_symbol_answers_without_enumerating(monkeypatch):
    # the answer is "no" whatever the block set, so no block set is tried
    def refuse(run):
        raise AssertionError("enumerated block sets for an absent symbol")

    monkeypatch.setattr(concurrency, "all_block_sets", refuse)
    run = corpus("block_vs_rf_gap.trace")
    absent, present = Label("T9", "w", "q"), run.labels[0]
    assert not conc_symbols_general(run, absent, present)
    assert not conc_symbols_general(run, present, absent)


def test_general_same_thread_pair_answers_without_searching(monkeypatch):
    # program order orders two events of one thread under every block set;
    # the 30 writes would have 2^30 block sets
    def refuse(*args):
        raise AssertionError("searched block sets for a pair on one thread")

    monkeypatch.setattr(concurrency, "all_block_sets", refuse)
    monkeypatch.setattr(concurrency, "_general_stream", refuse)
    run = parse_run("T1 w x\nT1 w y\n" * 15)
    wx, wy = run.labels[0], run.labels[1]
    for strategy in ("enumerate", "stream"):
        for c, d in ((wx, wx), (wx, wy), (wy, wx)):
            assert not conc_symbols_general(run, c, d, strategy=strategy)
    for i, j in ((0, 1), (0, 29), (28, 3)):
        assert not conc_events(run, run.events[i], run.events[j], "general")


def test_general_builds_no_run(monkeypatch):
    # label queries read the input run's positions under every block set
    run = corpus("block_vs_rf_gap.trace")
    c, d = run.labels[0], run.labels[-1]
    expect = {s: conc_symbols_general(run, c, d, strategy=s) for s in ("enumerate", "stream")}
    built = []
    init = Run.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Run, "__init__", counting)
    for strategy, answer in expect.items():
        assert conc_symbols_general(run, c, d, strategy=strategy) == answer
    assert built == []


@pytest.mark.parametrize("mode", ("maz", "blocks"))
def test_conc_events_ignores_argument_order(mode):
    # the golden file asks about I < J only; the later event may come first
    for path in sorted(CORPUS.glob("*.trace")):
        run = parse_run(path.read_text())
        for i, j in itertools.combinations(range(len(run)), 2):
            e, f = run.event_at(i), run.event_at(j)
            assert conc_events(run, e, f, mode) == conc_events(run, f, e, mode), (path.name, i, j)


def test_conc_initial_rejects_symbol_outside_universe():
    u = Universe(["T1", "T2"], ["x"])
    inside, outside = (Label("T1", "w", "x"), False), (Label("T1", "w", "y"), False)
    for c_hat, d_hat in ((outside, inside), (inside, outside)):
        with pytest.raises(ValueError, match="outside the universe"):
            conc_initial(u, c_hat, d_hat)
