"""Acceptance gate: one test per shipped guarantee, one verdict line each.

Every test prints ``criterion N (<name>): PASS|FAIL`` so the suite log
doubles as the acceptance report.  The criteria pin the containment
hierarchy of the three equivalences, exactness of the class oracles,
agreement of every streaming monitor with its offline definition, the
published example counts, the hardness reduction, and the constant-size
state property of the monitors.
"""

import itertools
import math
import random
import time
from functools import lru_cache
from pathlib import Path

import gen
from blockeq.atomicity import (
    is_conflict_serializable,
    is_liberally_atomic,
    libat_initial,
    libat_run,
    libat_step,
)
from blockeq.atomicity import canonical_text as libat_text
from blockeq.blocks import (
    BlockSet,
    all_block_sets,
    annotate,
    blocks_from_annotation,
    parse_block_selector,
)
from blockeq.concurrency import conc_symbols_blocks, conc_symbols_general
from blockeq.hardness import EqualityInstance, check_reduction
from blockeq.monitor import canonical_text as sat_text
from blockeq.monitor import sat_initial, sat_step, symbols_of
from blockeq.oracle import enum_block_class, enum_maz_class, enum_rf_class
from blockeq.orders import block_hb, saturate
from blockeq.trace import Label, Run, Universe, parse_run
from oracles import (
    count_linear_extensions,
    intersection_order,
    member_runs,
    proper_linearizations,
    same_equiv_rf,
)
from test_monitor import compare_prefixes

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def corpus(name):
    return parse_run((CORPUS / name).read_text())


def verdict(num, name, ok):
    print("criterion %d (%s): %s" % (num, name, "PASS" if ok else "FAIL"), flush=True)
    assert ok, "criterion %d (%s) failed" % (num, name)


@lru_cache(maxsize=None)
def sampled_instances():
    """2000 random annotated runs (<= 9 events, <= 3 threads/variables)
    with random valid block sets, shared by criteria 1-3."""
    rng = random.Random(0xB10C)
    return tuple(gen.random_annotated_run(rng, rng.randint(1, 9)) for _ in range(2000))


def test_criterion_1_hierarchy():
    started = time.perf_counter()
    violations = 0
    for aw in sampled_instances():
        bs = blocks_from_annotation(aw)
        maz = set(enum_maz_class(aw).members)
        blk = set(enum_block_class(aw, bs).members)
        rf = set(enum_rf_class(aw).members)
        if not (maz <= blk <= rf):
            violations += 1

    # the bundled 12-event instance separates all three relations
    run = corpus("block_vs_rf_gap.trace")
    bs = BlockSet(run, [0, 3])
    maz = set(enum_maz_class(run).members)
    blk = set(enum_block_class(run, bs).members)
    word = list(run.labels)
    word[4:12] = word[8:12] + word[4:8]  # wholesale swap of the two gadget halves
    witness = Run(word)
    gap_ok = (
        maz < blk
        and same_equiv_rf(run, witness)
        and tuple(witness.labels) in set(enum_rf_class(run).members)
        and tuple(witness.labels) not in blk
    )
    elapsed = time.perf_counter() - started
    verdict(1, "hierarchy", violations == 0 and gap_ok and elapsed <= 120.0)


def test_criterion_2_completeness():
    checked = 0
    mismatches = 0
    for aw in sampled_instances():
        bs = blocks_from_annotation(aw)
        if not is_liberally_atomic(aw, bs):
            continue
        checked += 1
        members = frozenset(enum_block_class(aw, bs).members)
        linear = frozenset(tuple(r.labels) for r in proper_linearizations(aw, bs))
        if members != linear:
            mismatches += 1
    verdict(2, "completeness", checked > 500 and mismatches == 0)


def test_criterion_3_soundness():
    checked_pairs = 0
    discrepancies = 0
    for aw in sampled_instances():
        bs = blocks_from_annotation(aw)
        if not is_liberally_atomic(aw, bs):
            continue
        sat = saturate(aw, bs)
        positions = [
            {e: i for i, e in enumerate(m.events)}
            for m in member_runs(enum_block_class(aw, bs))
        ]
        for e, f in itertools.permutations(aw.events, 2):
            always_before = all(p[e] < p[f] for p in positions)
            if sat.ordered(e, f) != always_before:
                discrepancies += 1
            checked_pairs += 1
    verdict(3, "soundness", checked_pairs > 10000 and discrepancies == 0)


def test_criterion_4_saturation_monitor():
    rng = random.Random(0x5A7)
    mismatches = 0
    for _ in range(1000):
        aw = gen.random_annotated_run(rng, rng.randint(1, 12))
        mismatches += len(compare_prefixes(aw))
    verdict(4, "saturation monitor", mismatches == 0)


def _all_blocks_contiguous(labels, blocks):
    occ = {}
    where = {}
    for i, lab in enumerate(labels):
        occ[lab] = occ.get(lab, 0) + 1
        for b in blocks:
            if any(e.label == lab and e.occurrence == occ[lab] for e in b.members()):
                where.setdefault(b.write, []).append(i)
    for pos in where.values():
        pos.sort()
        if pos != list(range(pos[0], pos[0] + len(pos))):
            return False
    return True


def test_criterion_5_atomicity_triple_agreement():
    rng = random.Random(0xA70)
    disagreements = 0
    for _ in range(400):
        aw = gen.random_annotated_run(rng, rng.randint(1, 10))
        bs = blocks_from_annotation(aw)
        offline = is_liberally_atomic(aw, bs)
        streaming = libat_run(aw)
        serial = any(
            _all_blocks_contiguous(labels, bs)
            for labels in enum_block_class(aw, bs).members
        )
        if not (offline == streaming == serial):
            disagreements += 1

    # a run whose three blocks interleave but stay atomic, though no
    # serialization respects plain conflict order
    mixed = corpus("atomic_not_serializable.trace")
    mixed_bs = blocks_from_annotation(mixed)
    example_ok = is_liberally_atomic(mixed, mixed_bs) and not is_conflict_serializable(
        mixed, mixed_bs
    )

    # the four intertwined x/y blocks: each pair of same-variable blocks
    # traps an event of the other pair, so nothing is atomic or serializable
    inter = corpus("no_maximal_annotation.trace")
    inter_bs = parse_block_selector(inter, "all")
    inter_ok = not is_liberally_atomic(inter, inter_bs) and not is_conflict_serializable(
        inter, inter_bs
    )
    verdict(5, "atomicity triple agreement", disagreements == 0 and example_ok and inter_ok)


def test_criterion_6_exact_counts():
    started = time.perf_counter()
    pair = corpus("two_wr_pairs.trace")
    cls = enum_block_class(pair, blocks_from_annotation(pair))
    counts_ok = len(cls.members) == 2
    counts_ok &= count_linear_extensions(intersection_order(cls)) == 6

    for name, n in (("conciseness_n2.trace", 2), ("conciseness_n3.trace", 3)):
        t0 = time.perf_counter()
        run = corpus(name)
        counts_ok &= len(enum_maz_class(run).members) == 1
        counts_ok &= len(
            enum_block_class(run, blocks_from_annotation(run)).members
        ) == math.comb(2 * n, n)
        counts_ok &= time.perf_counter() - t0 <= 10.0
    counts_ok &= time.perf_counter() - started <= 30.0
    verdict(6, "exact counts", counts_ok)


def _class_inverts_pair(aw, cls, c, d):
    rep = {e: i for i, e in enumerate(aw.events)}
    ce = [e for e in aw.events if e.label == c]
    de = [e for e in aw.events if e.label == d]
    for member in member_runs(cls):
        pos = {e: i for i, e in enumerate(member.events)}
        for e in ce:
            for f in de:
                if (rep[e] < rep[f]) != (pos[e] < pos[f]):
                    return True
    return False


def test_criterion_7_concurrency_decisions():
    rng = random.Random(0xC07)
    queries = 0
    wrong = 0
    for _ in range(150):
        aw = gen.random_annotated_run(rng, rng.randint(2, 8))
        bs = blocks_from_annotation(aw)
        if not is_liberally_atomic(aw, bs):
            continue
        cls = enum_block_class(aw, bs)
        for c, d in itertools.combinations(sorted(set(aw.labels)), 2):
            if conc_symbols_blocks(aw, c, d) != _class_inverts_pair(aw, cls, c, d):
                wrong += 1
            queries += 1

    # both closing queries hold, yet the block choices that certify them
    # are disjoint: no single choice witnesses both
    run = corpus("no_maximal_annotation.trace")
    q1 = (Label("T2", "w", "x"), Label("T3", "w", "x"))
    q2 = (Label("T1", "w", "y"), Label("T3", "w", "y"))
    both_true = conc_symbols_general(run, *q1) and conc_symbols_general(run, *q2)

    def certifying_choices(c, d):
        out = set()
        for bs in all_block_sets(run):
            if not is_liberally_atomic(run, bs):
                continue
            aw = annotate(run, bs)
            if conc_symbols_blocks(aw, c, d):
                out.add(frozenset(run.position(b.write) for b in bs))
        return out

    no_shared_choice = not (certifying_choices(*q1) & certifying_choices(*q2))
    verdict(
        7,
        "concurrency decisions",
        queries > 200 and wrong == 0 and both_true and no_shared_choice,
    )


def test_criterion_8_hardness_reduction():
    ok = True
    for abits in itertools.product((0, 1), repeat=2):
        for bbits in itertools.product((0, 1), repeat=2):
            t0 = time.perf_counter()
            ok &= check_reduction(EqualityInstance(abits, bbits))
            ok &= time.perf_counter() - t0 < 5.0

    rng = random.Random(0x8A4D)
    all_n3 = list(itertools.product((0, 1), repeat=3))
    pairs = [(a, a) for a in all_n3]  # every equal pair
    unequal = [(a, b) for a in all_n3 for b in all_n3 if a != b]
    pairs += rng.sample(unequal, 20 - len(pairs))
    for a, b in pairs:
        t0 = time.perf_counter()
        ok &= check_reduction(EqualityInstance(a, b))
        ok &= time.perf_counter() - t0 < 60.0
    verdict(8, "hardness reduction", ok)


def _periodic_run(length):
    pattern = [
        (Label("T1", "w", "x"), True),
        (Label("T1", "r", "x"), True),
        (Label("T2", "w", "y"), False),
        (Label("T2", "r", "y"), False),
    ]
    labels, bits = zip(*(pattern[i % 4] for i in range(length)))
    return Run(labels, bits)


def _final_states(length, universe):
    run = _periodic_run(length)
    sat = sat_initial(universe)
    lib = libat_initial(universe)
    for sym in symbols_of(run):
        sat = sat_step(sat, sym)
        lib = libat_step(lib, sym)
    return sat, lib


def _step_seconds(universe, step, initial, rounds=3):
    """Per-symbol seconds on the 10-symbol and on the 1000-symbol stream.
    Each round times 100 folds of the short stream and one fold of the
    long one back to back, 1000 symbols each, so both see the same
    machine load; each figure is its best round."""
    best = {}
    for _ in range(rounds):
        for length, folds in ((10, 100), (1000, 1)):
            syms = symbols_of(_periodic_run(length))
            t0 = time.perf_counter()
            for _ in range(folds):
                state = initial(universe)
                for sym in syms:
                    state = step(state, sym)
            took = (time.perf_counter() - t0) / (length * folds)
            best[length] = min(best.get(length, took), took)
    return best[10], best[1000]


def test_criterion_9_constant_state():
    universe = Universe(["T1", "T2"], ["x", "y"])
    sizes_sat = set()
    sizes_lib = set()
    for length in (10, 100, 1000):
        sat, lib = _final_states(length, universe)
        sizes_sat.add(len(sat_text(sat).encode()))
        sizes_lib.add(len(libat_text(lib).encode()))
    constant_size = len(sizes_sat) == 1 and len(sizes_lib) == 1

    short_sat, long_sat = _step_seconds(universe, sat_step, sat_initial)
    short_lib, long_lib = _step_seconds(universe, libat_step, libat_initial)
    flat_time = long_sat <= 2.0 * short_sat and long_lib <= 2.0 * short_lib
    verdict(9, "constant state", constant_size and flat_time)
