"""Differential tests for the atomicity checks.

Three independently computed answers must agree on every instance:
acyclicity of the offline block graph, the streaming summarized-graph
check, and a brute-force search for a member of the block equivalence
class in which every block is contiguous.
"""

import random
from pathlib import Path

import pytest
from hypothesis import given, settings

from blockeq import orders
from blockeq.atomicity import (
    _quotient,
    block_graph,
    canonical_text,
    is_conflict_serializable,
    is_liberally_atomic,
    libat_initial,
    libat_run,
    libat_step,
    serial_witness,
)
from blockeq.blocks import BlockSet, blocks_from_annotation, topological_order
from blockeq.monitor import symbols_of
from blockeq.oracle import enum_block_class, proper_topological_sort
from blockeq.orders import bits, block_hb, mazurkiewicz_hb
from blockeq.trace import Run, Universe, parse_run

import gen
from oracles import is_proper_linearization, proper_linearizations
from test_golden import _monitor_streams

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

# ---- oracle answer ---------------------------------------------------------

def _occurrences(labels):
    seen = {}
    out = []
    for lab in labels:
        n = seen.get(lab, 0) + 1
        seen[lab] = n
        out.append((lab, n))
    return out


def _all_blocks_contiguous(labels, blocks):
    where = {}
    for i, (lab, occ) in enumerate(_occurrences(labels)):
        where[(lab, occ)] = i
    for b in blocks:
        ps = [where[(e.label, e.occurrence)] for e in b.members()]
        if max(ps) - min(ps) + 1 != len(ps):
            return False
    return True


def serial_member_exists(aw, blocks):
    """Ground truth: some member of the block equivalence class lays
    every block out contiguously."""
    cls = enum_block_class(aw, blocks)
    return any(_all_blocks_contiguous(labels, blocks) for labels in cls.members)


def three_answers(aw):
    blocks = blocks_from_annotation(aw)
    return (
        is_liberally_atomic(aw, blocks),
        libat_run(aw),
        serial_member_exists(aw, blocks),
    )


def disagreement(aw):
    offline, stream, serial = three_answers(aw)
    if offline == stream == serial:
        return None
    return {"offline": offline, "stream": stream, "serial": serial}


def describe(aw):
    return " | ".join(
        "%s%s" % (lab, "@" if on else "")
        for lab, on in zip(aw.labels, aw.annotations)
    )


# ---- fixed instances -------------------------------------------------------

INTERTWINED = """
T1 w x @
T2 w y @
T1 r y @
T2 r x @
"""


def test_intertwined_blocks_reject():
    aw = parse_run(INTERTWINED)
    blocks = blocks_from_annotation(aw)
    assert not is_liberally_atomic(aw, blocks)
    assert not libat_run(aw)
    assert not serial_member_exists(aw, blocks)
    # and the streaming check rejects at some strict prefix already or at
    # the closing event, absorbing from there on
    u = Universe.from_run(aw)
    q = libat_initial(u)
    states = []
    for s in symbols_of(aw):
        q = libat_step(q, s)
        states.append(q.rejected)
    assert states[-1]
    first = states.index(True)
    assert all(states[first:])


def test_self_loop_through_pinned_event():
    # an unblocked event wedged between two members of one block by
    # program order pins the block apart: the block graph has a self
    # loop through the singleton, so both checks must reject
    for text in [
        "T1 w x @\nT1 w y\nT1 r x @\n",
        "T1 w y @\nT3 w x\nT1 r x\nT1 r y @\n",
    ]:
        aw = parse_run(text)
        blocks = blocks_from_annotation(aw)
        assert not is_liberally_atomic(aw, blocks)
        assert not libat_run(aw)
        assert not serial_member_exists(aw, blocks)


def test_cycle_through_superseded_blocks():
    # a cycle whose path crosses two blocks that are both replaced before
    # the closing member arrives; the closing hop leaves each block from
    # a read on a thread different from the one it was entered on, so
    # only the folded witness registers can still certify the path
    ten = """
    T1 w x @
    T2 w y @
    T1 r y @
    T3 r y @
    T4 w z @
    T3 r z @
    T5 r z @
    T2 w y @
    T4 w z @
    T5 r x @
    """
    eleven = """
    T1 w x @
    T2 r x @
    T3 w y @
    T2 r y @
    T4 r y @
    T5 w z @
    T4 r z @
    T6 r z @
    T3 w y @
    T7 w z @
    T6 r x @
    """
    for text in (ten, eleven):
        aw = parse_run(text)
        blocks = blocks_from_annotation(aw)
        assert not is_liberally_atomic(aw, blocks)
        assert not libat_run(aw)


def test_node_survives_unmarked_write():
    # an unmarked write empties the saturation monitor's running-block
    # set for its variable, but the previous block keeps being the node
    # for that variable; an edge out of it may only become visible later
    aw = parse_run("T2 w x @\nT1 w y @\nT2 r y @\nT3 w y\nT1 r x @\n")
    blocks = blocks_from_annotation(aw)
    assert not is_liberally_atomic(aw, blocks)
    assert not libat_run(aw)
    assert not serial_member_exists(aw, blocks)


def test_no_blocks_always_atomic():
    rng = random.Random(7)
    for _ in range(25):
        run = gen.random_run(rng, rng.randint(1, 10))
        blocks = blocks_from_annotation(run)  # nothing marked
        assert is_liberally_atomic(run, blocks)
        assert libat_run(run)
        g = block_graph(run, blocks)
        assert len(g) == len(run)
        assert is_conflict_serializable(run, blocks)


def test_exhaustive_small():
    checked = 0
    for n in range(1, 5):
        for aw in gen.all_annotated_runs(n):
            bad = disagreement(aw)
            assert bad is None, "%s -> %s" % (describe(aw), bad)
            checked += 1
    assert checked > 300


def test_random_agreement():
    rng = random.Random(20210)
    for _ in range(120):
        aw = gen.random_annotated_run(rng, rng.randint(5, 10))
        bad = disagreement(aw)
        assert bad is None, "%s -> %s" % (describe(aw), bad)


@settings(max_examples=150)
@given(gen.annotated_runs())
def test_streaming_matches_offline_longer_runs(drawn):
    threads, variables, aw = drawn
    q = libat_initial(Universe(threads, variables))
    for s in symbols_of(aw):
        q = libat_step(q, s)
    streamed = q.accepting()
    assert streamed == is_liberally_atomic(aw, blocks_from_annotation(aw)), describe(aw)


# ---- the decisions quotient direct edges; the closed order agrees ----------

def rows(succ):
    """Each row's successors, listed, of a table of successor masks."""
    return [list(bits(m)) for m in succ]


def closed_route(aw, blocks):
    """Reference answers from the closed orders: the Kahn order of the
    closed block order's quotient (None when cyclic), whether the closed
    commutation order's quotient is acyclic, and the serial witness read
    off the first."""
    g = _quotient(aw, blocks, block_hb(aw, blocks).succ)
    kahn = topological_order(rows(g.succ))
    serializable = topological_order(rows(_quotient(aw, blocks, mazurkiewicz_hb(aw).succ).succ)) is not None
    if kahn is None:
        return False, serializable, None
    events = [e for k in kahn for e in g.nodes[k]]
    witness = Run([e.label for e in events], [aw.annotations[aw.position(e)] for e in events])
    return True, serializable, witness


def check_sparse_route(aw):
    blocks = blocks_from_annotation(aw)
    atomic, serializable, witness = closed_route(aw, blocks)
    assert is_liberally_atomic(aw, blocks) == atomic, describe(aw)
    assert is_conflict_serializable(aw, blocks) == serializable, describe(aw)
    if witness is None:
        with pytest.raises(ValueError):
            serial_witness(aw, blocks)
    else:
        assert serial_witness(aw, blocks) == witness, describe(aw)


def test_sparse_route_matches_closed_route_small():
    # the corpus holds a liberally atomic run that is not conflict
    # serializable, which random runs of this size rarely are
    for path in sorted(CORPUS.glob("*.trace")):
        check_sparse_route(parse_run(path.read_text()))
    rng = random.Random(6061)
    for _ in range(300):
        check_sparse_route(gen.random_annotated_run(rng, rng.randint(2, 9)))
    # the shape random draws miss, built on purpose: atomic, not serializable
    for _ in range(100):
        aw = gen.atomic_not_serializable_run(rng, rng.randint(0, 6), rng.randint(2, 4), rng.randint(2, 4))
        assert closed_route(aw, blocks_from_annotation(aw))[:2] == (True, False), describe(aw)
        check_sparse_route(aw)


def test_empty_block_set_decides_without_edges(monkeypatch):
    """With no blocks every node of the block graph is one event and
    every direct edge points forward, so the run is liberally atomic,
    conflict serializable and its own serial witness.  Pinned against
    the closed route on every unmarked corpus trace, on every marked
    one under the empty block set, and on seeded random unmarked runs;
    none of the three builds the direct edges."""
    runs = [parse_run(path.read_text()) for path in sorted(CORPUS.glob("*.trace"))]
    assert sum(not any(run.annotations) for run in runs) >= 4
    rng = random.Random(1212)
    runs += [gen.random_run(rng, rng.randint(1, 60), rng.randint(1, 4), rng.randint(1, 4)) for _ in range(150)]
    for run in runs:
        assert closed_route(run, BlockSet(run, ())) == (True, True, run), describe(run)

    def refuse(blocks):
        raise AssertionError("built the direct edges of an empty block set")

    monkeypatch.setattr(BlockSet.__dict__["_edges"], "func", refuse)
    for run in runs:
        empty = BlockSet(run, ()) if any(run.annotations) else blocks_from_annotation(run)
        assert not empty.writes
        assert is_liberally_atomic(run, empty), describe(run)
        assert is_conflict_serializable(run, empty), describe(run)
        assert serial_witness(run, empty) == run, describe(run)


@settings(max_examples=150)
@given(gen.annotated_runs())
def test_sparse_route_matches_closed_route(drawn):
    check_sparse_route(drawn[2])


def test_decisions_close_no_order(monkeypatch):
    def refuse(*tables):
        raise AssertionError("an atomicity decision closed an order")

    monkeypatch.setattr(orders, "transitive_closure", refuse)
    for name in ("five_thread_blocks.trace", "intertwined_blocks.trace",
                 "atomic_not_serializable.trace", "dead_chain_cycle.trace"):
        aw = parse_run((CORPUS / name).read_text())
        blocks = blocks_from_annotation(aw)
        is_conflict_serializable(aw, blocks)
        if is_liberally_atomic(aw, blocks):
            serial_witness(aw, blocks)
    # the public block graph prints the closed order's edges, so it closes
    with pytest.raises(AssertionError):
        block_graph(aw, blocks)


def test_conflict_serializable_implies_atomic():
    rng = random.Random(3553)
    hits = 0
    for _ in range(200):
        aw = gen.random_annotated_run(rng, rng.randint(3, 9))
        blocks = blocks_from_annotation(aw)
        if is_conflict_serializable(aw, blocks):
            hits += 1
            assert is_liberally_atomic(aw, blocks)
    assert hits > 20  # the implication was actually exercised


def test_witness_and_completeness():
    rng = random.Random(99)
    atomic_seen = 0
    for _ in range(80):
        aw = gen.random_annotated_run(rng, rng.randint(4, 9))
        blocks = blocks_from_annotation(aw)
        if not is_liberally_atomic(aw, blocks):
            continue
        atomic_seen += 1
        w = serial_witness(aw, blocks)
        assert is_proper_linearization(w, aw, blocks)
        assert _all_blocks_contiguous(w.labels, blocks)
        cls = enum_block_class(aw, blocks)
        assert w.labels in cls.members
        lins = proper_linearizations(aw, blocks)
        assert {r.labels for r in lins} == cls.members
    assert atomic_seen > 30


def test_witness_refused_when_not_atomic():
    aw = parse_run(INTERTWINED)
    blocks = blocks_from_annotation(aw)
    try:
        serial_witness(aw, blocks)
    except ValueError as e:
        assert "not liberally atomic" in str(e)
    else:
        assert False, "witness must be refused on a cyclic block graph"


def test_tsort_random_priorities():
    rng = random.Random(4242)
    tried = 0
    for _ in range(40):
        aw = gen.random_annotated_run(rng, rng.randint(4, 8))
        blocks = blocks_from_annotation(aw)
        if not is_liberally_atomic(aw, blocks):
            continue
        lins = {r.labels for r in proper_linearizations(aw, blocks)}
        for _ in range(5):
            prio = {e: rng.random() for e in aw.events}
            out = proper_topological_sort(aw, blocks, tie_break=prio.get)
            assert out.labels in lins
            tried += 1
    assert tried > 50


def test_rejects_ill_annotated():
    # a marked write whose reader is unmarked is not a block annotation
    aw = Run(parse_run("T1 w x\nT1 r x").labels, [True, False])
    try:
        libat_run(aw)
    except ValueError:
        pass
    else:
        assert False, "ill-annotated run must be rejected"


def test_canonical_text_constant_size():
    rng = random.Random(11)
    u = Universe(["T1", "T2", "T3"], ["x", "y", "z"])
    sizes = set()
    for n in (3, 8, 12):
        aw = gen.random_annotated_run(rng, n)
        q = libat_initial(u)
        for s in symbols_of(aw):
            q = libat_step(q, s)
        sizes.add(len(canonical_text(q).encode()))
    assert len(sizes) == 1


def test_libat_registers_follow_the_stream():
    # while the check accepts, each variable's node holds the marked
    # symbols on the variable since its last marked write, and its line
    # of canonical_text shows that write's index, -1 before there is one
    streams = list(_monitor_streams().values())
    rng = random.Random(4124)
    for n_threads in range(1, 5):
        for n_vars in range(1, 5):
            for p in (0.2, 0.4, 0.6, 0.8):
                aw = gen.random_annotated_run(rng, rng.randint(40, 160), n_threads, n_vars, p=p)
                streams.append((Universe(*gen.alphabet(n_threads, n_vars)), aw))
    steps = 0
    for u, aw in streams:
        q = libat_initial(u)
        members, write = [0] * len(u.variables), [-1] * len(u.variables)
        for s in symbols_of(aw):
            q = libat_step(q, s)
            if not q.accepting():
                break
            lab, marked = s
            if marked:
                v, i = u.var_index[lab.variable], u.index(s)
                if lab.is_write():
                    members[v], write[v] = 1 << i, i
                else:
                    members[v] |= 1 << i
            assert q.members == tuple(members)
            nodes = [line.split() for line in canonical_text(q).splitlines()
                     if line.startswith("node ")]
            assert [(n[1], int(n[2])) for n in nodes] == list(zip(u.variables, write))
            steps += 1
    assert steps > 5000


# ---- dev loop --------------------------------------------------------------

def minimize(aw):
    labels = list(aw.labels)
    bits = list(aw.annotations)

    def still_fails(ls, bs):
        try:
            cand = Run(ls, bs)
            blocks_from_annotation(cand)
        except Exception:
            return False
        try:
            return disagreement(cand) is not None
        except Exception:
            return False

    changed = True
    while changed:
        changed = False
        for i in range(len(labels) - 1, -1, -1):
            ls = labels[:i] + labels[i + 1:]
            bs = bits[:i] + bits[i + 1:]
            if ls and still_fails(ls, bs):
                labels, bits = ls, bs
                changed = True
        for i in range(len(labels)):
            if bits[i]:
                bs = bits[:i] + [False] + bits[i + 1:]
                if still_fails(labels, bs):
                    bits = bs
                    changed = True
    return Run(labels, bits)


if __name__ == "__main__":
    import sys

    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 20210
    count = int(sys.argv[2]) if len(sys.argv) > 2 else 200
    rng = random.Random(seed)
    bad = 0
    for i in range(count):
        aw = gen.random_annotated_run(rng, rng.randint(4, 10))
        d = disagreement(aw)
        if d:
            bad += 1
            small = minimize(aw)
            print("FAIL seed=%d case=%d %s" % (seed, i, d))
            print("  full : %s" % describe(aw))
            print("  small: %s -> %s" % (describe(small), disagreement(small)))
            if bad >= 5:
                break
    print("%d failing of %d" % (bad, count))
