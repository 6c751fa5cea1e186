"""Random and exhaustive generators for runs and block sets, and the
helpers the test modules share.

Shared by the property-style tests: every generator takes an explicit
random.Random so failures reproduce from the printed seed, except
``annotated_runs``, a hypothesis strategy that shrinks failures itself.
"""

import itertools
from pathlib import Path

from hypothesis import strategies as st

from blockeq.blocks import BlockSet, annotate, blocks_from_annotation
from blockeq.trace import Label, READ, WRITE, Run, parse_run

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def corpus(name):
    """The run of one ``corpus/`` trace."""
    return parse_run((CORPUS / name).read_text())


def describe(aw):
    """An annotated run on one line, marks as in the trace format."""
    return " | ".join("%s%s" % (lab, " @" if on else "") for lab, on in zip(aw.labels, aw.annotations))


def all_blocks_contiguous(labels, blocks):
    """Does the label word lay out each block's members contiguously?
    Events are named by label and occurrence, as in ``Event``."""
    where, seen = {}, {}
    for i, lab in enumerate(labels):
        seen[lab] = seen.get(lab, 0) + 1
        where[lab, seen[lab]] = i
    for b in blocks:
        ps = [where[e.label, e.occurrence] for e in b.members()]
        if max(ps) - min(ps) + 1 != len(ps):
            return False
    return True


def minimize(aw, fails):
    """Greedy shrink of an annotated run on which ``fails`` holds: drop
    events, then clear marks, as long as the candidate is validly
    annotated and ``fails`` still holds of it (raising counts as not)."""
    labels = list(aw.labels)
    marks = list(aw.annotations)

    def still_fails(ls, bs):
        try:
            cand = Run(ls, bs)
            blocks_from_annotation(cand)
        except Exception:
            return False
        try:
            return bool(fails(cand))
        except Exception:
            return False

    changed = True
    while changed:
        changed = False
        for i in range(len(labels) - 1, -1, -1):
            ls = labels[:i] + labels[i + 1:]
            bs = marks[:i] + marks[i + 1:]
            if ls and still_fails(ls, bs):
                labels, marks = ls, bs
                changed = True
        for i in range(len(labels)):
            if marks[i]:
                bs = marks[:i] + [False] + marks[i + 1:]
                if still_fails(labels, bs):
                    marks = bs
                    changed = True
    return Run(labels, marks)


def alphabet(n_threads, n_vars):
    """The thread and variable names of the random generators."""
    threads = tuple("T%d" % (i + 1) for i in range(n_threads))
    variables = tuple("xyz"[i] if i < 3 else "v%d" % i for i in range(n_vars))
    return threads, variables


def random_run(rng, n_events, n_threads=3, n_vars=3):
    """A random valid run: every read observes some earlier write."""
    threads, variables = alphabet(n_threads, n_vars)
    labels = []
    written = set()
    for _ in range(n_events):
        t = rng.choice(threads)
        if written and rng.random() < 0.5:
            v = rng.choice(sorted(written))
            op = rng.choice((READ, WRITE))
        else:
            v = rng.choice(variables)
            op = WRITE
        labels.append(Label(t, op, v))
        written.add(v)
    return Run(labels)


def random_block_set(rng, run, p=0.5):
    """A uniform-ish random valid block set: each write independently in."""
    writes = [i for i, w in enumerate(run.is_write) if w]
    chosen = [w for w in writes if rng.random() < p]
    return BlockSet(run, chosen)


def random_annotated_run(rng, n_events, n_threads=3, n_vars=3, p=0.5):
    run = random_run(rng, n_events, n_threads, n_vars)
    return annotate(run, random_block_set(rng, run, p))


def atomic_not_serializable_run(rng, n_filler, n_threads=3, n_vars=3):
    """A run whose blocks are liberally atomic but not conflict
    serializable, by construction: the six marked events of
    corpus/atomic_not_serializable.trace on two drawn threads a, b and
    variables z, x, padded with unmarked filler on the other variables.
    Filler before and after the shape may use any thread; filler inside
    it uses only the other threads, so no filler event depends on a
    shape event placed after it and every block keeps its readers."""
    threads, variables = alphabet(n_threads, n_vars)
    a, b = rng.sample(threads, 2)
    z, x = rng.sample(variables, 2)
    shape = [(a, WRITE, z), (a, WRITE, x), (a, READ, x), (b, WRITE, x), (b, READ, x), (b, READ, z)]
    inner = [t for t in threads if t not in (a, b)]
    spare = [v for v in variables if v not in (x, z)]
    gaps = [0] * (len(shape) + 1)  # filler count before each shape event, and after the last
    for _ in range(n_filler if spare else 0):
        gaps[rng.randrange(len(gaps)) if inner else rng.choice((0, len(shape)))] += 1
    labels, marks, written = [], [], set()
    for k, count in enumerate(gaps):
        for _ in range(count):
            t = rng.choice(inner if 0 < k < len(shape) else threads)
            v = rng.choice(spare)
            labels.append(Label(t, rng.choice((READ, WRITE)) if v in written else WRITE, v))
            marks.append(False)
            written.add(v)
        if k < len(shape):
            labels.append(Label(*shape[k]))
            marks.append(True)
    return Run(labels, marks)


@st.composite
def annotated_runs(draw, max_threads=4, max_vars=4, min_events=15, max_events=40):
    """(threads, variables, annotated run): a valid run over a drawn
    alphabet, marked with a drawn subset of its candidate blocks."""
    threads, variables = alphabet(draw(st.integers(1, max_threads)), draw(st.integers(1, max_vars)))
    labels = []
    written = set()
    for _ in range(draw(st.integers(min_events, max_events))):
        t = draw(st.sampled_from(threads))
        v = draw(st.sampled_from(variables))
        op = draw(st.sampled_from((WRITE, READ))) if v in written else WRITE
        labels.append(Label(t, op, v))
        written.add(v)
    run = Run(labels)
    chosen = [i for i, w in enumerate(run.is_write) if w and draw(st.booleans())]
    return threads, variables, annotate(run, BlockSet(run, chosen))


def all_runs(n_events, n_threads=2, n_vars=2):
    """Every valid run of exactly n_events over the given alphabet."""
    threads = ["T%d" % (i + 1) for i in range(n_threads)]
    variables = list("xyz"[:n_vars])
    alphabet = [Label(t, op, v) for t in threads for op in (READ, WRITE) for v in variables]

    def extend(prefix, written):
        if len(prefix) == n_events:
            yield Run(list(prefix))
            return
        for lab in alphabet:
            if lab.is_read() and lab.variable not in written:
                continue
            prefix.append(lab)
            seen = written | {lab.variable} if lab.is_write() else written
            yield from extend(prefix, seen)
            prefix.pop()

    yield from extend([], frozenset())


def all_annotated_runs(n_events, n_threads=2, n_vars=2):
    """Every (run, block set) pair, annotated — the full space for small sizes."""
    for run in all_runs(n_events, n_threads, n_vars):
        writes = [i for i, w in enumerate(run.is_write) if w]
        for k in range(len(writes) + 1):
            for chosen in itertools.combinations(writes, k):
                yield annotate(run, BlockSet(run, chosen))
