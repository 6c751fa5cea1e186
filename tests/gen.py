"""Random and exhaustive generators for runs and block sets.

Shared by the property-style tests: every generator takes an explicit
random.Random so failures reproduce from the printed seed, except
``annotated_runs``, a hypothesis strategy that shrinks failures itself.
"""

import itertools

from hypothesis import strategies as st

from blockeq.blocks import annotate, blocks_from_writes, candidate_blocks
from blockeq.trace import Label, READ, WRITE, Run


def random_run(rng, n_events, n_threads=3, n_vars=3):
    """A random valid run: every read observes some earlier write."""
    threads = ["T%d" % (i + 1) for i in range(n_threads)]
    variables = ["xyz"[i] if i < 3 else "v%d" % i for i in range(n_vars)]
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
    writes = [b.write for b in candidate_blocks(run)]
    chosen = [w for w in writes if rng.random() < p]
    return blocks_from_writes(run, chosen)


def random_annotated_run(rng, n_events, n_threads=3, n_vars=3, p=0.5):
    run = random_run(rng, n_events, n_threads, n_vars)
    return annotate(run, random_block_set(rng, run, p))


@st.composite
def annotated_runs(draw, max_threads=4, max_vars=4, min_events=15, max_events=40):
    """(threads, variables, annotated run): a valid run over a drawn
    alphabet, marked with a drawn subset of its candidate blocks."""
    threads = ["T%d" % (i + 1) for i in range(draw(st.integers(1, max_threads)))]
    n_vars = draw(st.integers(1, max_vars))
    variables = ["xyz"[i] if i < 3 else "v%d" % i for i in range(n_vars)]
    labels = []
    written = set()
    for _ in range(draw(st.integers(min_events, max_events))):
        t = draw(st.sampled_from(threads))
        v = draw(st.sampled_from(variables))
        op = draw(st.sampled_from((WRITE, READ))) if v in written else WRITE
        labels.append(Label(t, op, v))
        written.add(v)
    run = Run(labels)
    chosen = [b.write for b in candidate_blocks(run) if draw(st.booleans())]
    return threads, variables, annotate(run, blocks_from_writes(run, chosen))


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
        writes = [b.write for b in candidate_blocks(run)]
        for k in range(len(writes) + 1):
            for chosen in itertools.combinations(writes, k):
                yield annotate(run, blocks_from_writes(run, list(chosen)))
