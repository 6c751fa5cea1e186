"""Seeded input generators for the benchmark.

Every generator takes an explicit ``random.Random`` and returns a list of
events ``(thread, op, variable, marked)``; ``to_text`` renders one in the
trace file format.  Nothing here imports ``blockeq``: inputs are plain
text, and the benchmark times the program parsing them.
"""

from __future__ import annotations

import math

Event = tuple[str, str, str, bool]

THREADS = ("T1", "T2", "T3")
VARIABLES = ("x", "y", "z")


def to_text(events: list[Event]) -> str:
    return "".join(
        "%s %s %s%s\n" % (t, op, v, " @" if marked else "") for t, op, v, marked in events
    )


def log_sizes(lo: int, hi: int, count: int) -> list[int]:
    """``count`` sizes spread log-uniformly over [lo, hi], one per stratum,
    so every seed sees the same size profile."""
    if count == 1:
        return [lo]
    step = math.log(hi / lo) / (count - 1)
    return [round(lo * math.exp(k * step)) for k in range(count)]


def _independent(a: Event, b: Event) -> bool:
    if a[0] == b[0]:
        return False
    return a[2] != b[2] or (a[1] == "r" and b[1] == "r")


def atomic_trace(rng, n: int, threads=THREADS, variables=VARIABLES, p_block: float = 0.5) -> list[Event]:
    """An annotated trace whose blocks are liberally atomic by construction.

    First a serial schedule is laid out: each marked write is followed at
    once by all of its readers, so every block is contiguous, and unmarked
    reads only observe unmarked writes.  Then random swaps of adjacent
    independent events scramble it.  Such swaps keep the trace in its
    commutation class (and keep every read's writer), so the blocks stay
    liberally atomic.
    """
    events: list[Event] = []
    latest_marked: dict[str, bool] = {}
    while len(events) < n:
        t, v = rng.choice(threads), rng.choice(variables)
        if latest_marked.get(v) is False and rng.random() < 0.4:
            events.append((t, "r", v, False))
        elif rng.random() < p_block:
            readers = min(rng.randint(0, 3), n - len(events) - 1)
            events.append((t, "w", v, True))
            events.extend((rng.choice(threads), "r", v, True) for _ in range(readers))
            latest_marked[v] = True
        else:
            events.append((t, "w", v, False))
            latest_marked[v] = False
    for _ in range(4 * n):
        i = rng.randrange(n - 1)
        if _independent(events[i], events[i + 1]):
            events[i], events[i + 1] = events[i + 1], events[i]
    return events


def random_run(rng, n: int, threads=THREADS, variables=VARIABLES) -> list[Event]:
    """An unmarked run in which every read observes some earlier write."""
    events: list[Event] = []
    written: list[str] = []
    for _ in range(n):
        t = rng.choice(threads)
        if written and rng.random() < 0.5:
            v = rng.choice(written)
            op = rng.choice("rw")
        else:
            v = rng.choice(variables)
            op = "w"
        events.append((t, op, v, False))
        if v not in written:
            written.append(v)
    return events


def random_marking(rng, events: list[Event], p: float = 0.5) -> list[Event]:
    """Mark each write independently with probability ``p``, together with
    every read that observes it: always a valid block set, rarely an
    atomic one on long traces."""
    out: list[Event] = []
    latest_marked: dict[str, bool] = {}
    for t, op, v, _ in events:
        if op == "w":
            latest_marked[v] = rng.random() < p
        out.append((t, op, v, latest_marked[v]))
    return out


def conflicting_positions(rng, events: list[Event]) -> tuple[int, int]:
    """1-based positions of two events in different threads on one
    variable, at least one a write, or of two events in different threads
    if the trace has no such pair."""
    pairs = [
        (i, j)
        for i in range(len(events))
        for j in range(i + 1, min(len(events), i + 40))
        if events[i][0] != events[j][0] and not _independent(events[i], events[j])
    ]
    if not pairs:
        pairs = [
            (i, j)
            for i in range(len(events))
            for j in range(i + 1, len(events))
            if events[i][0] != events[j][0]
        ]
    i, j = rng.choice(pairs)
    return i + 1, j + 1
