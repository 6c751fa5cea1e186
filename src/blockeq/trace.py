"""Concurrent run parsing, validation and indexing.

A run is a finite sequence of labels ``<thread, r|w, variable>``.  Runs are
immutable after construction; they are held as integer tables over their
positions, and ``Event`` objects are built only when asked for.

The trace file format is line based::

    T1 w x
    T2 r x @      # trailing '@' marks the event as a block member
    # comments and blank lines are ignored

Threads and variables are bare identifiers; the universes are inferred
from the trace, no declaration header is needed.  ``parse_run`` parses
each distinct line text once, at its first occurrence (so an error names
that line), and every repeat of the line shares the resulting label.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Optional, Sequence

READ = "r"
WRITE = "w"


@dataclass(frozen=True, order=True)
class Label:
    """An alphabet symbol: one thread performing one access to one
    variable."""

    thread: str
    op: str  # READ or WRITE
    variable: str

    def __post_init__(self):
        if self.op not in (READ, WRITE):
            raise ValueError("op must be %r or %r, got %r" % (READ, WRITE, self.op))

    def is_read(self) -> bool:
        return self.op == READ

    def is_write(self) -> bool:
        return self.op == WRITE

    def __str__(self):
        return "%s %s %s" % (self.thread, self.op, self.variable)


def conflicting(a: Label, b: Label) -> bool:
    """Dependence between symbols: same thread, or same variable with at
    least one write."""
    if a.thread == b.thread:
        return True
    return a.variable == b.variable and (a.op == WRITE or b.op == WRITE)


# An annotated label: the alphabet symbol plus its block-membership bit.
AnnLabel = tuple[Label, bool]


def extended_dep(a: AnnLabel, b: AnnLabel) -> bool:
    """Dependence on annotated labels: base labels conflict, except that a
    cross-thread pair of two block members (both bits set) is independent
    — the block machinery re-orders those pairs only when justified."""
    la, ba = a
    lb, bb = b
    if not conflicting(la, lb):
        return False
    return la.thread == lb.thread or not (ba and bb)


@lru_cache(maxsize=16)
def cross_dep_rows(threads: tuple[str, ...], variables: tuple[str, ...]) -> tuple[int, ...]:
    """The cross-thread extended-dependence rows of the alphabet over the
    sorted ``threads`` and ``variables``, built once per alphabet.  Its
    symbols are numbered ``2 * code + bit`` (the label's code as in
    ``Run.code``, then the membership bit), so each thread's symbols
    form one block of ``4 * len(variables)``, in the same order on every
    thread.  Entry ``k`` is the mask of the symbols that the ``k``-th
    symbol of a block extended-depends on across threads; it spans every
    thread's block, so a caller masks off the symbol's own.  One row per
    place in a block suffices: labels of two threads conflict only on a
    shared variable, and then their ops and bits alone decide."""
    nv = len(variables)
    if len(threads) < 2:
        return (0,) * (4 * nv)
    every_thread = sum(1 << t * 4 * nv for t in range(len(threads)))
    t0, t1 = threads[:2]
    rows = []
    for op in (READ, WRITE):
        for v, var in enumerate(variables):
            for bit in (False, True):
                row = 0
                for w2, op2 in enumerate((READ, WRITE)):
                    for bit2 in (False, True):
                        if extended_dep((Label(t0, op, var), bit), (Label(t1, op2, var), bit2)):
                            row |= every_thread << 2 * (w2 * nv + v) + bit2
                rows.append(row)
    return tuple(rows)


@dataclass(frozen=True, order=True)
class Event:
    """A single occurrence of a label inside a run.

    Identity is (label, occurrence) with 1-based occurrence counting; two
    runs that are permutations of one another share the same event set,
    because same-label events keep their relative (program) order under
    every equivalence considered here.
    """

    label: Label
    occurrence: int

    def __str__(self):
        return "%s #%d" % (self.label, self.occurrence)


class TraceError(ValueError):
    """Raised for syntax errors and validation failures in trace input."""

    def __init__(self, message, line: Optional[int] = None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


class Run:
    """A validated concurrent run, held as integer tables over its
    0-based positions: ``tid``/``vid`` index ``threads``/``variables``,
    ``is_write``/``annotations`` are the write and mark bits, ``code``
    is ``(tid * 2 + is_write) * len(variables) + vid`` (codes sort like
    labels), ``rf_pos`` maps each read to the write it observes (a read
    needs one) and ``readers`` lists each write's readers.  ``Event``
    objects are built only when ``events`` is read."""

    def __init__(self, labels: Iterable[Label], annotations: Optional[Iterable[bool]] = None):
        self.labels: tuple[Label, ...] = tuple(labels)
        if annotations is None:
            self.annotations: tuple[bool, ...] = (False,) * len(self.labels)
        else:
            self.annotations = tuple(map(bool, annotations))
            if len(self.annotations) != len(self.labels):
                raise ValueError("annotation list length does not match run length")

        self.threads: tuple[str, ...] = tuple(sorted({l.thread for l in self.labels}))
        self.variables: tuple[str, ...] = tuple(sorted({l.variable for l in self.labels}))
        self._tix = {t: i for i, t in enumerate(self.threads)}
        self._vix = {v: i for i, v in enumerate(self.variables)}
        self.tid: tuple[int, ...] = tuple([self._tix[l.thread] for l in self.labels])
        self.vid: tuple[int, ...] = tuple([self._vix[l.variable] for l in self.labels])
        self.is_write: tuple[bool, ...] = tuple([l.op == WRITE for l in self.labels])
        nv = len(self.variables)
        codes = zip(self.tid, self.is_write, self.vid)
        self.code: tuple[int, ...] = tuple([(t * 2 + w) * nv + v for t, w, v in codes])

        self.rf_pos: dict[int, int] = {}
        readers: list = [()] * len(self.labels)  # a list per write
        last_write = [-1] * nv
        for i, (w, x) in enumerate(zip(self.is_write, self.vid)):
            if w:
                last_write[x] = i
                readers[i] = []
            elif last_write[x] < 0:
                raise TraceError(
                    "read of %r by %s at position %d has no preceding write"
                    % (self.variables[x], self.threads[self.tid[i]], i + 1)
                )
            else:
                self.rf_pos[i] = last_write[x]
                readers[last_write[x]].append(i)
        self.readers: tuple[tuple[int, ...], ...] = tuple(map(tuple, readers))

    @cached_property
    def by_code(self) -> tuple[tuple[int, ...], ...]:
        """The positions of each label code, in run order: the k-th
        holds occurrence k + 1.  The last entry, for code -1, is empty."""
        return _positions(self.code, 2 * len(self.threads) * len(self.variables) + 1)

    @cached_property
    def by_thread(self) -> tuple[tuple[int, ...], ...]:
        """The positions of each thread, in run order."""
        return _positions(self.tid, len(self.threads))

    @cached_property
    def events(self) -> tuple[Event, ...]:
        placed = sorted((i, n) for slots in self.by_code for n, i in enumerate(slots, start=1))
        return tuple(Event(self.labels[i], n) for i, n in placed)

    def code_of(self, lab: Label) -> int:
        """The code of a label; -1 when its thread or variable is not the run's."""
        t, v = self._tix.get(lab.thread, -1), self._vix.get(lab.variable, -1)
        return -1 if t < 0 or v < 0 else (t * 2 + (lab.op == WRITE)) * len(self.variables) + v

    # -- basic indexing -------------------------------------------------

    def __len__(self):
        return len(self.labels)

    def __iter__(self):
        return iter(self.events)

    def __eq__(self, other):
        return isinstance(other, Run) and self.labels == other.labels and self.annotations == other.annotations

    def __hash__(self):
        return hash((self.labels, self.annotations))

    def position(self, e: Event) -> int:
        """The position of an event; KeyError when the run has none."""
        slots = self.by_code[self.code_of(e.label)]
        if not 0 < e.occurrence <= len(slots):
            raise KeyError(e)
        return slots[e.occurrence - 1]

    def event_at(self, i: int) -> Event:
        return Event(self.labels[i], self.by_code[self.code[i]].index(i) + 1)

    # -- derived runs ---------------------------------------------------

    def with_annotations(self, annotations: Iterable[bool]) -> "Run":
        return Run(self.labels, annotations)

    def core(self) -> "Run":
        """The same run with all annotations dropped."""
        return Run(self.labels)

    def to_text(self) -> str:
        out = []
        for lab, on in zip(self.labels, self.annotations):
            mark = " @" if on else ""
            out.append("%s %s %s%s\n" % (lab.thread, lab.op, lab.variable, mark))
        return "".join(out)

    def __repr__(self):
        return "Run(%s)" % "; ".join(
            str(l) + ("@" if a else "") for l, a in zip(self.labels, self.annotations)
        )


def _positions(keys: Sequence[int], size: int) -> tuple[tuple[int, ...], ...]:
    """The positions holding each key 0..size-1, in order."""
    out: list[list[int]] = [[] for _ in range(size)]
    for i, k in enumerate(keys):
        out[k].append(i)
    return tuple(map(tuple, out))


def parse_symbol(text: str, line: Optional[int] = None) -> AnnLabel:
    """Parse one ``<thread> <r|w> <variable> [@]`` line, ``#`` comment
    allowed, into its label and mark bit.  ``line`` numbers the error."""
    parts = text.split("#", 1)[0].split()
    marked = bool(parts) and parts[-1] == "@"
    if marked:
        parts = parts[:-1]
    if len(parts) != 3:
        raise TraceError("expected '<thread> <r|w> <variable> [@]', got %r" % text.strip(), line)
    thread, op, var = parts
    if op not in (READ, WRITE):
        raise TraceError("unknown op %r (expected 'r' or 'w')" % op, line)
    return Label(thread, op, var), marked


def parse_run(text: str) -> Run:
    """Parse the line-based trace format into a validated Run.

    Raises TraceError with the offending line number on bad syntax,
    unknown ops, or reads that have no preceding write.
    """
    lines = text.splitlines()
    parsed: dict[str, Optional[AnnLabel]] = {}
    for lineno, raw in enumerate(lines, start=1):
        if raw not in parsed:
            parsed[raw] = parse_symbol(raw, lineno) if raw.split("#", 1)[0].strip() else None
    symbols = [sym for sym in map(parsed.__getitem__, lines) if sym is not None]
    return Run([lab for lab, _ in symbols], [marked for _, marked in symbols])
