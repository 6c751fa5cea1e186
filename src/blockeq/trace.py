"""Concurrent run parsing, validation and indexing.

A run is a finite sequence of labels ``<thread, r|w, variable>``.  Runs are
immutable after construction; they are held as integer tables over their
positions, and ``Event`` objects are built only when asked for.

``Universe`` is the alphabet of a run's threads and variables and the one
place that numbers it: label codes, symbol indexes (a symbol is a label
plus its block-membership bit) and each symbol's cross-thread dependence
list, in O(|Σ|·|threads|).  The offline orders and the streaming monitors
both read their numbering from it.

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
from itertools import product
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


class Universe:
    """The alphabet Σ over the given threads and variables, and the one
    place that numbers it: a label's code is its position in the sorted
    ``labels``, looked up by its strings (hashing a Label runs Python
    code), and a symbol's index is ``2 * code + mark bit``, its position
    in ``symbols``.  Runs over the same threads and variables share one
    universe, ``run.universe``; the code table is built from the name
    strings, and ``labels``, ``symbols`` and the tables below them build
    on first use."""

    def __init__(self, threads: Iterable[str], variables: Iterable[str]):
        self.threads: tuple[str, ...] = tuple(sorted(set(threads)))
        self.variables: tuple[str, ...] = tuple(sorted(set(variables)))
        self.thread_index = {t: i for i, t in enumerate(self.threads)}
        self.var_index = {v: i for i, v in enumerate(self.variables)}
        self._code = {key: k for k, key in enumerate(product(self.threads, (READ, WRITE), self.variables))}

    @cached_property
    def labels(self) -> tuple[Label, ...]:
        return tuple(Label(*key) for key in self._code)

    @cached_property
    def symbols(self) -> tuple[AnnLabel, ...]:
        return tuple((lab, bit) for lab in self.labels for bit in (False, True))

    @classmethod
    def from_run(cls, run: "Run") -> "Universe":
        return run.universe

    def code(self, lab: Label) -> int:
        """The code of a label; -1 when its thread or variable is not the universe's."""
        return self._code.get((lab.thread, lab.op, lab.variable), -1)

    def codes(self, labels: Iterable[Label]) -> tuple[int, ...]:
        """The code of each label, every one inside the universe."""
        code = self._code
        return tuple([code[l.thread, l.op, l.variable] for l in labels])

    def index(self, sym: AnnLabel) -> int:
        """The position of ``sym`` in ``symbols``; ValueError outside the universe."""
        lab, marked = sym
        k = self.code(lab)
        if k < 0 or marked not in (False, True):
            raise ValueError("symbol %s outside the universe" % (sym,))
        return 2 * k + (1 if marked else 0)

    def indexes(self, codes: Iterable[int], marks: Iterable[bool]) -> list[int]:
        """The index of each symbol given as its label code and mark bit."""
        return [2 * k + m for k, m in zip(codes, marks)]

    @cached_property
    def cross(self) -> tuple[tuple[int, ...], ...]:
        """For each symbol, the other-thread symbols it extended-depends
        on, ascending.  Labels of two threads conflict only on a shared
        variable, so each list takes at most 4 * (|threads| - 1)
        ``extended_dep`` calls, one per other-thread symbol on it."""
        syms, on_var = self.symbols, {v: [] for v in self.variables}
        for k, (lab, _) in enumerate(syms):
            on_var[lab.variable].append(k)
        return tuple(tuple(j for j in on_var[a[0].variable]
                           if syms[j][0].thread != a[0].thread and extended_dep(a, syms[j]))
                     for a in syms)

    # The streaming monitor's tables.  dep_mask adds to a symbol's cross
    # list its whole thread, as same-thread symbols always depend.  The
    # monitor packs a symbol's rows into one int: the row of pair (t, v),
    # at offset k = t * |variables| + v of ``stride``, is the field of
    # |symbols| + 1 bits at k * (|symbols| + 1), whose top (guard) bit
    # stays clear.  field_low has the low bit of every field, column_low
    # those of the fields on variable 0 (shifted left by v * (|symbols| + 1)
    # it has those on variable v).

    @cached_property
    def sym_thread(self) -> tuple[int, ...]:
        return tuple(self.thread_index[lab.thread] for lab, _ in self.symbols)

    @cached_property
    def write_mask(self) -> int:
        return sum(1 << i for i, (lab, _) in enumerate(self.symbols) if lab.is_write())

    @cached_property
    def dep_mask(self) -> tuple[int, ...]:
        own = [0] * len(self.threads)
        for k, t in enumerate(self.sym_thread):
            own[t] |= 1 << k
        return tuple(sum(1 << j for j in js) | own[t] for js, t in zip(self.cross, self.sym_thread))

    @cached_property
    def stride(self) -> int:
        return len(self.threads) * len(self.variables)

    @cached_property
    def field_low(self) -> int:
        width = len(self.symbols) + 1
        return sum(1 << k * width for k in range(self.stride))

    @cached_property
    def column_low(self) -> int:
        nv, width = len(self.variables), len(self.symbols) + 1
        return sum(1 << t * nv * width for t in range(len(self.threads)))


# the universe shared by every run over the same sorted threads and variables
_universe = lru_cache(maxsize=64)(Universe)


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
    holds the label codes of ``universe``, the run's alphabet,
    ``rf_pos`` maps each read to the write it observes (a read needs
    one) and ``readers`` lists each write's readers.  ``Event`` objects
    are built only when ``events`` is read."""

    def __init__(self, labels: Iterable[Label], annotations: Optional[Iterable[bool]] = None):
        self.labels: tuple[Label, ...] = tuple(labels)
        if annotations is None:
            self.annotations: tuple[bool, ...] = (False,) * len(self.labels)
        else:
            self.annotations = tuple(map(bool, annotations))
            if len(self.annotations) != len(self.labels):
                raise ValueError("annotation list length does not match run length")

        threads, variables = {l.thread for l in self.labels}, {l.variable for l in self.labels}
        u = self.universe = _universe(tuple(sorted(threads)), tuple(sorted(variables)))
        self.threads, self.variables = u.threads, u.variables
        self.tid: tuple[int, ...] = tuple([u.thread_index[l.thread] for l in self.labels])
        self.vid: tuple[int, ...] = tuple([u.var_index[l.variable] for l in self.labels])
        self.is_write: tuple[bool, ...] = tuple([l.op == WRITE for l in self.labels])
        self.code: tuple[int, ...] = u.codes(self.labels)

        self.rf_pos: dict[int, int] = {}
        readers: list = [()] * len(self.labels)  # a list per write
        last_write = [-1] * len(self.variables)
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
        return _positions(self.code, len(self.universe._code) + 1)

    @cached_property
    def by_thread(self) -> tuple[tuple[int, ...], ...]:
        """The positions of each thread, in run order."""
        return _positions(self.tid, len(self.threads))

    @cached_property
    def events(self) -> tuple[Event, ...]:
        placed = sorted((i, n) for slots in self.by_code for n, i in enumerate(slots, start=1))
        return tuple(Event(self.labels[i], n) for i, n in placed)

    # -- basic indexing -------------------------------------------------

    def __len__(self):
        return len(self.labels)

    def __eq__(self, other):
        return isinstance(other, Run) and self.labels == other.labels and self.annotations == other.annotations

    def __hash__(self):
        return hash((self.labels, self.annotations))

    def position(self, e: Event) -> int:
        """The position of an event; KeyError when the run has none."""
        slots = self.by_code[self.universe.code(e.label)]
        if not 0 < e.occurrence <= len(slots):
            raise KeyError(e)
        return slots[e.occurrence - 1]

    def event_at(self, i: int) -> Event:
        return Event(self.labels[i], self.by_code[self.code[i]].index(i) + 1)

    # -- derived runs ---------------------------------------------------

    def with_annotations(self, annotations: Iterable[bool]) -> "Run":
        return Run(self.labels, annotations)

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
