"""The benchmark's workloads: seeded inputs, the operations run on them,
and the check of each operation's output.

A CLI operation is one ``blockeq`` command, run in-process through
``blockeq.cli.main(argv)``.  A stream operation is one ``conc_step``
call.  Each CLI operation's check compares the output with an answer
from ``reference`` (a second route that does not call ``blockeq``) and
returns a failure reason, or None.  Building a workload calls no
``blockeq`` code.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import gen
import reference as ref

WHY = {
    "offline_blocks": "annotated 3x3 traces of 50-400 events, 3/4 atomic by construction; "
                      "offline orders, saturation and the block graph do the work, the monitor none",
    "stream_blocks": "1000-symbol annotated 3x3 streams folded by conc_step one symbol at a time; "
                     "the streaming monitors do all the work, the offline orders none",
    "unmarked": "unannotated 3x3 traces of 50-400 events; same layers as offline_blocks "
                "but saturation never runs and the monitor fires only its dependence rule",
    "desk_oracle": "corpus class enumeration, general-mode concurrency on 4-8 events and "
                   "the hardness check; the oracles and the CLI's fixed per-command cost",
}
WORKLOADS = tuple(WHY)

SIZES = (50, 400)          # run lengths of offline_blocks and unmarked, log-uniform
OFFLINE_TRACES = 32        # 5 operations each
UNMARKED_TRACES = 28       # 4 operations each
STREAM_LENGTH = 1000
GENERAL_RUNS = 40          # 2 operations each

# A check takes (exit code, stdout, stdout of every op by key).
Check = Callable[[Optional[int], str, dict], Optional[str]]


@dataclass
class Trace:
    name: str
    events: list
    path: Path
    expect_atomic: Optional[bool] = None
    _ref: Optional[ref.Reference] = field(default=None, repr=False)

    @property
    def ref(self) -> ref.Reference:
        if self._ref is None:
            self._ref = ref.Reference(self.events)
        return self._ref


@dataclass
class Op:
    key: str
    argv: list[str]
    events: int
    check: Check


@dataclass
class Stream:
    trace: Trace
    c: tuple  # (thread, op, variable, marked): the tracked pair
    d: tuple


@dataclass
class Workload:
    name: str
    traces: list[Trace]
    ops: list[Op] = field(default_factory=list)
    streams: list[Stream] = field(default_factory=list)

    @property
    def ops_per_round(self) -> int:
        return len(self.ops) + sum(len(s.trace.events) for s in self.streams)


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


def _label(e) -> str:
    return "%s %s %s" % e[:3]


def parse_events(text: str) -> list:
    """The trace format read into generator events, for the reference."""
    out = []
    for raw in text.splitlines():
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        marked = parts[-1] == "@"
        t, op, v = parts[:-1] if marked else parts
        out.append((t, op, v, marked))
    return out


def _verdict(expected: Callable[[], bool], at_least: bool = False) -> Check:
    """``concurrent: yes|no`` with exit 0|1.  With ``at_least`` a "yes" is
    accepted where the reference says no (a one-directional
    over-approximation), never the reverse."""
    def check(rc, out, _):
        want = expected()
        got = {"concurrent: yes\n": True, "concurrent: no\n": False}.get(out)
        if got is None or rc != (0 if got else 1):
            return "unexpected output %r exit %s" % (out, rc)
        if got != want and not (at_least and got):
            return "answered %s, reference says %s" % (_yn(got), _yn(want))
        return None
    return check


def _order(trace: Trace, which: str) -> Check:
    def check(rc, out, _):
        if rc != 0:
            return "exit %s" % rc
        if out.splitlines() != ref.covering(getattr(trace.ref, which)):
            return "covering edges differ from the reference %s order" % which
        return None
    return check


def _atomicity(trace: Trace, witness: bool) -> Check:
    def check(rc, out, _):
        r = trace.ref
        if trace.expect_atomic and not r.atomic:
            return "trace built atomic is not atomic by the reference"
        lines = out.splitlines()
        want = ["liberally-atomic: %s" % _yn(r.atomic),
                "conflict-serializable: %s" % _yn(r.serializable)]
        if lines[:2] != want or rc != (0 if r.atomic else 1):
            return "expected %r, got %r exit %s" % (want, lines[:2], rc)
        if not (witness and r.atomic):
            return None if len(lines) == 2 else "unexpected lines after the verdict"
        if lines[2:3] != ["witness:"] or not r.witness_ok(parse_events("\n".join(lines[3:]))):
            return "witness is not a block-equivalent run with contiguous blocks"
        return None
    return check


def _trace_ops(trace: Trace, rng) -> list[Op]:
    """Annotated traces: hb, bhb, atomicity --witness and two blocks-mode
    queries.  Unmarked traces: hb, atomicity and two maz-mode queries.
    Each query pair is two conflicting events of different threads; one
    is asked by label (--c/--d), the other by position (--events).  Half
    the queries name the later event first."""
    ev, p, n = trace.events, str(trace.path), len(trace.events)
    i, j = gen.conflicting_positions(rng, ev)
    c, d = ev[i - 1][:3], ev[j - 1][:3]
    if rng.random() < 0.5:
        c, d = d, c
    i, j = gen.conflicting_positions(rng, ev)
    pos = [str(i), str(j)] if rng.random() < 0.5 else [str(j), str(i)]
    key = trace.name + "."
    if trace.expect_atomic is None:  # unmarked
        return [
            Op(key + "hb", ["hb", p], n, _order(trace, "maz")),
            Op(key + "atomicity", ["atomicity", p], n, _atomicity(trace, False)),
            Op(key + "conc_cd", ["concurrent", p, "--mode", "maz", "--c", _label(c), "--d", _label(d)],
               n, _verdict(lambda: trace.ref.conc_maz(c, d))),
            Op(key + "conc_events", ["concurrent", p, "--mode", "maz", "--events", *pos],
               n, _verdict(lambda: trace.ref.conc_maz_events(i, j))),
        ]
    return [
        Op(key + "hb", ["hb", p], n, _order(trace, "maz")),
        Op(key + "bhb", ["bhb", p], n, _order(trace, "bhb")),
        Op(key + "atomicity", ["atomicity", p, "--witness"], n, _atomicity(trace, True)),
        Op(key + "conc_cd", ["concurrent", p, "--mode", "blocks", "--c", _label(c), "--d", _label(d)],
           n, _verdict(lambda: trace.ref.conc_blocks(c, d))),
        Op(key + "conc_events", ["concurrent", p, "--mode", "blocks", "--events", *pos],
           n, _verdict(lambda: trace.ref.conc_blocks_events(i, j))),
    ]


def _write(workdir: Path, name: str, events) -> Path:
    path = workdir / (name + ".trace")
    path.write_text(gen.to_text(events), encoding="utf-8")
    return path


def offline_blocks(rng, workdir: Path) -> Workload:
    traces, ops = [], []
    for k, n in enumerate(gen.log_sizes(*SIZES, OFFLINE_TRACES)):
        atomic = k % 4 != 1
        ev = gen.atomic_trace(rng, n) if atomic else gen.random_marking(rng, gen.random_run(rng, n))
        name = "t%02d_n%d" % (k, n)
        t = Trace(name, ev, _write(workdir, name, ev), expect_atomic=atomic)
        traces.append(t)
        ops.extend(_trace_ops(t, rng))
    return Workload("offline_blocks", traces, ops)


def unmarked(rng, workdir: Path) -> Workload:
    traces, ops = [], []
    for k, n in enumerate(gen.log_sizes(*SIZES, UNMARKED_TRACES)):
        ev = gen.random_run(rng, n)
        name = "u%02d_n%d" % (k, n)
        t = Trace(name, ev, _write(workdir, name, ev))
        traces.append(t)
        ops.extend(_trace_ops(t, rng))
    return Workload("unmarked", traces, ops)


def stream_blocks(rng, workdir: Path) -> Workload:
    """Two streams atomic by construction and one with a random marking,
    which the atomicity check rejects early."""
    traces, streams = [], []
    for k, atomic in enumerate((True, True, False)):
        n = STREAM_LENGTH
        ev = gen.atomic_trace(rng, n) if atomic else gen.random_marking(rng, gen.random_run(rng, n))
        name = "s%d_%s" % (k, "atomic" if atomic else "random")
        t = Trace(name, ev, _write(workdir, name, ev), expect_atomic=atomic)
        i, j = gen.conflicting_positions(rng, ev)
        traces.append(t)
        streams.append(Stream(t, ev[i - 1], ev[j - 1]))
    return Workload("stream_blocks", traces, streams=streams)


def _members(out: str) -> Optional[int]:
    if out.startswith("members: "):
        return int(out.split()[1])
    return None


# Class sizes stated in corpus/README.md.
DOCUMENTED_BLOCK_SIZES = {"conciseness_n2": 6, "conciseness_n3": 20}


def _enumerate_check(trace: Trace, rel: str) -> Check:
    """The commutation class size equals the number of linear extensions
    of the reference order, and sizes nest as maz <= blocks <= rf."""
    def check(rc, out, outputs):
        size = _members(out)
        if rc != 0 or size is None:
            return "unexpected output %r exit %s" % (out[:40], rc)
        sizes = {r: _members(outputs.get("%s.%s" % (trace.name, r), "")) for r in ("maz", "blocks", "rf")}
        if rel == "maz" and size != ref.linear_extensions(trace.ref.maz):
            return "maz class size differs from the linear-extension count"
        if None not in sizes.values() and not sizes["maz"] <= sizes["blocks"] <= sizes["rf"]:
            return "class sizes do not nest: %r" % sizes
        documented = DOCUMENTED_BLOCK_SIZES.get(trace.name[len("corpus/"):])
        if rel == "blocks" and documented is not None and size != documented:
            return "documented block class size is %d, got %d" % (documented, size)
        return None
    return check


def _hardness_check(a: str, b: str) -> Check:
    want_trace, theta1, theta2 = ref.equality_trace(a, b)
    want = want_trace + [
        "# first marker: position %d, second marker: position %d" % (theta1, theta2),
        "# check: markers ordered in every equivalent run iff the strings are equal",
    ]

    def check(rc, out, _):
        if rc != 0 or out.splitlines() != want:
            return "unexpected gen-hardness output, exit %s" % rc
        return None
    return check


def hardness_pairs(rng) -> list[tuple[str, str]]:
    """Every pair of bit strings of length 1 or 2, and for length 3 each
    string paired with itself and with one seeded different string."""
    out = []
    for n in (1, 2):
        strings = [format(v, "0%db" % n) for v in range(2 ** n)]
        out.extend((a, b) for a in strings for b in strings)
    for v in range(8):
        a = format(v, "03b")
        out.append((a, a))
        out.append((a, format(rng.choice([w for w in range(8) if w != v]), "03b")))
    return out


def desk_oracle(rng, workdir: Path, corpus: Path) -> Workload:
    traces, ops = [], []
    for path in sorted(corpus.glob("*.trace")):
        ev = parse_events(path.read_text(encoding="utf-8"))
        t = Trace("corpus/" + path.stem, ev, path)
        traces.append(t)
        for rel in ("maz", "blocks", "rf"):
            ops.append(Op("%s.%s" % (t.name, rel), ["enumerate", str(path), "--relation", rel],
                          len(ev), _enumerate_check(t, rel)))
    for k in range(GENERAL_RUNS):
        threads = gen.THREADS[: 2 + k % 2]
        while True:
            ev = gen.random_run(rng, 4 + k % 5, threads, gen.VARIABLES[:2])
            if len({e[0] for e in ev}) > 1:
                break
        name = "g%02d_n%d" % (k, len(ev))
        t = Trace(name, ev, _write(workdir, name, ev))
        traces.append(t)
        i, j = gen.conflicting_positions(rng, ev)
        c, d = ev[i - 1][:3], ev[j - 1][:3]
        if rng.random() < 0.5:
            c, d = d, c
        for strategy in ("enumerate", "stream"):
            ops.append(Op("%s.general_%s" % (name, strategy),
                          ["concurrent", str(t.path), "--mode", "general", "--strategy", strategy,
                           "--c", _label(c), "--d", _label(d)],
                          len(ev),
                          _verdict(lambda t=t, c=c, d=d: t.ref.conc_general(c, d),
                                   at_least=strategy == "stream")))
    for a, b in hardness_pairs(rng):
        ops.append(Op("hardness.%s_%s" % (a, b), ["gen-hardness", "--a", a, "--b", b, "--check"],
                      10 + 6 * (len(a) - 1), _hardness_check(a, b)))
    return Workload("desk_oracle", traces, ops)


def build(name: str, seed: int, workdir: Path, corpus: Path) -> Workload:
    """The workload's inputs and operations for one seed.  Operations run
    in a fixed shuffled order of their slots, the same for every seed, so
    that operations of one size or kind are spread over the run."""
    rng = random.Random("%s:%d" % (name, seed))
    if name == "desk_oracle":
        wl = desk_oracle(rng, workdir, corpus)
    else:
        wl = {"offline_blocks": offline_blocks, "unmarked": unmarked,
              "stream_blocks": stream_blocks}[name](rng, workdir)
    random.Random(name).shuffle(wl.ops)
    return wl
