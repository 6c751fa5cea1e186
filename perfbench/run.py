"""The blockeq benchmark.

    python3 perfbench/run.py --workload offline_blocks --seed 1 --seconds 5 --trace 0

Run from the root of a checkout: the program is imported from ``src/``.
One workload runs in one process and thread.  Set-up (import, parsing,
building universes and initial monitor states) is repeated and its
median reported as ``setup_s``.  Then complete rounds of the workload's
operations run until ``--seconds`` of (rescaled) operation time and at
least 100 operations have passed.  Outputs are checked after the timed region.

``--trace 1`` runs one untraced round and one traced round, and reports
per-layer metrics from the traced one plus the tracing overhead.
``--workload all`` runs every workload, each in a child process so that
peak memory stays per workload.  ``--record`` (default seed only) runs
the library's second routes over every input and stores the expected
exit code and stdout digest of every operation.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import hashlib
import importlib
import io
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen
import reference
import tracing
import workloads

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected_seed1.json"
DEFAULT_SEED = 1
SETUP_REPEATS = 11
MIN_OPS = 100
# Calibration.  On a shared machine the speed of the whole CPU drifts by
# tens of percent over seconds.  A fixed pure-Python task (the reference
# commutation order of a fixed 230-event run) is timed before every CLI
# operation and every CAL_EVERY stream operations.  Each operation's wall
# time is rescaled by the median of the CAL_WINDOW samples around it, to a
# machine on which the task takes CAL_REFERENCE_S: its duration on the
# machine the baseline was recorded on, when that machine was quiet.
CAL_EVENTS = gen.random_run(random.Random(0), 230)
CAL_REFERENCE_S = 2.0e-3
CAL_EVERY = 25
CAL_WINDOW = 6
END_TO_END = ("setup_s", "op_ms.p50", "op_ms.p90", "events_per_s", "peak_rss_mb")
UNITS = {"setup_s": "s", "op_ms.p50": "ms", "op_ms.p90": "ms", "events_per_s": "1/s",
         "peak_rss_mb": "MB", "failed_ratio": "ratio"}
# Metrics each workload must leave at zero: the layers it bypasses.
BYPASSED = {
    "offline_blocks": ("monitor.sat_step.calls", "oracle.enum_maz_class.calls",
                       "oracle.enum_block_class.calls", "oracle.enum_rf_class.calls"),
    "stream_blocks": ("orders.saturate.calls", "orders.mazurkiewicz_hb.calls",
                      "orders.block_hb.calls", "oracle.enum_maz_class.calls",
                      "oracle.enum_block_class.calls", "oracle.enum_rf_class.calls"),
    "unmarked": ("orders.saturate.calls", "oracle.enum_maz_class.calls",
                 "oracle.enum_block_class.calls", "oracle.enum_rf_class.calls"),
    "desk_oracle": (),
}


def calibrate() -> float:
    t0 = time.perf_counter()
    reference.maz_order(CAL_EVENTS)
    return time.perf_counter() - t0


def rescaled(times: list[float], cal: list[float], cal_pos: list[int]) -> list[float]:
    """Each time rescaled by the calibration samples around it; sample k
    was taken just before time number ``cal_pos[k]``."""
    out = []
    half = CAL_WINDOW // 2
    for i, t in enumerate(times):
        k = bisect.bisect_right(cal_pos, i) - 1
        out.append(t * CAL_REFERENCE_S / statistics.median(cal[max(0, k - half + 1): k + half + 1]))
    return out


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


class Program:
    """The ``blockeq`` modules of one import."""

    def __init__(self, baseline: set[str]):
        for name in list(sys.modules):
            if name not in baseline:
                del sys.modules[name]
        self.pkg = importlib.import_module("blockeq")
        self.cli = importlib.import_module("blockeq.cli")
        self.concurrency = sys.modules["blockeq.concurrency"]
        self.atomicity = sys.modules["blockeq.atomicity"]


def setup(wl: workloads.Workload, texts: list[str], baseline: set[str]):
    """Import the program, parse every trace, build its universe and
    initial monitor state; streams get their ``conc_step`` start state."""
    prog = Program(baseline)
    bq = prog.pkg
    runs = [bq.parse_run(text) for text in texts]
    starts = {}
    stream_of = {id(s.trace): s for s in wl.streams}
    for t, run in zip(wl.traces, runs):
        universe = bq.Universe.from_run(run)
        s = stream_of.get(id(t))
        if s is None:
            bq.libat_initial(universe)
            continue
        c = (bq.Label(*s.c[:3]), s.c[3])
        d = (bq.Label(*s.d[:3]), s.d[3])
        starts[id(s)] = (bq.conc_initial(universe, c, d), bq.symbols_of(run))
    return prog, runs, starts


class Round:
    """Timings and outputs of one pass over a workload's operations."""

    def __init__(self):
        self.times: list[float] = []
        self.events = 0
        self.outputs: dict[str, tuple] = {}   # key -> (exit code, stdout, error)
        self.failed_keys: set[str] = set()
        self.lost = 0                          # ops not run after a stream raised
        self.cal: list[float] = []             # calibration samples
        self.cal_pos: list[int] = []           # op count when each was taken

    def calibrate(self) -> None:
        self.cal_pos.append(len(self.times))
        self.cal.append(calibrate())

    def rescaled(self) -> list[float]:
        return rescaled(self.times, self.cal, self.cal_pos)


def run_round(wl, prog: Program, starts, tracer: tracing.Tracer | None) -> Round:
    rnd = Round()
    gc.collect()
    for op in wl.ops:
        rnd.calibrate()
        out, err = io.StringIO(), io.StringIO()
        error = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            sid = tracer.begin(tracing.ROOT) if tracer else None
            t0 = time.perf_counter()
            try:
                rc = prog.cli.main(op.argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # a raising command is a failed operation
                rc, error = None, repr(exc)
            t1 = time.perf_counter()
            if tracer:
                tracer.end(sid)
        rnd.times.append(t1 - t0)
        rnd.events += op.events
        rnd.outputs[op.key] = (rc, out.getvalue(), error)
    step = prog.concurrency.conc_step
    for s in wl.streams:
        q, symbols = starts[id(s)]
        error = None
        for k, sym in enumerate(symbols):
            if k % CAL_EVERY == 0:
                rnd.calibrate()
            sid = tracer.begin(tracing.ROOT, {"window": k // tracing.WINDOW}
                               if k < tracing.WINDOW * tracing.WINDOWS else None) if tracer else None
            t0 = time.perf_counter()
            try:
                q = step(q, sym)
            except Exception as exc:  # the rest of the stream is lost
                error = repr(exc)
            t1 = time.perf_counter()
            if tracer:
                tracer.end(sid)
            rnd.times.append(t1 - t0)
            rnd.events += 1
            if error:
                rnd.lost += len(symbols) - k - 1
                break
        key = s.trace.name
        if error:
            rnd.outputs[key] = (None, "", error)
        else:
            text = prog.atomicity.canonical_text(q.libat)
            rnd.outputs[key] = (0, "%sverdict accepting=%d found=%d\n" % (
                text, q.libat.accepting(), q.found), None)
    rnd.calibrate()
    return rnd


def check_outputs(wl, prog: Program, starts, first: Round, seed: int, expected: dict | None) -> dict[str, str]:
    """Failure reason per operation (or stream) key.  Outputs are compared
    with recorded ones on the default seed, and on the corpus for every
    seed; ``expected`` is None while recording."""
    texts = {k: v[1] for k, v in first.outputs.items()}
    failures = {}
    for op in wl.ops:
        rc, out, error = first.outputs[op.key]
        reason = error or op.check(rc, out, texts)
        if reason is None and expected is not None and (seed == DEFAULT_SEED or op.key.startswith("corpus/")):
            want = expected.get(op.key)
            if want is None:
                reason = "no expected value recorded"
            elif [rc, digest(out)] != want:
                reason = "exit code or stdout digest differs from the recorded value"
        if reason:
            failures[op.key] = reason
    for s in wl.streams:
        key = s.trace.name
        rc, out, error = first.outputs[key]
        reason = error or stream_check(s, prog, starts, out)
        if reason is None and expected is not None and seed == DEFAULT_SEED and [rc, digest(out)] != expected.get(key):
            reason = "final state digest differs from the recorded value"
        if reason:
            failures[key] = reason
    return failures


def stream_check(s, prog: Program, starts, out: str) -> str | None:
    """The final state keeps the initial state's size, its verdict matches
    the reference, and the arrival-time latch is set wherever the exact
    order leaves a (c, d) pair unordered (it may over-approximate)."""
    q0, _ = starts[id(s)]
    text, _, verdict = out.rpartition("verdict ")
    if len(text) != len(prog.atomicity.canonical_text(q0.libat)):
        return "monitor state changed size"
    ref = s.trace.ref
    accepting = "accepting=1" in verdict
    if s.trace.expect_atomic and not ref.atomic:
        return "stream built atomic is not atomic by the reference"
    if accepting != ref.atomic:
        return "atomicity verdict %s, reference %s" % (accepting, ref.atomic)
    if ref.atomic:
        ev, sat = s.trace.events, ref.sat
        exact = any(ev[i] == s.c and ev[j] == s.d and not sat[i] >> j & 1
                    for i in range(len(ev)) for j in range(i + 1, len(ev)))
        if exact and "found=1" not in verdict:
            return "latch missed an unordered pair"
    return None


def library_checks(wl, prog: Program, runs, first: Round, rng, full: bool) -> list[str]:
    """Second routes through the library itself, on every input when
    recording and on a seeded sample otherwise:
    offline ``is_liberally_atomic`` against streaming ``libat_run``, and
    ``concurrent --mode maz`` verdicts against the inner pairs under
    ``mazurkiewicz_hb``.  (Class-size nesting is in every op's check.)"""
    bq = prog.pkg
    problems = []
    if wl.name in ("offline_blocks", "stream_blocks"):
        pairs = list(zip(wl.traces, runs))
        if not full:
            t, run = rng.choice(pairs)
            prefix = run.to_text().splitlines(keepends=True)[:rng.randint(60, 120)]
            pairs = [(t, bq.parse_run("".join(prefix)))]
        for t, run in pairs:
            blocks = bq.blocks_from_annotation(run)
            if bq.is_liberally_atomic(run, blocks) != bq.libat_run(run):
                problems.append("%s: offline and streaming atomicity disagree" % t.name)
    if wl.name == "unmarked":
        by_name = dict(zip((t.name for t in wl.traces), runs))
        ops = [op for op in wl.ops if "conc_" in op.key]
        for op in ops if full else rng.sample(ops, 2):
            run = by_name[op.key.split(".")[0]]
            hb = bq.mazurkiewicz_hb(run)
            if "--events" in op.argv:
                i, j = sorted(int(x) - 1 for x in op.argv[-2:])
                want = not hb.ordered(run.events[i], run.events[j])
            else:
                c = bq.Label(*op.argv[op.argv.index("--c") + 1].split())
                d = bq.Label(*op.argv[op.argv.index("--d") + 1].split())
                want = any(
                    not hb.ordered(run.events[i], run.events[j])
                    for ch, dh in (((c, False), (d, False)), ((d, False), (c, False)))
                    for i, j in bq.inner_pair_positions(run, ch, dh))
            if first.outputs[op.key][1] != "concurrent: %s\n" % ("yes" if want else "no"):
                problems.append("%s: verdict differs from inner pairs under mazurkiewicz_hb" % op.key)
    return problems


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (exclusive method, as ``statistics.quantiles``)."""
    return statistics.quantiles(values, n=100)[q - 1]


def measure(name: str, seed: int, seconds: float, trace: bool, record: bool, root: Path,
            baseline: set[str]) -> dict:
    """One workload.  ``baseline`` names the modules loaded before the
    program was first imported; set-up drops every other one."""
    work = root / ".perfbench_work" / ("%s-%d" % (name, seed))
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _measure(name, seed, seconds, trace, record, root, work, baseline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()


def _measure(name, seed, seconds, trace, record, root, work, baseline) -> dict:
    wl = workloads.build(name, seed, work, root / "corpus")
    texts = [t.path.read_text(encoding="utf-8") for t in wl.traces]

    setups, setup_cal = [], []
    for _ in range(SETUP_REPEATS):
        setup_cal.append(calibrate())
        t0 = time.perf_counter()
        prog, runs, starts = setup(wl, texts, baseline)
        setups.append(time.perf_counter() - t0)
    setup_cal.append(calibrate())

    rounds = [run_round(wl, prog, starts, None)]
    if not (trace or record):
        while sum(sum(r.rescaled()) for r in rounds) < seconds or sum(len(r.times) for r in rounds) < MIN_OPS:
            rounds.append(run_round(wl, prog, starts, None))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    layers = None
    if trace:
        tracer = tracing.Tracer()
        instr = tracing.Instrumentation(tracer)
        instr.install()
        try:
            rounds.append(run_round(wl, prog, starts, tracer))
        finally:
            instr.uninstall()
        traced = CAL_REFERENCE_S / statistics.median(rounds[1].cal)
        layers = {k: (v * traced if u in ("s", "ms", "us") else v / traced if u == "1/s" else v, u)
                  for k, (v, u) in tracing.layer_metrics(tracer.spans).items()}
        layers["tracing.overhead_ratio"] = (
            sum(rounds[1].rescaled()) / sum(rounds[0].rescaled()) - 1.0, "ratio")
        out_dir = root / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / ("spans-%s-seed%d.jsonl" % (name, seed)))

    expected = None
    if not record:
        expected = json.loads(EXPECTED.read_text()).get(name, {}) if EXPECTED.exists() else {}
    first = rounds[0]
    failures = check_outputs(wl, prog, starts, first, seed, expected)
    for r in rounds[1:]:
        for key, value in r.outputs.items():
            if value[:2] != first.outputs[key][:2]:
                r.failed_keys.add(key)
    problems = library_checks(wl, prog, runs, first, random.Random(seed), full=record)

    attempted = sum(len(r.times) + r.lost for r in rounds)
    ops_of = {op.key: 1 for op in wl.ops}
    ops_of.update({s.trace.name: len(s.trace.events) for s in wl.streams})
    failed = sum(ops_of[k] for k in failures) * len(rounds) + len(problems)
    failed += sum(ops_of[k] for r in rounds[1:] for k in r.failed_keys if k not in failures)
    failed = min(failed, attempted)

    timed = [r for r in rounds if not (trace and r is rounds[-1])]
    events = sum(r.events for r in timed)
    times = [t for r in timed for t in r.times]
    scaled = [t for r in timed for t in r.rescaled()]
    raw = {
        "setup_s": statistics.median(setups),
        "op_ms.p50": 1e3 * statistics.median(times),
        "op_ms.p90": 1e3 * quantile(times, 90),
        "events_per_s": events / sum(times),
    }
    metrics = {
        "setup_s": statistics.median(rescaled(setups, setup_cal, list(range(SETUP_REPEATS + 1)))),
        "op_ms.p50": 1e3 * statistics.median(scaled),
        "op_ms.p90": 1e3 * quantile(scaled, 90),
        "events_per_s": events / sum(scaled),
        "peak_rss_mb": peak_mb,
        "failed_ratio": failed / attempted,
    }
    cal = statistics.median(setup_cal + [c for r in timed for c in r.cal])
    atomic = [t.ref.atomic for t in wl.traces]
    report = {
        "workload": name, "seed": seed, "rounds": len(timed), "ops": len(times),
        "ops_per_round": wl.ops_per_round, "attempted": attempted, "failed": failed,
        "failures": {**failures, **{"library %d" % k: p for k, p in enumerate(problems)}},
        "metrics": metrics, "raw": raw, "calibration_ms": 1e3 * cal, "layers": layers,
        "atomic_share": sum(atomic) / len(atomic),
    }
    if layers is not None:
        layers["workload.atomic_share"] = (report["atomic_share"], "ratio")
    if record:
        report["record"] = {k: [v[0], digest(v[1])] for k, v in first.outputs.items()}
    return report


def print_report(rep: dict, trace: bool) -> dict:
    """Human-readable lines, then the result object for the last line."""
    name = rep["workload"]
    print("workload %s  seed %d  rounds %d  operations %d (%d per round)" % (
        name, rep["seed"], rep["rounds"], rep["ops"], rep["ops_per_round"]))
    print("  calibration    %14.6f ms  (times below are rescaled to %.3f ms; raw wall time in brackets)" % (
        rep["calibration_ms"], 1e3 * CAL_REFERENCE_S))
    for key in END_TO_END + ("failed_ratio",):
        note = "  [%.6f]" % rep["raw"][key] if key in rep["raw"] else ""
        if key.startswith("op_ms"):
            note += "  over %d operations" % rep["ops"]
        print("  %-14s %14.6f %s%s" % (key, rep["metrics"][key], UNITS[key], note))
    print("  %-14s %14.6f ratio  (inputs liberally atomic under their own marks)" % (
        "atomic_share", rep["atomic_share"]))
    for key, reason in sorted(rep["failures"].items()):
        print("  FAILED %s: %s" % (key, reason))
    if trace:
        layers = rep["layers"]
        for key in sorted(layers):
            value, unit = layers[key]
            print("  %-50s %16.6f %s" % (key, value, unit))
        for key in BYPASSED[name]:
            print("  bypass %-42s %s" % (key, "holds" if layers[key][0] == 0 else "BROKEN"))
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    else:
        metrics = {k: {"value": rep["metrics"][k], "unit": UNITS[k]} for k in END_TO_END}
    return {"correct": rep["failed"] == 0, "attempted": rep["attempted"],
            "failed": rep["failed"], "metrics": metrics}


def run_all(args) -> int:
    """Each workload in its own child process; a summary at the end."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print("error: workload %s exited with %d" % (name, proc.returncode), file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            summary["metrics"]["%s.%s" % (name, key)] = value
    print(json.dumps(summary, sort_keys=True))
    return 0


def record(root: Path, baseline: set[str]) -> int:
    """Store expected outputs for the default seed after every check and
    every library second route has passed."""
    stored = {}
    for name in workloads.WORKLOADS:
        rep = measure(name, DEFAULT_SEED, 0, False, True, root, baseline)
        if rep["failures"]:
            for key, reason in sorted(rep["failures"].items()):
                print("%s %s: %s" % (name, key, reason), file=sys.stderr)
            return 1
        stored[name] = rep["record"]
        print("%s: %d outputs recorded, atomic share %.2f" % (name, len(rep["record"]), rep["atomic_share"]))
    EXPECTED.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=5.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true",
                   help="store expected outputs for the default seed")
    args = p.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "blockeq" / "__init__.py").is_file():
        print("error: run from the root of a blockeq checkout (no src/blockeq here)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    baseline = set(sys.modules)
    if args.record:
        return record(root, baseline)
    if args.workload == "all":
        return run_all(args)
    rep = measure(args.workload, args.seed, args.seconds, bool(args.trace), False, root, baseline)
    print(json.dumps(print_report(rep, bool(args.trace)), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
