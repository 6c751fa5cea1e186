"""Spans around the public functions of ``blockeq``, and the per-layer
metrics computed from them.

The package's modules import one another's functions by name, so one
function is bound in several module namespaces (``block_hb`` lives in
``orders``, ``atomicity``, ``oracle``, ``cli`` and the package itself).
``Instrumentation`` replaces every such binding with one wrapper, which
makes nested calls child spans: ``conc_symbols_blocks`` is the parent of
``saturate``, which is the parent of ``block_hb``.  Spans stay in memory
and are written out when the run ends.
"""

from __future__ import annotations

import json
import math
import sys
import time

# Layer (module) -> wrapped public functions.  ``PartialOrder.covering_pairs``
# is wrapped on its class.
TARGETS = {
    "trace": ("parse_run",),
    "blocks": ("blocks_from_annotation",),
    "orders": ("mazurkiewicz_hb", "block_hb", "covering_pairs", "saturate"),
    "atomicity": (
        "block_graph",
        "is_liberally_atomic",
        "is_conflict_serializable",
        "serial_witness",
        "libat_step",
    ),
    "monitor": ("sat_step",),
    "concurrency": (
        "conc_step",
        "conc_events",
        "conc_symbols_maz",
        "conc_symbols_blocks",
        "conc_symbols_general",
    ),
    "oracle": ("enum_maz_class", "enum_block_class", "enum_rf_class"),
    "hardness": ("check_reduction",),
    "cli": ("main",),
}
SPAN_NAMES = tuple("%s.%s" % (m, f) for m, fns in TARGETS.items() for f in fns)

# Layers whose self time is also reported per run-length bucket.
SIZED = (
    "orders.mazurkiewicz_hb",
    "orders.block_hb",
    "orders.covering_pairs",
    "orders.saturate",
    "atomicity.block_graph",
)
# Buckets of run length n: (name, lo, hi), lo <= n < hi.
BUCKETS = (("n50", 35, 71), ("n100", 71, 141), ("n200", 141, 283), ("n400", 283, 566))
WINDOW = 200  # symbols per window of a stream
WINDOWS = 5

ROOT = "op"
NAME, START, END, PARENT, ATTRS = range(5)


def _note(name: str, args, result) -> dict | None:
    """Attributes read from a call's arguments and result."""
    if name in SIZED:
        note = {"n": len(args[0])}
        if name == "orders.saturate":
            note["block_pairs"] = len(result.overlay)
        return note
    if name == "atomicity.is_liberally_atomic":
        return {"ok": bool(result)}
    if name.startswith("oracle.enum_"):
        return {"members": len(result.members)}
    return None


class Tracer:
    """Collects spans as ``[name, start, end, parent, attrs]`` lists."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def begin(self, name: str, attrs: dict | None = None) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, attrs])
        self._stack.append(sid)
        self.spans[sid][START] = time.perf_counter()
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid][END] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(sid)
            tracer.spans[sid][ATTRS] = _note(name, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, start, end, parent, attrs) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent, "attrs": attrs}) + "\n")


class Instrumentation:
    """Installs and removes the wrappers of ``TARGETS`` in every loaded
    ``blockeq`` module namespace."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "blockeq" or n.startswith("blockeq.")]
        orders = sys.modules["blockeq.orders"]
        for layer, fns in TARGETS.items():
            home = sys.modules["blockeq." + layer]
            for fn_name in fns:
                name = "%s.%s" % (layer, fn_name)
                if fn_name == "covering_pairs":
                    owner = orders.PartialOrder
                    original = owner.__dict__[fn_name]
                    self._swap(owner, fn_name, original, self.tracer.wrap(name, original))
                    continue
                original = getattr(home, fn_name)
                wrapper = self.tracer.wrap(name, original)
                for mod in namespaces:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._swap(mod, attr, original, wrapper)

    def _swap(self, owner, attr, original, wrapper) -> None:
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def _slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log y against log x; 0 with under two points."""
    pts = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len(pts) < 2:
        return 0.0
    mx = sum(p[0] for p in pts) / len(pts)
    my = sum(p[1] for p in pts) / len(pts)
    sxx = sum((p[0] - mx) ** 2 for p in pts)
    return sum((p[0] - mx) * (p[1] - my) for p in pts) / sxx if sxx else 0.0


def layer_metrics(spans: list[list]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced round, as name -> (value, unit).

    Self time is a span's duration minus its children's durations; the
    work is single-threaded, so children never overlap.  ``op`` spans
    are the benchmark's own, one per operation, and may carry the
    stream window of the symbol they fold.
    """
    child = [0.0] * len(spans)
    root = [-1] * len(spans)
    in_general = [False] * len(spans)
    for sid, (name, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += end - start
            root[sid] = root[parent]
            in_general[sid] = in_general[parent] or spans[parent][NAME] == "concurrency.conc_symbols_general"
        else:
            root[sid] = sid
    calls = dict.fromkeys(SPAN_NAMES, 0)
    self_s = dict.fromkeys(SPAN_NAMES, 0.0)
    bucket = {(n, b[0]): [0, 0.0, 0] for n in SIZED for b in BUCKETS}  # calls, self, sum n
    window = [[0, 0.0] for _ in range(WINDOWS)]
    block_pairs = members = 0
    enum_s = 0.0
    general_tries = general_atomic = 0
    saturating_ops: set[int] = set()
    ops = 0
    for sid, (name, start, end, parent, attrs) in enumerate(spans):
        if name == ROOT:
            ops += 1
            continue
        own = end - start - child[sid]
        calls[name] += 1
        self_s[name] += own
        if name in SIZED:
            n = attrs["n"]
            for b, lo, hi in BUCKETS:
                if lo <= n < hi:
                    cell = bucket[(name, b)]
                    cell[0] += 1
                    cell[1] += own
                    cell[2] += n
        if name == "orders.saturate":
            block_pairs += attrs["block_pairs"]
            saturating_ops.add(root[sid])
        elif name.startswith("oracle.enum_"):
            members += attrs["members"]
            enum_s += end - start
        elif name == "atomicity.is_liberally_atomic" and in_general[sid]:
            general_tries += 1
            general_atomic += attrs["ok"]
        elif name == "monitor.sat_step":
            w = (spans[root[sid]][ATTRS] or {}).get("window")
            if w is not None:
                window[w][0] += 1
                window[w][1] += own

    out: dict[str, tuple[float, str]] = {}
    for name in SPAN_NAMES:
        out[name + ".calls"] = (calls[name], "count")
        out[name + ".self_s"] = (self_s[name], "s")
    for name in SIZED:
        points = []
        for b, _, _ in BUCKETS:
            count, total, nsum = bucket[(name, b)]
            out["%s.self_ms.%s" % (name, b)] = (1e3 * total / count if count else 0.0, "ms")
            if count:
                points.append((nsum / count, total / count))
        out[name + ".size_exponent"] = (_slope(points), "1")
    out["orders.saturate.block_pairs"] = (block_pairs, "count")
    sat_calls = calls["monitor.sat_step"]
    out["monitor.sat_step.us_per_symbol"] = (
        1e6 * self_s["monitor.sat_step"] / sat_calls if sat_calls else 0.0, "us")
    per_window = [1e6 * s / c if c else 0.0 for c, s in window]
    for k, us in enumerate(per_window):
        out["monitor.sat_step.us_per_symbol.w%d" % k] = (us, "us")
    out["monitor.sat_step.late_over_early"] = (
        per_window[-1] / per_window[1] if per_window[1] else 0.0, "ratio")
    out["concurrency.general.atomic_ratio"] = (
        general_atomic / general_tries if general_tries else 0.0, "ratio")
    out["oracle.members"] = (members, "count")
    out["oracle.members_per_s"] = (members / enum_s if enum_s else 0.0, "1/s")
    out["workload.saturate_op_share"] = (len(saturating_ops) / ops if ops else 0.0, "ratio")
    return out
