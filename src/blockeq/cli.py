"""Command-line front end.

Subcommands cover the whole library surface: trace validation, the two
happens-before orders, atomicity checking, concurrency decisions, class
enumeration, annotation, streaming-state dumps, and generation of the
equality-language hardness family.  All output is byte-deterministic
for a fixed command line, so every command is usable in golden tests.

Exit codes: 0 success (or a positive decision such as "concurrent"),
1 negative decision, 2 usage or input errors, 3 enumeration bound
exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from pathlib import Path

from .atomicity import (
    block_graph,
    is_conflict_serializable,
    is_liberally_atomic,
    serial_witness,
)
from .blocks import (
    BlockSet,
    annotate,
    blocks_from_annotation,
    is_well_annotated,
    parse_block_selector,
)
from .concurrency import (
    GIVEN_BLOCKS,
    MAZURKIEWICZ,
    MODES,
    MOST_GENERAL,
    conc_events,
    conc_symbols_blocks,
    conc_symbols_general,
    conc_symbols_maz,
)
from .hardness import EqualityInstance, check_reduction, gen_equality_trace
from .monitor import canonical_text, sat_initial, sat_step, symbols_of
from .oracle import (
    RF_BOUND,
    SWAP_BOUND,
    WORD_LIMIT,
    BoundExceeded,
    enum_block_class,
    enum_maz_class,
    enum_rf_class,
)
from .orders import bits, block_hb, mazurkiewicz_hb
from .trace import Run, TraceError, parse_run, parse_symbol

EXIT_OK = 0
EXIT_NO = 1
EXIT_USAGE = 2
EXIT_BOUND = 3

FORMATS = ("text", "dot", "json-lines")


def _fail(message: str) -> int:
    print("error: %s" % message, file=sys.stderr)
    return EXIT_USAGE


def _warn(message: str) -> None:
    print("warning: %s" % message, file=sys.stderr)


def _load(path: str) -> Run:
    return parse_run(Path(path).read_text(encoding="utf-8"))


def _blocks_for(run: Run, selector: str | None) -> BlockSet:
    """Blocks from an explicit selector, else from the trace's own
    marks (none on an unmarked trace)."""
    if selector is not None:
        return parse_block_selector(run, selector)
    return blocks_from_annotation(run)


def _label_text(run: Run, pos: int) -> str:
    text = str(run.labels[pos])
    if run.annotations[pos]:
        text += " @"
    return text


# ---- validate --------------------------------------------------------------

def cmd_validate(args) -> int:
    try:
        run = _load(args.trace)
    except TraceError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_NO
    print(
        "ok: %d events, %d threads, %d variables"
        % (len(run), len(run.threads), len(run.variables))
    )
    if any(run.annotations):
        if not is_well_annotated(run):
            print("error: marks do not form valid blocks", file=sys.stderr)
            return EXIT_NO
        print("annotations: well-formed")
    return EXIT_OK


# ---- hb / bhb --------------------------------------------------------------

def _dot_order(name: str, run: Run, pairs) -> str:
    lines = ["digraph %s {" % name]
    for i in range(len(run)):
        lines.append('  e%d [label="%s"];' % (i + 1, _label_text(run, i)))
    for i, j in pairs:
        lines.append("  e%d -> e%d;" % (i + 1, j + 1))
    lines.append("}")
    return "\n".join(lines) + "\n"


def _emit_order(name: str, run: Run, order, fmt: str) -> int:
    pairs = order.covering_positions()
    if fmt == "dot":
        sys.stdout.write(_dot_order(name, run, pairs))
    else:
        for i, j in pairs:
            print("e%d -> e%d" % (i + 1, j + 1))
    return EXIT_OK


def cmd_hb(args) -> int:
    run = _load(args.trace)
    return _emit_order("hb", run, mazurkiewicz_hb(run), args.format)


def cmd_bhb(args) -> int:
    run = _load(args.trace)
    blocks = _blocks_for(run, args.blocks)
    return _emit_order("bhb", run, block_hb(run, blocks), args.format)


# ---- atomicity -------------------------------------------------------------

def _write_dot_block_graph(run: Run, blocks: BlockSet) -> None:
    """Print the block graph in DOT, its edges in row order, one row's
    lines at a time."""
    g = block_graph(run, blocks)
    out = sys.stdout.write
    out("digraph blocks {\n")
    for i, node in enumerate(g.nodes):
        text = "; ".join(_label_text(run, run.position(e)) for e in node)
        out('  n%d [label="%s"];\n' % (i, text))
    for i, m in enumerate(g.succ):
        out("".join(["  n%d -> n%d;\n" % (i, j) for j in bits(m)]))
    out("}\n")


def cmd_atomicity(args) -> int:
    run = _load(args.trace)
    blocks = _blocks_for(run, args.blocks)
    atomic = is_liberally_atomic(run, blocks)
    if args.format == "dot":
        if args.witness:
            _warn("--witness is ignored with --format dot")
        _write_dot_block_graph(run, blocks)
        return EXIT_OK if atomic else EXIT_NO
    print("liberally-atomic: %s" % ("yes" if atomic else "no"))
    print(
        "conflict-serializable: %s"
        % ("yes" if is_conflict_serializable(run, blocks) else "no")
    )
    if args.witness:
        if atomic:
            print("witness:")
            sys.stdout.write(serial_witness(run, blocks).to_text())
        else:
            _warn("not liberally atomic; no serial witness exists")
    return EXIT_OK if atomic else EXIT_NO


# ---- concurrent ------------------------------------------------------------

def cmd_concurrent(args) -> int:
    run = _load(args.trace)
    if args.blocks is not None and args.mode != GIVEN_BLOCKS:
        _warn("--blocks is ignored outside blocks mode")
    elif args.blocks is not None:
        run = annotate(run, parse_block_selector(run, args.blocks))
    if args.strategy == "stream" and (args.mode != MOST_GENERAL or args.events is not None):
        _warn("--strategy applies only to --c/--d queries in general mode; ignoring it")

    if args.events is not None:
        if args.c is not None or args.d is not None:
            return _fail("--events replaces --c/--d; give one or the other")
        i, j = args.events
        if not (1 <= i <= len(run) and 1 <= j <= len(run)):
            return _fail("event positions must lie in 1..%d" % len(run))
        if i == j:
            return _fail("need two distinct event positions")
        concurrent = conc_events(run, run.event_at(i - 1), run.event_at(j - 1), args.mode)
    else:
        if args.c is None or args.d is None:
            return _fail("give both --c and --d (or --events)")
        c, c_marked = parse_symbol(args.c)
        d, d_marked = parse_symbol(args.d)
        if (c_marked or d_marked) and args.mode != GIVEN_BLOCKS:
            _warn("marks on query symbols are ignored outside blocks mode")
        if args.mode == MAZURKIEWICZ:
            concurrent = conc_symbols_maz(run, c, d)
        elif args.mode == GIVEN_BLOCKS:
            cq = (c, True) if c_marked else c
            dq = (d, True) if d_marked else d
            concurrent = conc_symbols_blocks(run, cq, dq)
        else:
            if args.strategy == "stream":
                _warn("streaming search may report concurrent where exact enumeration would not")
            concurrent = conc_symbols_general(run, c, d, strategy=args.strategy)

    print("concurrent: %s" % ("yes" if concurrent else "no"))
    return EXIT_OK if concurrent else EXIT_NO


# ---- enumerate -------------------------------------------------------------

def cmd_enumerate(args) -> int:
    if args.swap_bound <= 0 or args.rf_bound <= 0:
        return _fail("enumeration bounds must be positive")
    if args.limit < 0:
        return _fail("--limit needs a non-negative count")
    run = _load(args.trace)
    if args.relation == "maz":
        cls = enum_maz_class(run, bound=args.swap_bound)
    elif args.relation == "blocks":
        cls = enum_block_class(run, _blocks_for(run, args.blocks), bound=args.swap_bound)
    else:
        cls = enum_rf_class(run, bound=args.rf_bound)
    print("members: %d" % len(cls))
    if args.limit:
        words = cls.sorted_words()
        if len(words) > args.limit:
            if args.seed:
                picked = random.Random(args.seed).sample(range(len(words)), args.limit)
                words = [words[i] for i in sorted(picked)]
            else:
                words = words[: args.limit]
        for w in words:
            print("member: " + "; ".join(str(run.labels[p]) for p in w))
    return EXIT_OK


# ---- annotate --------------------------------------------------------------

def cmd_annotate(args) -> int:
    run = _load(args.trace)
    # annotate overwrites every mark; unmarked traces default to all blocks
    selector = "all" if args.blocks is None and not any(run.annotations) else args.blocks
    sys.stdout.write(annotate(run, _blocks_for(run, selector)).to_text())
    return EXIT_OK


# ---- sat (streaming-state dumps) -------------------------------------------

def _dump_state(count: int, state, fmt: str) -> None:
    text = canonical_text(state)
    if fmt == "json-lines":
        print(json.dumps({"events": count, "state": text}, sort_keys=True))
    else:
        print("-- after %d events --" % count)
        sys.stdout.write(text)


def cmd_sat(args) -> int:
    if args.dump_state_every is not None and args.dump_state_every <= 0:
        return _fail("--dump-state-every needs a positive count")
    run = _load(args.trace)
    aw = annotate(run, _blocks_for(run, args.blocks))
    state = sat_initial(aw.universe)
    every = args.dump_state_every
    dumped_last = False
    for count, sym in enumerate(symbols_of(aw), start=1):
        state = sat_step(state, sym)
        dumped_last = every is not None and count % every == 0
        if dumped_last:
            _dump_state(count, state, args.format)
    if not dumped_last:
        _dump_state(len(aw), state, args.format)
    return EXIT_OK


# ---- gen-hardness ----------------------------------------------------------

def cmd_gen_hardness(args) -> int:
    try:
        inst = EqualityInstance.from_strings(args.a, args.b)
    except ValueError as exc:
        return _fail(str(exc))
    run, theta1, theta2 = gen_equality_trace(inst)
    sys.stdout.write(run.to_text())
    print("# first marker: position %d, second marker: position %d"
          % (run.position(theta1) + 1, run.position(theta2) + 1))
    if args.check:
        if inst.n > 3:
            _warn("--check skipped: the exact class search is practical only for n <= 3")
        elif check_reduction(inst):
            print("# check: markers ordered in every equivalent run iff the strings are equal")
        else:
            print("error: reduction check failed", file=sys.stderr)
            return EXIT_NO
    return EXIT_OK


# ---- parser ----------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused: parsing
    leaves it unchanged, and each call returns a fresh namespace."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=FORMATS, default="text",
                        help="output format (default text)")

    blocksel = argparse.ArgumentParser(add_help=False)
    blocksel.add_argument("--blocks", metavar="SEL",
                          help="block selector: 'all', 'none', or 'writes=i,j,k' "
                               "(1-based write positions); default: the trace's @ marks")

    p = argparse.ArgumentParser(
        prog="blockeq",
        description="Analyze concurrent read/write traces under commutativity-"
                    "based equivalences: happens-before orders, block atomicity, "
                    "causal concurrency, class enumeration.",
    )
    sub = p.add_subparsers(dest="command", required=True, metavar="COMMAND")

    sp = sub.add_parser("validate", parents=[common],
                        help="parse a trace and report basic shape (exit 1 if invalid)")
    sp.add_argument("trace")
    sp.set_defaults(func=cmd_validate, formats=("text",))

    sp = sub.add_parser("hb", parents=[common],
                        help="happens-before order of the trace as covering edges")
    sp.add_argument("trace")
    sp.set_defaults(func=cmd_hb, formats=("text", "dot"))

    sp = sub.add_parser("bhb", parents=[common, blocksel],
                        help="block happens-before order (cross-thread pairs inside "
                             "two distinct blocks are exempted)")
    sp.add_argument("trace")
    sp.set_defaults(func=cmd_bhb, formats=("text", "dot"))

    sp = sub.add_parser("atomicity", parents=[common, blocksel],
                        help="report liberal atomicity and conflict serializability "
                             "of the trace's blocks")
    sp.add_argument("trace")
    sp.add_argument("--witness", action="store_true",
                    help="also print one equivalent run with every block contiguous")
    sp.set_defaults(func=cmd_atomicity, formats=("text", "dot"))

    sp = sub.add_parser("concurrent", parents=[common, blocksel],
                        help="decide whether two symbols or events can execute in "
                             "the other order in some equivalent run")
    sp.add_argument("trace")
    sp.add_argument("--c", metavar="SYM", help="first symbol, e.g. 'T1 r x'")
    sp.add_argument("--d", metavar="SYM", help="second symbol, e.g. 'T2 w x'")
    sp.add_argument("--events", type=int, nargs=2, metavar=("I", "J"),
                    help="query two specific events by 1-based trace position")
    sp.add_argument("--mode", choices=MODES, default=MAZURKIEWICZ,
                    help="equivalence to decide under (default maz)")
    sp.add_argument("--strategy", choices=("enumerate", "stream"), default="enumerate",
                    help="general mode only: exact enumeration or streaming "
                         "over-approximation (default enumerate)")
    sp.set_defaults(func=cmd_concurrent, formats=("text",))

    sp = sub.add_parser("enumerate", parents=[common, blocksel],
                        help="enumerate an equivalence class by brute force")
    sp.add_argument("trace")
    sp.add_argument("--relation", choices=("maz", "blocks", "rf"), required=True)
    sp.add_argument("--limit", type=int, default=0, metavar="N",
                    help="print up to N members after the count")
    sp.add_argument("--swap-bound", type=int, default=SWAP_BOUND, metavar="N",
                    help="max events for swap-closure enumeration (default %d; "
                         "never more than %d)" % (SWAP_BOUND, WORD_LIMIT))
    sp.add_argument("--rf-bound", type=int, default=RF_BOUND, metavar="N",
                    help="max events for the reads-from search (default %d; "
                         "never more than %d)" % (RF_BOUND, WORD_LIMIT))
    sp.add_argument("--seed", type=int, default=0,
                    help="tie-break seed for sampled output (default 0: no sampling)")
    sp.set_defaults(func=cmd_enumerate, formats=("text",))

    sp = sub.add_parser("annotate", parents=[common, blocksel],
                        help="print the trace with @ marks for the selected blocks "
                             "(default: every write starts a block)")
    sp.add_argument("trace")
    sp.set_defaults(func=cmd_annotate, formats=("text",))

    sp = sub.add_parser("sat", parents=[common, blocksel],
                        help="stream the trace through the saturation monitor and "
                             "dump canonical state snapshots")
    sp.add_argument("trace")
    sp.add_argument("--dump-state-every", type=int, metavar="K",
                    help="snapshot after every K events (default: final state only)")
    sp.set_defaults(func=cmd_sat, formats=("text", "json-lines"))

    sp = sub.add_parser("gen-hardness", parents=[common],
                        help="emit the two-thread trace whose marker events are "
                             "causally ordered in every equivalent run iff a = b")
    sp.add_argument("--a", required=True, metavar="BITS", help="first bit string, e.g. 1101")
    sp.add_argument("--b", required=True, metavar="BITS", help="second bit string")
    sp.add_argument("--check", action="store_true",
                    help="verify the ordered-iff-equal property (n <= 3 only)")
    sp.set_defaults(func=cmd_gen_hardness, formats=("text",))

    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.format not in args.formats:
        return _fail("format %r is not supported by %r" % (args.format, args.command))
    try:
        return args.func(args)
    except BoundExceeded as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_BOUND
    except (TraceError, OSError, UnicodeDecodeError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
