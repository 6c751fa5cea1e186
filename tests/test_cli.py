"""Golden tests for the command-line front end.

Every command's stdout is byte-deterministic for a fixed command line,
so these tests pin exact output where the format matters and exit codes
everywhere.  ``main`` is called in-process with an argv list.
"""

import random
from pathlib import Path

import pytest

from blockeq import oracle
from blockeq.blocks import BlockSet, blocks_from_annotation
from blockeq.cli import main
from blockeq.concurrency import MODES
from blockeq.oracle import EquivClass, enum_block_class, enum_maz_class, enum_rf_class
from blockeq.trace import parse_run
from gen import CORPUS


def trace(name):
    return str(CORPUS / name)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_reports_shape(capsys):
    code, out, err = run_cli(capsys, "validate", trace("three_thread_zx.trace"))
    assert code == 0
    assert out == "ok: 8 events, 3 threads, 2 variables\n"
    assert err == ""


def test_validate_annotated_trace(capsys):
    code, out, _ = run_cli(capsys, "validate", trace("serial_two_blocks.trace"))
    assert code == 0
    assert out.endswith("annotations: well-formed\n")


def test_validate_rejects_bad_content(tmp_path, capsys):
    bad = tmp_path / "bad.trace"
    bad.write_text("T1 r x\n")
    code, _, err = run_cli(capsys, "validate", str(bad))
    assert code == 1
    assert err.startswith("error:")

    # a marked read observing an unmarked write is not a valid marking
    ill = tmp_path / "ill.trace"
    ill.write_text("T1 w x\nT2 r x @\n")
    code, _, err = run_cli(capsys, "validate", str(ill))
    assert code == 1
    assert err.startswith("error:")


def test_missing_file_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "validate", "/no/such/file.trace")
    assert code == 2
    assert err.startswith("error:")


def test_hb_and_bhb_edges(capsys):
    code, out, _ = run_cli(capsys, "hb", trace("two_wr_pairs.trace"))
    assert code == 0
    assert out == "e1 -> e2\ne2 -> e3\ne3 -> e4\n"
    # the two blocks are cross-thread, so their cross pairs are exempt
    code, out, _ = run_cli(capsys, "bhb", trace("two_wr_pairs.trace"))
    assert code == 0
    assert out == "e1 -> e2\ne3 -> e4\n"


def test_hb_on_a_wide_alphabet(tmp_path, capsys):
    """300 variables, each written by T1 and read by T2 right after: the
    covering edges are the reads-from pairs e(2i+1) -> e(2i+2) and each
    thread's program order, nothing across variables."""
    n = 300
    path = tmp_path / "wide.trace"
    path.write_text("".join("T1 w v%d\nT2 r v%d\n" % (i, i) for i in range(n)))
    code, out, _ = run_cli(capsys, "hb", str(path))
    assert code == 0
    want = []
    for i in range(1, 2 * n, 2):  # e(i) is T1's write, e(i + 1) T2's read of it
        want.append("e%d -> e%d" % (i, i + 1))
        if i + 2 < 2 * n:
            want += ["e%d -> e%d" % (i, i + 2), "e%d -> e%d" % (i + 1, i + 3)]
    assert out.splitlines() == want


def test_hb_dot_output(capsys):
    code, out, _ = run_cli(capsys, "hb", trace("two_wr_pairs.trace"), "--format", "dot")
    assert code == 0
    assert out == (
        "digraph hb {\n"
        '  e1 [label="T1 w x @"];\n'
        '  e2 [label="T1 r x @"];\n'
        '  e3 [label="T2 w x @"];\n'
        '  e4 [label="T2 r x @"];\n'
        "  e1 -> e2;\n"
        "  e2 -> e3;\n"
        "  e3 -> e4;\n"
        "}\n"
    )


def test_bhb_with_selector_matches_annotation_default(capsys):
    _, by_marks, _ = run_cli(capsys, "bhb", trace("two_wr_pairs.trace"))
    _, by_sel, _ = run_cli(
        capsys, "bhb", trace("two_wr_pairs.trace"), "--blocks", "writes=1,3"
    )
    assert by_marks == by_sel


def test_atomicity_yes_no_lines_and_witness(capsys):
    code, out, _ = run_cli(
        capsys, "atomicity", trace("atomic_not_serializable.trace"), "--witness"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "liberally-atomic: yes"
    assert lines[1] == "conflict-serializable: no"
    assert lines[2] == "witness:"
    witness = parse_run("\n".join(lines[3:]) + "\n")
    # every block of the witness is contiguous
    for block in blocks_from_annotation(witness):
        pos = sorted(witness.position(e) for e in block.members())
        assert pos == list(range(pos[0], pos[0] + len(pos)))


def test_atomicity_rejects_intertwined_blocks(capsys):
    code, out, err = run_cli(
        capsys, "atomicity", trace("intertwined_blocks.trace"), "--witness"
    )
    assert code == 1
    assert out == "liberally-atomic: no\nconflict-serializable: no\n"
    assert err.startswith("warning:")


def test_atomicity_dot_block_graph(capsys):
    code, out, _ = run_cli(
        capsys, "atomicity", trace("intertwined_blocks.trace"), "--format", "dot"
    )
    assert code == 1
    assert out == (
        "digraph blocks {\n"
        '  n0 [label="T1 w x @; T2 r x @"];\n'
        '  n1 [label="T2 w y @; T1 r y @"];\n'
        "  n0 -> n1;\n"
        "  n1 -> n0;\n"
        "}\n"
    )


def test_dot_labels_escape_quotes_and_backslashes(tmp_path, capsys):
    # thread and variable names may hold characters that end or escape
    # a DOT string; both writers quote them
    path = tmp_path / "quoted.trace"
    path.write_text('T"1 w x\\y @\nT"1 r x\\y @\n')
    label = '"T\\"1 w x\\\\y @"'
    for command in ("hb", "bhb"):
        code, out, _ = run_cli(capsys, command, str(path), "--format", "dot")
        assert code == 0
        assert "  e1 [label=%s];\n" % label in out
    code, out, _ = run_cli(capsys, "atomicity", str(path), "--format", "dot")
    assert code == 0
    assert '  n0 [label="T\\"1 w x\\\\y @; T\\"1 r x\\\\y @"];\n' in out


def test_concurrent_events_ordered_pair(capsys):
    code, out, _ = run_cli(
        capsys,
        "concurrent", trace("three_thread_zx.trace"),
        "--events", "6", "7", "--mode", "maz",
    )
    assert code == 1
    assert out == "concurrent: no\n"


def test_concurrent_events_blocks_mode(capsys):
    code, out, _ = run_cli(
        capsys,
        "concurrent", trace("five_thread_blocks.trace"),
        "--events", "1", "9", "--mode", "blocks",
    )
    assert code == 0
    assert out == "concurrent: yes\n"


def test_concurrent_symbol_queries(capsys):
    code, out, _ = run_cli(
        capsys,
        "concurrent", trace("no_maximal_annotation.trace"),
        "--c", "T2 w x", "--d", "T3 w x", "--mode", "general",
    )
    assert code == 0 and out == "concurrent: yes\n"
    code, out, _ = run_cli(
        capsys,
        "concurrent", trace("no_maximal_annotation.trace"),
        "--c", "T2 w x", "--d", "T3 w x", "--mode", "maz",
    )
    assert code == 1 and out == "concurrent: no\n"


def count_edge_builds(monkeypatch):
    """The write positions of each block set whose direct edges get
    built, in build order."""
    builds = []
    edges = BlockSet.__dict__["_edges"]
    build = edges.func

    def counting(blocks):
        builds.append(blocks.writes)
        return build(blocks)

    monkeypatch.setattr(edges, "func", counting)
    return builds


@pytest.mark.parametrize(
    "name", ["atomic_not_serializable.trace", "scrambled_two_blocks.trace", "five_thread_blocks.trace"]
)
def test_commands_build_each_block_order_once(monkeypatch, capsys, name):
    """The atomicity decision, the serial witness and saturation share
    one build of a block set's direct edges; conflict serializability
    adds one build for the empty block set."""
    path = trace(name)
    run = parse_run(Path(path).read_text(encoding="utf-8"))
    marked = blocks_from_annotation(run).writes
    c, d = str(run.labels[0]), str(run.labels[-1])
    builds = count_edge_builds(monkeypatch)
    code, out, _ = run_cli(capsys, "atomicity", path, "--witness")
    assert code == 0 and "witness:" in out
    assert builds == [marked, ()]
    for query in (["--c", c, "--d", d], ["--events", "1", str(len(run))]):
        builds.clear()
        run_cli(capsys, "concurrent", path, "--mode", "blocks", *query)
        assert builds == [marked], query
    builds.clear()
    run_cli(capsys, "concurrent", path, "--mode", "general", "--c", c, "--d", d)
    assert builds and len(set(builds)) == len(builds)


def test_concurrent_stream_strategy_warns(capsys):
    code, out, err = run_cli(
        capsys,
        "concurrent", trace("no_maximal_annotation.trace"),
        "--c", "T2 w x", "--d", "T3 w x", "--mode", "general",
        "--strategy", "stream",
    )
    assert code == 0 and out == "concurrent: yes\n"
    assert err.startswith("warning:")


@pytest.mark.parametrize("ignored, query", [
    (("--blocks", "all"), ("concurrent", "--mode", "maz", "--events", "1", "3")),
    (("--blocks", "none"), ("concurrent", "--mode", "general", "--events", "1", "3")),
    # event queries in general mode always enumerate exactly
    (("--strategy", "stream"), ("concurrent", "--mode", "general", "--events", "1", "3")),
    (("--strategy", "stream"), ("concurrent", "--mode", "maz", "--c", "T1 w x", "--d", "T2 w x")),
    (("--strategy", "stream"), ("concurrent", "--mode", "blocks", "--events", "1", "3")),
    # the dot block graph has no room for a witness
    (("--witness",), ("atomicity", "--format", "dot")),
    # --blocks selects the block class only
    (("--blocks", "none"), ("enumerate", "--relation", "maz", "--limit", "3")),
    (("--blocks", "all"), ("enumerate", "--relation", "rf", "--limit", "3")),
])
def test_concurrent_warns_about_ignored_options(capsys, ignored, query):
    # the answer is the one given without the option, and one warning
    # line says the option was ignored
    path = trace("two_wr_pairs.trace")
    command, *query = query
    want_code, want_out, want_err = run_cli(capsys, command, path, *query)
    assert want_err == ""
    code, out, err = run_cli(capsys, command, path, *ignored, *query)
    assert (code, out) == (want_code, want_out)
    assert err.startswith("warning:") and err.count("\n") == 1


def test_concurrent_usage_errors(capsys):
    code, _, err = run_cli(
        capsys,
        "concurrent", trace("two_wr_pairs.trace"),
        "--events", "1", "2", "--c", "T1 w x",
    )
    assert code == 2 and err.startswith("error:")
    code, _, err = run_cli(
        capsys, "concurrent", trace("two_wr_pairs.trace"), "--events", "1", "9"
    )
    assert code == 2 and err.startswith("error:")
    code, out, err = run_cli(
        capsys, "concurrent", trace("two_wr_pairs.trace"), "--events", "2", "2"
    )
    assert (code, out) == (2, "")
    assert err == "error: need two distinct event positions\n"
    code, _, err = run_cli(
        capsys, "concurrent", trace("two_wr_pairs.trace"), "--c", "T1 w x"
    )
    assert code == 2 and err.startswith("error:")
    code, _, err = run_cli(
        capsys,
        "concurrent", trace("two_wr_pairs.trace"),
        "--c", "T1 q x", "--d", "T2 w x",
    )
    assert code == 2 and err.startswith("error:")


def test_enumerate_counts(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", trace("conciseness_n2.trace"), "--relation", "blocks"
    )
    assert code == 0
    assert out == "members: 6\n"
    _, out, _ = run_cli(
        capsys, "enumerate", trace("conciseness_n2.trace"), "--relation", "maz"
    )
    assert out == "members: 1\n"


def test_enumerate_member_listing(capsys):
    code, out, _ = run_cli(
        capsys,
        "enumerate", trace("two_wr_pairs.trace"), "--relation", "rf", "--limit", "5",
    )
    assert code == 0
    assert out == (
        "members: 2\n"
        "member: T1 w x; T1 r x; T2 w x; T2 r x\n"
        "member: T2 w x; T2 r x; T1 w x; T1 r x\n"
    )


def test_enumerate_limit_with_seed_samples(capsys):
    args = ("enumerate", trace("conciseness_n2.trace"), "--relation", "blocks",
            "--limit", "3")
    _, first, _ = run_cli(capsys, *args, "--seed", "7")
    _, again, _ = run_cli(capsys, *args, "--seed", "7")
    assert first == again
    assert first.startswith("members: 6\n")
    assert first.count("member: ") == 3


def test_enumerate_bound_exceeded(tmp_path, capsys):
    long = tmp_path / "long.trace"
    long.write_text("".join("T%d w x\n" % (i % 3 + 1) for i in range(13)))
    code, _, err = run_cli(capsys, "enumerate", str(long), "--relation", "maz")
    assert code == 3
    assert err.startswith("error:")
    code, out, _ = run_cli(
        capsys, "enumerate", str(long), "--relation", "maz", "--swap-bound", "13"
    )
    assert code == 0 and out == "members: 1\n"


@pytest.mark.parametrize("relation", ("maz", "blocks", "rf"))
def test_enumerate_stops_at_255_events_whatever_the_bound(tmp_path, capsys, relation):
    # a position word spends one byte per event
    one_thread = tmp_path / "one_thread.trace"
    one_thread.write_text("T1 w x\n" * 255)
    bounds = ("--swap-bound", "1000", "--rf-bound", "1000")
    code, out, _ = run_cli(capsys, "enumerate", str(one_thread), "--relation", relation, *bounds)
    assert code == 0 and out == "members: 1\n"
    one_thread.write_text("T1 w x\n" * 256)
    code, out, err = run_cli(capsys, "enumerate", str(one_thread), "--relation", relation, *bounds)
    assert code == 3 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "255" in err


def test_enumerate_reads_no_label_tuples(monkeypatch, capsys):
    def refuse(cls):
        raise AssertionError("label tuples built")

    monkeypatch.setattr(EquivClass, "members", property(refuse))
    for relation in ("maz", "blocks", "rf"):
        for extra in ((), ("--limit", "2"), ("--limit", "2", "--seed", "1")):
            code, out, _ = run_cli(capsys, "enumerate", trace("two_wr_pairs.trace"),
                                   "--relation", relation, *extra)
            assert code == 0 and out.startswith("members: ")


def test_class_sizes_list_no_word(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("words listed")

    gap = trace("block_vs_rf_gap.trace")
    run = parse_run(Path(gap).read_text())
    monkeypatch.setattr(oracle, "_frontier_words", refuse)
    classes = (enum_maz_class(run), enum_block_class(run, blocks_from_annotation(run)), enum_rf_class(run))
    assert tuple(map(len, classes)) == (35640, 35640, 95040)
    assert all(run in cls for cls in classes)  # membership walks the one word
    for relation, size in (("maz", 35640), ("blocks", 35640), ("rf", 95040)):
        assert run_cli(capsys, "enumerate", gap, "--relation", relation) == \
            (0, "members: %d\n" % size, "")
        # --limit reads the words, and only there are they listed
        with pytest.raises(AssertionError, match="words listed"):
            main(["enumerate", gap, "--relation", relation, "--limit", "3"])
        capsys.readouterr()
    monkeypatch.undo()
    for relation in ("maz", "blocks", "rf"):
        code, out, _ = run_cli(capsys, "enumerate", gap, "--relation", relation, "--limit", "3")
        assert code == 0 and out.count("\nmember: ") == 3


def test_parser_reuse_keeps_calls_independent(capsys):
    two = trace("two_wr_pairs.trace")
    first = run_cli(capsys, "enumerate", two, "--relation", "blocks", "--limit", "1", "--seed", "3")
    dot = run_cli(capsys, "hb", two, "--format", "dot")
    plain = run_cli(capsys, "hb", two)
    again = run_cli(capsys, "enumerate", two, "--relation", "blocks")
    assert first[0] == 0 and first[1].count("member: ") == 1
    assert dot[1].startswith("digraph hb {")
    # no option of an earlier call leaks into a later one
    assert plain == (0, "e1 -> e2\ne2 -> e3\ne3 -> e4\n", "")
    assert again == (0, "members: 2\n", "")
    assert run_cli(capsys, "enumerate", two, "--relation", "blocks", "--limit", "1", "--seed", "3") == first


def test_annotate_defaults_to_all_writes(capsys):
    code, out, _ = run_cli(capsys, "annotate", trace("three_thread_zx.trace"))
    assert code == 0
    annotated = parse_run(out)
    # every event is in some block: every write marked, every read follows
    assert all(annotated.annotations)
    blocks_from_annotation(annotated)  # well-formed by construction


def test_annotate_selector_none_strips_marks(capsys):
    code, out, _ = run_cli(
        capsys, "annotate", trace("two_wr_pairs.trace"), "--blocks", "none"
    )
    assert code == 0
    assert "@" not in out
    # and keeping the trace's own marks is the default for marked traces
    _, kept, _ = run_cli(capsys, "annotate", trace("two_wr_pairs.trace"))
    assert parse_run(kept) == parse_run((CORPUS / "two_wr_pairs.trace").read_text())


def test_sat_dump_structure_and_determinism(capsys):
    args = ("sat", trace("serial_two_blocks.trace"), "--dump-state-every", "2")
    code, first, _ = run_cli(capsys, *args)
    assert code == 0
    _, again, _ = run_cli(capsys, *args)
    assert first == again
    headers = [l for l in first.splitlines() if l.startswith("-- after")]
    # snapshots after events 2, 4, 6, plus the final state after 7
    assert headers == [
        "-- after 2 events --",
        "-- after 4 events --",
        "-- after 6 events --",
        "-- after 7 events --",
    ]


def test_sat_json_lines(capsys):
    import json

    code, out, _ = run_cli(
        capsys,
        "sat", trace("serial_two_blocks.trace"),
        "--dump-state-every", "3", "--format", "json-lines",
    )
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert [r["events"] for r in records] == [3, 6, 7]
    assert all(isinstance(r["state"], str) and r["state"] for r in records)


def test_gen_hardness_golden_n1(capsys):
    code, out, err = run_cli(capsys, "gen-hardness", "--a", "1", "--b", "1", "--check")
    assert code == 0
    assert err == ""
    assert out == (
        "T1 w x0\n"
        "T1 w c\n"
        "T1 w x1\n"
        "T1 w u\n"
        "T1 r c\n"
        "T1 r u\n"
        "T2 w u\n"
        "T2 r x1\n"
        "T2 w c\n"
        "T2 r u\n"
        "# first marker: position 6, second marker: position 7\n"
        "# check: markers ordered in every equivalent run iff the strings are equal\n"
    )
    # the emitted text round-trips through the parser (comments dropped)
    assert len(parse_run(out)) == 10


def test_gen_hardness_check_beyond_n3(capsys):
    for b in ("1010", "1011"):
        code, out, err = run_cli(capsys, "gen-hardness", "--a", "1010", "--b", b, "--check")
        assert code == 0 and err == ""
        assert out.endswith(
            "# check: markers ordered in every equivalent run iff the strings are equal\n")
        assert len(parse_run(out)) == 6 * 4 + 4


def test_gen_hardness_check_failure(monkeypatch, capsys):
    # a failed check exits 1 with one error line, after the trace
    monkeypatch.setattr("blockeq.cli.check_reduction", lambda inst: False)
    code, out, err = run_cli(capsys, "gen-hardness", "--a", "1", "--b", "1", "--check")
    assert code == 1
    assert err == "error: reduction check failed\n"
    assert out.startswith("T1 w x0\n")
    assert out.endswith("# first marker: position 6, second marker: position 7\n")
    assert len(parse_run(out)) == 10


def test_gen_hardness_rejects_bad_bits(capsys):
    code, _, err = run_cli(capsys, "gen-hardness", "--a", "10", "--b", "1x")
    assert code == 2 and err.startswith("error:")
    code, _, err = run_cli(capsys, "gen-hardness", "--a", "10", "--b", "101")
    assert code == 2 and err.startswith("error:")


def test_format_gating(capsys):
    code, out, err = run_cli(
        capsys, "hb", trace("two_wr_pairs.trace"), "--format", "json-lines"
    )
    assert code == 2 and out == ""
    assert err == "error: format 'json-lines' is not supported by 'hb'\n"
    code, out, err = run_cli(
        capsys, "sat", trace("two_wr_pairs.trace"), "--format", "dot"
    )
    assert code == 2 and out == ""
    assert err == "error: format 'dot' is not supported by 'sat'\n"
    code, _, err = run_cli(
        capsys, "enumerate", trace("two_wr_pairs.trace"),
        "--relation", "maz", "--format", "dot",
    )
    assert code == 2 and err.startswith("error:")


def test_bounds_must_be_positive(capsys):
    code, _, err = run_cli(
        capsys, "enumerate", trace("two_wr_pairs.trace"),
        "--relation", "maz", "--swap-bound", "0",
    )
    assert code == 2 and err == "error: enumeration bounds must be positive\n"


def test_bad_block_selector(capsys):
    code, _, err = run_cli(
        capsys, "bhb", trace("two_wr_pairs.trace"), "--blocks", "writes=2"
    )
    assert code == 2 and err.startswith("error:")


@pytest.mark.parametrize("command", (
    ("bhb",),
    ("atomicity",),
    ("concurrent", "--mode", "blocks", "--events", "1", "2"),
    ("enumerate", "--relation", "blocks"),
    ("annotate",),
    ("sat",),
))
def test_block_selector_takes_ascii_digits_only(capsys, command):
    # '²' and '٣' are digits to str.isdigit, and int() reads the second
    for token in ("\u00b2", "\u0663"):
        code, out, err = run_cli(
            capsys, command[0], trace("two_wr_pairs.trace"), "--blocks", "writes=" + token, *command[1:]
        )
        assert (code, out) == (2, "")
        assert err == "error: bad write position %r in block selector\n" % token


def test_non_utf8_trace_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.trace"
    bad.write_bytes(b"T1 w x\nT2 r \xff\n")
    for command in ("validate", "hb", "atomicity"):
        code, out, err = run_cli(capsys, command, str(bad))
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1


def test_enumerate_rejects_negative_limit(capsys):
    code, out, err = run_cli(
        capsys, "enumerate", trace("conciseness_n2.trace"),
        "--relation", "blocks", "--limit", "-1",
    )
    assert code == 2 and out == ""
    assert err.startswith("error:")


def test_atomicity_witness_of_empty_trace(tmp_path, capsys):
    empty = tmp_path / "empty.trace"
    empty.write_text("# nothing happens\n")
    code, out, _ = run_cli(capsys, "atomicity", str(empty), "--witness")
    assert code == 0
    assert out == "liberally-atomic: yes\nconflict-serializable: yes\nwitness:\n"


def test_concurrent_events_bad_marking_names_user_events(tmp_path, capsys):
    ill = tmp_path / "ill.trace"
    ill.write_text("T1 w x @\nT2 r x\n")
    code, _, err = run_cli(
        capsys, "concurrent", str(ill), "--events", "1", "2", "--mode", "blocks"
    )
    assert code == 2
    assert err == "error: write T1 w x #1 is marked but its reader T2 r x #1 is not\n"


def test_random_bytes_never_escape_main(tmp_path, capsys):
    # Most lines are well-formed trace lines, so that many inputs reach
    # the analyses; the rest are drawn from syntax pieces and arbitrary
    # bytes, for parse and decoding errors.  Block selectors and query
    # symbols are drawn the same way, with non-ASCII digits, signs,
    # empty fields and stray commas among their pieces.
    rng = random.Random(2024)
    pieces = [b"T1", b"T2", b" w ", b" r ", b"x", b"y", b" @", b"#", b" ", b"\r"]
    positions = ["1", "2", "3", "12", "0", "+1", "-2", " 3", "", "\u00b2", "\u0663", "1_0", "x"]
    words = ["T1", "T2", "r", "w", "x", "y", "@", "", "\u00b2", "#"]

    def line():
        if rng.random() < 0.8:
            thread = b"T%d" % rng.randint(1, 3)
            op, var = rng.choice([b"r", b"w"]), rng.choice([b"x", b"y"])
            return b" ".join([thread, op, var] + [b"@"] * rng.randint(0, 1))
        return b"".join(
            rng.choice(pieces) if rng.random() < 0.8 else bytes([rng.randrange(256)])
            for _ in range(rng.randint(0, 6))
        )

    def selector():
        if rng.random() < 0.2:
            return rng.choice(["all", "none", "writes", "writes=", "", ","])
        return "writes=" + ",".join(rng.choice(positions) for _ in range(rng.randint(0, 3)))

    def symbol():
        if rng.random() < 0.7:
            parts = ["T%d" % rng.randint(1, 3), rng.choice("rw"), rng.choice("xy")]
            return " ".join(parts + ["@"] * rng.randint(0, 1))
        return " ".join(rng.choice(words) for _ in range(rng.randint(0, 5)))

    commands = (
        ("validate",),
        ("hb",),
        ("bhb",),
        ("atomicity", "--witness"),
        ("concurrent", "--events", "1", "2", "--mode", "blocks"),
        ("concurrent", "--c", "T1 w x", "--d", "T2 r x", "--mode", "general"),
        ("enumerate", "--relation", "blocks"),
        ("annotate",),
        ("sat",),
    )
    takes_blocks = commands[2:5] + commands[6:]

    def drawn():
        # each command that takes --blocks once more with a drawn selector,
        # and a symbol query with drawn symbols and mode
        return [(*c, "--blocks", selector()) for c in takes_blocks] + [
            ("concurrent", "--c", symbol(), "--d", symbol(), "--mode", rng.choice(MODES))
        ]

    path = tmp_path / "fuzz.trace"
    for _ in range(200):
        data = b"\n".join(line() for _ in range(rng.randint(0, 6)))
        path.write_bytes(data)
        for command in commands + tuple(drawn()):
            code = main([command[0], str(path), *command[1:]])
            assert code in (0, 1, 2, 3), (data, command)
        text = data.decode("latin-1")
        code = main(["gen-hardness", "--a=" + text[:3], "--b=" + text[3:6]])
        assert code in (0, 1, 2, 3), data
    capsys.readouterr()


@pytest.mark.parametrize("argv", (
    ("hb", trace("two_wr_pairs.trace"), "--seed", "3"),
    ("gen-hardness", "--a", "1", "--b", "1", "--rf-bound", "5"),
    ("atomicity", trace("two_wr_pairs.trace"), "--swap-bound", "9"),
))
def test_enumeration_options_belong_to_enumerate(capsys, argv):
    # only enumerate reads the bounds and the sampling seed; argparse
    # rejects them on every other command
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_sat_rejects_zero_dump_interval(capsys):
    code, out, err = run_cli(capsys, "sat", trace("two_wr_pairs.trace"), "--dump-state-every", "0")
    assert (code, out) == (2, "")
    assert err == "error: --dump-state-every needs a positive count\n"
