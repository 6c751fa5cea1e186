"""The README's tours run as shown.

Each ``$ blockeq ...`` command of the command-line tour runs in-process
through ``cli.main`` from the repository root, and its output must be
the lines the README shows, or begin with those before a ``...`` line.
A pipe runs as two calls: the first one's output is saved to a file
that the second reads in place of ``/dev/stdin``.  The library tour
runs as written, and each line whose comment opens with ``True`` or
``False`` must evaluate to that value.
"""

import re
import shlex
from pathlib import Path

import pytest

from blockeq.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def code_block(title, lang):
    """The first ``lang`` code block of the README section ``## title``."""
    section = README.split("\n## %s\n" % title, 1)[1].split("\n## ", 1)[0]
    return re.search(r"```%s\n(.*?)```" % lang, section, re.S).group(1)


def tour_commands():
    """(command line, shown output lines) for each ``$`` line of the
    command-line tour."""
    out = []
    for chunk in code_block("Command-line tour", "sh").strip().split("\n\n"):
        command, *shown = chunk.splitlines()
        assert command.startswith("$ "), chunk
        out.append((command[2:], shown))
    return out


TOUR = tour_commands()


@pytest.mark.parametrize("command, shown", TOUR, ids=[command.split()[1] for command, _ in TOUR])
def test_command_line_tour(command, shown, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(ROOT)
    stdin = tmp_path / "stdin"
    for stage in command.split(" | "):
        argv = shlex.split(stage, comments=True)
        assert argv[0] == "blockeq", command
        main([str(stdin) if a == "/dev/stdin" else a for a in argv[1:]])
        out = capsys.readouterr().out
        stdin.write_text(out)
    lines = out.splitlines()
    if "..." in shown:
        shown = shown[:shown.index("...")]
        lines = lines[:len(shown)]
    assert lines == shown, command


def test_library_tour(monkeypatch):
    monkeypatch.chdir(ROOT)
    code = code_block("Library tour", "python")
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    claims = re.findall(r"^(\S.*?)\s+# (True|False)\b", code, re.M)
    assert claims
    for expr, value in claims:
        assert eval(expr, namespace) is (value == "True"), expr
