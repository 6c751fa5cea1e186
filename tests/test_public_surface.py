"""Every public name of ``blockeq`` has a user outside the tests.

A name in ``blockeq.__all__`` must be referenced, outside its own
definition, by a module of the package other than ``__init__``, by a
file of the benchmark under ``perfbench/``, or by ``README.md``.  Python
files count the names they read (names, attributes, imports and string
constants that name something, such as the benchmark's traced function
names); the README counts every whole-word mention.  Reference code
that only the tests call belongs in ``tests/oracles.py``.
"""

import ast
import re
from pathlib import Path

import blockeq

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "blockeq"
IDENTIFIER = re.compile(r"[A-Za-z_]\w*\Z")


def python_uses(path):
    """The identifiers a Python file reads.  A definition's own name is
    not read by its ``def`` or ``class`` statement, so it counts only
    where some other code refers to it."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.update(node.name.split("."))
        elif isinstance(node, ast.ImportFrom) and node.module:
            used.update(node.module.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if IDENTIFIER.match(node.value):
                used.add(node.value)
    return used


def outside_uses():
    files = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    files += sorted((ROOT / "perfbench").glob("*.py"))
    used = set()
    for path in files:
        used |= python_uses(path)
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    used |= set(re.findall(r"[A-Za-z_]\w*", readme))
    return used


def test_every_public_name_has_a_user_outside_the_tests():
    used = outside_uses()
    unused = sorted(name for name in blockeq.__all__ if name not in used)
    assert not unused, "public names that only tests use: %s" % ", ".join(unused)


def test_a_definition_alone_is_not_a_use(tmp_path):
    path = tmp_path / "module.py"
    path.write_text("def lonely():\n    pass\n\n\nclass Alone:\n    pass\n")
    assert not {"lonely", "Alone"} & python_uses(path)
