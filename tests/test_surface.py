"""No uncalled code in ``src/``: every name has a caller outside the tests.

Each public top-level function and class of ``lagmatch``, and each public
method whose name is defined only once there, must be read by code other
than its own definition: as a name, an attribute or an imported name
elsewhere in ``src/`` (words in docstrings and comments do not count), or
as a word in the acceptance suite or the benchmark, which looks some names
up as strings.  Each private top-level function and class (a ``_name``
that is not a dunder) must be read that way in ``src/`` itself.  A name
that only the unit tests use is an input format, option or second
implementation that the program does not need.
"""

import ast
import pathlib
import re
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "lagmatch"

# Names kept with no caller outside the unit tests, each for a reason.
ALLOWED: dict[str, str] = {}


def _definitions():
    """(qualified name, bare name, file, first line, last line) of each checked name."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    defined = Counter(node.name for tree in trees.values() for node in ast.walk(tree)
                      if isinstance(node, (ast.FunctionDef, ast.ClassDef)))

    def span(node):
        return min([node.lineno] + [d.lineno for d in node.decorator_list]), node.end_lineno

    for path, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("__"):
                continue
            yield (node.name, node.name, path, *span(node))
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                            and defined[item.name] == 1):
                        yield (f"{node.name}.{item.name}", item.name, path, *span(item))


def _reads(tree):
    """(name, line) of each name, attribute and imported name the code of a module reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name, node.lineno


def _uncalled():
    reads = {path: list(_reads(ast.parse(path.read_text(encoding="utf-8")))) for path in SRC.glob("*.py")}
    outside = "\n".join(
        [(ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8")]
        + [path.read_text(encoding="utf-8") for path in sorted((ROOT / "perfbench").glob("*.py"))]
    )
    for qualname, name, path, first, last in _definitions():
        if not name.startswith("_") and re.search(rf"\b{re.escape(name)}\b", outside):
            continue
        if not any(read == name and (p != path or not first <= line <= last)
                   for p, lines in reads.items() for read, line in lines):
            yield qualname


def test_every_public_name_has_a_caller_outside_the_tests():
    """The allowlist is exactly the uncalled names: an entry that gains a caller leaves it."""
    uncalled = set(_uncalled())
    assert uncalled == ALLOWED.keys(), (sorted(uncalled - ALLOWED.keys()), sorted(ALLOWED.keys() - uncalled))
