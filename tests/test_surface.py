"""No uncalled code in ``src/``: every name has a caller outside the tests.

Each public top-level function and class of ``lagmatch``, and each public
method of a public class, must be read by code other than its own
definition: elsewhere in ``src/`` (words in docstrings and comments do not
count), or as a word in the acceptance suite or the benchmark, which looks
some names up as strings.  A function or plain method counts as read by
its name alone, as a name, an attribute or an imported name, even where
another class defines the same name.  A classmethod or staticmethod counts
as read only in the form ``Class.method``: as an attribute of its class's
name in ``src/``, or as those words joined by a dot outside it.  Each
private top-level function and class (a ``_name`` that is not a dunder)
must be read by name in ``src/`` itself.  A name that only the unit tests
use is an input format, option or second implementation that the program
does not need.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "lagmatch"

# Names kept with no caller outside the unit tests, each for a reason.
ALLOWED: dict[str, str] = {}


def _definitions(src):
    """(qualified name, read that counts, file, first line, last line) of each checked name.

    The read is a tuple: (name,) for a function, class or plain method,
    (class, name) for a classmethod or staticmethod.
    """
    def span(node):
        return min([node.lineno] + [d.lineno for d in node.decorator_list]), node.end_lineno

    for path in sorted(src.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("__"):
                continue
            yield (node.name, (node.name,), path, *span(node))
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        bound = any(isinstance(d, ast.Name) and d.id in ("classmethod", "staticmethod")
                                    for d in item.decorator_list)
                        read = (node.name, item.name) if bound else (item.name,)
                        yield (f"{node.name}.{item.name}", read, path, *span(item))


def _reads(tree):
    """(read, line) of each name, attribute and imported name the code of a module reads.

    An attribute of a bare name is read twice: as (attribute,) and as (name, attribute).
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield (node.id,), node.lineno
        elif isinstance(node, ast.Attribute):
            yield (node.attr,), node.lineno
            if isinstance(node.value, ast.Name):
                yield (node.value.id, node.attr), node.lineno
        elif isinstance(node, ast.alias):
            yield (node.name,), node.lineno


def _uncalled(src, outside):
    """Qualified names defined in the modules of ``src`` that neither they nor ``outside`` read."""
    reads = {path: list(_reads(ast.parse(path.read_text(encoding="utf-8")))) for path in src.glob("*.py")}
    for qualname, key, path, first, last in _definitions(src):
        words = r"\.".join(map(re.escape, key))
        if not key[-1].startswith("_") and re.search(rf"\b{words}\b", outside):
            continue
        if not any(read == key and (p != path or not first <= line <= last)
                   for p, lines in reads.items() for read, line in lines):
            yield qualname


def test_every_public_name_has_a_caller_outside_the_tests():
    """The allowlist is exactly the uncalled names: an entry that gains a caller leaves it."""
    outside = "\n".join(
        [(ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8")]
        + [path.read_text(encoding="utf-8") for path in sorted((ROOT / "perfbench").glob("*.py"))]
    )
    uncalled = set(_uncalled(SRC, outside))
    assert uncalled == ALLOWED.keys(), (sorted(uncalled - ALLOWED.keys()), sorted(ALLOWED.keys() - uncalled))


def test_repeated_names_and_class_level_reads(tmp_path):
    """A classmethod read only through another class, and a repeated name nothing reads.

    ``A.zero`` is read, so ``B.zero`` is not, although its name is.  No
    code reads ``size``, so both classes' ``size`` are reported: a name
    that two classes define is checked like any other.
    """
    (tmp_path / "shapes.py").write_text(
        "class A:\n"
        "    @classmethod\n"
        "    def zero(cls):\n"
        "        return cls()\n"
        "\n"
        "    def size(self):\n"
        "        return 0\n"
        "\n"
        "\n"
        "class B:\n"
        "    @classmethod\n"
        "    def zero(cls):\n"
        "        return cls()\n"
        "\n"
        "    def size(self):\n"
        "        return 1\n"
        "\n"
        "\n"
        "def pair():\n"
        "    return A.zero(), B()\n",
        encoding="utf-8",
    )
    assert set(_uncalled(tmp_path, "pair()")) == {"A.size", "B.size", "B.zero"}
