"""Static checks of the package source, on its syntax trees.

Every module uses every name it imports.  No linter is part of the
toolchain, so this is the one check that a deleted helper leaves no stray
import behind.  A name counts as used where the module reads it, in code
or in a quoted annotation, or lists it in ``__all__``, which re-exports it.

No ``with np.errstate(...)`` sits in the body of a ``for`` or ``while``
loop: entering one costs about a microsecond, so a stepping loop holds one
errstate around the whole loop, and the helpers it calls run under it.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "valiron"


def _imported(tree: ast.Module) -> dict:
    """Name bound by each import of the module -> the line of the import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names[(alias.asname or alias.name).split(".")[0]] = node.lineno
    return names


def _read(tree: ast.AST) -> set:
    """Names the module reads, in code, in quoted annotations and in ``__all__``."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        note = getattr(node, "returns" if isinstance(node, ast.FunctionDef) else "annotation", None)
        if isinstance(note, ast.Constant) and isinstance(note.value, str):
            used |= _read(ast.parse(note.value, mode="eval"))
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {elt.value for elt in node.value.elts}
    return used


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _read(tree)
    unused = {name: line for name, line in _imported(tree).items() if name not in used}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_an_unused_import_is_found():
    tree = ast.parse("import math\nfrom os import path, sep\nprint(sep)\n")
    assert {n for n in _imported(tree) if n not in _read(tree)} == {"math", "path"}


def _errstates_in_loops(tree: ast.AST) -> list:
    """Lines of the ``with ....errstate(...)`` statements inside a loop's body."""
    lines = set()
    for loop in ast.walk(tree):
        if isinstance(loop, (ast.For, ast.AsyncFor, ast.While)):
            for node in ast.walk(loop):
                if isinstance(node, (ast.With, ast.AsyncWith)) and any(
                        isinstance(item.context_expr, ast.Call)
                        and isinstance(item.context_expr.func, ast.Attribute)
                        and item.context_expr.func.attr == "errstate" for item in node.items):
                    lines.add(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_errstate_is_entered_per_loop_step(path):
    lines = _errstates_in_loops(ast.parse(path.read_text(), filename=str(path)))
    assert not lines, f"{path.name} enters np.errstate inside a loop, on lines {lines}"


def test_an_errstate_in_a_loop_is_found():
    tree = ast.parse(
        "with np.errstate(over='ignore'):\n    pass\n"
        "for k in range(3):\n    if k:\n        with np.errstate(invalid='ignore'), open(f):\n"
        "            pass\n"
        "while True:\n    with numpy.errstate(over='ignore'):\n        break\n")
    assert _errstates_in_loops(tree) == [5, 8]
