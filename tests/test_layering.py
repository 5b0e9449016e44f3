"""Every pdisk module imports at its top, never inside a function or for type checking.

A function-local import, or one under ``if TYPE_CHECKING:``, is how a module
reaches a module above it.  The one exception is ``field``'s ``polyring``
import: ``FieldSpec`` tests its modulus with ``polyring.factor_degrees``,
and ``polyring`` reaches ``field`` again through the kernels, so a top-level
import would be a cycle at load time.

Every definition is named somewhere else in the package, so no helper
outlives its last caller.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

import pdisk

SRC = Path(__file__).resolve().parent.parent / "src" / "pdisk"
ALLOWED = {("field.py", "polyring")}


def _is_type_checking(test: ast.expr) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def deferred_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, module) of each import inside a function body or a TYPE_CHECKING block."""
    found = []

    def visit(node: ast.AST, deferred: bool) -> None:
        if isinstance(node, (ast.Import, ast.ImportFrom)) and deferred:
            if isinstance(node, ast.ImportFrom):
                names = ["." * node.level + (node.module or "")]
            else:
                names = [alias.name for alias in node.names]
            found.extend((node.lineno, name) for name in names)
        inner = deferred or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        if isinstance(node, ast.If) and _is_type_checking(node.test):
            for child in node.body:
                visit(child, True)
            for child in node.orelse:
                visit(child, inner)
            return
        for child in ast.iter_child_nodes(node):
            visit(child, inner)

    visit(tree, False)
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_at_top_level(path: Path) -> None:
    tree = ast.parse(path.read_text(), filename=str(path))
    offenders = [
        (line, name)
        for line, name in deferred_imports(tree)
        if (path.name, name.lstrip(".")) not in ALLOWED
    ]
    assert not offenders, f"{path.name}: deferred imports at {offenders}"


def test_the_exception_is_still_needed() -> None:
    tree = ast.parse((SRC / "field.py").read_text())
    assert [name for _, name in deferred_imports(tree)] == [".polyring"]


def test_every_export_resolves() -> None:
    # ``from pdisk import *`` fails on a name that ``__all__`` keeps after
    # its object is gone
    missing = [name for name in pdisk.__all__ if not hasattr(pdisk, name)]
    assert not missing
    assert len(set(pdisk.__all__)) == len(pdisk.__all__)


def test_detects_both_forms() -> None:
    tree = ast.parse(
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n    from .hitchin import InvariantTuple\n"
        "def f():\n    from .jsonio import format_series\n"
    )
    assert deferred_imports(tree) == [(3, ".hitchin"), (5, ".jsonio")]



# public API that no module of the package calls: the README builds matrices with it
DEAD_ALLOWED = {"SeriesMatrix.from_rows"}


def definitions(tree: ast.Module) -> list[tuple[str, str]]:
    """(qualified name, name) of each top-level function or class and each non-dunder method."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.name, node.name))
        if isinstance(node, ast.ClassDef):
            found.extend(
                (f"{node.name}.{item.name}", item.name)
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not (item.name.startswith("__") and item.name.endswith("__"))
            )
    return found


def test_no_dead_definitions() -> None:
    # a name is alive when the package's text, docstrings included, holds it
    # more often than it is defined: a call, an import, an export or a mention
    texts = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    words = Counter(w for text in texts.values() for w in re.findall(r"[A-Za-z_]\w*", text))
    defined = {
        module: definitions(ast.parse(text, filename=module)) for module, text in texts.items()
    }
    times_defined = Counter(name for defs in defined.values() for _, name in defs)
    dead = [
        f"{module}:{qualified}"
        for module, defs in defined.items()
        for qualified, name in defs
        if words[name] <= times_defined[name] and qualified not in DEAD_ALLOWED
    ]
    assert not dead, f"defined but never named elsewhere: {dead}"
