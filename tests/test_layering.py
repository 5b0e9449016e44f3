"""Every pdisk module imports at its top, never inside a function or for type checking.

A function-local import, or one under ``if TYPE_CHECKING:``, is how a module
reaches a module above it.  The one exception is ``field``'s ``polyring``
import: ``FieldSpec`` tests its modulus with ``polyring.factor_degrees``,
and ``polyring`` reaches ``field`` again through the kernels, so a top-level
import would be a cycle at load time.

Every definition is used by the package's code, not merely named in a
docstring, so no helper outlives its last caller; ``DEAD_ALLOWED`` names
each exception and why it stays.  A definition only the tests read lives in
``tests/conftest.py``.  The scripts in ``benchmarks/`` run outside the test
suite, so every pdisk name they import or read off a pdisk module is checked
to exist.
"""

from __future__ import annotations

import ast
import importlib
from collections import Counter
from pathlib import Path
from types import ModuleType

import pytest

import pdisk

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "pdisk"
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



# definitions the package never uses, each kept for a reason outside it
DEAD_ALLOWED = {
    "SeriesMatrix.from_rows": "README API: the README builds matrices with it",
}


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


def uses(tree: ast.Module) -> Counter:
    """Names the code uses: loaded names, attributes, imported names and __all__ strings.

    Docstrings and comments are not code, so a mention there is no use.
    """
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found[node.name.rpartition(".")[2]] += 1
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            found.update(
                c.value
                for c in ast.walk(node.value)
                if isinstance(c, ast.Constant) and isinstance(c.value, str)
            )
    return found


def dead_definitions(texts: dict[str, str]) -> list[str]:
    """module:qualified name of each definition no module of texts uses."""
    trees = {module: ast.parse(text, filename=module) for module, text in texts.items()}
    used = sum((uses(tree) for tree in trees.values()), Counter())
    return [
        f"{module}:{qualified}"
        for module, tree in trees.items()
        for qualified, name in definitions(tree)
        if not used[name]
    ]


def test_no_dead_definitions() -> None:
    dead = dead_definitions({path.name: path.read_text() for path in sorted(SRC.glob("*.py"))})
    unexplained = [d for d in dead if d.partition(":")[2] not in DEAD_ALLOWED]
    assert not unexplained, f"defined but never used: {unexplained}"
    # an allowlisted definition that is used, or gone, leaves the list
    assert sorted(d.partition(":")[2] for d in dead) == sorted(DEAD_ALLOWED)


def test_a_mention_is_not_a_use() -> None:
    source = (
        '"""helper and other are named here only."""\n'
        "def helper():\n    pass\n"
        "def other():\n    pass\n"
        "def caller():\n    # helper\n    return other()\n"
        "__all__ = ['caller']\n"
    )
    assert dead_definitions({"m.py": source}) == ["m.py:helper"]


def missing_pdisk_names(tree: ast.Module) -> list[str]:
    """Each pdisk name a script imports, or reads or sets on a pdisk module, that does not exist."""
    modules: dict[str, ModuleType] = {}
    missing = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "pdisk":
                    # ``import pdisk.x`` binds pdisk, ``import pdisk.x as y`` binds x
                    bound = alias.name if alias.asname else "pdisk"
                    modules[alias.asname or "pdisk"] = importlib.import_module(bound)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module.split(".")[0] != "pdisk":
                continue
            module = importlib.import_module(node.module)
            for alias in node.names:
                if not hasattr(module, alias.name):
                    missing.append(f"{node.module}.{alias.name}")
                elif isinstance(getattr(module, alias.name), ModuleType):
                    modules[alias.asname or alias.name] = getattr(module, alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            module = modules.get(node.value.id)
            if module is not None and not hasattr(module, node.attr):
                missing.append(f"{module.__name__}.{node.attr}")
    return missing


@pytest.mark.parametrize(
    "path", sorted((ROOT / "benchmarks").glob("*.py")), ids=lambda p: p.name
)
def test_benchmark_scripts_resolve(path: Path) -> None:
    tree = ast.parse(path.read_text(), filename=str(path))
    assert not missing_pdisk_names(tree), f"{path.name} reads names pdisk lacks"


def test_a_stale_benchmark_name_is_found() -> None:
    source = (
        "import pdisk._kernels_py as kernels\n"
        "from pdisk import series\n"
        "from pdisk.matrix import SeriesMatrix, gone_helper\n"
        "kernels.KRONECKER_MIN = 0\n"
        "kernels._kronecker_sum_mul([], 0, 2)\n"
        "kernels.gone_oracle([], [], 0, 2)\n"
        "series.dot\n"
    )
    assert missing_pdisk_names(ast.parse(source)) == [
        "pdisk.matrix.gone_helper",
        "pdisk._kernels_py.gone_oracle",
    ]
