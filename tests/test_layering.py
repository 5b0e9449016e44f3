"""Every pdisk module imports at its top, never inside a function or for type checking.

A function-local import, or one under ``if TYPE_CHECKING:``, is how a module
reaches a module above it.  The one exception is ``field``'s ``polyring``
import: ``FieldSpec`` tests its modulus with ``polyring.factor_degrees``,
and ``polyring`` reaches ``field`` again through the kernels, so a top-level
import would be a cycle at load time.

Every definition is used by the package's code, not merely named in a
docstring, so no helper outlives its last caller; ``DEAD_ALLOWED`` names
each exception and why it stays.  A definition only the tests read lives in
``tests/conftest.py``.  Because a name can answer to two definitions, a fixed
traffic also runs under a profiler, and every function the package defines
must be entered from the package's own code.  Every imported name is used or
exported.  The scripts in ``benchmarks/`` run outside the test suite, so
every pdisk name they import or read off a pdisk module is checked to exist.
Within the kernels, only an allow-listed set of functions compares k, so a
sum of products forks on the kind of field in ``_linear`` alone.
"""

from __future__ import annotations

import ast
import functools
import importlib
import json
import os
import sys
from collections import Counter
from pathlib import Path
from types import FrameType, ModuleType

import pytest

import pdisk
from pdisk import cli, verify

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
    "SeriesMatrix.map_entries": "public API that checks what a caller's function returns; "
    "the package maps by functions that keep entries agreeing, through SeriesMatrix._map",
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


# imports kept though the module never reads them, each with its reader
UNUSED_IMPORT_ALLOWED = {
    ("hitchin.py", "char_invariants"): "re-export: perfbench's span pdisk.hitchin.char_invariants",
}


def unused_imports(tree: ast.Module) -> list[str]:
    """Each name the module imports that its code never loads and its ``__all__`` does not list."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # ``import a.b`` binds a
            imported.extend(alias.asname or alias.name.partition(".")[0] for alias in node.names)
    loaded = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    exported = {
        c.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for c in ast.walk(node.value)
        if isinstance(c, ast.Constant) and isinstance(c.value, str)
    }
    return [name for name in imported if name not in loaded and name not in exported]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path: Path) -> None:
    unused = unused_imports(ast.parse(path.read_text(), filename=str(path)))
    assert [n for n in unused if (path.name, n) not in UNUSED_IMPORT_ALLOWED] == []
    # an allowlisted import that is read, or gone, leaves the list
    assert sorted(unused) == sorted(n for m, n in UNUSED_IMPORT_ALLOWED if m == path.name)


def test_an_unread_import_is_found() -> None:
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from .series import TruncSeries, format_element, format_series\n"
        "from .field import FieldSpec as F\n"
        "__all__ = ['format_series']\n"
        "def f(s: TruncSeries) -> None:\n    return os.path.join(str(s))\n"
    )
    assert unused_imports(ast.parse(source)) == ["format_element", "F"]


# functions the traffic below never enters from package code, each with why it stays
UNREACHED_ALLOWED = {
    "cli:main": "the entry point: the console script calls it",
    "matrix:SeriesMatrix.from_rows": "README API: the README builds matrices with it",
    "matrix:SeriesMatrix.map_entries": "public API that checks what a caller's function "
    "returns; the package maps through SeriesMatrix._map",
    "series:TruncSeries.__str__": "the printed form: the README reads it, and verify writes it "
    "only into the certificate of a failed property",
}


def defined_functions(tree: ast.Module, module: str) -> list[str]:
    """module:qualified name of every function and method, nested ones too, as co_qualname spells it."""
    found = []

    def visit(body: list[ast.stmt], prefix: str) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.append(f"{module}:{prefix}{node.name}")
                visit(node.body, f"{prefix}{node.name}.<locals>.")
            elif isinstance(node, ast.ClassDef):
                visit(node.body, f"{prefix}{node.name}.")

    visit(tree.body, "")
    return found


def _passes_through(frame: FrameType) -> bool:
    """Generated code (dataclass __init__) and functools (cached_property) call on behalf of their caller."""
    filename = frame.f_code.co_filename
    return filename.startswith("<") or filename == functools.__file__


def reached_from_package(run) -> set[str]:
    """module:qualified name of each pdisk function entered from a pdisk frame while run() runs."""
    prefix = os.path.dirname(pdisk.__file__) + os.sep
    found = set()

    def profile(frame: FrameType, event: str, arg) -> None:
        code = frame.f_code
        if event != "call" or not code.co_filename.startswith(prefix):
            return
        caller = frame.f_back
        while caller is not None and _passes_through(caller):
            caller = caller.f_back
        if caller is not None and caller.f_code.co_filename.startswith(prefix):
            found.add(f"{Path(code.co_filename).stem}:{code.co_qualname}")

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return found


F9_HEADER = {"p": 3, "ext_degree": 2, "modulus": [1, 0, 1]}
CLI_DOCUMENTS = {
    "conn3": {"p": 3, "var": "z", "precision": 13, "rank": 2, "matrix": [["0", "1"], ["z", "0"]]},
    "conn2": {"p": 2, "var": "z", "precision": 8, "rank": 1, "matrix": [["1"]]},
    "form": {"p": 3, "var": "z", "precision": 6, "coefficient": "1 + z^2 + z^5"},
    "zeta9": dict(F9_HEADER, element=[1, 2]),
    "form9": dict(F9_HEADER, var="z", precision=6, coefficient="[1,1] + z^2"),
    "unit9": dict(F9_HEADER, var="z", precision=5, series="[1,1] + [0,2]*z + z^3"),
    "target": {"p": 3, "var": "z'", "precision": 3, "coefficient": "1 + z"},
    "unit": {"p": 3, "var": "z", "precision": 5, "series": "1 + z"},
    "power": {"p": 3, "var": "z", "precision": 7, "series": "1 + 2*z^3"},
    # z is no p-th power: descend reports NotAPthPower, exit 1
    "no-power": {"p": 3, "var": "z", "precision": 7, "series": "1 + z"},
    # no precision: a SchemaError, exit 2
    "malformed": {"p": 2, "var": "z"},
}


def cli_traffic(tmp_path: Path) -> None:
    """cli.main once per subcommand on small documents: two over F_9, one malformed, one refused."""
    path = {name: tmp_path / f"{name}.json" for name in [*CLI_DOCUMENTS, "pkg", "datum", "higgs", "inverse"]}
    for name, doc in CLI_DOCUMENTS.items():
        path[name].write_text(json.dumps(doc))
    assert cli.main(["solve-harmonic", "-i", str(path["conn2"]), "-o", str(path["pkg"])]) == 0
    pkg = json.loads(path["pkg"].read_text())
    path["datum"].write_text(json.dumps(pkg["harmonic"]))
    path["higgs"].write_text(json.dumps(pkg["higgs"]))
    # at p = 2 theta is its own negative, so the flipped sign alone is the inverse datum
    path["inverse"].write_text(json.dumps(dict(pkg["harmonic"], curvature_sign=-1)))
    runs = [
        (["pcurv", "-i", path["conn3"]], 0),
        (["invariants", "-i", path["conn3"]], 0),
        (["phitchin", "-i", path["conn3"]], 0),
        (["cartier", "-i", path["form"]], 0),
        (["hp", "-i", path["zeta9"], "-i", path["form9"]], 0),
        (["solve-hp", "-i", path["target"]], 0),
        (["dlog", "-i", path["unit"]], 0),
        (["dlog", "-i", path["unit9"]], 0),
        (["descend", "-i", path["power"]], 0),
        (["descend", "-i", path["no-power"]], 1),
        (["pcurv", "-i", path["malformed"]], 2),
        (["cmap", "-i", path["datum"], "-i", path["higgs"]], 0),
        (["cinv", "-i", path["inverse"], "-i", path["conn2"]], 0),
        (["verify", "--suite", "pcurv", "--p", "2", "--rank", "1", "--trials", "1"], 0),
    ]
    for argv, code in runs:
        assert cli.main([*map(str, argv), "-o", os.devnull]) == code, argv


def test_every_member_is_reached(tmp_path: Path, capsys) -> None:
    def traffic() -> None:
        verify.run_suite("all", [2, 3], [1, 2], None, 1, 0)
        cli_traffic(tmp_path)

    reached = reached_from_package(traffic)
    err = capsys.readouterr().err
    assert '"code": "SchemaError"' in err and '"code": "NotAPthPower"' in err
    defined = [
        name
        for path in sorted(SRC.glob("*.py"))
        for name in defined_functions(ast.parse(path.read_text()), path.stem)
    ]
    unreached = [name for name in defined if name not in reached]
    assert [n for n in unreached if n not in UNREACHED_ALLOWED] == []
    # an allowlisted member the traffic reaches, or that is gone, leaves the list
    assert sorted(unreached) == sorted(UNREACHED_ALLOWED)


def test_reached_counts_only_calls_from_the_package() -> None:
    m = pdisk.SeriesMatrix.identity(pdisk.FieldSpec(3), "z", 2, 4)
    reached = reached_from_package(lambda: m.inverse().truncate(3))
    # the test's own calls do not count; the elimination inverse runs does, and so
    # do the kernel it calls, the series inverse of each pivot inside that kernel,
    # and the entries' truncate under truncate's _map
    assert "matrix:SeriesMatrix.inverse" not in reached
    assert "matrix:SeriesMatrix.truncate" not in reached
    assert {
        "matrix:SeriesMatrix._eliminate",
        "_kernels_py:series_matinv",
        "_kernels_py:series_inv",
        "matrix:SeriesMatrix._map",
        "series:TruncSeries.truncate",
    } <= reached


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
        "kernels.series_sum_mul\n"
        "kernels._linear(0, 0, 2, 1, None)\n"
        "kernels.gone_oracle([], [], 0, 2)\n"
        "series.dot\n"
    )
    assert missing_pdisk_names(ast.parse(source)) == [
        "pdisk.matrix.gone_helper",
        "pdisk._kernels_py.gone_oracle",
    ]


# The functions of _kernels_py that may compare k: the six elementwise
# kernels and _linear, the one sum of products that series_sum_mul,
# series_pcurv and the matrix kernels run through.
K_FORKS_ALLOWED = {
    "series_add",
    "series_sub",
    "series_neg",
    "series_derivative",
    "series_dot",
    "series_inv",
    "_linear",
}


def k_forks(tree: ast.Module) -> set[str]:
    """The module-level functions with a comparison of the name ``k`` anywhere in their body."""
    return {
        node.name
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and any(
            isinstance(c, ast.Compare)
            and any(isinstance(x, ast.Name) and x.id == "k" for x in (c.left, *c.comparators))
            for c in ast.walk(node)
        )
    }


def test_sums_of_products_fork_on_k_in_linear_only() -> None:
    tree = ast.parse((SRC / "_kernels_py.py").read_text())
    assert k_forks(tree) == K_FORKS_ALLOWED


def test_a_k_fork_in_the_recursion_is_found() -> None:
    tree = ast.parse((SRC / "_kernels_py.py").read_text())
    pcurv = next(
        n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "series_pcurv"
    )
    pcurv.body.insert(1, ast.parse("if k > 1:\n    return x").body[0])
    assert k_forks(tree) == K_FORKS_ALLOWED | {"series_pcurv"}
