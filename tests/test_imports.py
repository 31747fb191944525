"""No dead code at module level: every import is used, and every private
name of the package is read.  No undeclared dependency: the package imports
only the standard library, numpy (its one declared dependency) and itself.

No linter ships with the project, so this walks the source with `ast`.  A
name bound by a top-level `import` in the package, the tests, the scripts
or the benchmark harness must be read somewhere in its module or, in a
package `__init__`, be re-exported through `__all__`.  A private module-level name of the package
(`_x`, not a dunder) must be read in its own module, which catches helpers
that a refactor leaves behind.
"""
import ast
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = sorted(ROOT.glob("src/tkhist/*.py"))
FILES = sorted([*PACKAGE, *ROOT.glob("tests/*.py"), *ROOT.glob("scripts/*.py"),
                *ROOT.glob("perfbench/*.py")])


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".", 1)[0]
                bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:  # names re-exported through __all__
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(bound.items())
            if name not in used]


def unread_private_names(source: str) -> list[str]:
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.endswith("__"):
                bound.setdefault(name, node.lineno)
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [f"line {line}: {name}" for name, line in sorted(bound.items())
            if name not in read]


def foreign_imports(source: str) -> list[str]:
    """Top-level packages imported anywhere in `source`, relative imports
    aside, that are neither the standard library, numpy nor tkhist."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".", 1)[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".", 1)[0])
    return sorted(names - set(sys.stdlib_module_names) - {"numpy", "tkhist"})


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", PACKAGE,
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_private_names_are_read(path):
    assert unread_private_names(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", PACKAGE,
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_package_imports_only_declared_dependencies(path):
    assert foreign_imports(path.read_text(encoding="utf-8")) == []


def test_dependency_checker_flags_and_exempts():
    src = ("import zlib, numpy.linalg as la\nfrom . import state\n"
           "from tkhist.errors import StateError\nimport scipy.sparse\n"
           "def f():\n    from yaml import safe_load\n")
    assert foreign_imports(src) == ["scipy", "yaml"]


def test_checker_flags_and_exempts():
    src = ("from __future__ import annotations\n"
           "import os\nimport os.path\nimport numpy as np\n"
           "from x import a, b\n__all__ = ['a']\n"
           "def f() -> np.ndarray:\n    return b\n")
    assert unused_imports(src) == ["line 3: os"]


def test_private_checker_flags_and_exempts():
    src = ("import _thread\n_A, _B = 1, 2\n__version__ = '1'\n"
           "_C: int = 3\n_C = 4\n"
           "def _used():\n    return _A\n"
           "def _dead():\n    return 5\n"
           "class _K:\n    _attr = 6\n"
           "public = _used()\n")
    assert unread_private_names(src) == [
        "line 2: _B", "line 4: _C", "line 10: _K", "line 8: _dead"]
