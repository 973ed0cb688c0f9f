"""Import rules for the modules of the package.

Every name a module imports is used in that module; no module imports
dataclasses; multiprocessing is imported only inside a function, so
that `import exptriple` does not load it.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "exptriple"


def unused_imports(source: str) -> list[str]:
    """Names bound by an import and never read, outside __future__ and __all__."""
    tree = ast.parse(source)
    imported, exported = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.add(alias.asname or alias.name)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read - exported)


def test_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os, sys\nfrom math import gcd as g\n"
    assert unused_imports(source + "__all__ = ['sys']\n") == ["g", "os"]
    assert unused_imports(source + "print(os.sep, g)\n") == ["sys"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _imported(node: ast.AST) -> set[str]:
    """Top-level names of the modules an absolute import statement loads."""
    if isinstance(node, ast.Import):
        return {alias.name.split(".")[0] for alias in node.names}
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return {node.module.split(".")[0]}
    return set()


def all_imports(source: str) -> set[str]:
    return set().union(*(_imported(node) for node in ast.walk(ast.parse(source))))


def imports_outside_functions(source: str) -> set[str]:
    """Modules imported where running the module, or a class body, loads them."""
    found: set[str] = set()

    def visit(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.update(_imported(child))
                visit(child)

    visit(ast.parse(source))
    return found


def test_finds_imports_outside_functions():
    source = (
        "import os.path, sys\nfrom . import arith\nfrom json import dumps\n"
        "class C:\n    import csv\n    def f(self):\n        import math\n"
        "def g():\n    from multiprocessing import Pool\n"
        "if sys:\n    import random\n"
    )
    assert imports_outside_functions(source) == {"os", "sys", "json", "csv", "random"}
    assert all_imports(source) == {"os", "sys", "json", "csv", "math", "multiprocessing", "random"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_dataclasses(path):
    assert "dataclasses" not in all_imports(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_multiprocessing_only_inside_functions(path):
    assert "multiprocessing" not in imports_outside_functions(path.read_text(encoding="utf-8"))
