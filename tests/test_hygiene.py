"""Source hygiene: every module in the package, the scripts and the tests
uses each name it imports, and every module-level function and class of the
package is read somewhere outside its own definition."""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(
    p
    for folder in ("src/qlan", "scripts", "tests")
    for p in (ROOT / folder).glob("*.py")
)


def unused_imports(tree: ast.AST) -> list[str]:
    """Names bound by import statements that no expression reads.
    `from __future__ import ...` binds nothing and is exempt."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # `import a.b` binds `a`
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def read_names(tree: ast.AST) -> list[str]:
    """Every name an expression reads, bare or as an attribute."""
    return [
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    ]


def unreferenced_definitions(module: ast.Module, trees: list[ast.AST]) -> list[str]:
    """Module-level functions and classes of `module` that no expression in
    `trees` reads, not counting reads inside the definition itself."""
    reads = Counter(name for tree in trees for name in read_names(tree))
    return [
        f"line {node.lineno}: {node.name}"
        for node in module.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and reads[node.name] == read_names(node).count(node.name)
    ]


def test_sources_found():
    folders = {p.parent.name for p in SOURCES}
    assert folders == {"qlan", "scripts", "tests"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert unused_imports(tree) == []


def test_no_unreferenced_definitions():
    trees = {p: ast.parse(p.read_text(), filename=str(p)) for p in SOURCES}
    dead = {
        p.name: unreferenced_definitions(tree, list(trees.values()))
        for p, tree in trees.items()
        if p.parent.name == "qlan"
    }
    assert {name: found for name, found in dead.items() if found} == {}


def test_definition_scan_ignores_self_reference():
    module = ast.parse(
        "def loop(k):\n    return loop(k - 1) if k else 0\n"
        "def used():\n    return 1\n"
        "class Box:\n    pass\n"
    )
    caller = ast.parse("import m\nx = m.used()\ny: m.Box\n")
    assert unreferenced_definitions(module, [module, caller]) == ["line 1: loop"]


def test_scan_sees_unused_and_used_names():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import math\nimport os.path\nimport numpy as np\n"
        "from itertools import chain, product as prod\n"
        "x = np.zeros(2)\ny = os.path.join\n"
        "def f(a: chain) -> None: ...\n"
    )
    assert unused_imports(tree) == ["line 2: math", "line 5: prod"]
