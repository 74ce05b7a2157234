"""Source hygiene: every module in the package, the scripts and the tests
uses each name it imports."""

import ast
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


def test_sources_found():
    folders = {p.parent.name for p in SOURCES}
    assert folders == {"qlan", "scripts", "tests"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert unused_imports(tree) == []


def test_scan_sees_unused_and_used_names():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import math\nimport os.path\nimport numpy as np\n"
        "from itertools import chain, product as prod\n"
        "x = np.zeros(2)\ny = os.path.join\n"
        "def f(a: chain) -> None: ...\n"
    )
    assert unused_imports(tree) == ["line 2: math", "line 5: prod"]
