"""Source hygiene: every module in the package, the scripts and the tests
uses each name it imports, and every module-level function and class of the
package is read somewhere outside its own definition.  The reference code
that only tests read lives in `qlan.oracle`: every other definition of the
package has a reader on the production path, and only the lemma verifiers
and the tests import the oracle."""

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


def production_readers(trees: dict[Path, ast.AST]) -> list[ast.AST]:
    """The trees whose reads keep a definition on the production path: the
    package modules other than the oracle, and the scripts."""
    return [
        tree
        for path, tree in trees.items()
        if path.parent.name in ("qlan", "scripts") and path.name != "oracle.py"
    ]


def imports_oracle(tree: ast.AST) -> bool:
    """True iff the module imports qlan.oracle, in absolute or (from inside
    the package) relative form."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(alias.name == "qlan.oracle" for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ("qlan" if node.level else "", node.module)))
            if module == "qlan.oracle" or (
                module == "qlan" and any(alias.name == "oracle" for alias in node.names)
            ):
                return True
    return False


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


def test_production_definitions_have_production_readers():
    trees = {p: ast.parse(p.read_text(), filename=str(p)) for p in SOURCES}
    readers = production_readers(trees)
    test_only = {
        p.name: unreferenced_definitions(tree, readers)
        for p, tree in trees.items()
        if p.parent.name == "qlan" and p.name != "oracle.py"
    }
    assert {name: found for name, found in test_only.items() if found} == {}


def test_only_verifiers_and_tests_import_the_oracle():
    importers = {
        f"{p.parent.name}/{p.name}"
        for p in SOURCES
        if p.parent.name != "tests" and imports_oracle(ast.parse(p.read_text()))
    }
    assert importers == {"qlan/experiments.py"}


def test_definition_scan_ignores_self_reference():
    module = ast.parse(
        "def loop(k):\n    return loop(k - 1) if k else 0\n"
        "def used():\n    return 1\n"
        "class Box:\n    pass\n"
    )
    caller = ast.parse("import m\nx = m.used()\ny: m.Box\n")
    assert unreferenced_definitions(module, [module, caller]) == ["line 1: loop"]


def test_production_scan_ignores_tests_and_oracle():
    module = ast.parse(
        "def scripted():\n    return 1\n"
        "def tested():\n    return 2\n"
        "def checked():\n    return 3\n"
        "def used():\n    return 4\n"
    )
    trees = {
        Path("src/qlan/m.py"): module,
        Path("src/qlan/oracle.py"): ast.parse("import m\nx = m.checked()\n"),
        Path("src/qlan/n.py"): ast.parse("from .m import used\nx = used()\n"),
        Path("scripts/run.py"): ast.parse("from qlan import m\nm.scripted()\n"),
        Path("tests/test_m.py"): ast.parse("from qlan import m\nm.tested()\n"),
    }
    assert unreferenced_definitions(module, production_readers(trees)) == [
        "line 3: tested",
        "line 5: checked",
    ]


def test_oracle_import_scan():
    for code in (
        "from . import oracle as orc",
        "from .oracle import char_fn",
        "from qlan import models, oracle",
        "from qlan.oracle import fits",
        "import qlan.oracle",
    ):
        assert imports_oracle(ast.parse(code)), code
    for code in ("from . import models as md", "from qlan import tableaux", "import oracle"):
        assert not imports_oracle(ast.parse(code)), code


def test_scan_sees_unused_and_used_names():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import math\nimport os.path\nimport numpy as np\n"
        "from itertools import chain, product as prod\n"
        "x = np.zeros(2)\ny = os.path.join\n"
        "def f(a: chain) -> None: ...\n"
    )
    assert unused_imports(tree) == ["line 2: math", "line 5: prod"]
