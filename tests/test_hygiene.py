"""Source hygiene: every module in the package, the scripts and the tests
uses each name it imports, every module-level function and class of the
package, and every method and property of its classes, is read somewhere
outside its own definition, and every dataclass field of the package is read
as an attribute on the production path.  The reference code
that only tests read lives in `qlan.oracle`: every other definition of the
package has a reader on the production path, and only the lemma verifiers
and the tests import the oracle.  The benchmark harness under `perfbench/`
counts as a reader on the production path, but its own imports are not
checked here."""

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
BENCHMARK_SOURCES = sorted((ROOT / "perfbench").glob("*.py"))


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


def definitions(module: ast.Module):
    """Module-level functions and classes, and the methods and properties of
    those classes; dunders are called by Python itself, so they are exempt."""
    for node in module.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (
                item
                for item in node.body
                if isinstance(item, ast.FunctionDef)
                and not (item.name.startswith("__") and item.name.endswith("__"))
            )


def unreferenced_definitions(module: ast.Module, trees: list[ast.AST]) -> list[str]:
    """Definitions of `module` that no expression in `trees` reads, not
    counting reads inside the definition itself."""
    reads = Counter(name for tree in trees for name in read_names(tree))
    return [
        f"line {node.lineno}: {node.name}"
        for node in definitions(module)
        if reads[node.name] == read_names(node).count(node.name)
    ]


def dataclass_fields(module: ast.Module):
    """(class, field) for the annotated fields of the module-level classes
    decorated with `dataclass`, called or bare, plain or as an attribute."""
    for node in module.body:
        if isinstance(node, ast.ClassDef) and any(
            "dataclass" in read_names(dec) for dec in node.decorator_list
        ):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield node, item.target


def unread_fields(module: ast.Module, trees: list[ast.AST]) -> list[str]:
    """Dataclass fields of `module` that no attribute load in `trees` reads,
    by name; reads inside the class's own methods count."""
    loads = {
        node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return [
        f"line {field.lineno}: {cls.name}.{field.id}"
        for cls, field in dataclass_fields(module)
        if field.id not in loads
    ]


def production_readers(trees: dict[Path, ast.AST]) -> list[ast.AST]:
    """The trees whose reads keep a definition on the production path: the
    package modules other than the oracle, the scripts and the benchmark."""
    return [
        tree
        for path, tree in trees.items()
        if path.parent.name in ("qlan", "scripts", "perfbench") and path.name != "oracle.py"
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
    assert BENCHMARK_SOURCES


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
    trees = {p: ast.parse(p.read_text(), filename=str(p)) for p in SOURCES + BENCHMARK_SOURCES}
    readers = production_readers(trees)
    test_only = {
        p.name: unreferenced_definitions(tree, readers)
        for p, tree in trees.items()
        if p.parent.name == "qlan" and p.name != "oracle.py"
    }
    assert {name: found for name, found in test_only.items() if found} == {}


def test_dataclass_fields_have_production_readers():
    trees = {p: ast.parse(p.read_text(), filename=str(p)) for p in SOURCES + BENCHMARK_SOURCES}
    readers = production_readers(trees)
    unread = {
        p.name: unread_fields(tree, readers)
        for p, tree in trees.items()
        if p.parent.name == "qlan" and p.name != "oracle.py"
    }
    assert {name: found for name, found in unread.items() if found} == {}


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
        "def measured():\n    return 5\n"
    )
    trees = {
        Path("src/qlan/m.py"): module,
        Path("src/qlan/oracle.py"): ast.parse("import m\nx = m.checked()\n"),
        Path("src/qlan/n.py"): ast.parse("from .m import used\nx = used()\n"),
        Path("scripts/run.py"): ast.parse("from qlan import m\nm.scripted()\n"),
        Path("perfbench/run.py"): ast.parse("from qlan import m\nm.measured()\n"),
        Path("tests/test_m.py"): ast.parse("from qlan import m\nm.tested()\n"),
    }
    assert unreferenced_definitions(module, production_readers(trees)) == [
        "line 3: tested",
        "line 5: checked",
    ]


def test_production_scan_sees_methods():
    module = ast.parse(
        "class Report:\n"
        "    def __init__(self):\n        self.x = 1\n"
        "    def used(self):\n        return 1\n"
        "    @property\n    def shown(self):\n        return 2\n"
        "    def tested(self):\n        return 3\n"
    )
    trees = {
        Path("src/qlan/m.py"): module,
        Path("src/qlan/n.py"): ast.parse(
            "from .m import Report\nr = Report()\nr.used()\nr.shown\n"
        ),
        Path("tests/test_m.py"): ast.parse("from qlan import m\nm.Report().tested()\n"),
    }
    assert unreferenced_definitions(module, production_readers(trees)) == ["line 9: tested"]


def test_field_scan_sees_attribute_loads():
    module = ast.parse(
        "from dataclasses import dataclass\n"
        "import dataclasses\n"
        "@dataclass(frozen=True)\n"
        "class Report:\n"
        "    shown: int\n"
        "    checked: int\n"
        "    stored: int\n"
        "    tested: int\n"
        "    LIMIT = 3\n"
        "    def doubled(self):\n        return 2 * self.checked\n"
        "@dataclasses.dataclass\n"
        "class Row:\n"
        "    kept: float\n"
        "class Plain:\n"
        "    hidden: int\n"
    )
    trees = {
        Path("src/qlan/m.py"): module,
        Path("src/qlan/n.py"): ast.parse(
            "from .m import Report, Row\nr = Report(1, 2, 3, 4)\nprint(r.shown)\n"
            "x = Row(0.5)\nx.stored = 1\n"
        ),
        Path("tests/test_m.py"): ast.parse("from qlan import m\nm.Report(1, 2, 3, 4).tested\n"),
    }
    assert unread_fields(module, production_readers(trees)) == [
        "line 7: Report.stored",
        "line 8: Report.tested",
        "line 14: Row.kept",
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
