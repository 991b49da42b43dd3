"""Every name a module imports is used in that module, and every private
name a module defines is used somewhere in the package."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "heritage_catalog"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds "a"; "from m import a as b" binds "b".
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda item: item[1]) if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_reported():
    source = "from __future__ import annotations\nimport os\nimport re\nfrom .store import Store as S, ordered_terms\nre.compile\nS()\n"
    assert unused_imports(source) == ["line 2: os", "line 4: ordered_terms"]



def _private_definitions(tree: ast.Module) -> dict:
    """Each private name a module binds at its top level by a function,
    class or assignment, with the statement that binds it."""
    defined = {}
    for statement in tree.body:
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [statement.name]
        elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
            targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
            names = [node.id for target in targets for node in ast.walk(target) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)]
        else:
            continue
        defined.update((name, statement) for name in names if name.startswith("_") and not name.startswith("__"))
    return defined


def _references(statement: ast.stmt) -> set:
    """The names a statement reads, as a name, an attribute or an import."""
    names = set()
    for node in ast.walk(statement):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def unreferenced_private_names(sources: dict, module: str) -> list[str]:
    """The private names that ``sources[module]`` defines at its top level
    and that no top-level statement of any of the ``sources`` reads, other
    than the statement defining the name."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    defined = _private_definitions(trees[module])
    read = {name for tree in trees.values() for statement in tree.body for name in _references(statement) if defined.get(name) is not statement}
    return [f"line {statement.lineno}: {name}" for name, statement in sorted(defined.items(), key=lambda item: item[1].lineno) if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_private_name_is_referenced(path):
    sources = {module.name: module.read_text(encoding="utf-8") for module in PACKAGE.glob("*.py")}
    assert unreferenced_private_names(sources, path.name) == []


def test_unreferenced_private_name_is_reported():
    sources = {
        "a.py": "_USED = 1\n_UNUSED, _PAIRED = 2, 3\ndef _recursive(n):\n    return _recursive(n - 1)\nclass _Imported:\n    pass\n",
        "b.py": "from . import a\nfrom .a import _Imported\nprint(a._USED, a._PAIRED, _Imported)\n",
    }
    assert unreferenced_private_names(sources, "a.py") == ["line 2: _UNUSED", "line 3: _recursive"]
