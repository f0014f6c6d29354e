"""numpy stays the package's only runtime dependency: every module of
``src/wate`` imports only numpy, the package itself and the standard
library. And every module uses each name it imports."""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "wate"
ALLOWED = {"numpy", "wate"} | set(sys.stdlib_module_names)


def _imported_packages(tree):
    """The top-level package of every absolute import in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_only_numpy_and_the_standard_library(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert set(_imported_packages(tree)) <= ALLOWED


def _imported_names(tree):
    """Each name an ``import`` or ``from`` statement in ``tree`` binds, with
    its line; ``from __future__`` binds none."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


# The package's imports are its public names.
@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"), ids=lambda p: p.name
)
def test_module_uses_every_name_it_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert [(name, line) for name, line in _imported_names(tree) if name not in used] == []


def _private_definitions(tree):
    """Each private (``_name``, not ``__name__``) function, class or method
    ``tree`` defines, and each constant its module or class body assigns,
    with its line."""

    def private(name):
        return name.startswith("_") and not name.endswith("__")

    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if private(node.name):
                yield node.name, node.lineno
        if isinstance(node, (ast.Module, ast.ClassDef)):
            for statement in node.body:
                targets = (
                    statement.targets if isinstance(statement, ast.Assign)
                    else [statement.target] if isinstance(statement, ast.AnnAssign)
                    else []
                )
                for target in targets:
                    if isinstance(target, ast.Name) and private(target.id):
                        yield target.id, statement.lineno


def _loaded_names(tree):
    """Every name and attribute ``tree`` reads; a docstring reads none."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr


def test_every_private_definition_has_a_caller_in_the_package():
    # A private name only tests read is code the package no longer runs.
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(SRC.glob("*.py"))
    }
    loaded = {name for tree in trees.values() for name in _loaded_names(tree)}
    defined = [
        (module, name, line)
        for module, tree in trees.items()
        for name, line in _private_definitions(tree)
    ]
    assert len(defined) > 100
    assert [entry for entry in defined if entry[1] not in loaded] == []
