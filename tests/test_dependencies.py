"""numpy stays the package's only runtime dependency: every module of
``src/wate`` imports only numpy, the package itself and the standard
library."""

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
