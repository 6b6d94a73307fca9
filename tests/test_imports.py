"""The runtime dependency list is numpy alone.

Every import in the package's modules must name the standard library,
numpy, or the package itself; the README and pyproject promise no more.
"""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cbfcert"
ALLOWED = {"numpy", "cbfcert"}


def _imported_modules(path: Path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_imports_are_stdlib_numpy_or_package():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules, f"no modules under {PACKAGE}"
    foreign = [
        f"{path.name}:{lineno}: {name}"
        for path in modules
        for lineno, name in _imported_modules(path)
        if name.split(".")[0] not in ALLOWED | sys.stdlib_module_names
    ]
    assert not foreign, foreign
