"""The runtime dependency list is numpy alone.

Every import in the package's modules must name the standard library,
numpy, or the package itself; the README and pyproject promise no more.
The module globals that the benchmark's tracer rebinds must stay in place.
"""

import ast
import sys
from pathlib import Path

import cbfcert.cli
import cbfcert.rollout

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


# perfbench/tracer.py rebinds these names on the module objects and relies on
# the engine looking them up there at call time; without them ``--trace 1``
# would measure nothing.
TRACED_NAMES = {
    cbfcert.rollout: (
        "run_rollout",
        "run_group",
        "margin_scores",
        "noise_array",
        "sample_initial_state",
        "PairTable",
        "fast_control",
    ),
    cbfcert.cli: ("certificate", "run_experiment"),
}


def test_traced_names_are_module_globals():
    missing = [
        f"{module.__name__}.{name}"
        for module, names in TRACED_NAMES.items()
        for name in names
        if not callable(vars(module).get(name))
    ]
    assert not missing, missing
