"""The runtime dependency list is numpy alone.

Every import in the package's modules must name the standard library,
numpy, or the package itself; the README and pyproject promise no more.
The module globals that the benchmark imports or its tracer rebinds must stay
in place. Importing the CLI in a fresh interpreter loads a one-thread BLAS
and no process-pool machinery, and a command at --jobs 2, whose workers are
forked directly, loads none either.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

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


# perfbench/run.py imports these by name: main runs every benchmark command
# (in a fresh interpreter, or in process when traced), and load_config is
# what its setup_s probe times.
ENTRY_POINTS = {cbfcert.cli: ("main", "load_config")}


def _missing(names_by_module):
    return [
        f"{module.__name__}.{name}"
        for module, names in names_by_module.items()
        for name in names
        if not callable(vars(module).get(name))
    ]


def test_traced_names_are_module_globals():
    missing = _missing(TRACED_NAMES)
    assert not missing, missing


def test_benchmark_entry_points_are_module_globals():
    missing = _missing(ENTRY_POINTS)
    assert not missing, missing


def _fresh_import(env, code: str) -> str:
    """stdout of ``import cbfcert.cli`` followed by ``code`` in a new interpreter."""
    argv = [sys.executable, "-c", "import cbfcert.cli\n" + code]
    result = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return result.stdout


POOL_MODULES = "{'concurrent.futures.process', 'multiprocessing', 'logging'}"


def test_cli_import_loads_no_process_pool(fresh_env):
    # The pool module loads multiprocessing and logging, which no command needs.
    code = f"import sys\nprint(sorted({POOL_MODULES} & set(sys.modules)))"
    assert _fresh_import(fresh_env, code) == "[]\n"


@pytest.mark.parametrize("command", ["verify", "reproduce-table1"])
def test_forked_command_loads_no_process_pool(fresh_env, tmp_path, command):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps({"groups": 2, "rollouts_per_group": 2, "system": {"horizon_steps": 2}}),
        encoding="utf-8",
    )
    args = [command, "--config", str(config), "--out", str(tmp_path / "out"), "--jobs", "2"]
    code = (
        "import sys\n"
        f"assert cbfcert.cli.main({args!r}) == 0\n"
        f"print(sorted({POOL_MODULES} & set(sys.modules)))"
    )
    assert _fresh_import(fresh_env, code).splitlines()[-1] == "[]"


@pytest.mark.skipif(
    not Path("/proc/self/task").is_dir() or cbfcert.cli._usable_cpus() < 2,
    reason="needs /proc and two CPUs, where OpenBLAS would start a second thread",
)
@pytest.mark.parametrize(
    "preset, threads",
    [({}, 1), ({"OPENBLAS_NUM_THREADS": "2"}, 2), ({"OMP_NUM_THREADS": "2"}, 2)],
    ids=["unset", "openblas2", "omp2"],
)
def test_cli_import_runs_one_blas_thread_unless_set(fresh_env, preset, threads):
    code = "import os\nprint(len(os.listdir('/proc/self/task')))"
    assert _fresh_import({**fresh_env, **preset}, code) == f"{threads}\n"
