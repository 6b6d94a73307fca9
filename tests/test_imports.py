"""The runtime dependency list is numpy alone.

Every import in the package's modules must name the standard library,
numpy, or the package itself; the README and pyproject promise no more.
The module globals that the benchmark imports, or that its tracer rebinds or
reads, must stay in place, and the groups.csv columns that the benchmark
checks must be the report's. Importing the CLI in a fresh interpreter loads a one-thread BLAS
and no process-pool machinery, and a command at --jobs 2, whose workers are
forked directly, loads none either. No run command loads numpy.ma, and the
parent of a --jobs 2 command does not load numpy.random, and neither the CLI's
import nor a trajectory dump loads the csv module. The CLI freezes the heap its
imports leave; the library modules leave the collector alone.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

import cbfcert.bounds
import cbfcert.cli
import cbfcert.controller
import cbfcert.errors
import cbfcert.rollout

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "cbfcert"
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


def _benchmark_constant(name: str):
    """The literal value of a module-level constant of perfbench/run.py,
    read from its source without importing the benchmark."""
    tree = ast.parse((REPO / "perfbench" / "run.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} not found in perfbench/run.py")


def test_benchmark_group_columns_are_the_report_columns():
    # The benchmark checks groups.csv's header against its own copy of the
    # columns; a drift would fail every verify command it runs.
    assert _benchmark_constant("GROUP_COLUMNS") == ("group_id", *cbfcert.bounds.GROUP_COLUMNS)


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


def test_traced_values_are_module_globals():
    # The tracer compares each relaxation's status with STATUS_OPTIMAL and
    # counts the SolverError it sees raised.
    assert isinstance(vars(cbfcert.controller).get("STATUS_OPTIMAL"), str)
    solver_error = vars(cbfcert.errors).get("SolverError")
    assert isinstance(solver_error, type) and issubclass(solver_error, Exception)


def _fresh_import(env, code: str, module: str = "cbfcert.cli") -> str:
    """stdout of ``import <module>`` followed by ``code`` in a new interpreter."""
    argv = [sys.executable, "-c", f"import {module}\n" + code]
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


@pytest.mark.parametrize("command", ["verify", "reproduce-table1", "sweep-psi"])
def test_command_loads_no_masked_arrays(fresh_env, tmp_path, command):
    # numpy.ma loads on first use of some numpy functions (np.unique, for
    # one), at about 10 ms of CPU and 1.7 MB of peak memory in each fresh
    # process. Three agents in a 2.5 x 2.5 square make every command solve
    # QPs in lockstep.
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "groups": 2,
                "rollouts_per_group": 5,
                "system": {"n_agents": 3, "horizon_steps": 10, "domain_half_width": 2.5},
            }
        ),
        encoding="utf-8",
    )
    args = [command, "--config", str(config), "--out", str(tmp_path / "out"), "--jobs", "1"]
    code = f"import sys\nassert cbfcert.cli.main({args!r}) == 0\nprint('numpy.ma' in sys.modules)"
    assert _fresh_import(fresh_env, code).splitlines()[-1] == "False"


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


def test_cli_import_freezes_its_heap(fresh_env):
    # Forked workers and interpreter exit then skip the import-time objects;
    # the collector still runs on everything allocated later.
    code = "import gc\nprint(gc.get_freeze_count() > 0, gc.isenabled())"
    assert _fresh_import(fresh_env, code) == "True True\n"


def test_library_import_freezes_nothing(fresh_env):
    # As with the BLAS thread variables, only the CLI sets up its process.
    code = "import gc\nprint(gc.get_freeze_count(), gc.isenabled())"
    assert _fresh_import(fresh_env, code, module="cbfcert.rollout") == "0 True\n"


@pytest.mark.parametrize("command", ["verify", "reproduce-table1", "sweep-psi"])
def test_forked_command_parent_loads_no_numpy_random(fresh_env, tmp_path, command):
    # numpy.random's extension modules add about 2 MB to a process; only the
    # forked workers, which draw the rollouts, load them, so the parent's
    # peak memory stays that of the imports.
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps({"groups": 2, "rollouts_per_group": 2, "system": {"horizon_steps": 2}}),
        encoding="utf-8",
    )
    args = [command, "--config", str(config), "--out", str(tmp_path / "out"), "--jobs", "2"]
    code = (
        "import sys\n"
        f"assert cbfcert.cli.main({args!r}) == 0\n"
        "print('numpy.random' in sys.modules)"
    )
    assert _fresh_import(fresh_env, code).splitlines()[-1] == "False"


CSV_MODULES = "{'csv', '_csv'}"


def test_cli_import_loads_no_csv_module(fresh_env):
    # Every CSV is written from a printf-style row format; csv and _csv
    # would add about 0.5 ms to every command's import.
    code = f"import sys\nprint(sorted({CSV_MODULES} & set(sys.modules)))"
    assert _fresh_import(fresh_env, code) == "[]\n"


def test_trajectory_dump_loads_no_csv_module(fresh_env, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps({"groups": 1, "rollouts_per_group": 2, "system": {"horizon_steps": 2}}),
        encoding="utf-8",
    )
    out = tmp_path / "out"
    args = ["verify", "--config", str(config), "--out", str(out), "--jobs", "1"]
    code = (
        "import sys\n"
        f"assert cbfcert.cli.main({[*args, '--dump-trajectories']!r}) == 0\n"
        f"print(sorted({CSV_MODULES} & set(sys.modules)))"
    )
    assert _fresh_import(fresh_env, code).splitlines()[-1] == "[]"
    assert len(list((out / "trajectories").glob("*.csv"))) == 2
