#!/usr/bin/env python3
"""cbfcert benchmark: the real CLI on fixed workloads, every output checked.

Run from the repository root:

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50 --trace 0

``--trace 0`` first runs the command once with ``--jobs 1``, which also warms
the file and bytecode caches. It then runs a closed loop with one client: it
starts the command in a fresh interpreter with ``--jobs 2``, waits for it to
exit, and starts it again until ``--seconds`` have passed since the start.
The commands cycle through CLI seeds derived from ``--seed``, each covering
its own block of rollout seeds, so a run's median does not rest on the cost
of one set of initial states. Every command of one seed, whatever its
``--jobs``, must write the same CSV body. After each command, and at least
five times, it times a fresh interpreter that imports ``cbfcert.cli`` and
loads the config. It reports the end-to-end metrics as medians over those
runs.

``--trace 1`` runs the command once untraced with ``--jobs 2`` (for core
utilisation), then three times in this process with ``--jobs 1``: untraced,
with spans around the names each module calls into (see ``tracer.py``), and
untraced again. It reports per-layer metrics.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Each run's details (environment,
per-command figures, CSV digest) go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORK = OUT / "work"

JOBS = 2
SEEDS_PER_RUN = 5
# Rollout seeds run from the CLI seed upwards, one per rollout of a cell; the
# stride keeps the blocks of different CLI seeds apart.
SEED_STRIDE = 10_000
SETUP_REPEATS = 5
COMMAND_TIMEOUT_S = 60.0
CLI_MAIN = "import sys; from cbfcert.cli import main; sys.exit(main())"
SETUP_CODE = "import sys; from cbfcert.cli import load_config; load_config(sys.argv[1])"

# Grid sizes fixed inside cbfcert.cli: table1 runs 2 agent counts x 3 noise
# bounds; sweep-psi runs 6 psi values with one group of 100 rollouts each.
TABLE1_CELLS = 6
PSI_CELLS = 6
PSI_ROLLOUTS = 100

TABLE1_COLUMNS = ("w_bar", "N", "p_hat", "eps_B", "eps_H", "eps_S", "B_sat", "H_sat", "S_sat")
PSI_COLUMNS = ("psi", "p_hat_v", "min_dist")
GROUP_COLUMNS = (
    "group_id", "p_hat", "sigma2_hat", "eps_bernstein", "eps_hoeffding", "eps_scenario", "d_support",
)


class BenchError(RuntimeError):
    """The benchmark cannot run at all (as opposed to a counted failure)."""


class OutputError(ValueError):
    """A command's output failed a check."""


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    config: Path
    csv_name: str
    columns: tuple[str, ...]

    def plan(self) -> tuple[int, int]:
        """(rollouts simulated, CSV rows written) by one command."""
        if self.subcommand == "sweep-psi":
            return PSI_CELLS * PSI_ROLLOUTS, PSI_CELLS
        cfg = json.loads(self.config.read_text(encoding="utf-8"))
        per_cell = cfg["groups"] * cfg["rollouts_per_group"]
        if self.subcommand == "reproduce-table1":
            return TABLE1_CELLS * per_cell, TABLE1_CELLS
        return per_cell, cfg["groups"]

    def cli_args(self, seed: int, jobs: int, out_dir: Path) -> list[str]:
        return [
            self.subcommand,
            "--config", str(self.config),
            "--out", str(out_dir),
            "--seed", str(seed),
            "--jobs", str(jobs),
        ]


# BENCHMARK.json gates table1 and crowded-n12. psi-sweep (one serial ~11 s
# command, so a run's median rests on one or two samples) and
# double-integrator (heavy-tailed rollout cost, so the work itself moves with
# the seed) spread too far from run to run on a shared 2-vCPU host to gate,
# but they run and are checked the same way, e.g. with --workload all.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("table1", "reproduce-table1", HERE / "configs" / "table1.json", "table1.csv", TABLE1_COLUMNS),
        Workload("psi-sweep", "sweep-psi", HERE / "configs" / "psi-sweep.json", "psi_sweep.csv", PSI_COLUMNS),
        Workload("crowded-n12", "verify", HERE / "configs" / "crowded-n12.json", "groups.csv", GROUP_COLUMNS),
        Workload(
            "double-integrator", "verify", HERE / "configs" / "double-integrator.json", "groups.csv", GROUP_COLUMNS
        ),
    )
}


@dataclass
class CommandRun:
    seed: int
    jobs: int
    wall_s: float
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    digest: str | None = None
    error: str | None = None


def _in_range(column: str, value: float) -> bool:
    if column.startswith("p_hat") or column.endswith("_sat"):
        return 0.0 <= value <= 1.0
    if column.startswith("eps_"):
        return value >= 0.0
    if column == "min_dist":
        return value > 0.0
    return True


def check_csv(path: Path, columns: tuple[str, ...], rows_expected: int) -> str:
    """Check a result CSV; return the sha256 of its body below the '#' lines."""
    text = path.read_text(encoding="utf-8")
    body = "".join(line for line in text.splitlines(keepends=True) if not line.startswith("#"))
    table = list(csv.reader(io.StringIO(body)))
    if not table or tuple(table[0]) != columns:
        raise OutputError(f"{path.name}: header {table[0] if table else None}, expected {list(columns)}")
    if len(table) - 1 != rows_expected:
        raise OutputError(f"{path.name}: {len(table) - 1} rows, expected {rows_expected}")
    for row in table[1:]:
        if len(row) != len(columns):
            raise OutputError(f"{path.name}: row {row} has {len(row)} fields")
        for column, cell in zip(columns, row):
            value = float(cell)
            if not math.isfinite(value) or not _in_range(column, value):
                raise OutputError(f"{path.name}: {column} = {cell} out of range")
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def _kill_group(pgid: int) -> None:
    with contextlib.suppress(ProcessLookupError):
        os.killpg(pgid, signal.SIGKILL)


def spawn(argv: list[str], log: Path) -> tuple[float, int, object, bool]:
    """Run argv in its own process group until it exits.

    Returns (wall seconds from spawn to exit, exit code, rusage, timed out).
    The rusage comes from wait4 on this one process and covers it and the
    pool workers it reaped, so CPU and peak RSS are per command.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdout=fh, stderr=subprocess.STDOUT, start_new_session=True
        )
    timed_out = threading.Event()

    def on_timeout() -> None:
        timed_out.set()
        _kill_group(proc.pid)

    timer = threading.Timer(COMMAND_TIMEOUT_S, on_timeout)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        _kill_group(proc.pid)
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)  # stray workers, if any, die with their command
    return wall, proc.returncode, usage, timed_out.is_set()


def _tail(log: Path) -> str:
    lines = [line for line in log.read_text(encoding="utf-8", errors="replace").splitlines() if line.strip()]
    return lines[-1] if lines else ""


def _fresh(out_dir: Path) -> Path:
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    return out_dir


def _check_output(run: CommandRun, code, workload: Workload, out_dir: Path, message: str) -> CommandRun:
    if code != 0:
        run.error = f"exit code {code}: {message}"
        return run
    try:
        run.digest = check_csv(out_dir / workload.csv_name, workload.columns, workload.plan()[1])
    except (OSError, ValueError, csv.Error) as exc:
        run.error = f"output check: {exc}"
    return run


def run_cli(workload: Workload, seed: int, jobs: int) -> CommandRun:
    """One timed CLI command in a fresh interpreter, with its output checked."""
    out_dir = _fresh(WORK / workload.name)
    log = out_dir / "cli.log"
    argv = [sys.executable, "-c", CLI_MAIN, *workload.cli_args(seed, jobs, out_dir)]
    wall, code, usage, timed_out = spawn(argv, log)
    run = CommandRun(seed, jobs, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)
    if timed_out:
        run.error = f"timed out after {COMMAND_TIMEOUT_S:g} s"
        return run
    return _check_output(run, code, workload, out_dir, _tail(log))


def time_setup(workload: Workload) -> float:
    """Wall time of a fresh interpreter importing cbfcert.cli and loading the config."""
    log = OUT / "setup.log"
    wall, code, _, timed_out = spawn([sys.executable, "-c", SETUP_CODE, str(workload.config)], log)
    if code != 0 or timed_out:
        raise BenchError(f"set-up command failed (exit {code}): {_tail(log)}")
    return wall


def cli_seeds(seed: int) -> list[int]:
    """The CLI seeds one run cycles through; distinct runs never share one."""
    return [(seed * SEEDS_PER_RUN + j) * SEED_STRIDE for j in range(SEEDS_PER_RUN)]


def check_digests(runs: list[CommandRun]) -> dict[int, str]:
    """Passing runs of one seed must write the same CSV body; the others count as failed.

    Returns the reference digest of each seed that has a passing run.
    """
    reference: dict[int, str] = {}
    for r in runs:
        if r.error is None:
            reference.setdefault(r.seed, r.digest)
            if r.digest != reference[r.seed]:
                r.error = f"CSV body {r.digest} differs from {reference[r.seed]} (seed {r.seed}, jobs {r.jobs})"
    return reference


def measure_end_to_end(workload: Workload, seed: int, seconds: float, setup_repeats: int = SETUP_REPEATS) -> dict:
    rollouts, _ = workload.plan()
    runs: list[CommandRun] = []
    setup: list[float] = []
    seeds = cli_seeds(seed)
    start = time.perf_counter()
    serial = run_cli(workload, seeds[0], 1)
    while not runs or time.perf_counter() - start < seconds:
        runs.append(run_cli(workload, seeds[len(runs) % len(seeds)], JOBS))
        # After a command, so bytecode caches are written, as for a user;
        # spread over the run, so the median does not rest on one moment.
        setup.append(time_setup(workload))
    while len(setup) < setup_repeats:
        setup.append(time_setup(workload))
    digests = check_digests(runs + [serial])
    failed = sum(r.error is not None for r in runs + [serial])
    attempted = len(runs) + 1
    timed = [r for r in runs if r.error is None] or runs
    metrics = {
        "rollouts_per_s": statistics.median(rollouts / r.wall_s for r in timed),
        "cpu_s_per_rollout": statistics.median(r.cpu_s for r in timed) / rollouts,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(r.rss_mb for r in timed),
        "success_share": 1.0 - failed / attempted,
    }
    return {
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "digest": digests.get(seeds[0]),
        "digests": {str(s): d for s, d in digests.items()},
        "metrics": metrics,
        "core_util": statistics.median(r.cpu_s / (r.wall_s * JOBS) for r in timed),
        "serial_rollouts_per_s": rollouts / serial.wall_s,
        "setup_runs_s": setup,
        "runs": [asdict(r) for r in runs + [serial]],
    }


def _import_engine():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from cbfcert import cli, controller, errors, rollout

    return cli, controller, errors, rollout


def run_in_process(cli, workload: Workload, seed: int, tracer=None) -> CommandRun:
    """The command through cbfcert.cli.main in this process, with --jobs 1."""
    out_dir = _fresh(WORK / workload.name)
    argv = workload.cli_args(seed, 1, out_dir)
    span = tracer.span("cli.main") if tracer is not None else contextlib.nullcontext()
    message = ""
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            with span:
                code = cli.main(argv)
        except Exception as exc:  # an engine crash is a counted failure, not a benchmark error
            code, message = None, repr(exc)
    run = CommandRun(seed, 1, time.perf_counter() - start)
    return _check_output(run, code, workload, out_dir, message)


def measure_layers(workload: Workload, seed: int) -> dict:
    from tracer import Tracer

    cli, controller, errors, rollout = _import_engine()
    pooled = run_cli(workload, seed, JOBS)
    before = run_in_process(cli, workload, seed)
    tracer = Tracer()
    with tracer.installed(cli, rollout, controller, errors):
        traced = run_in_process(cli, workload, seed, tracer)
    after = run_in_process(cli, workload, seed)
    runs = [pooled, before, traced, after]
    digest = check_digests(runs).get(seed)
    failed = sum(r.error is not None for r in runs)
    metrics = tracer.metrics(traced.wall_s)
    metrics["rollout.core_util"] = pooled.cpu_s / (pooled.wall_s * JOBS)
    # Untraced runs on both sides of the traced one cancel a steady drift in
    # the host's speed.
    metrics["trace.overhead_share"] = 2.0 * traced.wall_s / (before.wall_s + after.wall_s) - 1.0
    tracer.dump(OUT / f"spans-{workload.name}-seed{seed}.npz")
    return {
        "attempted": len(runs),
        "failed": failed,
        "failed_share": failed / len(runs),
        "digest": digest,
        "metrics": metrics,
        "runs": [asdict(r) for r in runs],
    }


E2E_UNITS = {
    "rollouts_per_s": "1/s",
    "cpu_s_per_rollout": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_share": "share",
}


def _unit(name: str) -> str:
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    if name.endswith(("_us", "_us_per_step")):
        return "us"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_util", "_share")):
        return "share"
    if name.endswith("slack_max"):
        return "m2/s"
    return "count"


def environment(jobs: int) -> dict:
    import numpy

    cpu_model = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    commit = "unknown"
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
            capture_output=True,
            text=True,
            timeout=10,
        )
        if git.returncode == 0:
            commit = git.stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "jobs": jobs,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True, help="passed to the CLI as --seed")
    parser.add_argument("--seconds", type=float, required=True, help="how long the --trace 0 loop measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "cbfcert" / "cli.py").is_file():
        print(f"perfbench: no cbfcert sources under {SRC}; run from the repository root", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    env = environment(1 if args.trace else JOBS)
    print("env " + json.dumps(env))
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            workload = WORKLOADS[name]
            if args.trace:
                result = measure_layers(workload, args.seed)
            else:
                result = measure_end_to_end(workload, args.seed, args.seconds)
            rollouts, _ = workload.plan()
            seeds = [args.seed] if args.trace else cli_seeds(args.seed)
            detail = {
                "workload": name,
                "command": workload.cli_args(seeds[0], JOBS, Path("<out>")),
                "cli_seeds": seeds,
                "rollouts": rollouts,
                "seed": args.seed,
                "trace": args.trace,
                "env": env,
                **result,
            }
            (OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json").write_text(
                json.dumps(detail, indent=2) + "\n", encoding="utf-8"
            )
            print(f"{name}: digest {result['digest']} failed_share {result['failed_share']:.6g}")
            for run in result["runs"]:
                if run["error"]:
                    print(f"{name}: FAILED {run['error']}")
            prefix = f"{name}." if args.workload == "all" else ""
            for metric, value in result["metrics"].items():
                print(f"{name}: {metric} {value:.6g} {_unit(metric)}")
                combined["metrics"][prefix + metric] = {"value": value, "unit": _unit(metric)}
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    combined["correct"] = combined["failed"] == 0
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
