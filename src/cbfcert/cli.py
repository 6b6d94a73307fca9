"""Command-line interface: config loading, experiment orchestration, reports.

Subcommands:
  verify               run the configured experiment, write certificate.json + groups.csv
  reproduce-table1     sweep noise bound x agent count, write table1.csv
  sweep-psi            sweep the alignment weight, write psi_sweep.csv
  print-config-schema  dump the JSON config schema with defaults

Exit codes: 0 success, 2 config error, 3 runtime setup error, 4 internal
solver failure, 5 a --jobs worker process could not start or died.

Two runs with the same config file and seed produce byte-identical CSV bodies
regardless of --jobs; only the '#'-prefixed provenance header lines (which
carry a timestamp) may differ.
"""

from __future__ import annotations

import os

# One BLAS thread per process: the --jobs workers are this program's
# parallelism and its LAPACK calls are small, while numpy's OpenBLAS would
# otherwise start a thread per CPU as it loads, at tens of ms of CPU per
# command. A user who sets any of these variables keeps all of them as they
# are (OpenBLAS reads OMP_NUM_THREADS when OPENBLAS_NUM_THREADS is unset).
# This must run before numpy is first imported, so it comes before every
# import that loads numpy; the forked workers share the loaded library.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if not any(name in os.environ for name in BLAS_THREAD_VARIABLES):
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARIABLES, "1"))

import argparse
import gc
import hashlib
import json
import math
import sys
from dataclasses import asdict, is_dataclass, replace
from datetime import datetime, timezone
from itertools import accumulate, repeat
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import GROUP_COLUMNS, certificate
from .errors import ConfigError, SetupError, SolverError, WorkerError, config_fields
from .rollout import ExperimentConfig, Rollouts, run_experiment, run_experiments

# Everything the imports above allocated lives until exit, so move it out of
# the collector's reach: a forked worker's collections then neither walk nor
# write (and so copy) those pages, and interpreter exit does not walk them.
# New objects are collected as before.
gc.freeze()

PSI_GRID = (0.0, 2.0, 4.0, 6.0, 8.0, 10.0)
TABLE1_NOISE_GRID = (0.01, 0.03, 0.05)
TABLE1_AGENT_GRID = (2, 3)
SWEEP_PSI_ROLLOUTS = 100
SWEEP_PSI_NOISE = 0.03

# Each config field type: its JSON kind, the values it accepts and the words
# its error uses. bool is an int subclass, so it passes only where listed.
# Every config key is a field of ExperimentConfig, SystemConfig or
# SafetyParams, declared as Annotated[type, description, range] with its
# default (see errors.config_fields).
_KINDS = {
    int: ("integer", (int,), "an integer"),
    float: ("number", (int, float), "a number"),
    float | None: ("number|null", (int, float, type(None)), "a number or null"),
    bool: ("boolean", (bool,), "a boolean"),
    str: ("string", (str,), "a string"),
}


def config_schema() -> dict:
    """JSON-schema-style description of the config file, defaults included."""

    def section(cls) -> dict:
        props = {}
        for f, hint, description, _ in config_fields(cls):
            if is_dataclass(hint):
                props[f.name] = {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": section(hint),
                }
            else:
                props[f.name] = {
                    "type": _KINDS[hint][0],
                    "description": description,
                    "default": f.default,
                }
        return props

    return {
        "title": "cbfcert experiment configuration",
        "type": "object",
        "additionalProperties": False,
        "properties": section(ExperimentConfig),
    }


def _coerce(value, hint, path: str):
    _, accepted, expected = _KINDS[hint]
    if not isinstance(value, accepted) or (isinstance(value, bool) and bool not in accepted):
        raise ConfigError(f"{path}: expected {expected}, got {value!r}")
    if value is None or float not in accepted:
        return value
    # Python's JSON parser accepts NaN and Infinity, and integers too large
    # for a float; no range check catches NaN, so reject them here.
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{path}: expected a finite number, got {value!r}")
    return number


# The value of a key that a config file's object gives twice, so that _build
# can name its path; json.loads alone keeps the last value.
_REPEATED = object()


def _mark_repeated(pairs) -> dict:
    data = {}
    for key, value in pairs:
        data[key] = _REPEATED if key in data else value
    return data


def _build(cls, data: dict, prefix: str):
    """One config dataclass from its JSON object; nested sections recurse."""
    known = {f.name: hint for f, hint, *_ in config_fields(cls)}
    kwargs = {}
    for key, value in data.items():
        path = prefix + key
        if key not in known:
            raise ConfigError(f"unknown config key {path!r}")
        if value is _REPEATED:
            raise ConfigError(f"duplicate config key {path!r}")
        hint = known[key]
        if is_dataclass(hint):
            if not isinstance(value, dict):
                raise ConfigError(f"{path}: expected an object")
            kwargs[key] = _build(hint, value, path + ".")
        else:
            kwargs[key] = _coerce(value, hint, path)
    return cls(**kwargs)


def build_config(data: dict) -> ExperimentConfig:
    """Validate a parsed JSON document and fill defaults."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    return _build(ExperimentConfig, data, "")


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse and validate a JSON config file; unknown and repeated keys are
    rejected."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid UTF-8: {exc}") from exc
    try:
        data = json.loads(text, object_pairs_hook=_mark_repeated)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config parse error in {path} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return build_config(data)


def config_hash(config: ExperimentConfig) -> str:
    canonical = json.dumps(asdict(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def _write(path: Path, written: list, write) -> None:
    """``write(fh)`` on ``path`` opened as text, which joins ``written`` once
    it is open; an OSError becomes ``SetupError``."""
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            written.append(path)
            write(fh)
    except OSError as exc:  # a directory at the path, or no permission
        raise SetupError(f"cannot write {path}: {exc.strerror}") from exc


def _write_csv(path: Path, comments, columns, row_format: str, rows, written: list) -> None:
    """The ``#`` comment lines, then the header and ``row_format % tuple(row)``
    for each row, each ended by CRLF. ``row_format`` takes ``%d`` for an
    integer column and ``%.6g`` for a float one."""
    line = row_format + "\r\n"

    def write(fh):
        for comment in comments:
            fh.write(f"# {comment}\n")
        fh.write(",".join(columns) + "\r\n")
        fh.writelines(line % tuple(row) for row in rows)

    _write(path, written, write)


def _write_json(path: Path, data: dict, written: list) -> None:
    _write(path, written, lambda fh: fh.write(json.dumps(data, indent=2) + "\n"))


def _dump_trajectories(
    out_dir: Path, rollouts: Rollouts, config: ExperimentConfig, written: list
) -> None:
    traj_dir = out_dir / "trajectories"
    sys_cfg = config.system
    n, m, n_agents = sys_cfg.state_dim, sys_cfg.control_dim, sys_cfg.n_agents
    states, controls = [f"x{c}" for c in range(n)], [f"u{c}" for c in range(m)]
    columns = ["t", "agent", *states, *controls, "min_pair_margin"]
    row_format = "%.6g,%d" + ",%.6g" * (n + m + 1)
    # One rollout's rows, (K+1, N, 2+n+m+1): t and agent fixed, the rest
    # filled per rollout. t is dt added once per step, not k * dt: the two
    # differ in the last bits, and the test suite pins the running sum.
    block = np.empty((sys_cfg.horizon_steps + 1, n_agents, len(columns)))
    t = accumulate(repeat(sys_cfg.dt, sys_cfg.horizon_steps), initial=0.0)
    block[:, :, 0] = np.fromiter(t, float)[:, None]
    block[:, :, 1] = np.arange(n_agents)
    for g_index, p_index in np.ndindex(rollouts.seed.shape):
        block[:, :, 2 : 2 + n] = rollouts.states[g_index, p_index]
        block[:, :, 2 + n : -1] = rollouts.controls[g_index, p_index]
        block[:, :, -1] = rollouts.step_margins[g_index, p_index][:, None]
        path = traj_dir / f"group{g_index:04d}_rollout{p_index:03d}.csv"
        rows = block.reshape(-1, len(columns)).tolist()
        comments = [f"seed: {rollouts.seed[g_index, p_index]}"]
        _write_csv(path, comments, columns, row_format, rows, written)


def _run(args) -> int:
    """The steps every run subcommand shares around its body.

    Resolves the config (``--seed`` overrides its base seed), makes ``--out``
    and, for ``--dump-trajectories``, its ``trajectories`` directory
    (``SetupError`` when it cannot, before any cell runs) and calls
    ``args.body(args, config, manifest, written)``, which runs the cells,
    writes its own extra files, prints its lines and returns (csv name,
    columns, row format, rows) for ``_write_csv``. That CSV is written under
    the provenance lines, then ``run_manifest.json``, and only then the
    closing "wrote" line is printed. Every file the run opens joins the list
    ``written``; when the run fails after opening one (an output that cannot
    be written exits 3), they are all removed, so a failed run leaves no file
    of its own.

    The body hands the chunks of all its cells to one
    ``rollout.run_experiments`` call, which forks as many workers as the
    cells' work pays for, at least one and at most ``--jobs`` (none at
    ``--jobs 1``), and reaps them before it returns or raises. Forked
    workers share the numpy this process loaded, while spawned ones would
    each import it again, which costs more than the cells of a small
    command.
    """
    config = load_config(args.config) if args.config else build_config({})
    if args.seed is not None:
        config = replace(config, base_seed=args.seed)
    manifest = {
        "config_path": str(args.config) if args.config else "<defaults>",
        "config": asdict(config),
        "config_hash": config_hash(config),
        "base_seed": config.base_seed,
        "tool_version": __version__,
        "timestamp_utc": datetime.now(timezone.utc).isoformat(),
        "out_dir": str(args.out),
        "command": args.command,
        "jobs": args.jobs,
    }
    out_dir = args.out / "trajectories" if getattr(args, "dump_trajectories", False) else args.out
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a regular file at the path or on its way
        raise SetupError(f"cannot make output directory {exc.filename}: {exc.strerror}") from exc
    provenance = [
        f"tool: cbfcert {__version__}",
        f"generated_utc: {manifest['timestamp_utc']}",
        f"config_hash: {manifest['config_hash']}",
        f"base_seed: {config.base_seed}",
    ]
    written = []
    try:
        csv_name, columns, row_format, rows = args.body(args, config, manifest, written)
        _write_csv(args.out / csv_name, provenance, columns, row_format, rows, written)
        _write_json(args.out / "run_manifest.json", manifest, written)
    except BaseException:
        for path in written:
            path.unlink(missing_ok=True)
        raise
    print("wrote " + ", ".join(str(path) for path in written if path.parent == args.out))
    return 0


def _cell(config: ExperimentConfig, manifest: dict, **overrides) -> ExperimentConfig:
    """One sweep cell's config: ``config`` with ``overrides`` applied, where a
    dict overrides fields of that section. The overrides and the cell's config
    hash are appended to ``manifest["cells"]``.
    """
    changes = {
        key: replace(getattr(config, key), **value) if isinstance(value, dict) else value
        for key, value in overrides.items()
    }
    cell = replace(config, **changes)
    entry = {"overrides": overrides, "config_hash": config_hash(cell)}
    manifest.setdefault("cells", []).append(entry)
    return cell


def cmd_verify(args, config: ExperimentConfig, manifest: dict, written: list):
    rollouts = run_experiment(config, jobs=args.jobs, record_trajectory=args.dump_trajectories)
    cert = certificate(config, rollouts)
    provenance = {
        "tool_version": manifest["tool_version"],
        "generated_utc": manifest["timestamp_utc"],
        "config_hash": manifest["config_hash"],
        "base_seed": manifest["base_seed"],
        "config": manifest["config"],
    }
    _write_json(args.out / "certificate.json", provenance | cert, written)
    if args.dump_trajectories:
        _dump_trajectories(args.out, rollouts, config, written)
    sat = cert["satisfaction"]
    b_sat, h_sat, s_sat = sat["bernstein"], sat["hoeffding"], sat["scenario"]
    print(
        f"verify: {config.groups} groups x {config.rollouts_per_group} rollouts | "
        f"pooled violation rate {cert['pooled_violation_rate']:.6g} | "
        f"B_sat {b_sat:.6g} H_sat {h_sat:.6g} S_sat {s_sat:.6g} | "
        f"analytic delta {cert['analytic_delta']:.6g}"
    )
    columns = ["group_id", *GROUP_COLUMNS]
    # group_id, then GROUP_COLUMNS: five statistics and slacks, d_support
    row_format = "%d" + ",%.6g" * 5 + ",%d"
    rows = [[group[c] for c in columns] for group in cert["groups"]]
    return "groups.csv", columns, row_format, rows


def cmd_reproduce_table1(args, config: ExperimentConfig, manifest: dict, written: list):
    cells = [
        _cell(config, manifest, system={"n_agents": n_agents, "noise_bound": w_bar})
        for n_agents in TABLE1_AGENT_GRID
        for w_bar in TABLE1_NOISE_GRID
    ]
    rows = []
    for cell, rollouts in zip(cells, run_experiments(cells, args.jobs)):
        cert = certificate(cell, rollouts)
        p_hat, eps_b, eps_h, eps_s = (
            float(np.mean([group[name] for group in cert["groups"]]))
            for name in ("p_hat", "eps_bernstein", "eps_hoeffding", "eps_scenario")
        )
        sat = cert["satisfaction"]
        b_sat, h_sat, s_sat = sat["bernstein"], sat["hoeffding"], sat["scenario"]
        w_bar, n_agents = cell.system.noise_bound, cell.system.n_agents
        rows.append((w_bar, n_agents, p_hat, eps_b, eps_h, eps_s, b_sat, h_sat, s_sat))
        print(f"cell N={n_agents} w_bar={w_bar}: p_hat {p_hat:.6g} B_sat {b_sat:.6g}")
    columns = ["w_bar", "N", "p_hat", "eps_B", "eps_H", "eps_S", "B_sat", "H_sat", "S_sat"]
    return "table1.csv", columns, "%.6g,%d" + ",%.6g" * 7, rows


def cmd_sweep_psi(args, config: ExperimentConfig, manifest: dict, written: list):
    cells = [
        _cell(
            config,
            manifest,
            groups=1,
            rollouts_per_group=SWEEP_PSI_ROLLOUTS,
            system={"noise_bound": SWEEP_PSI_NOISE},
            safety={"psi": psi},
        )
        for psi in PSI_GRID
    ]
    rows = []
    for psi, rollouts in zip(PSI_GRID, run_experiments(cells, args.jobs)):
        p_hat_v = float(rollouts.flag.mean())
        min_dist = float(rollouts.min_distance.mean())
        rows.append((psi, p_hat_v, min_dist))
        print(f"psi={psi:g}: p_hat_v {p_hat_v:.6g} min_dist {min_dist:.6g}")
    return "psi_sweep.csv", ["psi", "p_hat_v", "min_dist"], "%.6g,%.6g,%.6g", rows


def cmd_print_config_schema(args) -> int:
    print(json.dumps(config_schema(), indent=2))
    return 0


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the platform
    has one, else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cbfcert",
        description=(
            "Monte Carlo safety certification for multi-agent CBF-QP control "
            "loops under bounded noise. Config defaults: "
            + json.dumps(asdict(ExperimentConfig()))
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def jobs(text: str) -> int:
        value = int(text)
        if value < 1:
            raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
        return value

    def run_command(name, summary, body):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", type=Path, default=None, help="JSON config file (defaults used when omitted)")
        p.add_argument("--out", type=Path, default=Path("out"), help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override base_seed")
        p.add_argument("--jobs", type=jobs, default=_usable_cpus(), help="most worker processes: a command forks as many as its work pays for, at least one, or none at 1 (output is identical for any value)")
        p.set_defaults(func=_run, body=body)
        return p

    p_verify = run_command("verify", "run the experiment and emit the certificate", cmd_verify)
    p_verify.add_argument("--dump-trajectories", action="store_true", help="write one CSV per rollout")
    run_command("reproduce-table1", "sweep noise bound x agent count", cmd_reproduce_table1)
    run_command("sweep-psi", "sweep the alignment weight psi", cmd_sweep_psi)

    p_schema = sub.add_parser("print-config-schema", help="print the JSON config schema")
    p_schema.set_defaults(func=cmd_print_config_schema)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SetupError as exc:
        print(f"setup error: {exc}", file=sys.stderr)
        return 3
    except SolverError as exc:
        print(f"internal solver failure: {exc}; please file a bug report", file=sys.stderr)
        return 4
    except WorkerError as exc:
        print(f"worker failure: {exc}", file=sys.stderr)
        return 5


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
