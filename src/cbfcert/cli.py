"""Command-line interface: config loading, experiment orchestration, reports.

Subcommands:
  verify               run the configured experiment, write certificate.json + groups.csv
  reproduce-table1     sweep noise bound x agent count, write table1.csv
  sweep-psi            sweep the alignment weight, write psi_sweep.csv
  print-config-schema  dump the JSON config schema with defaults

Exit codes: 0 success, 2 config error, 3 runtime setup error, 4 internal
solver failure, 5 a --jobs worker process died.

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
import csv
import hashlib
import json
import math
import sys
from dataclasses import asdict, astuple, fields, is_dataclass, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import __version__
from .bounds import GroupStats, certificate
from .errors import ConfigError, SetupError, SolverError, WorkerError
from .rollout import ExperimentConfig, Rollouts, run_experiment, run_experiments

PSI_GRID = (0.0, 2.0, 4.0, 6.0, 8.0, 10.0)
TABLE1_NOISE_GRID = (0.01, 0.03, 0.05)
TABLE1_AGENT_GRID = (2, 3)
SWEEP_PSI_ROLLOUTS = 100
SWEEP_PSI_NOISE = 0.03

# JSON kind of each config field type; every config key is a field of
# ExperimentConfig, SystemConfig or SafetyParams, which supply its default.
_KINDS = {
    int: "integer",
    float: "number",
    float | None: "number|null",
    bool: "boolean",
    str: "string",
}
_DESCRIPTIONS = {
    "groups": "number of independent rollout groups",
    "rollouts_per_group": "rollouts P per group (>= 2)",
    "theta": "violation threshold on normalized scores, in (0, 1)",
    "delta": "confidence level for all bounds, in (0, 1)",
    "base_seed": "rollout p of group g is seeded base_seed + g*P + p",
    "h_min": "minimum accepted initial weighted margin",
    "eps_norm": "floor for the per-group score normalizer",
    "n_agents": "number of agents N (>= 2)",
    "state_dim": "per-agent state dimension n",
    "control_dim": "per-agent control dimension m",
    "noise_bound": "per-agent disturbance norm bound",
    "dt": "integration step",
    "horizon_steps": "number of Euler steps per rollout",
    "domain_half_width": "side length of the square spawn region",
    "min_initial_separation": "required pairwise spawn distance",
    "dynamics": "single_integrator | double_integrator",
    "noise_dist": "ball (uniform in ball) | sphere (norm pinned at bound)",
    "psi": "control-alignment weight (>= 0)",
    "reg_eps": "regularizer in the propagation vector",
    "d_min": "minimum separation radius",
    "kappa": "linear class-K gain",
    "robust_margin_enabled": "subtract the worst-case noise margin",
    "freeze_adot": "fold the frozen propagation derivative into the QP rhs",
    "control_bound": "optional symmetric box bound on each control entry",
}


def _config_fields(cls) -> list:
    """(field, resolved type) for every field of a config dataclass."""
    hints = get_type_hints(cls)
    return [(f, hints[f.name]) for f in fields(cls)]


def config_schema() -> dict:
    """JSON-schema-style description of the config file, defaults included."""

    def section(cls) -> dict:
        props = {}
        for f, hint in _config_fields(cls):
            if is_dataclass(hint):
                props[f.name] = {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": section(hint),
                }
            else:
                props[f.name] = {
                    "type": _KINDS[hint],
                    "description": _DESCRIPTIONS[f.name],
                    "default": f.default,
                }
        return props

    return {
        "title": "cbfcert experiment configuration",
        "type": "object",
        "additionalProperties": False,
        "properties": section(ExperimentConfig),
    }


def _coerce(value, kind: str, path: str):
    if kind == "integer":
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path}: expected an integer, got {value!r}")
        return value
    if kind == "number|null" and value is None:
        return None
    if kind in ("number", "number|null"):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            expected = "a number" if kind == "number" else "a number or null"
            raise ConfigError(f"{path}: expected {expected}, got {value!r}")
        # Python's JSON parser accepts NaN and Infinity, and integers too
        # large for a float; no range check catches NaN, so reject them here.
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        if not math.isfinite(number):
            raise ConfigError(f"{path}: expected a finite number, got {value!r}")
        return number
    if kind == "boolean":
        if not isinstance(value, bool):
            raise ConfigError(f"{path}: expected a boolean, got {value!r}")
        return value
    if kind == "string":
        if not isinstance(value, str):
            raise ConfigError(f"{path}: expected a string, got {value!r}")
        return value
    raise AssertionError(kind)


def _build(cls, data: dict, prefix: str):
    """One config dataclass from its JSON object; nested sections recurse."""
    known = {f.name: hint for f, hint in _config_fields(cls)}
    kwargs = {}
    for key, value in data.items():
        path = prefix + key
        if key not in known:
            raise ConfigError(f"unknown config key {path!r}")
        hint = known[key]
        if is_dataclass(hint):
            if not isinstance(value, dict):
                raise ConfigError(f"{path}: expected an object")
            kwargs[key] = _build(hint, value, path + ".")
        else:
            kwargs[key] = _coerce(value, _KINDS[hint], path)
    return cls(**kwargs)


def build_config(data: dict) -> ExperimentConfig:
    """Validate a parsed JSON document and fill defaults."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    return _build(ExperimentConfig, data, "")


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse and validate a JSON config file; unknown keys are rejected."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid UTF-8: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config parse error in {path} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return build_config(data)


def config_hash(config: ExperimentConfig) -> str:
    canonical = json.dumps(asdict(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".6g")
    return str(value)


def _write_csv(path: Path, comments: list[str], columns: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_json(path: Path, data: dict) -> None:
    path.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")


def _dump_trajectories(out_dir: Path, rollouts: Rollouts, config: ExperimentConfig) -> None:
    traj_dir = out_dir / "trajectories"
    traj_dir.mkdir(parents=True, exist_ok=True)
    n = config.system.state_dim
    m = config.system.control_dim
    columns = (
        ["t", "agent"]
        + [f"x{c}" for c in range(n)]
        + [f"u{c}" for c in range(m)]
        + ["min_pair_margin"]
    )
    xs, us, margins = rollouts.trajectory
    for g_index, p_index in np.ndindex(rollouts.seed.shape):
        rows = []
        # dt added once per step, not k * dt: the two differ in the last
        # bits, and the golden trajectory digests pin this sequence.
        t = 0.0
        for x, u, min_margin in zip(
            xs[g_index, p_index], us[g_index, p_index], margins[g_index, p_index]
        ):
            for agent in range(config.system.n_agents):
                rows.append([t, agent, *x[agent].tolist(), *u[agent].tolist(), min_margin])
            t += config.system.dt
        path = traj_dir / f"group{g_index:04d}_rollout{p_index:03d}.csv"
        _write_csv(path, [f"seed: {rollouts.seed[g_index, p_index]}"], columns, rows)


def _run(args) -> int:
    """The steps every run subcommand shares around its body.

    Resolves the config (``--seed`` overrides its base seed), makes ``--out``
    (``SetupError`` when it cannot) and calls
    ``args.body(args, config, manifest)``, which runs the cells, writes its
    own extra files, prints its lines (its closing "wrote" line included)
    and returns (csv name, columns, rows). That CSV is written
    under the provenance lines, then ``run_manifest.json``.

    The body hands the chunks of all its cells to one
    ``rollout.run_experiments`` call, which forks the ``--jobs`` workers
    (none at ``--jobs 1``) and reaps them before it returns or raises.
    Forked workers share the numpy this process loaded, while spawned ones
    would each import it again, which costs more than the cells of a small
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
    try:
        args.out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a regular file at --out or on its way
        raise SetupError(f"cannot make output directory {args.out}: {exc.strerror}") from exc
    csv_name, columns, rows = args.body(args, config, manifest)
    provenance = [
        f"tool: cbfcert {__version__}",
        f"generated_utc: {manifest['timestamp_utc']}",
        f"config_hash: {manifest['config_hash']}",
        f"base_seed: {config.base_seed}",
    ]
    _write_csv(args.out / csv_name, provenance, columns, rows)
    _write_json(args.out / "run_manifest.json", manifest)
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


def cmd_verify(args, config: ExperimentConfig, manifest: dict):
    rollouts, z, x_flags = run_experiment(
        config, jobs=args.jobs, record_trajectory=args.dump_trajectories
    )
    report = certificate(config, x_flags, z, rollouts.max_control_norm)
    _write_json(
        args.out / "certificate.json",
        {
            "tool_version": manifest["tool_version"],
            "generated_utc": manifest["timestamp_utc"],
            "config_hash": manifest["config_hash"],
            "base_seed": manifest["base_seed"],
            "config": manifest["config"],
            "pooled_violation_rate": report.pooled_violation_rate,
            "satisfaction": {
                "bernstein": report.bernstein_satisfaction,
                "hoeffding": report.hoeffding_satisfaction,
                "scenario": report.scenario_satisfaction,
            },
            "analytic_delta": report.analytic_delta,
            "groups": [
                {"group_id": k, **asdict(s), "bernstein_full": s.bernstein_full}
                for k, s in enumerate(report.group_stats)
            ],
            # Steps whose constraint polyhedron was empty and that ran on the
            # shared-slack relaxation: the barrier condition did not hold there.
            "diagnostics": {
                "relaxed_steps": int(rollouts.relaxed_steps.sum()),
                "relaxed_rollouts": int(np.count_nonzero(rollouts.relaxed_steps)),
            },
        },
    )
    if args.dump_trajectories:
        _dump_trajectories(args.out, rollouts, config)
    print(
        f"verify: {config.groups} groups x {config.rollouts_per_group} rollouts | "
        f"pooled violation rate {report.pooled_violation_rate:.6g} | "
        f"B_sat {report.bernstein_satisfaction:.6g} "
        f"H_sat {report.hoeffding_satisfaction:.6g} "
        f"S_sat {report.scenario_satisfaction:.6g} | "
        f"analytic delta {report.analytic_delta:.6g}"
    )
    print(f"wrote {args.out / 'certificate.json'} and {args.out / 'groups.csv'}")
    columns = ["group_id", *(f.name for f in fields(GroupStats))]
    return "groups.csv", columns, [(k, *astuple(s)) for k, s in enumerate(report.group_stats)]


def cmd_reproduce_table1(args, config: ExperimentConfig, manifest: dict):
    cells = [
        _cell(config, manifest, system={"n_agents": n_agents, "noise_bound": w_bar})
        for n_agents in TABLE1_AGENT_GRID
        for w_bar in TABLE1_NOISE_GRID
    ]
    rows = []
    for cell, (rollouts, z, x_flags) in zip(cells, run_experiments(cells, args.jobs)):
        report = certificate(cell, x_flags, z, rollouts.max_control_norm)
        p_hat, eps_b, eps_h, eps_s = (
            float(np.mean([getattr(s, name) for s in report.group_stats]))
            for name in ("p_hat", "eps_bernstein", "eps_hoeffding", "eps_scenario")
        )
        b_sat = report.bernstein_satisfaction
        h_sat = report.hoeffding_satisfaction
        s_sat = report.scenario_satisfaction
        w_bar, n_agents = cell.system.noise_bound, cell.system.n_agents
        rows.append((w_bar, n_agents, p_hat, eps_b, eps_h, eps_s, b_sat, h_sat, s_sat))
        print(f"cell N={n_agents} w_bar={w_bar}: p_hat {p_hat:.6g} B_sat {b_sat:.6g}")
    print(f"wrote {args.out / 'table1.csv'}")
    columns = ["w_bar", "N", "p_hat", "eps_B", "eps_H", "eps_S", "B_sat", "H_sat", "S_sat"]
    return "table1.csv", columns, rows


def cmd_sweep_psi(args, config: ExperimentConfig, manifest: dict):
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
    for psi, (rollouts, _, x_flags) in zip(PSI_GRID, run_experiments(cells, args.jobs)):
        p_hat_v = float(x_flags.mean())
        min_dist = float(rollouts.min_distance.mean())
        rows.append((psi, p_hat_v, min_dist))
        print(f"psi={psi:g}: p_hat_v {p_hat_v:.6g} min_dist {min_dist:.6g}")
    print(f"wrote {args.out / 'psi_sweep.csv'}")
    return "psi_sweep.csv", ["psi", "p_hat_v", "min_dist"], rows


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
        p.add_argument("--jobs", type=jobs, default=_usable_cpus(), help="worker processes (output is identical for any value)")
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
