"""Command-line interface: config loading, experiment orchestration, reports.

Subcommands:
  verify               run the configured experiment, write certificate.json + groups.csv
  reproduce-table1     sweep noise bound x agent count, write table1.csv
  sweep-psi            sweep the alignment weight, write psi_sweep.csv
  print-config-schema  dump the JSON config schema with defaults

Exit codes: 0 success, 2 config error, 3 runtime setup error, 4 internal
solver failure.

Two runs with the same config file and seed produce byte-identical CSV bodies
regardless of --jobs; only the '#'-prefixed provenance header lines (which
carry a timestamp) may differ.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields, is_dataclass, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import __version__
from .bounds import CertificateReport, bernstein_bound, certificate
from .errors import ConfigError, SetupError, SolverError
from .rollout import ExperimentConfig, GroupRecord, run_experiment

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
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config parse error in {path} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return build_config(data)


def resolved_config_dict(config: ExperimentConfig) -> dict:
    """Plain-dict view of a resolved config; re-parsing it reproduces the config."""
    return asdict(config)


def config_hash(config: ExperimentConfig) -> str:
    canonical = json.dumps(resolved_config_dict(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class RunManifest:
    config_path: str
    config: dict
    config_hash: str
    base_seed: int
    tool_version: str
    timestamp_utc: str
    out_dir: str
    command: str
    jobs: int


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


def _provenance_lines(manifest: RunManifest) -> list[str]:
    return [
        f"tool: cbfcert {manifest.tool_version}",
        f"generated_utc: {manifest.timestamp_utc}",
        f"config_hash: {manifest.config_hash}",
        f"base_seed: {manifest.base_seed}",
    ]


def _make_manifest(args, config: ExperimentConfig, command: str) -> RunManifest:
    return RunManifest(
        config_path=str(args.config) if args.config else "<defaults>",
        config=resolved_config_dict(config),
        config_hash=config_hash(config),
        base_seed=config.base_seed,
        tool_version=__version__,
        timestamp_utc=datetime.now(timezone.utc).isoformat(),
        out_dir=str(args.out),
        command=command,
        jobs=args.jobs,
    )


def _write_manifest(out_dir: Path, manifest: RunManifest) -> None:
    (out_dir / "run_manifest.json").write_text(
        json.dumps(asdict(manifest), indent=2) + "\n", encoding="utf-8"
    )


def _dump_trajectories(out_dir: Path, groups: list[GroupRecord], config: ExperimentConfig) -> None:
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
    for g_index, group in enumerate(groups):
        for p_index, record in enumerate(group.rollouts):
            if record.trajectory is None:
                continue
            rows = []
            for t, x, u, min_margin in record.trajectory:
                for agent in range(config.system.n_agents):
                    rows.append(
                        [t, agent, *x[agent].tolist(), *u[agent].tolist(), min_margin]
                    )
            path = traj_dir / f"group{g_index:04d}_rollout{p_index:03d}.csv"
            _write_csv(path, [f"seed: {record.seed}"], columns, rows)


def _certificate_json(
    report: CertificateReport,
    manifest: RunManifest,
    config: ExperimentConfig,
    groups: list[GroupRecord],
) -> dict:
    rollouts = [r for g in groups for r in g.rollouts]
    per_group = []
    for k, s in enumerate(report.group_stats):
        per_group.append(
            {
                "group_id": k,
                "p_hat": s.p_hat,
                "sigma2_hat": s.sigma2_hat,
                "eps_bernstein": s.eps_bernstein,
                "eps_hoeffding": s.eps_hoeffding,
                "eps_scenario": s.eps_scenario,
                "d_support": s.d_support,
                "bernstein_full": bernstein_bound(
                    s.p_hat, s.sigma2_hat, config.rollouts_per_group, config.delta
                ),
            }
        )
    return {
        "tool_version": manifest.tool_version,
        "generated_utc": manifest.timestamp_utc,
        "config_hash": report.config_hash,
        "base_seed": report.base_seed,
        "config": manifest.config,
        "pooled_violation_rate": report.pooled_violation_rate,
        "satisfaction": {
            "bernstein": report.bernstein_satisfaction,
            "hoeffding": report.hoeffding_satisfaction,
            "scenario": report.scenario_satisfaction,
        },
        "analytic_delta": report.analytic_delta,
        "groups": per_group,
        # Steps whose constraint polyhedron was empty and that ran on the
        # shared-slack relaxation: the barrier condition did not hold there.
        "diagnostics": {
            "relaxed_steps": sum(r.infeasible_steps for r in rollouts),
            "relaxed_rollouts": sum(r.infeasible_steps > 0 for r in rollouts),
        },
    }


def _build_certificate(
    groups: list[GroupRecord], config: ExperimentConfig
) -> CertificateReport:
    return certificate(
        groups,
        delta=config.delta,
        h_min=config.h_min,
        horizon_steps=config.system.horizon_steps,
        w_bar=config.system.noise_bound,
        domain_side=config.system.domain_half_width,
        dt=config.system.dt,
        n_agents=config.system.n_agents,
        config_hash=config_hash(config),
        base_seed=config.base_seed,
    )


def cmd_verify(args) -> int:
    config = _resolve_config(args)
    manifest = _make_manifest(args, config, "verify")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    groups = run_experiment(config, jobs=args.jobs, record_trajectory=args.dump_trajectories)
    report = _build_certificate(groups, config)
    (out_dir / "certificate.json").write_text(
        json.dumps(_certificate_json(report, manifest, config, groups), indent=2) + "\n",
        encoding="utf-8",
    )
    rows = [
        (
            k,
            s.p_hat,
            s.sigma2_hat,
            s.eps_bernstein,
            s.eps_hoeffding,
            s.eps_scenario,
            s.d_support,
        )
        for k, s in enumerate(report.group_stats)
    ]
    _write_csv(
        out_dir / "groups.csv",
        _provenance_lines(manifest),
        ["group_id", "p_hat", "sigma2_hat", "eps_bernstein", "eps_hoeffding", "eps_scenario", "d_support"],
        rows,
    )
    if args.dump_trajectories:
        _dump_trajectories(out_dir, groups, config)
    _write_manifest(out_dir, manifest)
    print(
        f"verify: {config.groups} groups x {config.rollouts_per_group} rollouts | "
        f"pooled violation rate {report.pooled_violation_rate:.6g} | "
        f"B_sat {report.bernstein_satisfaction:.6g} "
        f"H_sat {report.hoeffding_satisfaction:.6g} "
        f"S_sat {report.scenario_satisfaction:.6g} | "
        f"analytic delta {report.analytic_delta:.6g}"
    )
    print(f"wrote {out_dir / 'certificate.json'} and {out_dir / 'groups.csv'}")
    return 0


def cmd_reproduce_table1(args) -> int:
    config = _resolve_config(args)
    manifest = _make_manifest(args, config, "reproduce-table1")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for n_agents in TABLE1_AGENT_GRID:
        for w_bar in TABLE1_NOISE_GRID:
            cell = replace(
                config,
                system=replace(config.system, n_agents=n_agents, noise_bound=w_bar),
            )
            groups = run_experiment(cell, jobs=args.jobs)
            report = _build_certificate(groups, cell)
            stats = report.group_stats
            rows.append(
                (
                    w_bar,
                    n_agents,
                    float(np.mean([s.p_hat for s in stats])),
                    float(np.mean([s.eps_bernstein for s in stats])),
                    float(np.mean([s.eps_hoeffding for s in stats])),
                    float(np.mean([s.eps_scenario for s in stats])),
                    report.bernstein_satisfaction,
                    report.hoeffding_satisfaction,
                    report.scenario_satisfaction,
                )
            )
            print(
                f"cell N={n_agents} w_bar={w_bar}: p_hat {rows[-1][2]:.6g} "
                f"B_sat {rows[-1][6]:.6g}"
            )
    _write_csv(
        out_dir / "table1.csv",
        _provenance_lines(manifest),
        ["w_bar", "N", "p_hat", "eps_B", "eps_H", "eps_S", "B_sat", "H_sat", "S_sat"],
        rows,
    )
    _write_manifest(out_dir, manifest)
    print(f"wrote {out_dir / 'table1.csv'}")
    return 0


def cmd_sweep_psi(args) -> int:
    config = _resolve_config(args)
    manifest = _make_manifest(args, config, "sweep-psi")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for psi in PSI_GRID:
        cell = replace(
            config,
            groups=1,
            rollouts_per_group=SWEEP_PSI_ROLLOUTS,
            system=replace(config.system, noise_bound=SWEEP_PSI_NOISE),
            safety=replace(config.safety, psi=psi),
        )
        groups = run_experiment(cell, jobs=args.jobs)
        group = groups[0]
        p_hat_v = float(np.asarray(group.x_flags).mean())
        min_dist = float(np.mean([r.min_distance for r in group.rollouts]))
        rows.append((psi, p_hat_v, min_dist))
        print(f"psi={psi:g}: p_hat_v {p_hat_v:.6g} min_dist {min_dist:.6g}")
    _write_csv(
        out_dir / "psi_sweep.csv",
        _provenance_lines(manifest),
        ["psi", "p_hat_v", "min_dist"],
        rows,
    )
    _write_manifest(out_dir, manifest)
    print(f"wrote {out_dir / 'psi_sweep.csv'}")
    return 0


def cmd_print_config_schema(args) -> int:
    print(json.dumps(config_schema(), indent=2))
    return 0


def _resolve_config(args) -> ExperimentConfig:
    config = load_config(args.config) if args.config else build_config({})
    if getattr(args, "seed", None) is not None:
        config = replace(config, base_seed=args.seed)
    return config


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

    def common(p):
        p.add_argument("--config", type=Path, default=None, help="JSON config file (defaults used when omitted)")
        p.add_argument("--out", type=Path, default=Path("out"), help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override base_seed")
        p.add_argument("--jobs", type=int, default=os.cpu_count() or 1, help="worker processes (output is identical for any value)")
        p.add_argument("--dump-trajectories", action="store_true", help="write one CSV per rollout")

    p_verify = sub.add_parser("verify", help="run the experiment and emit the certificate")
    common(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_t1 = sub.add_parser("reproduce-table1", help="sweep noise bound x agent count")
    common(p_t1)
    p_t1.set_defaults(func=cmd_reproduce_table1)

    p_psi = sub.add_parser("sweep-psi", help="sweep the alignment weight psi")
    common(p_psi)
    p_psi.set_defaults(func=cmd_sweep_psi)

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


def entrypoint() -> None:
    sys.exit(main())
