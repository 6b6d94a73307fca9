import csv
import json
import multiprocessing
import re
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict

import numpy as np
import pytest

from cbfcert.cli import (
    build_config,
    config_hash,
    config_schema,
    load_config,
    main,
)
from cbfcert.errors import ConfigError
from cbfcert.rollout import run_experiment

TINY = {
    "groups": 2,
    "rollouts_per_group": 3,
    "base_seed": 4242,
    "system": {"horizon_steps": 5, "domain_half_width": 4.0},
}


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


def csv_body(path):
    """Everything except the '#' provenance header lines."""
    with open(path, "rb") as fh:
        return b"".join(line for line in fh if not line.startswith(b"#"))


class TestLoadConfig:
    def test_empty_object_resolves_to_defaults(self, tmp_path):
        cfg = load_config(write_config(tmp_path, {}))
        assert cfg.groups == 100
        assert cfg.rollouts_per_group == 50
        assert cfg.system.n_agents == 2
        assert cfg.system.noise_bound == pytest.approx(0.03)
        assert cfg.safety.psi == pytest.approx(2.0)
        assert cfg.theta == pytest.approx(0.1)

    def test_out_of_range_theta_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="theta"):
            load_config(write_config(tmp_path, {"theta": 1.5}))

    def test_unknown_keys_rejected_with_path(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown config key 'thteta'"):
            load_config(write_config(tmp_path, {"thteta": 0.1}))
        with pytest.raises(ConfigError, match="system.n_agentss"):
            load_config(write_config(tmp_path, {"system": {"n_agentss": 3}}))

    def test_type_errors_carry_paths(self, tmp_path):
        with pytest.raises(ConfigError, match="system.n_agents"):
            load_config(write_config(tmp_path, {"system": {"n_agents": "two"}}))
        with pytest.raises(ConfigError, match="groups"):
            load_config(write_config(tmp_path, {"groups": True}))

    def test_parse_error_reports_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"groups": 2,,}', encoding="utf-8")
        with pytest.raises(ConfigError, match=r"line 1"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.json")

    def test_resolved_config_round_trips(self, tmp_path):
        cfg = load_config(write_config(tmp_path, TINY))
        resolved = asdict(cfg)
        again = build_config(json.loads(json.dumps(resolved)))
        assert again == cfg
        assert config_hash(again) == config_hash(cfg)

    def test_schema_lists_every_key_with_default(self):
        schema = config_schema()
        props = schema["properties"]
        assert props["theta"]["default"] == 0.1
        assert props["system"]["properties"]["domain_half_width"]["default"] == 10.0
        assert props["safety"]["properties"]["psi"]["default"] == 2.0
        resolved = asdict(build_config({}))
        for key in resolved:
            assert key in props
        for key in resolved["system"]:
            assert key in props["system"]["properties"]
        for key in resolved["safety"]:
            assert key in props["safety"]["properties"]


class TestVerifyCommand:
    def test_writes_certificate_and_groups(self, tmp_path):
        cfg_path = write_config(tmp_path, TINY)
        out = tmp_path / "out"
        rc = main(["verify", "--config", str(cfg_path), "--out", str(out), "--jobs", "1"])
        assert rc == 0
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["base_seed"] == 4242
        assert len(cert["groups"]) == 2
        for entry in cert["groups"]:
            assert set(entry) == {
                "group_id",
                "p_hat",
                "sigma2_hat",
                "eps_bernstein",
                "eps_hoeffding",
                "eps_scenario",
                "d_support",
                "bernstein_full",
            }
            assert entry["bernstein_full"] == pytest.approx(
                entry["p_hat"] + entry["eps_bernstein"]
            )
        assert 0.0 <= cert["pooled_violation_rate"] <= 1.0
        assert 0.0 <= cert["satisfaction"]["bernstein"] <= 1.0
        assert 0.0 < cert["analytic_delta"] <= 1.0
        assert cert["diagnostics"] == {"relaxed_steps": 0, "relaxed_rollouts": 0}
        with open(out / "groups.csv") as fh:
            rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
        assert [r["group_id"] for r in rows] == ["0", "1"]
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["config_hash"] == cert["config_hash"]

    def test_byte_identical_bodies_across_runs_and_jobs(self, tmp_path):
        cfg_path = write_config(tmp_path, TINY)
        bodies = []
        for name, jobs in (("a", "1"), ("b", "1"), ("c", "2")):
            out = tmp_path / name
            assert main(["verify", "--config", str(cfg_path), "--out", str(out), "--jobs", jobs]) == 0
            bodies.append(csv_body(out / "groups.csv"))
        assert bodies[0] == bodies[1] == bodies[2]

    def test_certificate_reports_relaxed_steps(self, tmp_path):
        # Six double-integrator agents regularly face an empty constraint
        # polyhedron; the relaxed steps must reach the certificate. This seed
        # also gives one rollout without any relaxed step.
        data = {
            "groups": 2,
            "rollouts_per_group": 2,
            "base_seed": 52,
            "system": {
                "n_agents": 6,
                "state_dim": 4,
                "control_dim": 2,
                "dynamics": "double_integrator",
                "domain_half_width": 5.0,
                "horizon_steps": 30,
            },
            "safety": {"psi": 0.0, "kappa": 0.1},
        }
        out = tmp_path / "out"
        cfg_path = write_config(tmp_path, data)
        assert main(["verify", "--config", str(cfg_path), "--out", str(out)]) == 0
        cert = json.loads((out / "certificate.json").read_text())
        steps = run_experiment(build_config(data))[0].relaxed_steps.ravel().tolist()
        assert 0 in steps and sum(steps) > 0
        assert cert["diagnostics"] == {
            "relaxed_steps": sum(steps),
            "relaxed_rollouts": sum(n > 0 for n in steps),
        }

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg_path = write_config(tmp_path, TINY)
        out = tmp_path / "out"
        assert main(["verify", "--config", str(cfg_path), "--out", str(out), "--seed", "777"]) == 0
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["base_seed"] == 777

    def test_six_significant_digit_csv(self, tmp_path):
        cfg_path = write_config(tmp_path, TINY)
        out = tmp_path / "fmt"
        assert main(["verify", "--config", str(cfg_path), "--out", str(out)]) == 0
        body = csv_body(out / "groups.csv").decode()
        for token in re.findall(r"\d+\.\d+", body):
            digits = token.replace(".", "").lstrip("0")
            assert len(digits) <= 6

    def test_dump_trajectories(self, tmp_path):
        cfg_path = write_config(tmp_path, TINY)
        out = tmp_path / "traj"
        rc = main(
            ["verify", "--config", str(cfg_path), "--out", str(out), "--dump-trajectories"]
        )
        assert rc == 0
        files = sorted((out / "trajectories").glob("*.csv"))
        assert len(files) == 6  # 2 groups x 3 rollouts
        with open(files[0]) as fh:
            rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
        assert list(rows[0]) == ["t", "agent", "x0", "x1", "u0", "u1", "min_pair_margin"]
        # horizon_steps + 1 time points, one row per agent each
        assert len(rows) == (TINY["system"]["horizon_steps"] + 1) * 2

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, {"system": {"noise_bound": -0.5}})
        assert main(["verify", "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 2
        assert "noise_bound" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["verify", "reproduce-table1", "sweep-psi"])
    def test_zero_groups_exits_2(self, tmp_path, capsys, command):
        # Zero groups used to run: verify printed an analytic delta from no
        # rollouts and reproduce-table1 wrote rows of NaN statistics.
        cfg_path = write_config(tmp_path, {"groups": 0, "rollouts_per_group": 3})
        out = tmp_path / "x"
        assert main([command, "--config", str(cfg_path), "--out", str(out), "--jobs", "1"]) == 2
        assert "groups must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value",
        [("noise_bound", float("nan")), ("dt", float("inf")), ("domain_half_width", 10**400)],
    )
    def test_non_finite_number_exits_2(self, tmp_path, capsys, key, value):
        # json.dumps writes NaN / Infinity, which Python's JSON parser reads
        # back, and an integer too large for a float.
        data = {**TINY, "system": {**TINY["system"], key: value}}
        cfg_path = write_config(tmp_path, data)
        assert main(["verify", "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 2
        assert f"system.{key}" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_overflowing_state_exits_4(self, tmp_path, capsys, jobs):
        # A finite config whose noise overflows the state: the NaN right-hand
        # side must reach the solver and fail there, not later in the bounds.
        # At --jobs 2 the error is raised in a worker and the pool must be
        # gone by the time main returns.
        data = {**TINY, "system": {**TINY["system"], "n_agents": 3, "noise_bound": 1e300}}
        cfg_path = write_config(tmp_path, data)
        args = ["verify", "--config", str(cfg_path), "--out", str(tmp_path / "x"), "--jobs", jobs]
        assert main(args) == 4
        assert "internal solver failure" in capsys.readouterr().err
        assert multiprocessing.active_children() == []

    def test_singular_nnls_step_back_exits_0(self, tmp_path):
        # The golden control_bound parameters at P = 7: one relaxed step meets
        # a singular free set after an NNLS step back (rollout seed 2033).
        data = {
            "groups": 2,
            "rollouts_per_group": 7,
            "base_seed": 2024,
            "system": {"n_agents": 3, "domain_half_width": 2.5, "horizon_steps": 30},
            "safety": {"psi": 2.0, "kappa": 0.1, "control_bound": 0.01},
        }
        cfg_path = write_config(tmp_path, data)
        out = tmp_path / "out"
        assert main(["verify", "--config", str(cfg_path), "--out", str(out), "--jobs", "1"]) == 0
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["diagnostics"]["relaxed_steps"] > 0

    def test_setup_error_exits_3(self, tmp_path):
        cfg_path = write_config(
            tmp_path,
            {
                "groups": 1,
                "rollouts_per_group": 2,
                "system": {"n_agents": 30, "domain_half_width": 2.0},
            },
        )
        assert main(["verify", "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 3

    def test_unknown_subcommand_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_minimal_legal_sizes(self, tmp_path):
        # groups=1, P=2 is the smallest run on which every statistic is defined.
        cfg_path = write_config(
            tmp_path,
            {"groups": 1, "rollouts_per_group": 2, "system": {"horizon_steps": 1}},
        )
        out = tmp_path / "minimal"
        assert main(["verify", "--config", str(cfg_path), "--out", str(out)]) == 0
        cert = json.loads((out / "certificate.json").read_text())
        entry = cert["groups"][0]
        for key in ("p_hat", "sigma2_hat", "eps_bernstein", "eps_hoeffding", "eps_scenario"):
            assert np.isfinite(entry[key])

    def test_solver_failure_exits_4(self, tmp_path, monkeypatch, capsys):
        from cbfcert import cli
        from cbfcert.errors import SolverError

        def boom(*args, **kwargs):
            raise SolverError("synthetic failure")

        monkeypatch.setattr(cli, "run_experiment", boom)
        cfg_path = write_config(tmp_path, TINY)
        assert main(["verify", "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 4
        assert "bug report" in capsys.readouterr().err


class TestSweepCommands:
    def test_reproduce_table1_layout(self, tmp_path):
        cfg_path = write_config(
            tmp_path,
            {
                "groups": 1,
                "rollouts_per_group": 2,
                "system": {"horizon_steps": 2, "domain_half_width": 4.0},
            },
        )
        out = tmp_path / "t1"
        assert main(["reproduce-table1", "--config", str(cfg_path), "--out", str(out)]) == 0
        with open(out / "table1.csv") as fh:
            rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
        assert len(rows) == 6
        assert list(rows[0]) == [
            "w_bar", "N", "p_hat", "eps_B", "eps_H", "eps_S", "B_sat", "H_sat", "S_sat",
        ]
        assert [r["w_bar"] for r in rows] == ["0.01", "0.03", "0.05"] * 2
        assert [r["N"] for r in rows] == ["2"] * 3 + ["3"] * 3
        # The Hoeffding column depends only on (P, delta): constant across rows.
        assert len({r["eps_H"] for r in rows}) == 1

    def test_sweep_psi_layout(self, tmp_path):
        cfg_path = write_config(
            tmp_path,
            {"system": {"horizon_steps": 2, "domain_half_width": 4.0, "n_agents": 2}},
        )
        out = tmp_path / "psi"
        assert main(["sweep-psi", "--config", str(cfg_path), "--out", str(out)]) == 0
        with open(out / "psi_sweep.csv") as fh:
            rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
        assert list(rows[0]) == ["psi", "p_hat_v", "min_dist"]
        assert [r["psi"] for r in rows] == ["0", "2", "4", "6", "8", "10"]
        assert all(float(r["min_dist"]) > 0 for r in rows)

    @pytest.mark.parametrize("command", ["reproduce-table1", "sweep-psi"])
    def test_sweeps_reject_dump_trajectories(self, tmp_path, capsys, command):
        # Only verify writes trajectories; the sweeps must not accept the flag.
        cfg_path = write_config(tmp_path, TINY)
        args = [command, "--config", str(cfg_path), "--out", str(tmp_path / "x"), "--dump-trajectories"]
        assert main(args) == 2
        assert "--dump-trajectories" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_print_config_schema(self, capsys):
        assert main(["print-config-schema"]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["properties"]["system"]["properties"]["dt"]["default"] == 0.1


class TestWorkerPool:
    @pytest.mark.parametrize("command", ["verify", "reproduce-table1", "sweep-psi"])
    @pytest.mark.parametrize("jobs, pools", [("1", 0), ("2", 1)])
    def test_one_pool_per_command(self, tmp_path, monkeypatch, command, jobs, pools):
        # Every cell of a command runs on the same pool; --jobs 1 makes none.
        made = []
        init = ProcessPoolExecutor.__init__

        def counting_init(self, *args, **kwargs):
            made.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ProcessPoolExecutor, "__init__", counting_init)
        cfg_path = write_config(tmp_path, TINY)
        args = [command, "--config", str(cfg_path), "--out", str(tmp_path / "x"), "--jobs", jobs]
        assert main(args) == 0
        assert len(made) == pools
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("command", ["verify", "reproduce-table1", "sweep-psi"])
    @pytest.mark.parametrize("jobs", ["-3", "0"])
    def test_jobs_below_one_exit_2(self, tmp_path, capsys, command, jobs):
        # Rejected while parsing: nothing runs and no output is written.
        out = tmp_path / "x"
        assert main([command, "--out", str(out), "--jobs", jobs]) == 2
        assert "--jobs: must be at least 1" in capsys.readouterr().err
        assert not out.exists()
