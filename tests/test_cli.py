import csv
import json
import os
import re
import subprocess
import sys
from dataclasses import asdict

import numpy as np
import pytest

from cbfcert import cli, rollout
from cbfcert.cli import (
    build_config,
    config_hash,
    config_schema,
    load_config,
    main,
)
from cbfcert.errors import ConfigError
from cbfcert.rollout import run_experiment
import test_golden

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


def assert_no_child_left():
    # waitpid(-1) raises once this process has no child, running or unreaped.
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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

    def test_non_utf8_file_exits_2(self, tmp_path, capsys):
        # A UTF-16 byte-order mark is not UTF-8; it used to escape as a
        # UnicodeDecodeError traceback.
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(ConfigError, match="not valid UTF-8"):
            load_config(path)
        assert main(["verify", "--config", str(path), "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert not (tmp_path / "x").exists()

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

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_overflowing_state_exits_4(self, tmp_path, capsys, jobs):
        # A finite config whose noise overflows the state: the NaN right-hand
        # side must reach the solver and fail there, not later in the bounds.
        # At --jobs 2 the error is raised in a worker, which must be reaped by
        # the time main returns.
        data = {**TINY, "system": {**TINY["system"], "n_agents": 3, "noise_bound": 1e300}}
        cfg_path = write_config(tmp_path, data)
        args = ["verify", "--config", str(cfg_path), "--out", str(tmp_path / "x"), "--jobs", jobs]
        assert main(args) == 4
        assert "internal solver failure" in capsys.readouterr().err
        assert_no_child_left()

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

    @pytest.mark.parametrize("command", ["verify", "reproduce-table1", "sweep-psi"])
    @pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
    def test_out_that_cannot_be_made_exits_3(self, tmp_path, capsys, monkeypatch, command, below):
        # --out names a regular file, or a path below one: one error line
        # naming the path, before any cell runs.
        def boom(*args, **kwargs):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(rollout, "run_rollouts", boom)
        blocker = tmp_path / "taken"
        blocker.write_text("")
        out = blocker / "out" if below else blocker
        cfg_path = write_config(tmp_path, TINY)
        assert main([command, "--config", str(cfg_path), "--out", str(out), "--jobs", "1"]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"setup error: cannot make output directory {out}:" in err

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
    def test_manifest_records_each_cell_that_ran(self, tmp_path, monkeypatch, command):
        # Each run_manifest.json cell carries the hash of the config that
        # run_experiments received for it, in order; verify records no cells.
        ran = []
        run = cli.run_experiments
        monkeypatch.setattr(
            cli,
            "run_experiments",
            lambda cfgs, *a: ran.extend(map(config_hash, cfgs)) or run(cfgs, *a),
        )
        cfg_path = write_config(tmp_path, TINY)
        out = tmp_path / "x"
        assert main([command, "--config", str(cfg_path), "--out", str(out), "--jobs", "1"]) == 0
        cells = json.loads((out / "run_manifest.json").read_text(encoding="utf-8"))["cells"]
        assert [cell["config_hash"] for cell in cells] == ran
        assert len(set(ran)) == len(ran) == 6
        if command == "sweep-psi":
            assert cells[2]["overrides"] == {
                "groups": 1,
                "rollouts_per_group": 100,
                "system": {"noise_bound": 0.03},
                "safety": {"psi": 4.0},
            }
        else:
            assert cells[4]["overrides"] == {"system": {"n_agents": 3, "noise_bound": 0.03}}
        assert main(["verify", "--config", str(cfg_path), "--out", str(out), "--jobs", "1"]) == 0
        assert "cells" not in json.loads((out / "run_manifest.json").read_text(encoding="utf-8"))

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
        # Every cell of a command runs on one set of min(jobs, units) forked
        # workers; --jobs 1 forks none. On TINY every command has at least
        # two work units at --jobs 2.
        forks = []
        fork = os.fork

        def counting_fork():
            pid = fork()
            if pid:
                forks.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counting_fork)
        cfg_path = write_config(tmp_path, TINY)
        args = [command, "--config", str(cfg_path), "--out", str(tmp_path / "x"), "--jobs", jobs]
        assert main(args) == 0
        assert len(forks) == pools * int(jobs)
        assert_no_child_left()

    def test_dead_worker_fails_the_command(self, tmp_path, fresh_env):
        # A worker that exits without writing its results makes the command
        # exit 5 promptly, naming the worker, with no child left behind.
        cfg_path = write_config(tmp_path, TINY)
        code = (
            "import os, sys\n"
            "from cbfcert import cli, rollout\n"
            "rollout.run_rollouts = lambda *args: os._exit(9)\n"
            "try:\n"
            "    sys.exit(cli.main())\n"
            "finally:\n"
            "    try:\n"
            "        os.waitpid(-1, os.WNOHANG)\n"
            "    except ChildProcessError:\n"
            "        print('no child left')\n"
        )
        args = ["verify", "--config", str(cfg_path), "--out", str(tmp_path / "x"), "--jobs", "2"]
        result = subprocess.run(
            [sys.executable, "-c", code, *args],
            env=fresh_env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 5
        assert re.search(r"^worker failure: worker process \d+ died .*exit status 9", result.stderr), result.stderr
        assert result.stdout == "no child left\n"

    @pytest.mark.parametrize("command", ["verify", "reproduce-table1", "sweep-psi"])
    @pytest.mark.parametrize("jobs", ["-3", "0"])
    def test_jobs_below_one_exit_2(self, tmp_path, capsys, command, jobs):
        # Rejected while parsing: nothing runs and no output is written.
        out = tmp_path / "x"
        assert main([command, "--out", str(out), "--jobs", jobs]) == 2
        assert "--jobs: must be at least 1" in capsys.readouterr().err
        assert not out.exists()


class TestSchedule:
    @pytest.mark.parametrize(
        "command, csv_name", [("reproduce-table1", "table1.csv"), ("sweep-psi", "psi_sweep.csv")]
    )
    def test_sweep_bodies_equal_at_any_jobs(self, tmp_path, command, csv_name):
        cfg_path = write_config(tmp_path, TINY)
        bodies = set()
        for jobs in ("1", "2", "3", "7"):
            out = tmp_path / jobs
            args = [command, "--config", str(cfg_path), "--out", str(out), "--jobs", jobs]
            assert main(args) == 0
            bodies.add(csv_body(out / csv_name))
        assert len(bodies) == 1

    @pytest.mark.parametrize(
        "command, units",
        [("reproduce-table1", [18] * 2), ("sweep-psi", [100] * 6), ("verify", [3, 3])],
    )
    def test_every_unit_is_submitted_before_any_is_joined(
        self, tmp_path, monkeypatch, command, units
    ):
        # At --jobs 2 table1 runs each stack of its three same-N cells as one
        # work unit, sweep-psi one whole cell per unit, and verify cuts its
        # one cell in two; every unit reaches the runner in one call, before
        # any result is joined.
        calls = []
        run_units = rollout._run_units

        def spy(work, jobs):
            calls.append([len(unit[1]) for unit in work])
            return run_units(work, 1)

        monkeypatch.setattr(rollout, "_run_units", spy)
        cfg_path = write_config(tmp_path, TINY)
        args = [command, "--config", str(cfg_path), "--out", str(tmp_path / "x"), "--jobs", "2"]
        assert main(args) == 0
        assert calls == [units]

    @pytest.mark.parametrize("jobs", ["1", "2", "3", "7"])
    def test_crowded_table1_cell_exits_3(self, tmp_path, capsys, jobs):
        # A 2 x 2 spawn square holds two agents at separation 1 but is too
        # crowded for three, so the N = 3 cells fail to spawn; every --jobs
        # reports the first failing cell, as --jobs 1 does.
        data = {**TINY, "system": {"horizon_steps": 5, "domain_half_width": 2.0}}
        cfg_path = write_config(tmp_path, data)
        out = tmp_path / "x"
        args = ["reproduce-table1", "--config", str(cfg_path), "--out", str(out), "--jobs", jobs]
        assert main(args) == 3
        assert capsys.readouterr().err == (
            "setup error: spawn domain too crowded: 3 agents at separation 1.0 "
            "in a 2.0 x 2.0 square\n"
        )
        assert_no_child_left()


class TestForkedOutput:
    def test_each_cell_line_is_printed_once(self, tmp_path, fresh_env):
        # stdout to a pipe is block-buffered; a forked worker must never
        # write the parent's buffer a second time.
        cfg_path = write_config(tmp_path, TINY)
        code = "import sys; from cbfcert.cli import main; sys.exit(main())"
        args = ["reproduce-table1", "--config", str(cfg_path), "--out", str(tmp_path / "x")]
        result = subprocess.run(
            [sys.executable, "-c", code, *args, "--jobs", "2"],
            env=fresh_env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        lines = result.stdout.splitlines()
        cells = [line for line in lines if line.startswith("cell N=")]
        assert len(cells) == len(set(cells)) == 6
        assert len(lines) == 7

    def test_results_larger_than_a_pipe_buffer(self, tmp_path):
        # Each worker returns 10 rollouts of 101 frames of 3 agents: about
        # 100 KiB of trajectories, more than a 64 KiB pipe buffer holds.
        data = {**TINY, "rollouts_per_group": 10}
        data["system"] = {**TINY["system"], "horizon_steps": 100}
        cfg_path = write_config(tmp_path, data)
        files = {}
        for jobs in ("1", "2"):
            out = tmp_path / jobs
            args = ["verify", "--config", str(cfg_path), "--out", str(out), "--jobs", jobs]
            assert main([*args, "--dump-trajectories"]) == 0
            traj = sorted((out / "trajectories").iterdir())
            files[jobs] = [(p.name, p.read_bytes()) for p in traj] + [
                ("groups.csv", csv_body(out / "groups.csv"))
            ]
        assert len(files["1"]) == 21
        assert files["1"] == files["2"]
        assert_no_child_left()


class TestJobsDefault:
    def test_default_is_the_cpus_this_process_may_use(self, monkeypatch):
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
        assert cli._build_parser().parse_args(["verify"]).jobs == 1

    @pytest.mark.parametrize("count, jobs", [(3, 3), (None, 1)])
    def test_default_without_affinity_is_the_cpu_count(self, monkeypatch, count, jobs):
        monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: count)
        assert cli._build_parser().parse_args(["verify"]).jobs == jobs


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("case", ["crowded_n12", "double_integrator"])
def test_golden_verify_in_fresh_interpreter(tmp_path, fresh_env, case, jobs):
    # The in-process golden tests import numpy before the CLI does; here the
    # CLI loads it, so the run goes through its one-thread BLAS.
    cfg_path = write_config(tmp_path, test_golden._config(case))
    out = tmp_path / "out"
    code = "import sys; from cbfcert.cli import main; sys.exit(main())"
    args = ["verify", "--config", str(cfg_path), "--out", str(out), "--jobs", jobs]
    result = subprocess.run(
        [sys.executable, "-c", code, *args, "--dump-trajectories"],
        env=fresh_env,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert test_golden.csv_digest(out) == test_golden.GOLDEN[case]


def test_python_m_cli_runs_the_command(tmp_path, fresh_env):
    # `python -m cbfcert.cli` runs the same entry point as the `cbfcert` script.
    cfg_path = write_config(tmp_path, TINY)
    out = tmp_path / "out"
    args = ["verify", "--config", str(cfg_path), "--out", str(out), "--jobs", "1"]
    result = subprocess.run(
        [sys.executable, "-m", "cbfcert.cli", *args], env=fresh_env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    assert (out / "certificate.json").is_file()
