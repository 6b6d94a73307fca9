"""Checks of the benchmark's own accounting.

Run from the repository root: python3 -m pytest perfbench -q
"""

import dataclasses
import json

import pytest

import run as bench
import tracer

# Two agents far apart: every command succeeds in well under a second.
HEALTHY = {
    "groups": 2,
    "rollouts_per_group": 2,
    "system": {"n_agents": 2, "domain_half_width": 3.0, "horizon_steps": 5},
}
DETERMINISTIC_COUNTS = (
    "rollout.run_rollout.count",
    "controller.fast_control.count",
    "controller.qp_active_ratio",
    "controller.relaxed_count",
    "sysmodel.sample_initial_state.count",
    "sysmodel.noise_array.count",
    "safety.PairTable.count",
)


def _workload(tmp_path, base: str, config: dict, **changes) -> bench.Workload:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return dataclasses.replace(bench.WORKLOADS[base], config=path, **changes)


def _double_integrator(**system) -> dict:
    config = json.loads(bench.WORKLOADS["double-integrator"].config.read_text(encoding="utf-8"))
    config.update(groups=1, rollouts_per_group=3)
    config["system"].update(system)
    return config


def test_healthy_config_has_no_failures(tmp_path):
    result = bench.measure_end_to_end(_workload(tmp_path, "crowded-n12", HEALTHY), 3, 0, setup_repeats=1)
    assert result["attempted"] == 2  # one timed command and the --jobs 1 check
    assert result["failed_share"] == 0
    assert result["metrics"]["success_share"] == 1.0
    assert all(r["digest"] == result["digest"] for r in result["runs"])


def test_solver_failure_counts_every_run(tmp_path):
    # At six agents the double integrator exhausts the enumeration budget.
    workload = _workload(tmp_path, "double-integrator", _double_integrator(n_agents=6))
    result = bench.measure_end_to_end(workload, 3, 0, setup_repeats=1)
    assert result["failed_share"] == 1
    assert result["metrics"]["success_share"] == 0.0
    assert all(r["error"].startswith("exit code 4") for r in result["runs"])


def test_output_check_failure_counts(tmp_path):
    columns = bench.GROUP_COLUMNS[:-1] + ("not_a_column",)
    workload = _workload(tmp_path, "crowded-n12", HEALTHY, columns=columns)
    result = bench.measure_end_to_end(workload, 3, 0, setup_repeats=1)
    assert result["failed_share"] == 1
    assert all(r["error"].startswith("output check") for r in result["runs"])


def test_check_csv_ranges_and_digest(tmp_path):
    path = tmp_path / "psi_sweep.csv"
    path.write_text("# generated_utc: a\npsi,p_hat_v,min_dist\n0,0.5,1.2\n", encoding="utf-8")
    digest = bench.check_csv(path, bench.PSI_COLUMNS, 1)
    path.write_text("# generated_utc: b\npsi,p_hat_v,min_dist\n0,0.5,1.2\n", encoding="utf-8")
    assert bench.check_csv(path, bench.PSI_COLUMNS, 1) == digest
    with pytest.raises(bench.OutputError):
        bench.check_csv(path, bench.PSI_COLUMNS, 2)
    for bad in ("0,1.5,1.2", "0,0.5,0", "0,nan,1.2"):
        path.write_text(f"psi,p_hat_v,min_dist\n{bad}\n", encoding="utf-8")
        with pytest.raises(bench.OutputError):
            bench.check_csv(path, bench.PSI_COLUMNS, 1)


def test_traced_counts_repeat_and_self_times_add_up(tmp_path):
    workload = _workload(tmp_path, "double-integrator", _double_integrator())
    first = bench.measure_layers(workload, 3)
    second = bench.measure_layers(workload, 3)
    assert first["failed"] == second["failed"] == 0
    assert first["digest"] == second["digest"]
    for key in DETERMINISTIC_COUNTS:
        assert first["metrics"][key] == second["metrics"][key], key
    m = first["metrics"]
    assert m["controller.relaxed_count"] > 0
    # The cli.main span covers the whole traced call, so the layers' self
    # times account for all but a sliver of its wall time.
    layers = sum(m[f"{layer}.self_s"] for layer in tracer.LAYERS)
    assert 0.99 * m["trace.wall_s"] < layers <= m["trace.wall_s"]
