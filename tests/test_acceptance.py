"""Acceptance gate: one test per release criterion, at pinned tolerances.

Each test prints an ``ACCEPTANCE <n> PASS`` line on success (visible with
``pytest -s``); a failing criterion shows up as a normal assertion failure.
Criterion 2 runs the full production sweep and dominates the suite's runtime.
"""

import csv
import json
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import binom

from cbfcert.bounds import bernstein_slack, hoeffding_bound, pairwise_variance, scenario_bound
from cbfcert.cli import main
from cbfcert.controller import STATUS_OPTIMAL, _constraint_rows
from cbfcert.rollout import ExperimentConfig, run_rollouts
from cbfcert.safety import PairTable, SafetyParams
from cbfcert.sysmodel import SystemConfig, dynamics_model, euler_step
from oracles import (
    kkt_residuals,
    make_feasible_qp,
    pairwise_variance_definition,
    qp_grid_oracle_2d,
    qp_oracle_slsqp,
    solve_qp,
)

REPO = Path(__file__).resolve().parent.parent


def read_csv_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def csv_body(path):
    with open(path, "rb") as fh:
        return b"".join(line for line in fh if not line.startswith(b"#"))


def test_criterion_1_closed_form_bounds():
    """Closed-form slack values at P = 50, delta = 0.1 (exact)."""
    assert hoeffding_bound(50, 0.1) == pytest.approx(0.17308, abs=5e-5)
    assert scenario_bound(0, 50, 0.1) == pytest.approx(0.046052, abs=5e-5)
    assert bernstein_slack(0.0, 50, 0.1) == pytest.approx(0.142653, abs=5e-5)
    print(
        "\nACCEPTANCE 1 PASS: hoeffding 0.17308, scenario 0.046052, "
        "bernstein zero-variance slack 0.142653 (all within 5e-5)"
    )


@pytest.fixture(scope="module")
def table1_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("table1")
    started = time.perf_counter()
    rc = main(
        [
            "reproduce-table1",
            "--config", str(REPO / "configs" / "table1.json"),
            "--out", str(out),
            "--jobs", "1",
        ]
    )
    elapsed = time.perf_counter() - started
    assert rc == 0
    return read_csv_rows(out / "table1.csv"), elapsed


def test_criterion_2_table1_trend_and_bernstein_satisfaction(table1_run):
    """Full 6-cell sweep: violation rate rises with the noise bound for two
    agents, and the Bernstein bound holds in at least 90% of groups in every
    cell, inside the 15-minute budget."""
    rows, elapsed = table1_run
    assert len(rows) == 6
    two_agent = [float(r["p_hat"]) for r in rows if r["N"] == "2"]
    assert two_agent[0] < two_agent[1] < two_agent[2], (
        f"two-agent violation rate not increasing across noise bounds: {two_agent}"
    )
    b_sats = {(r["N"], r["w_bar"]): float(r["B_sat"]) for r in rows}
    assert all(v >= 0.9 for v in b_sats.values()), f"B_sat below 0.9: {b_sats}"
    assert elapsed < 900.0, f"sweep took {elapsed:.0f}s, budget is 15 minutes"
    print(
        f"\nACCEPTANCE 2 PASS: N=2 p_hat {two_agent} increasing, "
        f"min B_sat {min(b_sats.values()):.2f} >= 0.9, {elapsed:.0f}s < 900s"
    )


def test_criterion_3_pac_coverage_on_synthetic_bernoulli():
    """The variance-adaptive bound must cover a known Bernoulli rate in at
    least a 1 - delta fraction of 10^4 groups (binomial test, alpha 1e-3)."""
    p_true, delta, P, n_groups = 0.05, 0.1, 50, 10_000
    rng = np.random.default_rng(20240501)
    flags = (rng.random((n_groups, P)) < p_true).astype(int)
    covered = 0
    for row in flags:
        bound = float(row.mean()) + bernstein_slack(pairwise_variance(row), P, delta)
        covered += p_true <= bound
    # Smallest count consistent with true coverage >= 0.9 at alpha = 0.001.
    threshold = int(binom.ppf(0.001, n_groups, 1 - delta))
    assert covered >= threshold, f"covered {covered} < binomial threshold {threshold}"
    print(
        f"\nACCEPTANCE 3 PASS: coverage {covered / n_groups:.4f} over {n_groups} "
        f"groups (needs >= {threshold / n_groups:.4f} at alpha 0.001)"
    )


def test_criterion_4_pairwise_variance_identity():
    """Pair-difference variance equals the unbiased sample variance to 1e-12
    on 1000 random binary vectors with P in [2, 200]."""
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(1000):
        p = int(rng.integers(2, 201))
        flags = (rng.random(p) < rng.random()).astype(int)
        ours = pairwise_variance(flags)
        literal = pairwise_variance_definition(flags)
        unbiased = float(np.var(flags, ddof=1))
        worst = max(worst, abs(ours - literal), abs(ours - unbiased))
    assert worst <= 1e-12
    print(f"\nACCEPTANCE 4 PASS: variance identity holds, max deviation {worst:.2e}")


def test_criterion_5_qp_oracle_equivalence():
    """500 random feasible instances (dim <= 4, <= 3 constraints): objective
    within 1e-2 of the independent oracle, feasibility within 1e-8, KKT
    residuals within 1e-6. The literal 1e-3 grid cross-checks 2-D instances
    at its resolution limit."""
    rng = np.random.default_rng(424242)
    worst_obj, worst_feas, worst_kkt = 0.0, 0.0, 0.0
    grid_checked = 0
    for idx in range(500):
        dim = int(rng.integers(2, 5))
        n_cons = int(rng.integers(1, 4))
        a, b, witness = make_feasible_qp(rng, dim, n_cons)
        u, duals, status, _ = solve_qp(a, b)
        assert status == STATUS_OPTIMAL
        obj = float(u @ u)
        _, ref_obj = qp_oracle_slsqp(a, b, witness)
        worst_obj = max(worst_obj, abs(obj - ref_obj))
        stat, comp, sign, primal = kkt_residuals(a, b, u, duals)
        worst_kkt = max(worst_kkt, stat, comp, sign)
        worst_feas = max(worst_feas, primal)
        if dim == 2 and grid_checked < 5:
            grid_obj, _ = qp_grid_oracle_2d(a, b)
            assert obj <= grid_obj + 1e-9
            # A 1e-3 grid certifies the optimum only up to its resolution gap.
            assert grid_obj - obj <= 5e-2
            grid_checked += 1
    assert worst_obj <= 1e-2
    assert worst_feas <= 1e-8
    assert worst_kkt <= 1e-6
    print(
        f"\nACCEPTANCE 5 PASS: 500 instances, max |obj - oracle| {worst_obj:.2e}, "
        f"max infeasibility {worst_feas:.2e}, max KKT residual {worst_kkt:.2e}, "
        f"{grid_checked} literal grid cross-checks"
    )


def _braking_invariance_run(seed: int):
    """Noise-free double-integrator run with inward velocities: the pairwise
    constraints genuinely activate and must keep every raw margin above
    -1e-6."""
    cfg = SystemConfig(
        dynamics="double_integrator",
        state_dim=4,
        control_dim=2,
        noise_bound=0.0,
        n_agents=3,
        horizon_steps=50,
    )
    params = SafetyParams(psi=0.0, robust_margin_enabled=False, kappa=1.0)
    model = dynamics_model(cfg)
    rng = np.random.default_rng(seed)
    while True:
        pos = rng.uniform(0.0, 6.0, (3, 2))
        diffs = [pos[i] - pos[j] for i in range(3) for j in range(i + 1, 3)]
        if min(float(np.linalg.norm(d)) for d in diffs) >= 1.5:
            break
    centroid = pos.mean(axis=0)
    vel = 0.6 * (centroid - pos) / np.linalg.norm(centroid - pos, axis=1, keepdims=True)
    vel += rng.uniform(-0.2, 0.2, (3, 2))
    x = np.hstack([pos, vel])
    u = np.zeros((3, 2))
    w = np.zeros((3, 4))
    min_h = np.inf
    active_steps = 0
    for k in range(cfg.horizon_steps + 1):
        table = PairTable(x, params, 0.0)
        u, _, status, _ = solve_qp(*_constraint_rows(u, params, model, table))
        u = u.reshape(3, 2)
        assert status == STATUS_OPTIMAL
        min_h = min(min_h, float(np.min(table.h)))
        if u.any():
            active_steps += 1
        if k == cfg.horizon_steps:
            break
        x = euler_step(x, u, w, 0.1, model)
    return min_h, active_steps


def test_criterion_6_noise_free_forward_invariance():
    """200 seeded noise-free rollouts with feasible QPs never drive any raw
    pairwise margin below -1e-6."""
    # Closed-loop engine on the default single-integrator model (static
    # equilibrium at zero noise), compact spawn domain.
    cfg = ExperimentConfig(
        groups=1,
        rollouts_per_group=2,
        system=SystemConfig(noise_bound=0.0, domain_half_width=3.0, horizon_steps=50),
        safety=SafetyParams(robust_margin_enabled=False),
    )
    rollouts = run_rollouts(cfg, list(range(100)))
    assert np.all(rollouts.relaxed_steps == 0)
    worst = float(rollouts.raw_min_margin.min())
    assert worst >= -1e-6

    # Double-integrator braking runs where the constraints actually bind.
    worst_braking = np.inf
    total_active = 0
    for seed in range(100):
        min_h, active = _braking_invariance_run(seed)
        worst_braking = min(worst_braking, min_h)
        total_active += active
    assert worst_braking >= -1e-6
    assert total_active > 0, "braking scenario never activated a constraint"
    print(
        f"\nACCEPTANCE 6 PASS: 200 noise-free rollouts, min margin static "
        f"{worst:.4f}, min margin braking {worst_braking:.4f} (>= -1e-6), "
        f"{total_active} actively controlled steps"
    )


@pytest.fixture(scope="module")
def psi_sweep_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("psi")
    rc = main(
        [
            "sweep-psi",
            "--config", str(REPO / "configs" / "psi_sweep.json"),
            "--out", str(out),
            "--jobs", "1",
        ]
    )
    assert rc == 0
    return read_csv_rows(out / "psi_sweep.csv")


def test_criterion_7_psi_sensitivity_trend(psi_sweep_run):
    """Across psi in {0,...,10} at noise 0.03 with three agents and 100
    rollouts per value, the least-squares slope of the violation rate is
    negative and mean minimum distances stay above one unit."""
    rows = psi_sweep_run
    psis = np.array([float(r["psi"]) for r in rows])
    p_v = np.array([float(r["p_hat_v"]) for r in rows])
    min_dists = np.array([float(r["min_dist"]) for r in rows])
    assert np.array_equal(psis, [0.0, 2.0, 4.0, 6.0, 8.0, 10.0])
    slope = float(np.polyfit(psis, p_v, 1)[0])
    assert slope < 0.0, f"violation rate does not decrease with psi: {p_v.tolist()}"
    assert np.all(min_dists > 1.0), f"minimum distances not above 1: {min_dists.tolist()}"
    print(
        f"\nACCEPTANCE 7 PASS: p_hat_v {p_v.tolist()} slope {slope:+.4f} < 0, "
        f"min distance {min_dists.min():.2f} > 1"
    )


def test_criterion_8_determinism_across_runs_and_workers(tmp_path):
    """verify twice with the same seed gives byte-identical groups.csv bodies,
    independent of --jobs."""
    cfg = {
        "groups": 4,
        "rollouts_per_group": 10,
        "base_seed": 31415,
        "system": {"horizon_steps": 25, "domain_half_width": 4.0},
    }
    cfg_path = tmp_path / "det.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    bodies = []
    for name, jobs in (("r1", "1"), ("r2", "1"), ("r3", "2")):
        out = tmp_path / name
        rc = main(["verify", "--config", str(cfg_path), "--out", str(out), "--jobs", jobs])
        assert rc == 0
        bodies.append(csv_body(out / "groups.csv"))
    assert bodies[0] == bodies[1], "same-seed runs differ"
    assert bodies[0] == bodies[2], "worker count changed the output"
    print(
        f"\nACCEPTANCE 8 PASS: groups.csv bodies byte-identical across reruns "
        f"and workers ({len(bodies[0])} bytes)"
    )
