import dataclasses
import json
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from cbfcert.cli import build_config
from cbfcert.errors import ConfigError, SetupError
from cbfcert.rollout import (
    ExperimentConfig,
    RolloutRecord,
    margin_scores,
    rollout_seed,
    run_experiment,
    run_group,
    run_rollout,
)
from cbfcert.safety import PairTable, SafetyParams
from cbfcert.sysmodel import SystemConfig, sample_initial_state
from test_golden import CASES as GOLDEN_CASES
from test_golden import _config as golden_config


def record(raw, seed=0):
    return RolloutRecord(
        raw_min_margin=raw,
        violated=raw < 0.0,
        min_distance=max(0.0, raw) ** 0.5,
        infeasible_steps=0,
        seed=seed,
    )


def assert_same_rollout(got, want):
    """Two RolloutRecords equal in every field, trajectories bitwise."""
    assert dataclasses.replace(got, trajectory=None) == dataclasses.replace(
        want, trajectory=None
    )
    assert (got.trajectory is None) == (want.trajectory is None)
    assert len(got.trajectory or ()) == len(want.trajectory or ())
    for (t, x, u, m), (t1, x1, u1, m1) in zip(got.trajectory or (), want.trajectory or ()):
        assert (t, m) == (t1, m1)
        assert np.array_equal(x, x1) and np.array_equal(u, u1)


def assert_same_group(got, want):
    """Two GroupRecords equal in every field, trajectories bitwise."""
    assert len(got.rollouts) == len(want.rollouts)
    for r, w in zip(got.rollouts, want.rollouts):
        assert_same_rollout(r, w)
    assert np.array_equal(got.z_scores, want.z_scores)
    assert np.array_equal(got.x_flags, want.x_flags)
    assert (got.h_tilde_max, got.theta) == (want.h_tilde_max, want.theta)


SMALL = ExperimentConfig(
    groups=2,
    rollouts_per_group=4,
    system=SystemConfig(horizon_steps=8),
)


class TestMarginScores:
    def test_all_violated(self):
        z, x, h_max = margin_scores([record(-1.0), record(-0.5)], 0.1, 1e-9)
        assert np.array_equal(z, [0.0, 0.0])
        assert np.array_equal(x, [1, 1])
        assert h_max == 0.0

    def test_hand_example(self):
        z, x, h_max = margin_scores(
            [record(2.0), record(1.0), record(-0.3)], 0.1, 1e-9
        )
        assert h_max == 2.0
        assert np.allclose(z, [1.0, 0.5, 0.0])
        assert np.array_equal(x, [0, 0, 1])

    def test_single_clean_rollout_self_normalizes(self):
        z, x, h_max = margin_scores([record(0.7), record(-1.0)], 0.1, 1e-9)
        assert z[0] == 1.0
        assert x[0] == 0

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            margin_scores([], 0.1, 1e-9)

    @given(
        raws=st.lists(
            st.floats(-10, 10, allow_nan=False).filter(lambda v: abs(v) > 1e-6),
            min_size=1,
            max_size=30,
        ),
        theta=st.floats(0.01, 0.99),
    )
    @settings(max_examples=80, deadline=None)
    def test_score_invariants(self, raws, theta):
        recs = [record(r, seed=i) for i, r in enumerate(raws)]
        z, x, h_max = margin_scores(recs, theta, 1e-9)
        assert np.all((z >= 0.0) & (z <= 1.0))
        for zi, rec in zip(z, recs):
            assert (zi == 0.0) == rec.violated
        assert np.array_equal(x, (z < theta).astype(int))

    @given(
        raws=st.lists(st.floats(-5, 5, allow_nan=False), min_size=2, max_size=20),
        t1=st.floats(0.05, 0.5),
        t2=st.floats(0.5, 0.95),
    )
    @settings(max_examples=60, deadline=None)
    def test_threshold_monotonicity(self, raws, t1, t2):
        recs = [record(r, seed=i) for i, r in enumerate(raws)]
        _, x1, _ = margin_scores(recs, min(t1, t2), 1e-9)
        _, x2, _ = margin_scores(recs, max(t1, t2), 1e-9)
        assert x1.sum() <= x2.sum()


class TestRunRollout:
    def test_noise_free_far_agents_keep_initial_margin(self):
        cfg = ExperimentConfig(
            groups=1,
            rollouts_per_group=2,
            system=SystemConfig(noise_bound=0.0, horizon_steps=20),
        )
        seed = 424242
        rec = run_rollout(cfg, seed)
        assert not rec.violated
        # Everything is static, so the recorded margin equals the weighted
        # margin of the accepted spawn state; replay the sampling to check.
        rng = np.random.default_rng(seed)
        x = sample_initial_state(cfg.system, rng)
        table = PairTable(x, cfg.safety, 0.0)
        assert rec.raw_min_margin == pytest.approx(float(np.min(table.h)), abs=1e-12)
        assert rec.min_distance == pytest.approx(
            float(np.linalg.norm(x[0] - x[1])), abs=1e-12
        )

    def test_same_seed_identical_records(self):
        r1 = run_rollout(SMALL, 99)
        r2 = run_rollout(SMALL, 99)
        assert r1 == r2

    def test_violated_iff_negative_margin(self):
        for seed in range(20):
            rec = run_rollout(SMALL, seed)
            assert rec.violated == (rec.raw_min_margin < 0.0)
            assert rec.min_distance >= 0.0
            assert rec.infeasible_steps >= 0

    def test_trajectory_capture(self):
        rec = run_rollout(SMALL, 5, record_trajectory=True)
        assert rec.trajectory is not None
        assert len(rec.trajectory) == SMALL.system.horizon_steps + 1
        t, x, u, margin = rec.trajectory[0]
        assert t == 0.0
        assert x.shape == (2, 2)
        assert u.shape == (2, 2)
        trimmed = run_rollout(SMALL, 5)
        assert trimmed.trajectory is None
        assert trimmed.raw_min_margin == rec.raw_min_margin

    def test_unreachable_initial_margin_raises(self):
        cfg = ExperimentConfig(
            groups=1,
            rollouts_per_group=2,
            h_min=1e6,
            system=SystemConfig(horizon_steps=2),
        )
        with pytest.raises(SetupError):
            run_rollout(cfg, 0)

    def test_default_config_violation_rate_regression(self):
        # Pinned band for the default profile (100 seeded rollouts at noise
        # bound 0.03, two agents on the 10 x 10 domain). The normalized score
        # is scale-free in the spawn-domain size, so the flag rate is set by
        # the spawn geometry (measured 0.24) rather than by the noise level.
        cfg = ExperimentConfig(groups=1, rollouts_per_group=100)
        g = run_group(cfg, 0)
        rate = float(np.asarray(g.x_flags).mean())
        assert 0.14 <= rate <= 0.34


class TestRunGroup:
    def test_flags_rederivable_from_scores(self):
        g = run_group(SMALL, 0)
        assert np.array_equal(g.x_flags, (g.z_scores < g.theta).astype(int))
        assert len(g.rollouts) == SMALL.rollouts_per_group

    def test_seed_layout(self):
        g = run_group(SMALL, 3)
        expected = [rollout_seed(SMALL, 3, p) for p in range(4)]
        assert [r.seed for r in g.rollouts] == expected
        assert expected == [SMALL.base_seed + 12 + p for p in range(4)]

    def test_base_seed_changes_records_not_distribution(self):
        # Different seeds give different draws from the same law: compare
        # score samples with a two-sample KS test at alpha = 0.01.
        cfg = ExperimentConfig(
            groups=2,
            rollouts_per_group=40,
            system=SystemConfig(horizon_steps=10),
        )
        a = np.concatenate([run_group(cfg, g).z_scores for g in range(2)])
        cfg_b = ExperimentConfig(
            groups=2,
            rollouts_per_group=40,
            base_seed=987654,
            system=SystemConfig(horizon_steps=10),
        )
        b = np.concatenate([run_group(cfg_b, g).z_scores for g in range(2)])
        assert not np.array_equal(a, b)
        assert ks_2samp(a, b).pvalue > 0.01

    def test_zero_groups_gives_empty_report(self):
        cfg = ExperimentConfig(
            groups=0, rollouts_per_group=4, system=SystemConfig(horizon_steps=2)
        )
        assert run_experiment(cfg) == []

    def test_parallel_serial_equivalence(self):
        serial = run_experiment(SMALL, jobs=1)
        parallel = run_experiment(SMALL, jobs=2)
        assert len(serial) == len(parallel) == SMALL.groups
        for gs, gp in zip(serial, parallel):
            assert gs.rollouts == gp.rollouts
            assert np.array_equal(gs.z_scores, gp.z_scores)
            assert np.array_equal(gs.x_flags, gp.x_flags)
            assert gs.h_tilde_max == gp.h_tilde_max

    def test_chunks_do_not_change_a_group(self):
        # 15 seeds cut into 2, 3 or 4 chunks: every cut but jobs 3's falls
        # inside a group, and jobs 2 and 4 do not divide G * P.
        data = golden_config("control_bound")
        data.update(groups=3, rollouts_per_group=5)
        cfg = build_config(data)
        expected = [run_group(cfg, g, record_trajectory=True) for g in range(cfg.groups)]
        runs = {
            jobs: run_experiment(cfg, jobs=jobs, record_trajectory=True) for jobs in (1, 2, 3, 4)
        }
        with ProcessPoolExecutor(max_workers=2) as pool:
            for jobs in (2, 3):
                runs[jobs, "pool"] = run_experiment(
                    cfg, jobs=jobs, record_trajectory=True, pool=pool
                )
        for groups in runs.values():
            assert len(groups) == len(expected)
            for got, want in zip(groups, expected):
                assert_same_group(got, want)

    @pytest.mark.parametrize("case", sorted(GOLDEN_CASES) + ["sphere"])
    def test_batching_does_not_change_a_rollout(self, case):
        # Every rollout of a lockstep group equals the same seed run alone,
        # trajectory included, on the golden parameter sets.
        if case == "sphere":
            data = golden_config("single_psi2")
            data["system"]["noise_dist"] = "sphere"
        else:
            data = golden_config(case)
        cfg = build_config(data)
        for g in range(cfg.groups):
            for rec in run_group(cfg, g, record_trajectory=True).rollouts:
                assert_same_rollout(rec, run_rollout(cfg, rec.seed, record_trajectory=True))

    def test_crowded_double_integrator_relaxes_instead_of_failing(self):
        # Six double-integrator agents give 15 pair rows whose polyhedron is
        # regularly empty; every rollout must finish and count those steps.
        path = Path(__file__).parents[1] / "perfbench" / "configs" / "double-integrator.json"
        data = json.loads(path.read_text(encoding="utf-8"))
        data.update(groups=1, rollouts_per_group=3)
        data["system"]["n_agents"] = 6
        (group,) = run_experiment(build_config(data))
        assert len(group.rollouts) == 3
        assert all(r.infeasible_steps >= 1 for r in group.rollouts)


class TestExperimentConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(theta=0.0),
            dict(theta=1.0),
            dict(delta=1.2),
            dict(rollouts_per_group=1),
            dict(groups=-1),
            dict(eps_norm=0.0),
            dict(h_min=-0.1),
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            ExperimentConfig(**kwargs)

    def test_unsafe_spawn_separation_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(
                system=SystemConfig(min_initial_separation=0.5),
                safety=SafetyParams(d_min=1.0),
            )

    def test_psi_with_mismatched_dims_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(
                system=SystemConfig(
                    dynamics="double_integrator", state_dim=4, control_dim=2
                ),
                safety=SafetyParams(psi=2.0),
            )
