import dataclasses
import json
import os
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from scipy.stats import ks_2samp

from cbfcert import controller, rollout
from cbfcert.cli import TABLE1_AGENT_GRID, TABLE1_NOISE_GRID, build_config
from cbfcert.controller import STATUS_INFEASIBLE_RELAXED, needs_solve
from cbfcert.errors import ConfigError, SetupError
from cbfcert.rollout import (
    ExperimentConfig,
    Rollouts,
    margin_scores,
    rollout_seed,
    run_experiment,
    run_group,
    run_rollout,
    run_rollouts,
)
from cbfcert.safety import PairTable, SafetyParams
from cbfcert.sysmodel import (
    SystemConfig,
    dynamics_model,
    euler_step,
    noise_array,
    sample_initial_state,
)
from oracles import margin_scores_two_pass, rollout_one_by_one, solve_qp, spawn_one_by_one
from test_cli import assert_no_child_left, record_forks
from test_golden import CASES as GOLDEN_CASES
from test_golden import _config as golden_config
from test_sysmodel import NOISE_BLOCK


def arrays_of(rollouts):
    """Every array of a Rollouts record that is set, in field order."""
    return [value for value in vars(rollouts).values() if value is not None]


def assert_bitwise(got, want):
    """Two lists of arrays with the same dtypes, shapes and bytes."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.dtype, a.shape) == (b.dtype, b.shape)
        assert a.tobytes() == b.tobytes()


SMALL = ExperimentConfig(
    groups=2,
    rollouts_per_group=4,
    system=SystemConfig(horizon_steps=8),
)


margins = st.one_of(
    st.floats(-10, 10),
    st.sampled_from([0.0, -0.0, 1e-12, -1e-12, 1.0, -1.0, float("nan")]),
)


class TestMarginScores:
    def test_all_violated(self):
        z, x = margin_scores(np.array([-1.0, -0.5]), 0.1, 1e-9)
        assert np.array_equal(z, [0.0, 0.0])
        assert np.array_equal(x, [1, 1])

    def test_hand_example(self):
        z, x = margin_scores(np.array([2.0, 1.0, -0.3]), 0.1, 1e-9)
        assert np.allclose(z, [1.0, 0.5, 0.0])
        assert np.array_equal(x, [0, 0, 1])

    def test_single_clean_rollout_self_normalizes(self):
        z, x = margin_scores(np.array([0.7, -1.0]), 0.1, 1e-9)
        assert z[0] == 1.0
        assert x[0] == 0

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            margin_scores(np.empty(0), 0.1, 1e-9)

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
        raw = np.array(raws)
        z, x = margin_scores(raw, theta, 1e-9)
        assert np.all((z >= 0.0) & (z <= 1.0))
        assert np.array_equal(z == 0.0, raw < 0.0)
        assert np.array_equal(x, (z < theta).astype(int))

    @given(
        raws=st.lists(st.floats(-5, 5, allow_nan=False), min_size=2, max_size=20),
        t1=st.floats(0.05, 0.5),
        t2=st.floats(0.5, 0.95),
    )
    @settings(max_examples=60, deadline=None)
    def test_threshold_monotonicity(self, raws, t1, t2):
        raw = np.array(raws)
        _, x1 = margin_scores(raw, min(t1, t2), 1e-9)
        _, x2 = margin_scores(raw, max(t1, t2), 1e-9)
        assert x1.sum() <= x2.sum()

    @given(
        raw=arrays(np.float64, array_shapes(min_dims=2, max_dims=2, max_side=8), elements=margins),
        theta=st.floats(0.01, 0.99),
        eps_norm=st.sampled_from([1e-9, 0.5, 20.0]),
    )
    @example(raw=np.array([[-1.0, -0.5], [2.0, 1.0]]), theta=0.1, eps_norm=1e-9)
    @example(raw=np.array([[0.3, 0.3, -0.0], [0.0, 0.0, 0.0]]), theta=0.5, eps_norm=1e-9)
    @example(raw=np.array([[0.1, 0.2], [-0.1, 0.05]]), theta=0.5, eps_norm=0.5)
    @example(raw=np.array([[1.0, np.nan, -1.0], [np.nan, -2.0, 3.0]]), theta=0.5, eps_norm=1e-9)
    @settings(max_examples=200, deadline=None)
    def test_matches_per_group_two_pass_oracle(self, raw, theta, eps_norm):
        # All-violated groups, ties, the eps_norm floor and NaN margins: the
        # (G, P) scores equal the per-group reference, NaN positions included.
        z, x = margin_scores(raw, theta, eps_norm)
        for g, row in enumerate(raw):
            z_ref, x_ref = margin_scores_two_pass(row, theta, eps_norm)
            assert np.array_equal(z[g], z_ref, equal_nan=True)
            assert np.array_equal(np.signbit(z[g]), np.signbit(z_ref))
            assert np.array_equal(x[g], x_ref) and x.dtype == x_ref.dtype


class TestRunRollout:
    def test_noise_free_far_agents_keep_initial_margin(self):
        cfg = ExperimentConfig(
            groups=1,
            rollouts_per_group=2,
            system=SystemConfig(noise_bound=0.0, horizon_steps=20),
        )
        seed = 424242
        rec = run_rollout(cfg, seed)
        assert rec.raw_min_margin[0] >= 0.0
        # Everything is static, so the recorded margin equals the weighted
        # margin of the accepted spawn state; replay the sampling to check.
        rng = np.random.default_rng(seed)
        x = sample_initial_state(cfg.system, rng)
        table = PairTable(x, cfg.safety, 0.0)
        assert rec.raw_min_margin[0] == pytest.approx(float(np.min(table.h)), abs=1e-12)
        assert rec.min_distance[0] == pytest.approx(
            float(np.linalg.norm(x[0] - x[1])), abs=1e-12
        )

    def test_same_seed_identical_records(self):
        r1 = run_rollout(SMALL, 99)
        r2 = run_rollout(SMALL, 99)
        assert_bitwise(arrays_of(r1), arrays_of(r2))

    def test_violated_iff_negative_margin(self):
        # A violated rollout (negative raw margin) scores exactly zero; a
        # rollout with a positive margin scores above zero.
        rollouts = run_rollouts(SMALL, list(range(20)))
        raw = rollouts.raw_min_margin
        z, _ = margin_scores(raw, SMALL.theta, SMALL.eps_norm)
        assert np.array_equal(z == 0.0, raw <= 0.0)
        assert np.all(rollouts.min_distance >= 0.0)
        assert np.all(rollouts.relaxed_steps >= 0)

    def test_trajectory_capture(self):
        rec = run_rollout(SMALL, 5, record_trajectory=True)
        x, u, margin = rec.states, rec.controls, rec.step_margins
        k1 = SMALL.system.horizon_steps + 1
        assert x.shape == (1, k1, 2, 2)
        assert u.shape == (1, k1, 2, 2)
        assert margin.shape == (1, k1)
        assert margin.min() == rec.raw_min_margin[0]
        trimmed = run_rollout(SMALL, 5)
        assert trimmed.states is trimmed.controls is trimmed.step_margins is None
        assert trimmed.raw_min_margin[0] == rec.raw_min_margin[0]

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
        rate = float(run_experiment(cfg).flag.mean())
        assert 0.14 <= rate <= 0.34


class TestRunGroup:
    def test_flags_rederivable_from_scores(self):
        rollouts = run_experiment(SMALL)
        assert np.array_equal(rollouts.flag, (rollouts.score < SMALL.theta).astype(int))
        assert rollouts.score.shape == (SMALL.groups, SMALL.rollouts_per_group)

    def test_seed_layout(self):
        g = run_group(SMALL, 3)
        expected = [rollout_seed(SMALL, 3, p) for p in range(4)]
        assert g.seed.tolist() == expected
        assert expected == [SMALL.base_seed + 12 + p for p in range(4)]
        rollouts = run_experiment(SMALL)
        assert rollouts.seed.ravel().tolist() == [SMALL.base_seed + k for k in range(8)]

    def test_base_seed_changes_records_not_distribution(self):
        # Different seeds give different draws from the same law: compare
        # score samples with a two-sample KS test at alpha = 0.01.
        cfg = ExperimentConfig(
            groups=2,
            rollouts_per_group=40,
            system=SystemConfig(horizon_steps=10),
        )
        a = run_experiment(cfg).score.ravel()
        cfg_b = ExperimentConfig(
            groups=2,
            rollouts_per_group=40,
            base_seed=987654,
            system=SystemConfig(horizon_steps=10),
        )
        b = run_experiment(cfg_b).score.ravel()
        assert not np.array_equal(a, b)
        assert ks_2samp(a, b).pvalue > 0.01

    def test_parallel_serial_equivalence(self):
        rollouts = run_experiment(SMALL, jobs=1)
        assert rollouts.score.shape == (SMALL.groups, SMALL.rollouts_per_group)
        assert_bitwise(arrays_of(run_experiment(SMALL, jobs=2)), arrays_of(rollouts))

    def test_chunks_do_not_change_a_group(self, monkeypatch):
        # 15 seeds cut into 2, 3 or 4 chunks, each on its own forked worker
        # (one row-step pays for a worker here): every cut but jobs 3's
        # falls inside a group, and jobs 2 and 4 do not divide G * P.
        monkeypatch.setattr(rollout, "_ROW_STEPS_PER_WORKER", 1)
        data = golden_config("control_bound")
        data.update(groups=3, rollouts_per_group=5)
        cfg = build_config(data)
        groups = [vars(run_group(cfg, g, record_trajectory=True)) for g in range(cfg.groups)]
        stacked = {
            name: np.stack([group[name] for group in groups])
            for name, value in groups[0].items()
            if value is not None
        }
        score, flag = margin_scores(stacked["raw_min_margin"], cfg.theta, cfg.eps_norm)
        expected = arrays_of(Rollouts(**stacked, score=score, flag=flag))
        for jobs in (1, 2, 3, 4):
            rollouts = run_experiment(cfg, jobs=jobs, record_trajectory=True)
            assert_bitwise(arrays_of(rollouts), expected)

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
            batch = arrays_of(run_group(cfg, g, record_trajectory=True))
            for p, seed in enumerate(batch[0].tolist()):
                alone = run_rollout(cfg, seed, record_trajectory=True)
                assert_bitwise([a[p : p + 1] for a in batch], arrays_of(alone))

    def test_crowded_double_integrator_relaxes_instead_of_failing(self):
        # Six double-integrator agents give 15 pair rows whose polyhedron is
        # regularly empty; every rollout must finish and count those steps.
        path = Path(__file__).parents[1] / "perfbench" / "configs" / "double-integrator.json"
        data = json.loads(path.read_text(encoding="utf-8"))
        data.update(groups=1, rollouts_per_group=3)
        data["system"]["n_agents"] = 6
        rollouts = run_experiment(build_config(data))
        assert rollouts.relaxed_steps.shape == (1, 3)
        assert np.all(rollouts.relaxed_steps >= 1)

    def test_empty_control_box_polyhedra_relax_instead_of_failing(self):
        # The golden control_bound parameters: at these seeds some step's rows
        # admit no control inside the 0.01 box, and the exact NNLS must give
        # that step to the relaxation rather than fail to converge.
        cfg = build_config(golden_config("control_bound"))
        rollouts = run_rollouts(cfg, range(2024, 2084))
        empty = np.array([2040, 2059, 2067, 2068, 2072, 2076]) - 2024
        assert np.all(rollouts.relaxed_steps[empty] >= 1)


def spawn_case(case):
    """(config, seeds) of a spawn check, run for one step past the spawn.

    ``margin_rejections`` redraws about five candidates per rollout (163
    draws for 30 seeds) because of its high ``h_min``; the golden
    double-integrator first controls relax; the golden crowded case solves
    66-row first QPs. Each has a rollout that needs a second draw.
    """
    if case == "margin_rejections":
        data = {
            "h_min": 1.5,
            "system": {"n_agents": 4, "domain_half_width": 4.0},
            "safety": {"psi": 4.0},
        }
        seeds = range(30)
    else:
        data = golden_config(case)
        seeds = range(2024, 2040)
    data.setdefault("system", {})["horizon_steps"] = 1
    return build_config(data), list(seeds)


SPAWN_CASES = ("crowded_n12", "double_integrator", "margin_rejections")


def draws_per_rollout(monkeypatch):
    """Spy on the engine's spawn draws; the returned list gets each draw's generator."""
    draws = []
    sample = rollout.sample_initial_state
    monkeypatch.setattr(
        rollout, "sample_initial_state", lambda cfg, rng: draws.append(rng) or sample(cfg, rng)
    )
    return draws


class TestRunUnits:
    """The forked runner on stand-in units: unit i is the one seed [i], and
    the stand-in ``run_rollouts`` returns what ``unit_result`` gives."""

    @staticmethod
    def units(monkeypatch, unit_result):
        monkeypatch.setattr(
            rollout, "run_rollouts", lambda config, seeds, record: unit_result(*seeds)
        )
        return [(None, [i], False) for i in range(6)]

    @pytest.mark.parametrize("jobs", [1, 2, 3, 7])
    def test_earliest_failing_unit_is_raised(self, monkeypatch, jobs):
        # Unit 1 fails last in time but first in unit order, as at jobs 1.
        def unit_result(i):
            if i == 1:
                time.sleep(0.2)
            if i in (1, 4):
                raise SetupError(f"unit {i}")
            return i

        with pytest.raises(SetupError, match="^unit 1$"):
            rollout._run_units(self.units(monkeypatch, unit_result), jobs)
        assert_no_child_left()

    def test_workers_run_a_fixed_stride(self, monkeypatch):
        # Worker w of n runs units w, w + n, w + 2n, ...
        units = self.units(monkeypatch, lambda i: os.getpid())
        for jobs in (2, 3):
            pids = rollout._run_units(units, jobs)
            assert pids == [pids[i % jobs] for i in range(len(units))]
            assert len(set(pids[:jobs])) == jobs
            assert os.getpid() not in pids
            assert_no_child_left()


def rule_cell(n_agents=2, horizon=5, rollouts=3, control_bound=None, noise_bound=0.03):
    """A cell of two groups of ``rollouts``, whose work is
    2 x rollouts x (horizon + 1) x rows row-steps."""
    return build_config(
        {
            "groups": 2,
            "rollouts_per_group": rollouts,
            "system": {
                "n_agents": n_agents,
                "horizon_steps": horizon,
                "noise_bound": noise_bound,
                "domain_half_width": 4.0,
            },
            "safety": {"control_bound": control_bound},
        }
    )


class TestWorkerCount:
    # run_experiments forks n = min(jobs, units, max(1, work // W)) workers
    # at jobs >= 2 and none at jobs 1; W is 100 row-steps here, and each
    # case's work is worked out by hand beside it.

    @pytest.mark.parametrize(
        "cells, jobs, workers",
        [
            # 2 x 3 x 6 x 1 pair row = 36 row-steps: work // W = 0, yet one forks.
            ([rule_cell()], 2, 1),
            # 3 pair rows: 2 x 3 x 6 x 3 = 108, work // W = 1.
            ([rule_cell(n_agents=3)], 2, 1),
            # 2 x 3 x 12 x 3 = 216, work // W = 2, at any jobs from 2 up.
            ([rule_cell(n_agents=3, horizon=11)], 2, 2),
            ([rule_cell(n_agents=3, horizon=11)], 3, 2),
            # jobs 1 forks nothing, whatever the work.
            ([rule_cell(n_agents=3, horizon=11)], 1, 0),
            # 1 pair row + 2 x 2 agents x 2 box rows = 9 rows: 36 x 9 = 324.
            ([rule_cell(control_bound=1.0)], 7, 3),
            # One stack of two cells that differ only in their noise bound:
            # 108 + 108 = 216.
            ([rule_cell(n_agents=3), rule_cell(n_agents=3, noise_bound=0.05)], 2, 2),
            # 2 x 2 x 150 x 1 = 600 buys six workers, but four seeds give
            # four units.
            ([rule_cell(horizon=149, rollouts=2)], 7, 4),
        ],
        ids=[
            "below-one-worker",
            "one-worker",
            "two-workers",
            "two-workers-at-jobs3",
            "jobs1-in-process",
            "box-rows",
            "stacked-cells",
            "units",
        ],
    )
    def test_workers_follow_the_work(self, monkeypatch, cells, jobs, workers):
        monkeypatch.setattr(rollout, "_ROW_STEPS_PER_WORKER", 100)
        forks = record_forks(monkeypatch)
        stacked = rollout.run_experiments(cells, jobs)
        assert len(forks) == workers
        assert_no_child_left()
        for cell, rollouts in zip(cells, stacked):
            assert_bitwise(arrays_of(rollouts), arrays_of(run_experiment(cell)))


class TestSpawn:
    @pytest.mark.parametrize("case", SPAWN_CASES)
    def test_spawn_rounds_match_one_by_one_spawn(self, case, monkeypatch):
        # Frames 0 and 1 of every rollout are the one-by-one spawn and one
        # cold-started step after it, bit for bit, with the same draws.
        cfg, seeds = spawn_case(case)
        draws = draws_per_rollout(monkeypatch)
        batch = run_rollouts(cfg, seeds, record_trajectory=True)
        xs, us, margins = batch.states, batch.controls, batch.step_margins
        model = dynamics_model(cfg.system)
        params = cfg.safety
        statuses, ref_draws = [], []
        for r, seed in enumerate(seeds):
            rng = np.random.default_rng(seed)
            x0, u0, status, n_draws = spawn_one_by_one(cfg, model, rng)
            x1 = euler_step(x0, u0, noise_array(cfg.system, [rng])[0, 0], cfg.system.dt, model)
            table = PairTable(x1, params, cfg.system.noise_bound)
            u1 = solve_qp(*rollout._constraint_rows(u0, params, model, table))[0]
            u1 = u1.reshape(u0.shape)
            h0 = PairTable(x0, params, cfg.system.noise_bound).weighted_margins(u0, params.psi)
            h1 = table.weighted_margins(u1, params.psi)
            want = [np.stack([x0, x1]), np.stack([u0, u1]), np.array([np.min(h0), np.min(h1)])]
            assert_bitwise([xs[r, :2], us[r, :2], margins[r, :2]], want)
            statuses.append(status)
            ref_draws.append(n_draws)
        assert [sum(d is rng for d in draws) for rng in dict.fromkeys(draws)] == ref_draws
        assert max(ref_draws) > 1
        if case == "double_integrator":
            assert STATUS_INFEASIBLE_RELAXED in statuses

    def test_draw_budget_is_per_rollout(self, monkeypatch):
        # The batch draws more candidates in total than the budget allows
        # one rollout, and spawns; one rollout over the budget fails it.
        cfg, seeds = spawn_case("margin_rejections")
        draws = draws_per_rollout(monkeypatch)
        run_rollouts(cfg, seeds)
        counts = [sum(d is rng for d in draws) for rng in dict.fromkeys(draws)]
        most = max(counts)
        assert counts.count(most) == 1 and len(draws) > most
        monkeypatch.setattr(rollout, "_MAX_INITIAL_DRAWS", most)
        run_rollouts(cfg, seeds)
        monkeypatch.setattr(rollout, "_MAX_INITIAL_DRAWS", most - 1)
        with pytest.raises(SetupError, match=f"margin 1.5 in {most - 1} draws"):
            run_rollouts(cfg, seeds)

    def test_solve_batch_gets_exactly_the_needs_solve_rows(self, monkeypatch):
        # Every batch's constraint systems, spawn rounds included, go to
        # solve_batch whole, and its exact solves get exactly their
        # needs_solve rollouts, in order.
        cfg, seeds = spawn_case("margin_rejections")
        cfg = dataclasses.replace(cfg, system=dataclasses.replace(cfg.system, horizon_steps=5))
        dim = cfg.system.n_agents * cfg.system.control_dim
        batches, handed, solved = [], [], []
        build, solve, ldp = rollout._constraint_rows, rollout.solve_batch, controller._ldp
        monkeypatch.setattr(
            rollout, "_constraint_rows", lambda *args: batches.append(build(*args)) or batches[-1]
        )

        def spy(a, b, passive):
            handed.append((a, b))
            return solve(a, b, passive)

        def ldp_spy(a, b, passive):
            if a.shape[-1] == dim:  # not a relaxation, which has a slack column
                solved.extend(zip(a, b))
            return ldp(a, b, passive)

        monkeypatch.setattr(rollout, "solve_batch", spy)
        monkeypatch.setattr(controller, "_ldp", ldp_spy)
        run_rollouts(cfg, seeds)
        spawn_rounds = len(batches) - cfg.system.horizon_steps
        assert spawn_rounds > 1
        assert len(handed) == len(batches)
        assert all(got[0] is want[0] and got[1] is want[1] for got, want in zip(handed, batches))
        expected = [(a[r], b[r]) for a, b in batches for r in np.flatnonzero(needs_solve(b))]
        assert sum(needs_solve(b).sum() for _, b in batches[:spawn_rounds]) > 0
        assert len(solved) == len(expected)
        for got, want in zip(solved, expected):
            assert [v.tobytes() for v in got] == [v.tobytes() for v in want]


def assert_matches_one_by_one(cfg, rollouts):
    """Every rollout's states and controls are those of ``rollout_one_by_one``
    on its seed, to rounding: its spawn, then its noise drawn in blocks."""
    model = dynamics_model(cfg.system)
    for x, u, seed in zip(rollouts.states, rollouts.controls, rollouts.seed.tolist()):
        x_ref, u_ref = rollout_one_by_one(cfg, model, seed, NOISE_BLOCK)
        assert np.allclose(x, x_ref, rtol=1e-9, atol=1e-12)
        assert np.allclose(u, u_ref, rtol=1e-9, atol=1e-9)


def horizon_config(case, horizon, **top):
    """A golden case's config with ``horizon_steps`` and top-level fields replaced."""
    data = {**golden_config(case), **top}
    data["system"]["horizon_steps"] = horizon
    return build_config(data)


class TestStreams:
    # Each rollout's generator draws its spawn rounds, then its noise in
    # whole blocks of NOISE_BLOCK steps.

    @pytest.mark.parametrize("horizon", [1, 15, 16, 17, 50])
    def test_horizon_only_cuts_the_trajectory(self, horizon):
        # A rollout's first K + 1 frames are the same at any horizon K, bit
        # for bit, because noise blocks are drawn whole.
        seeds = list(range(2024, 2030))
        short = run_rollouts(horizon_config("single_psi2", horizon), seeds, True)
        full = run_rollouts(horizon_config("single_psi2", 64), seeds, True)
        assert_bitwise(
            [short.states, short.controls, short.step_margins],
            [a[:, : horizon + 1] for a in (full.states, full.controls, full.step_margins)],
        )
        assert np.array_equal(short.raw_min_margin, short.step_margins.min(axis=1))
        assert_matches_one_by_one(horizon_config("single_psi2", horizon), short)

    @pytest.mark.parametrize("case", ["control_bound", "crowded_n12", "double_integrator"])
    def test_rollout_is_the_same_alone_batched_and_chunked(self, case, monkeypatch):
        # Six seeds over 40 steps (three noise blocks): alone, as one batch
        # and in 1 to 4 chunks (one row-step pays for a worker here), every
        # array agrees bit for bit.
        monkeypatch.setattr(rollout, "_ROW_STEPS_PER_WORKER", 1)
        cfg = horizon_config(case, 40, groups=2, rollouts_per_group=3)
        seeds = [rollout_seed(cfg, g, p) for g in range(2) for p in range(3)]
        batch = run_rollouts(cfg, seeds, True)
        alone = [arrays_of(run_rollout(cfg, seed, True)) for seed in seeds]
        assert_bitwise(arrays_of(batch), [np.concatenate(parts) for parts in zip(*alone)])
        for jobs in (1, 2, 3, 4):
            rollouts = run_experiment(cfg, jobs=jobs, record_trajectory=True)
            rollouts = dataclasses.replace(rollouts, score=None, flag=None)
            flat = [a.reshape((len(seeds),) + a.shape[2:]) for a in arrays_of(rollouts)]
            assert_bitwise(flat, arrays_of(batch))
        assert_matches_one_by_one(cfg, batch)


def table1_cells():
    """reproduce-table1's cells on a short single_psi2 config, 6 rollouts
    each: the cells of one agent count differ only in their noise bound."""
    cfg = horizon_config("single_psi2", 20, groups=2, rollouts_per_group=3)
    return [
        dataclasses.replace(cfg, system=dataclasses.replace(cfg.system, n_agents=n, noise_bound=w))
        for n in TABLE1_AGENT_GRID
        for w in TABLE1_NOISE_GRID
    ]


class TestStacks:
    # run_experiments runs the cells of one agent count as one stack of 18
    # rollouts; when one row-step pays for a worker, at jobs 3 and 7 its
    # batches end inside a cell.

    @pytest.mark.parametrize("jobs", [1, 2, 3, 7])
    def test_cells_are_the_same_alone_and_stacked(self, jobs, monkeypatch):
        monkeypatch.setattr(rollout, "_ROW_STEPS_PER_WORKER", 1)
        cells = table1_cells()
        stacked = rollout.run_experiments(cells, jobs, record_trajectory=True)
        for cell, rollouts in zip(cells, stacked):
            alone = run_experiment(cell, record_trajectory=True)
            assert_bitwise(arrays_of(rollouts), arrays_of(alone))

    def test_no_batch_exceeds_the_largest_cell_or_the_cap(self, monkeypatch):
        # With a cap of one rollout, each stack of three 6-rollout cells is
        # cut into three batches of the largest cell's size.
        units = []
        run_units = rollout._run_units
        monkeypatch.setattr(rollout, "_BATCH_ROLLOUTS", 1)
        monkeypatch.setattr(
            rollout, "_run_units", lambda work, jobs: units.extend(work) or run_units(work, jobs)
        )
        cells = table1_cells()
        stacked = rollout.run_experiments(cells, 1)
        assert [len(unit[1]) for unit in units] == [6] * 6
        for cell, rollouts in zip(cells, stacked):
            assert_bitwise(arrays_of(rollouts), arrays_of(run_experiment(cell)))

    @pytest.mark.parametrize("record_trajectory", [False, True])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_each_cell_is_one_record(self, jobs, record_trajectory, monkeypatch):
        # Chunked stacks still give one record per cell: every array it sets
        # leads with (G, P), its flags are its scores below theta, and only a
        # recorded trajectory sets states, controls and step margins.
        monkeypatch.setattr(rollout, "_ROW_STEPS_PER_WORKER", 1)
        cells = table1_cells()
        for cell, rollouts in zip(cells, rollout.run_experiments(cells, jobs, record_trajectory)):
            shape = (cell.groups, cell.rollouts_per_group)
            assert all(array.shape[:2] == shape for array in arrays_of(rollouts))
            assert len(arrays_of(rollouts)) == (10 if record_trajectory else 7)
            assert rollouts.seed.dtype == np.int64
            assert rollouts.score is not None and rollouts.flag is not None
            assert np.array_equal(rollouts.flag, rollouts.score < cell.theta)
            trajectory = (rollouts.states, rollouts.controls, rollouts.step_margins)
            assert all((array is not None) == record_trajectory for array in trajectory)


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

    def test_every_seed_fits_an_int64(self):
        # The last seed, base_seed + G * P - 1, may be 2**63 - 1 but no more.
        last = ExperimentConfig(groups=2, rollouts_per_group=3, base_seed=2**63 - 6)
        assert rollout_seed(last, 1, 2) == 2**63 - 1
        with pytest.raises(ConfigError, match=r"must be at most 2\*\*63"):
            ExperimentConfig(groups=2, rollouts_per_group=3, base_seed=2**63 - 5)

    def test_zero_groups_rejected(self):
        # With no group there is no rollout to certify; such a run used to
        # report NaN statistics and exit 0.
        with pytest.raises(ConfigError, match="groups must be >= 1"):
            ExperimentConfig(
                groups=0, rollouts_per_group=4, system=SystemConfig(horizon_steps=2)
            )

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
