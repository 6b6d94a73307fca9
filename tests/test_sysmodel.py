from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbfcert import sysmodel
from cbfcert.errors import ConfigError, SetupError
from cbfcert.sysmodel import (
    SystemConfig,
    dynamics_model,
    euler_step,
    noise_array,
    sample_initial_state,
)
from oracles import ball_samples_rejection, noise_blocks, spawn_block_by_block

# Block sizes of the seed -> stream mapping: each generator draws its noise
# 16 steps at a time and its spawn rounds 64 at a time.
NOISE_BLOCK = 16
SPAWN_BLOCK = 64

DOUBLE = SystemConfig(dynamics="double_integrator", state_dim=4, control_dim=2)
SINGLE_MODEL = dynamics_model(SystemConfig())
DOUBLE_MODEL = dynamics_model(DOUBLE)


class TestDynamics:
    def test_single_integrator_drift_is_zero(self):
        x = np.array([[3.0, -1.0], [0.5, 2.0]])
        assert np.array_equal(SINGLE_MODEL.drift, np.zeros((2, 2)))
        assert np.array_equal(x @ SINGLE_MODEL.drift.T, np.zeros((2, 2)))

    def test_double_integrator_drift_kinematic_chain(self):
        x = np.array([[1.0, 2.0, 3.0, 4.0], [0.0, 0.0, 0.0, 0.0]])
        assert np.array_equal((x @ DOUBLE_MODEL.drift.T)[0], [3.0, 4.0, 0.0, 0.0])

    def test_single_integrator_actuation_is_identity(self):
        assert np.array_equal(SINGLE_MODEL.actuation, np.eye(2))
        assert SINGLE_MODEL.actuation.shape == (2, 2)

    def test_double_integrator_actuation_block_form(self):
        expected = np.zeros((4, 2))
        expected[2:, :] = np.eye(2)
        assert np.array_equal(DOUBLE_MODEL.actuation, expected)
        assert DOUBLE_MODEL.actuation.shape == (4, 2)


class TestStep:
    def test_euler_hand_example(self):
        x = np.array([[0.0, 0.0], [5.0, 5.0]])
        u = np.array([[1.0, 0.0], [0.0, 0.0]])
        nxt = euler_step(x, u, np.zeros((2, 2)), 0.1, SINGLE_MODEL)
        assert np.allclose(nxt[0], [0.1, 0.0])

    def test_zero_inputs_are_a_fixed_point(self):
        x = np.array([[2.0, -3.0], [5.0, 5.0]])
        nxt = euler_step(x, np.zeros((2, 2)), np.zeros((2, 2)), 0.1, SINGLE_MODEL)
        assert np.array_equal(nxt, x)

    def test_euler_hand_example_with_noise(self):
        x = np.array([[1.0, 1.0], [9.0, 9.0]])
        u = np.array([[0.0, 1.0], [0.0, 0.0]])
        w = np.array([[0.01, 0.0], [0.0, 0.0]])
        nxt = euler_step(x, u, w, 0.1, SINGLE_MODEL)
        assert np.allclose(nxt[0], [1.001, 1.1])

    def test_double_integrator_positions_follow_velocity(self):
        x = np.array([[1.0, 2.0, 3.0, 4.0], [10.0, 10.0, 0.0, 0.0]])
        nxt = euler_step(x, np.zeros((2, 2)), np.zeros((2, 4)), 0.1, DOUBLE_MODEL)
        assert np.allclose(nxt[0], [1.3, 2.4, 3.0, 4.0])

    def test_double_integrator_control_drives_velocity_noise_drives_all(self):
        x = np.zeros((2, 4))
        u = np.array([[1.0, -2.0], [0.0, 0.0]])
        w = np.array([[0.1, 0.2, 0.3, 0.4], [0.0, 0.0, 0.0, 0.0]])
        nxt = euler_step(x, u, w, 0.5, DOUBLE_MODEL)
        assert np.allclose(nxt[0], [0.05, 0.1, 0.65, -0.8])

    def test_batch_matches_each_joint_state(self, rng):
        x = rng.uniform(-1, 1, size=(3, 2, 4))
        u = rng.uniform(-1, 1, size=(3, 2, 2))
        w = rng.uniform(-0.1, 0.1, size=(3, 2, 4))
        nxt = euler_step(x, u, w, 0.1, DOUBLE_MODEL)
        for r in range(len(x)):
            assert np.array_equal(nxt[r], euler_step(x[r], u[r], w[r], 0.1, DOUBLE_MODEL))

    def test_dimension_mismatch_raises(self):
        x = np.array([[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(ValueError):
            euler_step(x, np.zeros((3, 2)), np.zeros((2, 2)), 0.1, SINGLE_MODEL)

    def test_half_steps_exact_for_constant_inputs(self):
        # Single integrator with held inputs: two half steps equal one full step.
        x = np.array([[0.3, -0.4], [5.0, 5.0]])
        u = np.array([[0.7, -0.2], [0.1, 0.9]])
        w = np.array([[0.01, 0.02], [-0.01, 0.0]])
        full = euler_step(x, u, w, 0.1, SINGLE_MODEL)
        half = euler_step(euler_step(x, u, w, 0.05, SINGLE_MODEL), u, w, 0.05, SINGLE_MODEL)
        assert np.allclose(full, half, atol=1e-15)


class TestSampleNoise:
    def test_zero_bound_gives_zero_sample(self, rng):
        cfg = SystemConfig(noise_bound=0.0)
        w = noise_array(cfg, [rng])
        assert np.array_equal(w, np.zeros((1, NOISE_BLOCK, 2, 2)))

    def test_norm_bound_and_mean_norm(self):
        # Uniform-ball radius has mean bound * n/(n+1) = 2/3 * bound for n=2.
        # 50,000 steps of two agents, drawn in blocks.
        cfg = SystemConfig(noise_bound=0.05)
        rng = np.random.default_rng(7)
        draws = noise_array(cfg, [rng] * (50_000 // NOISE_BLOCK)).reshape(-1, 2)
        norms = np.linalg.norm(draws, axis=1)
        assert norms.max() <= 0.05 + 1e-15
        assert norms.mean() == pytest.approx(0.05 * 2.0 / 3.0, abs=1e-3)

    def test_mean_norm_matches_rejection_oracle(self, rng):
        cfg = SystemConfig(noise_bound=0.05)
        gen = np.random.default_rng(11)
        draws = noise_array(cfg, [gen] * (20_000 // NOISE_BLOCK)).reshape(-1, 2)
        oracle = ball_samples_rejection(rng, 0.05, 40_000)
        ours = np.linalg.norm(draws, axis=1).mean()
        ref = np.linalg.norm(oracle, axis=1).mean()
        assert ours == pytest.approx(ref, abs=1e-3)

    def test_sphere_mode_pins_the_norm(self, rng):
        cfg = SystemConfig(noise_bound=0.05, noise_dist="sphere")
        w = noise_array(cfg, [rng])
        assert np.allclose(np.linalg.norm(w, axis=-1), 0.05)

    def test_fixed_seed_is_bit_identical(self):
        cfg = SystemConfig(noise_bound=0.03)
        gen1, gen2 = np.random.default_rng(3), np.random.default_rng(3)
        for _ in range(10):
            assert np.array_equal(noise_array(cfg, [gen1]), noise_array(cfg, [gen2]))

    @pytest.mark.parametrize("dist", ["ball", "sphere"])
    def test_batch_keeps_each_generators_draw_order(self, dist):
        # Generator r draws B x N x n normals, then (ball) B x N uniforms,
        # per call; consecutive calls continue its stream block by block.
        cfg = SystemConfig(n_agents=3, noise_bound=0.03, noise_dist=dist)
        gens = [np.random.default_rng(s) for s in range(4)]
        batch = np.concatenate([noise_array(cfg, gens) for _ in range(3)], axis=1)
        assert batch.shape == (4, 3 * NOISE_BLOCK, 3, 2)
        for s in range(4):
            expected = noise_blocks(cfg, np.random.default_rng(s), 3, NOISE_BLOCK)
            assert np.allclose(batch[s], expected, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("dist", ["ball", "sphere"])
    def test_noise_bound_scales_the_same_draws(self, dist):
        # Common random numbers: configs that differ only in the bound draw
        # the same stream, so their disturbances are scaled copies, block
        # after block.
        low, high = (
            SystemConfig(n_agents=3, noise_bound=bound, noise_dist=dist) for bound in (0.01, 0.05)
        )
        gens_low = [np.random.default_rng(s) for s in range(3)]
        gens_high = [np.random.default_rng(s) for s in range(3)]
        for _ in range(3):
            w_low, w_high = noise_array(low, gens_low), noise_array(high, gens_high)
            assert w_low.shape == (3, NOISE_BLOCK, 3, 2)
            assert np.allclose(w_high, 5.0 * w_low, rtol=1e-13, atol=0.0)
        assert [g.random() for g in gens_low] == [g.random() for g in gens_high]

    @pytest.mark.parametrize("dist", ["ball", "sphere"])
    def test_per_generator_bounds_match_each_config(self, dist):
        # A bound per generator scales generator r's draws as a config with
        # that bound would, bit for bit.
        bounds = np.array([0.01, 0.0, 0.05])
        cfg = SystemConfig(n_agents=3, noise_bound=0.03, noise_dist=dist)
        batch = noise_array(cfg, [np.random.default_rng(s) for s in range(3)], bounds)
        for s, bound in enumerate(bounds.tolist()):
            one = noise_array(replace(cfg, noise_bound=bound), [np.random.default_rng(s)])
            assert batch[s].tobytes() == one[0].tobytes()

    @given(bound=st.floats(0.0, 2.0), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_norm_never_exceeds_bound(self, bound, seed):
        cfg = SystemConfig(noise_bound=bound)
        w = noise_array(cfg, [np.random.default_rng(seed)])
        assert np.all(np.linalg.norm(w, axis=-1) <= bound + 1e-12)


class TestSampleInitialState:
    def test_pairwise_separation_respected(self):
        cfg = SystemConfig(domain_half_width=10.0, min_initial_separation=1.0)
        gen = np.random.default_rng(5)
        for _ in range(200):
            x = sample_initial_state(cfg, gen)
            assert np.linalg.norm(x[0] - x[1]) >= 1.0

    def test_mean_pairwise_distance(self, rng):
        # Expected distance between uniform points on a 10 x 10 square is
        # 0.52141 * 10 = 5.2141; conditioning on separation >= 1 lifts it to
        # 5.349 (Monte Carlo oracle; the in-test oracle re-derives it).
        cfg = SystemConfig(domain_half_width=10.0, min_initial_separation=1.0)
        gen = np.random.default_rng(17)
        dists = np.array(
            [
                np.linalg.norm(s[0] - s[1])
                for s in (sample_initial_state(cfg, gen) for _ in range(10_000))
            ]
        )
        a = rng.uniform(0, 10, size=(400_000, 2))
        b = rng.uniform(0, 10, size=(400_000, 2))
        ref = np.linalg.norm(a - b, axis=1)
        ref = ref[ref >= 1.0]
        assert dists.mean() == pytest.approx(5.349, abs=0.1)
        assert dists.mean() == pytest.approx(ref.mean(), abs=0.1)

    # Spawn configurations for the block-by-block oracle: one pair, three
    # agents in a small square, twelve crowded agents (hundreds of rounds per
    # spawn, so several blocks), and the double integrator.
    ORACLE_CASES = {
        "n2": SystemConfig(n_agents=2, domain_half_width=3.0),
        "n3": SystemConfig(n_agents=3, domain_half_width=3.0),
        "n12": SystemConfig(n_agents=12, domain_half_width=6.0),
        "double": SystemConfig(
            n_agents=4,
            domain_half_width=4.0,
            dynamics="double_integrator",
            state_dim=4,
            control_dim=2,
        ),
    }

    @pytest.mark.parametrize("cfg", list(ORACLE_CASES.values()), ids=list(ORACLE_CASES))
    def test_matches_block_by_block_oracle(self, cfg):
        # Same state bit for bit, and the generator left exactly where drawing
        # whole blocks of rounds leaves it, over consecutive spawns from one
        # stream.
        for seed in range(100):
            gen = np.random.default_rng(seed)
            ref = np.random.default_rng(seed)
            for _ in range(3):
                x = sample_initial_state(cfg, gen)
                expected = spawn_block_by_block(cfg, ref, SPAWN_BLOCK)
                assert x.tobytes() == expected.tobytes()
                assert gen.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("budget", [1, 2, 3, 100, 300, 500])
    def test_budget_counts_rounds(self, monkeypatch, budget):
        # Blocks never draw past the round budget: the last block is cut at
        # it, and where the oracle finds no spawn within it, sampling fails
        # after drawing exactly those rounds.
        cfg = self.ORACLE_CASES["n12"]
        monkeypatch.setattr(sysmodel, "_MAX_REJECTION_ROUNDS", budget)
        outcomes = set()
        for seed in range(12):
            gen = np.random.default_rng(seed)
            ref = np.random.default_rng(seed)
            expected = spawn_block_by_block(cfg, ref, SPAWN_BLOCK, max_rounds=budget)
            outcomes.add(expected is None)
            if expected is None:
                with pytest.raises(SetupError):
                    sample_initial_state(cfg, gen)
            else:
                assert sample_initial_state(cfg, gen).tobytes() == expected.tobytes()
            assert gen.bit_generator.state == ref.bit_generator.state
        if budget in (300, 500):
            assert outcomes == {True, False}

    def test_infeasible_packing_raises(self, rng):
        cfg = SystemConfig(n_agents=20, domain_half_width=1.0, min_initial_separation=1.0)
        with pytest.raises(SetupError):
            sample_initial_state(cfg, rng)

    def test_determinism(self):
        cfg = SystemConfig()
        s1 = sample_initial_state(cfg, np.random.default_rng(9))
        s2 = sample_initial_state(cfg, np.random.default_rng(9))
        assert np.array_equal(s1, s2)

    def test_double_integrator_spawns_at_rest(self, rng):
        x = sample_initial_state(DOUBLE, rng)
        assert x.shape == (2, 4)
        assert np.array_equal(x[:, 2:], np.zeros((2, 2)))


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_agents=1),
            dict(dt=0.0),
            dict(horizon_steps=0),
            dict(noise_bound=-0.1),
            dict(dynamics="triple_integrator"),
            dict(noise_dist="gaussian"),
            dict(dynamics="double_integrator", state_dim=2, control_dim=2),
            dict(state_dim=3),  # single integrator needs m == n
            dict(state_dim=1, control_dim=1),  # positions must be planar
            dict(dynamics="double_integrator", state_dim=2, control_dim=1),
        ],
    )
    def test_bad_configs_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            SystemConfig(**kwargs)
