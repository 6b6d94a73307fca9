import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbfcert.errors import ConfigError, SetupError
from cbfcert.sysmodel import (
    SystemConfig,
    dynamics_model,
    euler_step,
    noise_array,
    sample_initial_state,
)
from oracles import ball_samples_rejection

DOUBLE = SystemConfig(dynamics="double_integrator", state_dim=4, control_dim=2)
SINGLE_MODEL = dynamics_model(SystemConfig())
DOUBLE_MODEL = dynamics_model(DOUBLE)


class TestDynamics:
    def test_single_integrator_drift_is_zero(self):
        x = np.array([[3.0, -1.0], [0.5, 2.0]])
        assert np.array_equal(SINGLE_MODEL.drift_all(x), np.zeros((2, 2)))

    def test_double_integrator_drift_kinematic_chain(self):
        x = np.array([[1.0, 2.0, 3.0, 4.0], [0.0, 0.0, 0.0, 0.0]])
        assert np.array_equal(DOUBLE_MODEL.drift_all(x)[0], [3.0, 4.0, 0.0, 0.0])

    def test_single_integrator_actuation_is_identity(self):
        assert SINGLE_MODEL.identity_actuation
        assert np.array_equal(SINGLE_MODEL.actuation, np.eye(2))

    def test_double_integrator_actuation_block_form(self):
        expected = np.zeros((4, 2))
        expected[2:, :] = np.eye(2)
        assert not DOUBLE_MODEL.identity_actuation
        assert np.array_equal(DOUBLE_MODEL.actuation, expected)


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
        assert np.array_equal(w, np.zeros((1, 2, 2)))

    def test_norm_bound_and_mean_norm(self):
        # Uniform-ball radius has mean bound * n/(n+1) = 2/3 * bound for n=2.
        cfg = SystemConfig(noise_bound=0.05)
        rng = np.random.default_rng(7)
        draws = noise_array(cfg, [rng] * 50_000).reshape(-1, 2)
        norms = np.linalg.norm(draws, axis=1)
        assert norms.max() <= 0.05 + 1e-15
        assert norms.mean() == pytest.approx(0.05 * 2.0 / 3.0, abs=1e-3)

    def test_mean_norm_matches_rejection_oracle(self, rng):
        cfg = SystemConfig(noise_bound=0.05)
        gen = np.random.default_rng(11)
        draws = noise_array(cfg, [gen] * 20_000).reshape(-1, 2)
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
        # Generator r draws N x n normals, then (ball) N uniforms, per call.
        cfg = SystemConfig(n_agents=3, noise_bound=0.03, noise_dist=dist)
        batch = noise_array(cfg, [np.random.default_rng(s) for s in range(4)])
        assert batch.shape == (4, 3, 2)
        for s in range(4):
            rng = np.random.default_rng(s)
            z = rng.standard_normal((3, 2))
            radii = 0.03 * np.sqrt(rng.random(3)) if dist == "ball" else np.full(3, 0.03)
            expected = z * (radii / np.linalg.norm(z, axis=1))[:, None]
            assert np.allclose(batch[s], expected, rtol=1e-14, atol=0.0)

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
        ],
    )
    def test_bad_configs_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            SystemConfig(**kwargs)
