import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cbfcert.safety import PairTable, SafetyParams
from oracles import prop_jacobian, sampled_disturbance_sup

PARAMS = SafetyParams()

vec2 = hnp.arrays(float, 2, elements=st.floats(-8, 8, allow_nan=False))


def pair(x_i, x_j, params=PARAMS, w_bar=0.0) -> PairTable:
    """The one-row table of agents i and j."""
    return PairTable(np.array([x_i, x_j], dtype=float), params, w_bar)


def h_of(x_i, x_j) -> float:
    return float(pair(x_i, x_j).h[0])


def high_precision_prop_norm(dist: float, eps: float = 1e-6) -> float:
    """Arbitrary-precision evaluation of the damped direction magnitude."""
    with mp.workdps(40):
        d = mp.mpf(dist)
        return float(mp.e ** (-(d**2)) * d / mp.sqrt(d**2 + mp.mpf(eps) ** 2))


class TestHPair:
    def test_hand_value(self):
        assert h_of([2.0, 0.0], [0.0, 0.0]) == pytest.approx(3.0)

    def test_boundary_of_safe_set(self):
        assert h_of([1.0, 0.0], [0.0, 0.0]) == pytest.approx(0.0)

    def test_coincidence(self):
        assert h_of([0.7, 0.7], [0.7, 0.7]) == pytest.approx(-1.0)


class TestGradHPair:
    def test_hand_value(self):
        assert np.allclose(pair([2.0, 0.0], [0.0, 0.0]).grad[0], [4.0, 0.0])

    def test_zero_at_coincidence(self):
        assert np.allclose(pair([1.0, 1.0], [1.0, 1.0]).grad[0], [0.0, 0.0])

    @staticmethod
    def central_difference(x_i, x_j, h=1e-5):
        fd = np.empty(2)
        for c in range(2):
            e = np.zeros(2)
            e[c] = h
            fd[c] = (h_of(x_i + e, x_j) - h_of(x_i - e, x_j)) / (2 * h)
        return fd

    def test_central_difference_at_spec_point(self):
        x_i = np.array([1.3, -0.7])
        x_j = np.array([0.2, 0.4])
        fd = self.central_difference(x_i, x_j)
        assert np.allclose(pair(x_i, x_j).grad[0], fd, atol=1e-6)

    def test_central_difference_at_100_random_points(self, rng):
        for _ in range(100):
            x_i = rng.uniform(-5, 5, 2)
            x_j = rng.uniform(-5, 5, 2)
            fd = self.central_difference(x_i, x_j)
            assert np.allclose(pair(x_i, x_j).grad[0], fd, atol=1e-6)


class TestPropagationVector:
    def test_zero_at_coincidence(self):
        a = pair([1.0, 2.0], [1.0, 2.0]).prop[0]
        assert np.array_equal(a, [0.0, 0.0])

    def test_unit_distance_value(self):
        a = pair([1.0, 0.0], [0.0, 0.0]).prop[0]
        assert a[0] == pytest.approx(high_precision_prop_norm(1.0), abs=1e-12)
        assert a[0] == pytest.approx(0.3678794, abs=1e-7)
        assert a[1] == 0.0

    @given(x_i=vec2, x_j=vec2)
    @settings(max_examples=100, deadline=None)
    def test_antisymmetry(self, x_i, x_j):
        fwd = pair(x_i, x_j).prop[0]
        rev = pair(x_j, x_i).prop[0]
        assert np.allclose(fwd, -rev, atol=1e-15)

    @given(x_i=vec2, x_j=vec2)
    @settings(max_examples=100, deadline=None)
    def test_norm_bounded_by_gaussian_decay(self, x_i, x_j):
        d = float(np.linalg.norm(np.asarray(x_i) - np.asarray(x_j)))
        norm = float(np.linalg.norm(pair(x_i, x_j).prop[0]))
        assert norm <= np.exp(-(d**2)) + 1e-12
        assert norm <= 1.0 + 1e-12

    def test_jacobian_matches_central_differences(self, rng):
        # The closed-form Jacobian behind the freeze_adot reference rows.
        h = 1e-6
        for _ in range(30):
            x_i = rng.uniform(-2, 2, 2)
            x_j = rng.uniform(-2, 2, 2)
            if np.linalg.norm(x_i - x_j) < 0.05:
                continue
            jac = prop_jacobian(x_i - x_j, PARAMS.reg_eps)
            fd = np.empty((2, 2))
            for c in range(2):
                e = np.zeros(2)
                e[c] = h
                fd[:, c] = (pair(x_i + e, x_j).prop[0] - pair(x_i - e, x_j).prop[0]) / (2 * h)
            assert np.allclose(jac, fd, atol=1e-6)


def psi_safety(x_i, x_j, u_i, u_j, params=PARAMS) -> float:
    u = np.array([u_i, u_j], dtype=float)
    return float(pair(x_i, x_j, params).weighted_margins(u, params.psi)[0])


class TestPsiSafety:
    def test_equal_controls_reduce_to_h(self):
        u = np.array([0.4, -0.3])
        assert psi_safety([2.0, 0.0], [0.0, 0.0], u, u) == pytest.approx(3.0)

    def test_zero_weight_reduces_to_h(self):
        params = SafetyParams(psi=0.0)
        val = psi_safety([2.0, 0.0], [0.0, 0.0], [9.0, 9.0], [-9.0, 0.0], params)
        assert val == pytest.approx(3.0)

    def test_composed_hand_value(self):
        # h = 0 at unit separation; the alignment term contributes
        # psi * A_x * 1 = 2 * 0.3678794.
        params = SafetyParams(psi=2.0)
        val = psi_safety([1.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 0.0], params)
        assert val == pytest.approx(2.0 * high_precision_prop_norm(1.0), abs=1e-10)
        assert val == pytest.approx(0.7357588, abs=1e-6)

    @given(
        x_i=vec2,
        x_j=vec2,
        du=vec2,
        t=st.floats(0.1, 0.9),
    )
    @settings(max_examples=60, deadline=None)
    def test_affine_in_control_difference(self, x_i, x_j, du, t):
        # Three-point collinearity along the segment 0 -> du.
        zero = np.zeros(2)
        f0 = psi_safety(x_i, x_j, zero, zero)
        f1 = psi_safety(x_i, x_j, du, zero)
        fm = psi_safety(x_i, x_j, t * np.asarray(du), zero)
        assert fm == pytest.approx((1 - t) * f0 + t * f1, abs=1e-9 * (1 + abs(f1)))


class TestDisturbanceMargin:
    def test_zero_noise(self):
        assert pair([3.0, 1.0], [0.0, 0.0], w_bar=0.0).gamma[0] == 0.0

    def test_hand_value(self):
        # x_i - x_j = (1.5, 2) gives grad (3, 4): 2 * 0.05 * 5 = 0.5.
        assert pair([1.5, 2.0], [0.0, 0.0], w_bar=0.05).gamma[0] == pytest.approx(0.5)

    def test_zero_gradient_at_coincidence(self):
        assert pair([1.0, 1.0], [1.0, 1.0], w_bar=0.5).gamma[0] == 0.0

    def test_matches_sampled_supremum(self, rng):
        for _ in range(5):
            x_i = rng.uniform(-3, 3, 2)
            x_j = rng.uniform(-3, 3, 2)
            w_bar = float(rng.uniform(0.01, 0.2))
            table = pair(x_i, x_j, w_bar=w_bar)
            exact = float(table.gamma[0])
            approx = sampled_disturbance_sup(table.grad[0], w_bar, rng)
            # Sampling under-approximates the supremum.
            assert approx <= exact + 1e-12
            assert approx >= 0.99 * exact


class TestPairTable:
    def test_matches_scalar_operations(self, rng):
        # Row k of an N-agent table equals the one-row table of its pair.
        params = SafetyParams(psi=1.7, kappa=0.8)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            x = rng.uniform(-4, 4, size=(n, 2))
            u = rng.uniform(-1, 1, size=(n, 2))
            w_bar = float(rng.uniform(0.0, 0.1))
            table = PairTable(x, params, w_bar)
            h_tilde = table.weighted_margins(u, params.psi)
            assert len(table.h) == n * (n - 1) // 2
            for k, (i, j) in enumerate(zip(table.idx_i, table.idx_j)):
                assert i < j
                ref = pair(x[i], x[j], params, w_bar)
                assert table.h[k] == pytest.approx(ref.h[0], abs=1e-12)
                assert np.allclose(table.grad[k], ref.grad[0])
                assert np.allclose(table.prop[k], ref.prop[0])
                assert table.gamma[k] == pytest.approx(ref.gamma[0], abs=1e-12)
                expected = psi_safety(x[i], x[j], u[i], u[j], params)
                assert h_tilde[k] == pytest.approx(expected, abs=1e-12)

    def test_batch_matches_each_joint_state(self, rng):
        # Slice r of a table over stacked joint states is bit for bit the
        # table of joint state r alone (the lockstep rollouts rely on it).
        params = SafetyParams(psi=1.7, kappa=0.8)
        x = rng.uniform(-4, 4, size=(5, 4, 2))
        u = rng.uniform(-1, 1, size=(5, 4, 2))
        batch = PairTable(x, params, 0.05)
        h_tilde = batch.weighted_margins(u, params.psi)
        for r in range(len(x)):
            one = PairTable(x[r], params, 0.05)
            for name in ("diff", "dist_sq", "dist", "h", "grad", "prop", "gamma"):
                assert np.array_equal(getattr(batch, name)[r], getattr(one, name)), name
            assert np.array_equal(h_tilde[r], one.weighted_margins(u[r], params.psi))

    def test_per_state_bounds_match_each_joint_state(self, rng):
        # One noise bound per joint state, zero among them, gives each slice
        # the gamma of its state's table with that bound as a float.
        params = SafetyParams(psi=1.7, kappa=0.8)
        x = rng.uniform(-4, 4, size=(4, 3, 2))
        bounds = np.array([0.05, 0.0, 0.01, 0.03])
        batch = PairTable(x, params, bounds)
        for r, bound in enumerate(bounds.tolist()):
            assert batch.gamma[r].tobytes() == PairTable(x[r], params, bound).gamma.tobytes()

    def test_gamma_zero_when_margin_disabled(self, rng):
        params = SafetyParams(robust_margin_enabled=False)
        x = rng.uniform(-4, 4, size=(3, 2))
        table = PairTable(x, params, 0.1)
        assert np.array_equal(table.gamma, np.zeros(3))


class TestSafetyParamsValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(psi=-0.1),
            dict(reg_eps=0.0),
            dict(d_min=0.0),
            dict(kappa=0.0),
            dict(control_bound=0.0),
        ],
    )
    def test_bad_params_rejected(self, kwargs):
        from cbfcert.errors import ConfigError

        with pytest.raises(ConfigError):
            SafetyParams(**kwargs)
