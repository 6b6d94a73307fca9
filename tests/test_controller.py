import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbfcert.controller import (
    RELAX_RHO,
    STATUS_INFEASIBLE_RELAXED,
    STATUS_OPTIMAL,
    _constraint_rows,
    _rhs_vector,
    fast_control,
    solve_qp,
)
from cbfcert.errors import SolverError
from cbfcert.safety import PairTable, SafetyParams
from cbfcert.sysmodel import SystemConfig, dynamics_model
from oracles import (
    kkt_residuals,
    make_feasible_qp,
    min_shared_slack_lp,
    qp_grid_oracle_2d,
    qp_oracle_slsqp,
    reference_rows,
)

MODEL = dynamics_model(SystemConfig())
DOUBLE = dynamics_model(SystemConfig(dynamics="double_integrator", state_dim=4, control_dim=2))


# (model, dynamics name, params) for the checks against the pairwise
# reference; the box bound (params2) regularly forces the relaxed path.
REFERENCE_CASES = {
    "params0": (MODEL, "single_integrator", SafetyParams(psi=2.0, kappa=0.5)),
    "params1": (MODEL, "single_integrator", SafetyParams(psi=0.0, kappa=1.0, freeze_adot=True)),
    "params2": (MODEL, "single_integrator", SafetyParams(psi=2.0, kappa=0.5, control_bound=0.05)),
    "freeze_psi2": (MODEL, "single_integrator", SafetyParams(psi=2.0, kappa=0.5, freeze_adot=True)),
    "double_psi0": (DOUBLE, "double_integrator", SafetyParams(psi=0.0, kappa=0.5)),
}
reference_cases = pytest.mark.parametrize(
    "model, dynamics, params", list(REFERENCE_CASES.values()), ids=list(REFERENCE_CASES)
)


def solve(a, b):
    return solve_qp(np.atleast_2d(np.asarray(a, dtype=float)), np.asarray(b, dtype=float))


def rows(x, u_prev, params, w_bar, model=MODEL):
    """The (A, b) that fast_control solves for this step."""
    x = np.asarray(x, dtype=float)
    table = PairTable(x, params, w_bar)
    b = _rhs_vector(x, np.asarray(u_prev, dtype=float), params, model, table)
    return _constraint_rows(params, model, table, b, x.shape[0] * model.control_dim)


class TestAssembleConstraints:
    def test_two_agent_hand_assembly(self):
        params = SafetyParams(psi=0.0, robust_margin_enabled=False)
        a, b = rows([[0.0, 0.0], [2.0, 0.0]], np.zeros((2, 2)), params, 0.0)
        assert a.shape == (1, 4)
        assert np.allclose(a[0], [-4.0, 0.0, 4.0, 0.0])
        assert b[0] == pytest.approx(-3.0)

    def test_robust_margin_shifts_rhs(self):
        params = SafetyParams(psi=0.0, robust_margin_enabled=True)
        _, b = rows([[0.0, 0.0], [2.0, 0.0]], np.zeros((2, 2)), params, 0.05)
        # gamma = 2 * 0.05 * ||grad|| = 0.4, so b = 0.4 - 3 = -2.6.
        assert b[0] == pytest.approx(-2.6)

    def test_psi_term_enters_coupling_rows(self):
        params = SafetyParams(psi=2.0, kappa=0.5, robust_margin_enabled=False)
        a, _ = rows([[1.0, 0.0], [0.0, 0.0]], np.zeros((2, 2)), params, 0.0)
        a_prop = 0.3678794411714423
        expected = np.array([2.0 + 2.0 * 0.5 * a_prop, 0.0])
        assert np.allclose(a[0, :2], expected, atol=1e-9)
        assert np.allclose(a[0, 2:], -expected, atol=1e-9)

    def test_pair_count_matches_agents(self):
        x = [[0.0, 0.0], [5.0, 0.0], [0.0, 5.0], [5.0, 5.0]]
        a, b = rows(x, np.zeros((4, 2)), SafetyParams(), 0.03)
        assert a.shape == (6, 8)
        assert b.shape == (6,)

    def test_control_bound_appends_box_rows(self):
        params = SafetyParams(control_bound=0.5)
        a, b = rows([[0.0, 0.0], [5.0, 0.0]], np.zeros((2, 2)), params, 0.0)
        assert a.shape == (1 + 2 * 4, 4)
        assert np.array_equal(a[1:], np.vstack([np.eye(4), -np.eye(4)]))
        assert np.array_equal(b[1:], np.full(8, -0.5))

    def test_freeze_adot_folds_frozen_term_into_rhs(self):
        # The rhs shift must equal psi * (dA/dt along the previous flow)
        # . (previous control difference), checked by finite differences.
        x = np.array([[1.1, 0.3], [0.0, 0.0]])
        u_prev = np.array([[0.3, -0.2], [0.1, 0.4]])
        base = SafetyParams(psi=2.0, robust_margin_enabled=False)
        frozen = SafetyParams(psi=2.0, robust_margin_enabled=False, freeze_adot=True)
        b_plain = rows(x, u_prev, base, 0.0)[1][0]
        b_frozen = rows(x, u_prev, frozen, 0.0)[1][0]
        dt = 1e-7
        # Single integrator: xdot = u, so the pair difference moves by dt * du.
        a_now = PairTable(x, base, 0.0).prop[0]
        a_next = PairTable(x + dt * u_prev, base, 0.0).prop[0]
        a_dot_fd = (a_next - a_now) / dt
        expected_shift = -2.0 * float(a_dot_fd @ (u_prev[0] - u_prev[1]))
        assert b_frozen - b_plain == pytest.approx(expected_shift, abs=1e-6)

    @reference_cases
    def test_rows_match_pairwise_reference(self, rng, model, dynamics, params):
        for _ in range(10):
            n = int(rng.integers(2, 7))
            x = rng.uniform(-2.0, 2.0, size=(n, model.state_dim))
            u_prev = rng.uniform(-0.5, 0.5, size=(n, model.control_dim))
            a, b = rows(x, u_prev, params, 0.03, model)
            a_ref, b_ref = reference_rows(x, u_prev, params, 0.03, dynamics)
            assert np.allclose(a, a_ref, rtol=1e-12, atol=1e-12)
            assert np.allclose(b, b_ref, rtol=1e-12, atol=1e-12)


    @reference_cases
    def test_batched_rhs_matches_each_joint_state(self, rng, model, dynamics, params):
        x = rng.uniform(-2.0, 2.0, size=(6, 4, model.state_dim))
        u_prev = rng.uniform(-0.5, 0.5, size=(6, 4, model.control_dim))
        b = _rhs_vector(x, u_prev, params, model, PairTable(x, params, 0.03))
        for r in range(len(x)):
            table = PairTable(x[r], params, 0.03)
            assert np.array_equal(b[r], _rhs_vector(x[r], u_prev[r], params, model, table))


class TestSolveQP:
    def test_unconstrained_minimum_when_nothing_binds(self):
        u, _, status, slack = solve([[1.0, 0.0]], [-1.0])
        assert np.array_equal(u, [0.0, 0.0])
        assert status == STATUS_OPTIMAL
        assert slack == 0.0

    def test_single_constraint_closed_form(self):
        u, duals, _, _ = solve([[1.0, 0.0]], [2.0])
        assert np.allclose(u, [2.0, 0.0], atol=1e-8)
        assert duals[0] == pytest.approx(2.0)

    def test_two_separable_constraints(self):
        u, _, _, _ = solve([[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0])
        assert np.allclose(u, [1.0, 1.0], atol=1e-8)

    def test_contradictory_constraints_relax(self):
        u, _, status, slack = solve([[1.0, 0.0], [-1.0, 0.0]], [1.0, 1.0])
        assert status == STATUS_INFEASIBLE_RELAXED
        assert np.allclose(u, [0.0, 0.0], atol=1e-6)
        assert slack == pytest.approx(1.0, abs=1e-6)

    def test_zero_row_with_positive_bound_relaxes(self):
        _, _, status, slack = solve([[0.0, 0.0]], [0.5])
        assert status == STATUS_INFEASIBLE_RELAXED
        assert slack == pytest.approx(0.5, abs=1e-6)

    def test_zero_row_with_negative_bound_is_vacuous(self):
        u, _, status, _ = solve([[0.0, 0.0], [1.0, 0.0]], [-1.0, 1.0])
        assert status == STATUS_OPTIMAL
        assert np.allclose(u, [1.0, 0.0], atol=1e-8)

    def test_no_constraints(self):
        u, duals, status, _ = solve_qp(np.zeros((0, 3)), np.zeros(0))
        assert np.array_equal(u, np.zeros(3))
        assert duals.shape == (0,)
        assert status == STATUS_OPTIMAL

    def test_non_finite_data_rejected(self):
        with pytest.raises(ValueError):
            solve([[np.nan, 0.0]], [0.0])
        with pytest.raises(ValueError):
            solve([[1.0, 0.0]], [np.inf])

    def test_feasibility_invariant_at_optimal(self, rng):
        for _ in range(50):
            dim = int(rng.integers(2, 5))
            n_cons = int(rng.integers(1, 4))
            a, b, _ = make_feasible_qp(rng, dim, n_cons)
            u, _, status, _ = solve_qp(a, b)
            assert status == STATUS_OPTIMAL
            assert np.all(a @ u >= b - 1e-8)

    def test_kkt_conditions_at_optimal(self, rng):
        for _ in range(50):
            dim = int(rng.integers(2, 5))
            n_cons = int(rng.integers(1, 4))
            a, b, _ = make_feasible_qp(rng, dim, n_cons)
            u, duals, _, _ = solve_qp(a, b)
            stat, comp, sign, primal = kkt_residuals(a, b, u, duals)
            assert stat <= 1e-6
            assert comp <= 1e-6
            assert sign <= 1e-12
            assert primal <= 1e-8

    @given(scale=st.floats(1e-3, 1e3), seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_scaling_invariance(self, scale, seed):
        gen = np.random.default_rng(seed)
        a, b, _ = make_feasible_qp(gen, 3, 2)
        base = solve_qp(a, b)[0]
        scaled = solve_qp(scale * a, scale * b)[0]
        assert np.allclose(base, scaled, atol=1e-6)

    def test_matches_literal_grid_search(self, rng):
        # Exhaustive 1e-3 grid over [-5, 5]^2; the grid optimum can exceed the
        # true one by the resolution gap, never undercut it.
        for _ in range(4):
            a, b, _ = make_feasible_qp(rng, 2, 2)
            u = solve_qp(a, b)[0]
            grid_obj, _ = qp_grid_oracle_2d(a, b)
            obj = float(u @ u)
            assert obj <= grid_obj + 1e-9
            assert grid_obj - obj <= 5e-2

    def test_matches_slsqp_oracle(self, rng):
        for _ in range(30):
            dim = int(rng.integers(2, 5))
            n_cons = int(rng.integers(1, 4))
            a, b, witness = make_feasible_qp(rng, dim, n_cons)
            u = solve_qp(a, b)[0]
            _, ref_obj = qp_oracle_slsqp(a, b, witness)
            assert float(u @ u) == pytest.approx(ref_obj, abs=1e-6)

    def test_feasibility_decision_matches_lp(self, rng):
        # More rows than variables, every other system with repeated (scaled)
        # rows: often empty and degenerate. The status must agree with an LP
        # phase one, and optimal answers must satisfy the KKT conditions.
        for trial in range(150):
            dim = int(rng.integers(1, 6))
            n_cons = int(rng.integers(dim + 1, 13))
            a = rng.standard_normal((n_cons, dim))
            b = rng.standard_normal(n_cons)
            if trial % 2:
                pick = rng.integers(0, n_cons, size=3)
                a = np.vstack([a, 2.0 * a[pick]])
                b = np.append(b, 2.0 * b[pick])
            u, duals, status, _ = solve_qp(a, b)
            infeasible = min_shared_slack_lp(a, b) > 1e-7
            assert (status == STATUS_INFEASIBLE_RELAXED) == infeasible
            if not infeasible:
                stat, comp, sign, primal = kkt_residuals(a, b, u, duals)
                assert max(stat, comp, sign) <= 1e-6
                assert primal <= 1e-8

    def test_relaxed_matches_slsqp_on_augmented_rows(self, rng):
        # The shared-slack problem min ||u||^2 + rho*s^2 s.t. a u + s >= b,
        # s >= 0 is a plain minimum-norm problem in (u, sqrt(rho)*s) over the
        # rows [a, 1/sqrt(rho)] and [0, 1], which the oracle solves directly.
        root_rho = np.sqrt(RELAX_RHO)
        worst_obj, worst_slack = 0.0, 0.0
        for _ in range(40):
            dim = int(rng.integers(1, 5))
            n_cons = int(rng.integers(1, 8))
            a = rng.uniform(-2.0, 2.0, size=(n_cons, dim))
            b = rng.uniform(-1.0, 1.0, size=n_cons)
            # Farkas certificate (mu, 1): the extra row cancels mu^T a while
            # its bound exceeds -mu^T b, so no u satisfies every row.
            mu = rng.uniform(0.5, 1.5, size=n_cons)
            a = np.vstack([a, -mu @ a])
            b = np.append(b, -mu @ b + rng.uniform(0.05, 1.0))
            u, _, status, slack = solve_qp(a, b)
            assert status == STATUS_INFEASIBLE_RELAXED
            aug = np.zeros((n_cons + 2, dim + 1))
            aug[:-1, :dim] = a
            aug[:-1, dim] = 1.0 / root_rho
            aug[-1, dim] = 1.0
            start = np.append(np.zeros(dim), root_rho * (np.max(b) + 1.0))
            v, ref_obj = qp_oracle_slsqp(aug, np.append(b, 0.0), start)
            obj = float(u @ u) + RELAX_RHO * slack**2
            worst_obj = max(worst_obj, abs(obj - ref_obj) / ref_obj)
            worst_slack = max(worst_slack, abs(slack - v[dim] / root_rho))
        # The oracle accepts points up to 1e-7 infeasible, which can lower
        # rho*s^2 by 2e-7*rho*s: about 1e-5 of the objective at these slacks.
        assert worst_obj <= 1e-5
        assert worst_slack <= 1e-6


def control(x, u_prev, params, w_bar, model=MODEL):
    x = np.asarray(x, dtype=float)
    return fast_control(x, u_prev, params, model, PairTable(x, params, w_bar))


class TestControlStep:
    def test_far_separated_agents_get_zero_control(self):
        x = [[0.0, 0.0], [8.0, 0.0], [4.0, 7.0]]
        u, status, slack = control(x, np.zeros((3, 2)), SafetyParams(), 0.03)
        assert np.array_equal(u, np.zeros((3, 2)))
        assert status == STATUS_OPTIMAL
        assert slack == 0.0

    def test_close_pair_pushed_apart(self, rng):
        # Closing agents must receive controls that do not reduce separation.
        params = SafetyParams(psi=2.0)
        for _ in range(50):
            direction = rng.standard_normal(2)
            direction /= np.linalg.norm(direction)
            gap = params.d_min + 0.01
            x = np.vstack([gap * direction, np.zeros(2)])
            u, status, _ = control(x, np.zeros((2, 2)), params, 0.05)
            if status != STATUS_OPTIMAL:
                continue
            rel = float((u[0] - u[1]) @ (x[0] - x[1]))
            assert rel >= -1e-9

    def test_control_varies_continuously_with_psi(self):
        # Slope estimated on a fine grid bounds the jumps of a coarse grid.
        x = [[1.03, 0.0], [0.0, 0.0]]

        def u_of(psi):
            return control(x, np.zeros((2, 2)), SafetyParams(psi=psi), 0.05)[0].ravel()

        fine = np.arange(0.0, 10.0001, 0.01)
        vals = np.array([u_of(p) for p in fine])
        fine_slope = np.max(np.linalg.norm(np.diff(vals, axis=0), axis=1)) / 0.01
        coarse = np.arange(0.0, 10.0001, 0.1)
        cvals = np.array([u_of(p) for p in coarse])
        jumps = np.linalg.norm(np.diff(cvals, axis=0), axis=1)
        assert np.all(jumps <= 1.5 * fine_slope * 0.1 + 1e-9)

    def test_non_finite_state_is_a_solver_error(self):
        params = SafetyParams(psi=0.0)
        with pytest.raises(SolverError):
            control([[0.0, 0.0], [np.nan, 1.0]], np.zeros((2, 2)), params, 0.05)

    @reference_cases
    def test_fast_control_matches_public_path(self, rng, model, dynamics, params):
        # The public solver on rows built pair by pair from the scalar
        # formulas must give fast_control's answer.
        for _ in range(30):
            n = int(rng.integers(2, 13))
            x = rng.uniform(0.0, 3.0, size=(n, model.state_dim))
            u_prev = rng.uniform(-0.5, 0.5, size=(n, model.control_dim))
            u_fast, status_fast, slack_fast = control(x, u_prev, params, 0.03, model)
            u_ref, _, status_ref, slack_ref = solve_qp(
                *reference_rows(x, u_prev, params, 0.03, dynamics)
            )
            assert status_fast == status_ref
            assert slack_fast == pytest.approx(slack_ref, abs=1e-9)
            assert np.allclose(u_fast.ravel(), u_ref, atol=1e-9)
