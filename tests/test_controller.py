import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbfcert.controller import (
    RELAX_RHO,
    STATUS_INFEASIBLE_RELAXED,
    STATUS_OPTIMAL,
    QPProblem,
    assemble_constraints,
    control_step,
    fast_control,
    solve_qp,
)
from cbfcert.safety import PairTable, SafetyParams
from cbfcert.sysmodel import ControlVector, SystemConfig, SystemState, dynamics_model
from oracles import (
    kkt_residuals,
    make_feasible_qp,
    min_shared_slack_lp,
    qp_grid_oracle_2d,
    qp_oracle_slsqp,
)

MODEL = dynamics_model(SystemConfig())


def problem(a, b):
    a = np.atleast_2d(np.asarray(a, dtype=float))
    return QPProblem(
        dim=a.shape[1],
        a_matrix=a,
        b_vector=np.asarray(b, dtype=float),
        pair_labels=tuple((0, k + 1) for k in range(a.shape[0])),
    )


class TestAssembleConstraints:
    def test_two_agent_hand_assembly(self):
        state = SystemState(x=[[0.0, 0.0], [2.0, 0.0]])
        params = SafetyParams(psi=0.0, robust_margin_enabled=False)
        prob = assemble_constraints(
            state, ControlVector(u=np.zeros((2, 2))), params, 0.0, MODEL
        )
        assert prob.n_constraints == 1
        assert np.allclose(prob.a_matrix[0], [-4.0, 0.0, 4.0, 0.0])
        assert prob.b_vector[0] == pytest.approx(-3.0)
        assert prob.pair_labels == ((0, 1),)

    def test_robust_margin_shifts_rhs(self):
        state = SystemState(x=[[0.0, 0.0], [2.0, 0.0]])
        params = SafetyParams(psi=0.0, robust_margin_enabled=True)
        prob = assemble_constraints(
            state, ControlVector(u=np.zeros((2, 2))), params, 0.05, MODEL
        )
        # gamma = 2 * 0.05 * ||grad|| = 0.4, so b = 0.4 - 3 = -2.6.
        assert prob.b_vector[0] == pytest.approx(-2.6)

    def test_psi_term_enters_coupling_rows(self):
        state = SystemState(x=[[1.0, 0.0], [0.0, 0.0]])
        params = SafetyParams(psi=2.0, kappa=0.5, robust_margin_enabled=False)
        prob = assemble_constraints(
            state, ControlVector(u=np.zeros((2, 2))), params, 0.0, MODEL
        )
        a_prop = 0.3678794411714423
        expected = np.array([2.0 + 2.0 * 0.5 * a_prop, 0.0])
        assert np.allclose(prob.a_matrix[0, :2], expected, atol=1e-9)
        assert np.allclose(prob.a_matrix[0, 2:], -expected, atol=1e-9)

    def test_pair_count_matches_agents(self):
        state = SystemState(x=[[0.0, 0.0], [5.0, 0.0], [0.0, 5.0], [5.0, 5.0]])
        prob = assemble_constraints(
            state,
            ControlVector(u=np.zeros((4, 2))),
            SafetyParams(),
            0.03,
            MODEL,
        )
        assert prob.n_constraints == 6
        assert all(lbl is not None for lbl in prob.pair_labels)

    def test_control_bound_appends_box_rows(self):
        state = SystemState(x=[[0.0, 0.0], [5.0, 0.0]])
        params = SafetyParams(control_bound=0.5)
        prob = assemble_constraints(
            state, ControlVector(u=np.zeros((2, 2))), params, 0.0, MODEL
        )
        assert prob.n_constraints == 1 + 2 * 4
        assert prob.pair_labels[1:] == (None,) * 8

    def test_freeze_adot_folds_frozen_term_into_rhs(self):
        # The rhs shift must equal psi * (dA/dt along the previous flow)
        # . (previous control difference), checked by finite differences.
        state = SystemState(x=[[1.1, 0.3], [0.0, 0.0]])
        u_prev = ControlVector(u=[[0.3, -0.2], [0.1, 0.4]])
        base = SafetyParams(psi=2.0, robust_margin_enabled=False)
        frozen = SafetyParams(psi=2.0, robust_margin_enabled=False, freeze_adot=True)
        b_plain = assemble_constraints(state, u_prev, base, 0.0, MODEL).b_vector[0]
        b_frozen = assemble_constraints(state, u_prev, frozen, 0.0, MODEL).b_vector[0]
        dt = 1e-7
        from cbfcert.safety import propagation_vector

        dx_dot = u_prev.u[0] - u_prev.u[1]  # single integrator: xdot = u
        diff_now = state.x[0] - state.x[1]
        a_now = propagation_vector(diff_now, np.zeros(2), base)
        a_next = propagation_vector(diff_now + dt * dx_dot, np.zeros(2), base)
        a_dot_fd = (a_next - a_now) / dt
        expected_shift = -2.0 * float(a_dot_fd @ (u_prev.u[0] - u_prev.u[1]))
        assert b_frozen - b_plain == pytest.approx(expected_shift, abs=1e-6)


class TestSolveQP:
    def test_unconstrained_minimum_when_nothing_binds(self):
        sol = solve_qp(problem([[1.0, 0.0]], [-1.0]))
        assert np.array_equal(sol.u_star, [0.0, 0.0])
        assert sol.status == STATUS_OPTIMAL
        assert sol.slack_used == 0.0

    def test_single_constraint_closed_form(self):
        sol = solve_qp(problem([[1.0, 0.0]], [2.0]))
        assert np.allclose(sol.u_star, [2.0, 0.0], atol=1e-8)
        assert sol.active_set == (0,)

    def test_two_separable_constraints(self):
        sol = solve_qp(problem([[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0]))
        assert np.allclose(sol.u_star, [1.0, 1.0], atol=1e-8)

    def test_contradictory_constraints_relax(self):
        sol = solve_qp(problem([[1.0, 0.0], [-1.0, 0.0]], [1.0, 1.0]))
        assert sol.status == STATUS_INFEASIBLE_RELAXED
        assert np.allclose(sol.u_star, [0.0, 0.0], atol=1e-6)
        assert sol.slack_used == pytest.approx(1.0, abs=1e-6)

    def test_zero_row_with_positive_bound_relaxes(self):
        sol = solve_qp(problem([[0.0, 0.0]], [0.5]))
        assert sol.status == STATUS_INFEASIBLE_RELAXED
        assert sol.slack_used == pytest.approx(0.5, abs=1e-6)

    def test_zero_row_with_negative_bound_is_vacuous(self):
        sol = solve_qp(problem([[0.0, 0.0], [1.0, 0.0]], [-1.0, 1.0]))
        assert sol.status == STATUS_OPTIMAL
        assert np.allclose(sol.u_star, [1.0, 0.0], atol=1e-8)

    def test_no_constraints(self):
        prob = QPProblem(
            dim=3,
            a_matrix=np.zeros((0, 3)),
            b_vector=np.zeros(0),
            pair_labels=(),
        )
        sol = solve_qp(prob)
        assert np.array_equal(sol.u_star, np.zeros(3))

    def test_non_finite_data_rejected(self):
        with pytest.raises(ValueError):
            solve_qp(problem([[np.nan, 0.0]], [0.0]))

    def test_feasibility_invariant_at_optimal(self, rng):
        for _ in range(50):
            dim = int(rng.integers(2, 5))
            n_cons = int(rng.integers(1, 4))
            a, b, _ = make_feasible_qp(rng, dim, n_cons)
            sol = solve_qp(problem(a, b))
            assert sol.status == STATUS_OPTIMAL
            assert np.all(a @ sol.u_star >= b - 1e-8)

    def test_kkt_conditions_at_optimal(self, rng):
        for _ in range(50):
            dim = int(rng.integers(2, 5))
            n_cons = int(rng.integers(1, 4))
            a, b, _ = make_feasible_qp(rng, dim, n_cons)
            sol = solve_qp(problem(a, b))
            stat, comp, sign, primal = kkt_residuals(a, b, sol.u_star, sol.duals)
            assert stat <= 1e-6
            assert comp <= 1e-6
            assert sign <= 1e-12
            assert primal <= 1e-8

    @given(scale=st.floats(1e-3, 1e3), seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_scaling_invariance(self, scale, seed):
        gen = np.random.default_rng(seed)
        a, b, _ = make_feasible_qp(gen, 3, 2)
        base = solve_qp(problem(a, b))
        scaled = solve_qp(problem(scale * a, scale * b))
        assert np.allclose(base.u_star, scaled.u_star, atol=1e-6)

    def test_matches_literal_grid_search(self, rng):
        # Exhaustive 1e-3 grid over [-5, 5]^2; the grid optimum can exceed the
        # true one by the resolution gap, never undercut it.
        for _ in range(4):
            a, b, _ = make_feasible_qp(rng, 2, 2)
            sol = solve_qp(problem(a, b))
            grid_obj, _ = qp_grid_oracle_2d(a, b)
            obj = float(sol.u_star @ sol.u_star)
            assert obj <= grid_obj + 1e-9
            assert grid_obj - obj <= 5e-2

    def test_matches_slsqp_oracle(self, rng):
        for _ in range(30):
            dim = int(rng.integers(2, 5))
            n_cons = int(rng.integers(1, 4))
            a, b, witness = make_feasible_qp(rng, dim, n_cons)
            sol = solve_qp(problem(a, b))
            _, ref_obj = qp_oracle_slsqp(a, b, witness)
            assert float(sol.u_star @ sol.u_star) == pytest.approx(ref_obj, abs=1e-6)

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
            sol = solve_qp(problem(a, b))
            infeasible = min_shared_slack_lp(a, b) > 1e-7
            assert (sol.status == STATUS_INFEASIBLE_RELAXED) == infeasible
            if not infeasible:
                stat, comp, sign, primal = kkt_residuals(a, b, sol.u_star, sol.duals)
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
            sol = solve_qp(problem(a, b))
            assert sol.status == STATUS_INFEASIBLE_RELAXED
            rows = np.zeros((n_cons + 2, dim + 1))
            rows[:-1, :dim] = a
            rows[:-1, dim] = 1.0 / root_rho
            rows[-1, dim] = 1.0
            start = np.append(np.zeros(dim), root_rho * (np.max(b) + 1.0))
            v, ref_obj = qp_oracle_slsqp(rows, np.append(b, 0.0), start)
            obj = float(sol.u_star @ sol.u_star) + RELAX_RHO * sol.slack_used**2
            worst_obj = max(worst_obj, abs(obj - ref_obj) / ref_obj)
            worst_slack = max(worst_slack, abs(sol.slack_used - v[dim] / root_rho))
        # The oracle accepts points up to 1e-7 infeasible, which can lower
        # rho*s^2 by 2e-7*rho*s: about 1e-5 of the objective at these slacks.
        assert worst_obj <= 1e-5
        assert worst_slack <= 1e-6


class TestControlStep:
    def test_far_separated_agents_get_zero_control(self):
        state = SystemState(x=[[0.0, 0.0], [8.0, 0.0], [4.0, 7.0]])
        u, sol = control_step(
            state,
            ControlVector(u=np.zeros((3, 2))),
            SafetyParams(),
            0.03,
            MODEL,
        )
        assert np.array_equal(u.u, np.zeros((3, 2)))
        assert sol.status == STATUS_OPTIMAL

    def test_close_pair_pushed_apart(self, rng):
        # Closing agents must receive controls that do not reduce separation.
        params = SafetyParams(psi=2.0)
        for _ in range(50):
            direction = rng.standard_normal(2)
            direction /= np.linalg.norm(direction)
            gap = params.d_min + 0.01
            x = np.vstack([gap * direction, np.zeros(2)])
            state = SystemState(x=x)
            u, sol = control_step(
                state, ControlVector(u=np.zeros((2, 2))), params, 0.05, MODEL
            )
            if sol.status != STATUS_OPTIMAL:
                continue
            rel = float((u.u[0] - u.u[1]) @ (x[0] - x[1]))
            assert rel >= -1e-9

    def test_control_varies_continuously_with_psi(self):
        # Slope estimated on a fine grid bounds the jumps of a coarse grid.
        state = SystemState(x=[[1.03, 0.0], [0.0, 0.0]])
        u_prev = ControlVector(u=np.zeros((2, 2)))

        def u_of(psi):
            params = SafetyParams(psi=psi)
            u, _ = control_step(state, u_prev, params, 0.05, MODEL)
            return u.u.ravel()

        fine = np.arange(0.0, 10.0001, 0.01)
        vals = np.array([u_of(p) for p in fine])
        fine_slope = np.max(np.linalg.norm(np.diff(vals, axis=0), axis=1)) / 0.01
        coarse = np.arange(0.0, 10.0001, 0.1)
        cvals = np.array([u_of(p) for p in coarse])
        jumps = np.linalg.norm(np.diff(cvals, axis=0), axis=1)
        assert np.all(jumps <= 1.5 * fine_slope * 0.1 + 1e-9)

    @pytest.mark.parametrize(
        "params",
        [
            SafetyParams(psi=2.0, kappa=0.5),
            SafetyParams(psi=0.0, kappa=1.0, freeze_adot=True),
            SafetyParams(psi=2.0, kappa=0.5, control_bound=0.05),
        ],
    )
    def test_fast_control_matches_public_path(self, rng, params):
        for _ in range(30):
            n = int(rng.integers(2, 13))
            x = rng.uniform(0.0, 3.0, size=(n, 2))
            u_prev = rng.uniform(-0.5, 0.5, size=(n, 2))
            table = PairTable(x, params, 0.03)
            u_fast, status_fast, slack_fast = fast_control(x, u_prev, params, MODEL, table)
            state = SystemState(x=x)
            prob = assemble_constraints(
                state, ControlVector(u=u_prev), params, 0.03, MODEL
            )
            sol = solve_qp(prob)
            assert status_fast == sol.status
            assert slack_fast == pytest.approx(sol.slack_used, abs=1e-9)
            assert np.allclose(u_fast.ravel(), sol.u_star, atol=1e-9)
