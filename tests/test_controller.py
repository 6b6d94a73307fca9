import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbfcert import controller
from cbfcert.controller import (
    RELAX_RHO,
    STATUS_INFEASIBLE_RELAXED,
    STATUS_OPTIMAL,
    _constraint_rows,
    fast_control,
    needs_solve,
    row_count,
    solve_batch,
    solve_qp,
)
from cbfcert.errors import SolverError
from cbfcert.nnls import _nnls_batch
from cbfcert.safety import PairTable, SafetyParams
from cbfcert.sysmodel import (
    NOISE_BLOCK_STEPS,
    SystemConfig,
    dynamics_model,
    euler_step,
    noise_array,
    sample_initial_state,
)
from oracles import (
    kkt_residuals,
    make_feasible_qp,
    min_shared_slack_lp,
    nnls_one_by_one,
    qp_grid_oracle_2d,
    qp_one_by_one,
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
    table = PairTable(np.asarray(x, dtype=float), params, w_bar)
    return _constraint_rows(np.asarray(u_prev, dtype=float), params, model, table)


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
        assert row_count(SafetyParams(), 4, 2) == 6

    def test_control_bound_appends_box_rows(self):
        params = SafetyParams(control_bound=0.5)
        a, b = rows([[0.0, 0.0], [5.0, 0.0]], np.zeros((2, 2)), params, 0.0)
        assert a.shape == (1 + 2 * 4, 4)
        assert np.array_equal(a[1:], np.vstack([np.eye(4), -np.eye(4)]))
        assert np.array_equal(b[1:], np.full(8, -0.5))
        assert row_count(params, 2, 2) == len(b)

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
    def test_batched_rows_match_each_joint_state(self, rng, model, dynamics, params):
        # Slice r of the system built on a batch's table is bit for bit the
        # system of joint state r alone (the lockstep rollouts rely on it).
        x = rng.uniform(-2.0, 2.0, size=(6, 4, model.state_dim))
        u_prev = rng.uniform(-0.5, 0.5, size=(6, 4, model.control_dim))
        a, b = _constraint_rows(u_prev, params, model, PairTable(x, params, 0.03))
        assert a.shape == (6, row_count(params, 4, model.control_dim), 4 * model.control_dim)
        for r in range(len(x)):
            a_r, b_r = _constraint_rows(u_prev[r], params, model, PairTable(x[r], params, 0.03))
            assert a[r].tobytes() == a_r.tobytes()
            assert b[r].tobytes() == b_r.tobytes()


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

    def test_singular_step_back_skips_the_column(self):
        # Three agents in a 0.01 control box (the golden control_bound
        # parameters, rollout seed 2033): the polyhedron is empty and a solve
        # after an NNLS step back meets a singular free set. That column is
        # skipped, and the relaxed slack is the LP's minimum shared slack.
        pairs = np.array([
            [-2.815686196810006, 0.36826132123495764, 2.815686196810006, -0.36826132123495764, 0.0, 0.0],
            [-4.249540887267746, 3.069091383863176, 0.0, 0.0, 4.249540887267746, -3.069091383863176],
            [0.0, 0.0, -1.4701132376884636, 2.72088089387684, 1.4701132376884636, -2.72088089387684],
        ])
        a = np.vstack([pairs, np.eye(6), -np.eye(6)])
        b = np.append([0.07103933313866663, -0.272389661122662, 0.04822228003671261], np.full(12, -0.01))
        u, _, status, slack = solve_qp(a, b)
        assert status == STATUS_INFEASIBLE_RELAXED
        assert slack == pytest.approx(min_shared_slack_lp(a, b), abs=1e-10)
        assert (b - a @ u).max() <= slack + 1e-12

    def test_empty_polyhedron_at_rounding_level_residual_relaxes(self):
        # The same parameters, rollout seed 2180: no control satisfies every
        # row, and the exact NNLS reaches a residual of about 1e-11 with
        # entering gradients just above its tolerance. It must stop there and
        # hand the step to the relaxation instead of cycling between two
        # free sets until its pass budget runs out.
        pairs = np.array([
            [-3.232480675379941, -0.56049194385062, 3.232480675379941, 0.56049194385062, 0.0, 0.0],
            [-1.424177868594625, 2.2967198591812976, 0.0, 0.0, 1.424177868594625, -2.2967198591812976],
            [0.0, 0.0, 1.818842195607827, 2.836247034890321, -1.818842195607827, -2.836247034890321],
        ])
        a = np.vstack([pairs, np.eye(6), -np.eye(6)])
        b = np.append([0.029204691550921785, 0.08207046243405312, 0.01964061811006182], np.full(12, -0.01))
        assert min_shared_slack_lp(a, b) > 1e-7
        u, _, status, slack = solve_qp(a, b)
        assert status == STATUS_INFEASIBLE_RELAXED
        assert slack == pytest.approx(min_shared_slack_lp(a, b), abs=1e-10)
        assert (b - a @ u).max() <= slack + 1e-12

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


def control(x, u_prev, params, w_bar, model=MODEL, passive=None):
    """fast_control on the rows of one joint state, as the engine calls it,
    with the control reshaped to N x m."""
    u, status, slack = fast_control(*rows(x, u_prev, params, w_bar, model), passive)
    return u.reshape(np.shape(u_prev)), status, slack


class TestControlStep:
    def test_far_separated_agents_get_zero_control(self):
        x = [[0.0, 0.0], [8.0, 0.0], [4.0, 7.0]]
        passive = np.ones(3, dtype=bool)
        u, status, slack = control(x, np.zeros((3, 2)), SafetyParams(), 0.03, passive=passive)
        assert np.array_equal(u, np.zeros((3, 2)))
        assert status == STATUS_OPTIMAL
        assert slack == 0.0
        assert not passive.any()  # u = 0 holds no row

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


# Twelve agents in a 6 x 6 square: 66 pair rows, about ten of them active at
# each step's optimum.
CROWDED = SystemConfig(n_agents=12, domain_half_width=6.0)
CROWDED_PARAMS = SafetyParams(psi=2.0, kappa=0.1)


def crowded_steps(seed, steps=20, params=CROWDED_PARAMS):
    """The (x, u_prev) inputs of consecutive steps of one crowded rollout,
    stepped with cold-started controls and seeded noise."""
    gen = np.random.default_rng(seed)
    x = sample_initial_state(CROWDED, gen)
    u = np.zeros((CROWDED.n_agents, 2))
    out = []
    for k in range(steps):
        out.append((x, u))
        u = control(x, u, params, CROWDED.noise_bound)[0]
        if k % NOISE_BLOCK_STEPS == 0:
            noise = noise_array(CROWDED, [gen])[0]
        x = euler_step(x, u, noise[k % NOISE_BLOCK_STEPS], CROWDED.dt, MODEL)
    return out


def cold_free_set(a, b):
    """The final NNLS free set of a cold solve of a u >= b."""
    passive = np.zeros(len(b), dtype=bool)
    solve_qp(a, b, passive)
    return passive


class TestWarmStart:
    def test_warm_control_is_bitwise_the_cold_control(self):
        # One start array carried along each rollout, as the engine does: the
        # controls are the cold ones bit for bit, the array ends each step on
        # the cold solve's free set, and most steps reuse the previous set.
        reused = total = 0
        for seed in range(3):
            passive = np.zeros(row_count(CROWDED_PARAMS, 12, 2), dtype=bool)
            for x, u_prev in crowded_steps(seed):
                u, status, slack = control(x, u_prev, CROWDED_PARAMS, CROWDED.noise_bound)
                before = passive.copy()
                warm = control(x, u_prev, CROWDED_PARAMS, CROWDED.noise_bound, passive=passive)
                assert warm[0].tobytes() == u.tobytes()
                assert warm[1:] == (status, slack)
                a, b = rows(x, u_prev, CROWDED_PARAMS, CROWDED.noise_bound)
                assert np.array_equal(passive, cold_free_set(a, b))
                reused += bool(before.any()) and np.array_equal(before, passive)
                total += 1
        assert reused >= total // 2

    def test_start_on_the_optimum_solves_once(self, monkeypatch):
        x, u_prev = crowded_steps(1, steps=5)[-1]
        a, b = rows(x, u_prev, CROWDED_PARAMS, CROWDED.noise_bound)
        passive = cold_free_set(a, b)
        assert passive.sum() >= 2
        calls = []
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda m, v: calls.append(1) or solve(m, v))
        solve_qp(a, b, passive)
        assert len(calls) == 1

    def adversarial_instances(self, rng):
        """(a, b) pairs: crowded steps, random feasible systems, and systems
        with repeated rows, whose all-rows start is singular."""
        for x, u_prev in crowded_steps(2, steps=8):
            yield rows(x, u_prev, CROWDED_PARAMS, CROWDED.noise_bound)
        for _ in range(20):
            dim = int(rng.integers(2, 7))
            yield make_feasible_qp(rng, dim, int(rng.integers(1, 2 * dim + 2)))[:2]
        for _ in range(20):
            a, b, _ = make_feasible_qp(rng, int(rng.integers(2, 6)), 6)
            pick = rng.integers(0, 6, size=3)
            yield np.vstack([a, a[pick], 3.0 * a[pick]]), np.concatenate([b, b[pick], 3.0 * b[pick]])

    def test_adversarial_starts_reach_the_cold_optimum(self, rng):
        # Whatever the start (every row, random rows, duplicated and hence
        # singular rows, another instance's free set), the answer is the
        # cold optimum and meets the KKT conditions.
        other = None
        for a, b in self.adversarial_instances(rng):
            u, duals, status, slack = solve_qp(a, b)
            assert status == STATUS_OPTIMAL
            n_rows = len(b)
            starts = [np.ones(n_rows, dtype=bool), rng.random(n_rows) < 0.5]
            if other is not None and len(other) == n_rows:
                starts.append(other.copy())
            for start in starts:
                passive = start.copy()
                u_w, duals_w, status_w, slack_w = solve_qp(a, b, passive)
                assert (status_w, slack_w) == (status, slack)
                assert np.max(np.abs(u_w - u)) <= 1e-12
                stat, comp, sign, primal = kkt_residuals(a, b, u_w, duals_w)
                assert max(stat, comp) <= 1e-9
                assert sign == 0.0
                assert primal <= 1e-9
                assert np.array_equal(passive, duals_w > 0.0)
            other = cold_free_set(a, b)

    def test_relaxed_steps_ignore_and_clear_the_start(self, rng):
        # A binding control box empties the crowded polyhedron at some steps:
        # there the relaxation runs from a cold start whatever the start, and
        # the array comes back empty.
        params = SafetyParams(psi=2.0, kappa=0.1, control_bound=0.05)
        relaxed = 0
        for x, u_prev in crowded_steps(3, steps=10, params=params):
            a, b = rows(x, u_prev, params, CROWDED.noise_bound)
            cold = solve_qp(a, b)
            for start in (np.ones(len(b), dtype=bool), rng.random(len(b)) < 0.5):
                passive = start.copy()
                warm = solve_qp(a, b, passive)
                if cold[2] == STATUS_INFEASIBLE_RELAXED:
                    assert warm[0].tobytes() == cold[0].tobytes()
                    assert warm[2:] == cold[2:]
                    assert not passive.any()
            relaxed += cold[2] == STATUS_INFEASIBLE_RELAXED
        assert relaxed >= 1

    def test_pass_budget_counts_passes_only(self, monkeypatch):
        # A gradient that never lets a coordinate in, and a tolerance no
        # gradient meets: every pass fails, so the loop runs out its 3n
        # passes. The warm start's own solve comes on top of them. One
        # problem that runs out fails its whole stack: here the second one
        # converges after n passes, and its free sets of sizes 2 to n cost
        # one more stacked solve each.
        n = 5
        calls = []
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda m, v: calls.append(1) or solve(m, v))
        cold, warm = np.zeros((1, n), dtype=bool), np.ones((1, n), dtype=bool)
        fails, converges = -np.ones((1, n)), np.ones((1, n))
        for c, start, solves in (
            (fails, cold, 3 * n),
            (fails, warm, 3 * n + 1),
            (np.vstack([fails, converges]), np.vstack([cold, cold]), 4 * n - 1),
        ):
            calls.clear()
            gram = np.broadcast_to(np.eye(n), (len(c), n, n))
            with pytest.raises(SolverError, match=f"{3 * n} passes"):
                _nnls_batch(gram, c, -np.inf, start.copy())
            assert len(calls) == solves


def assert_batch_is_one_by_one(a, b, start):
    """solve_batch and then fast_control on the problems it rejects, as the
    engine runs them, give bit for bit the control, relaxation flag and
    final free set of the scalar reference ``qp_one_by_one`` from the
    problem's own start; solve_batch rejects exactly the problems that the
    reference relaxes and leaves their starts alone. Returns (relaxed,
    stepped): which problems relaxed, and which stepped back in the
    reference."""
    passive = start.copy()
    u, rejected = solve_batch(a, b, passive, np.arange(len(b)))
    relaxed = np.zeros(len(b), dtype=bool)
    stepped = np.zeros(len(b), dtype=bool)
    for p in range(len(b)):
        own, step_backs = start[p].copy(), []
        u_p, rejected_p, relaxed[p] = qp_one_by_one(a[p], b[p], own, step_backs)
        assert rejected[p] == rejected_p
        if rejected[p]:
            assert np.array_equal(passive[p], start[p])
            u[p], status, _ = fast_control(a[p], b[p], passive[p])
            assert relaxed[p] == (status != STATUS_OPTIMAL)
        assert u[p].tobytes() == u_p.tobytes()
        assert np.array_equal(passive[p], own)
        stepped[p] = bool(step_backs)
    return relaxed, stepped


def random_stack(rng, size, n_rows, dim):
    """A stack of problems, each with a positive right-hand side: random
    systems, systems with repeated rows (singular free sets), and systems
    with a row and its negation both demanding progress (empty polyhedra)."""
    a = np.empty((size, n_rows, dim))
    b = np.empty((size, n_rows))
    for p in range(size):
        a[p], b[p], _ = make_feasible_qp(rng, dim, n_rows)
        if p % 3 == 1 and n_rows >= 2:
            pick = rng.integers(0, n_rows // 2, size=n_rows - n_rows // 2)
            a[p, n_rows // 2 :] = 3.0 * a[p, pick]
            b[p, n_rows // 2 :] = 3.0 * b[p, pick]
        if p % 3 == 2 and n_rows >= 2:
            a[p, 1] = -a[p, 0]
            b[p, :2] = rng.uniform(0.1, 1.0, size=2)
        b[p, 0] = max(b[p, 0], 0.5)
    return a, b


class TestSolveBatch:
    @given(
        seed=st.integers(0, 2**32 - 1),
        size=st.integers(1, 8),
        n_rows=st.integers(1, 16),
        dim=st.integers(1, 6),
        gram_bytes=st.sampled_from([8, controller._GRAM_BYTES]),
    )
    @settings(max_examples=150, deadline=None)
    def test_random_stacks_match_one_by_one(self, seed, size, n_rows, dim, gram_bytes):
        # Cold, partial and all-rows starts; with a one-byte Gram budget
        # every problem is its own slice.
        rng = np.random.default_rng(seed)
        a, b = random_stack(rng, size, n_rows, dim)
        start = rng.random((size, n_rows)) < rng.uniform()
        start[::4] = True
        saved = controller._GRAM_BYTES
        controller._GRAM_BYTES = gram_bytes
        try:
            assert_batch_is_one_by_one(a, b, start)
        finally:
            controller._GRAM_BYTES = saved

    def test_crowded_steps_take_every_path(self, rng):
        # 114-row, 24-column steps of crowded rollouts in a 0.1 and a 0.05
        # control box (the smaller box empties every polyhedron), from warm,
        # all-rows and random starts: some problems step back and some relax.
        problems, starts = [], []
        for bound in (0.1, 0.05):
            params = SafetyParams(psi=2.0, kappa=0.1, control_bound=bound)
            steps = [
                rows(x, u_prev, params, CROWDED.noise_bound)
                for x, u_prev in crowded_steps(3, 10, params)
            ]
            cold = np.zeros(len(steps[0][1]), dtype=bool)
            warm = np.stack([cold] + [cold_free_set(*step) for step in steps[:-1]])
            problems += steps * 3
            starts += [warm, np.ones_like(warm), rng.random(warm.shape) < 0.5]
        a, b = (np.stack(parts) for parts in zip(*problems))
        start = np.concatenate(starts)
        flagged = needs_solve(b)
        relaxed, stepped = assert_batch_is_one_by_one(a[flagged], b[flagged], start[flagged])
        assert stepped.any() and relaxed.any()

    def test_singular_and_empty_hand_cases(self):
        # The singular step-back and the rounding-level residual cases above
        # (both empty polyhedra), stacked with a feasible system of the same
        # rows, from cold and all-rows starts.
        box = np.vstack([np.eye(6), -np.eye(6)])
        singular = np.array([
            [-2.815686196810006, 0.36826132123495764, 2.815686196810006, -0.36826132123495764, 0.0, 0.0],
            [-4.249540887267746, 3.069091383863176, 0.0, 0.0, 4.249540887267746, -3.069091383863176],
            [0.0, 0.0, -1.4701132376884636, 2.72088089387684, 1.4701132376884636, -2.72088089387684],
        ])
        rounding = np.array([
            [-3.232480675379941, -0.56049194385062, 3.232480675379941, 0.56049194385062, 0.0, 0.0],
            [-1.424177868594625, 2.2967198591812976, 0.0, 0.0, 1.424177868594625, -2.2967198591812976],
            [0.0, 0.0, 1.818842195607827, 2.836247034890321, -1.818842195607827, -2.836247034890321],
        ])
        a = np.stack([np.vstack([pairs, box]) for pairs in (singular, rounding, singular)])
        b = np.stack([
            np.append(rhs, np.full(12, -0.01))
            for rhs in (
                [0.07103933313866663, -0.272389661122662, 0.04822228003671261],
                [0.029204691550921785, 0.08207046243405312, 0.01964061811006182],
                [0.001, -0.272389661122662, 0.001],
            )
        ])
        for start in (np.zeros(b.shape, dtype=bool), np.ones(b.shape, dtype=bool)):
            relaxed, _ = assert_batch_is_one_by_one(a, b, start)
            assert relaxed.tolist() == [True, True, False]

    def test_non_finite_data_is_a_solver_error(self):
        a, b = random_stack(np.random.default_rng(0), 3, 4, 2)
        a[1, 2, 0] = np.nan
        with pytest.raises(SolverError, match="non-finite"):
            solve_batch(a, b, np.zeros(b.shape, dtype=bool), np.arange(3))

    def test_step_back_that_empties_the_free_set_fails(self):
        # The warm start keeps coordinate 0 at 1e-16; entering coordinate 1
        # steps back to y = (0, 2e-16), both at or below the tolerance, and
        # the free set empties. The scalar reference fails there too (its
        # empty solve has no minimum).
        gram, c, tol = np.array([[1.0, 0.5], [0.5, 1.0]]), np.array([1e-16, 1.0]), 4e-15
        with pytest.raises(ValueError):
            nnls_one_by_one(gram, c, tol, np.array([True, False]))
        with pytest.raises(SolverError, match="emptied the free set"):
            _nnls_batch(gram[None], c[None], tol, np.array([[True, False]]))
