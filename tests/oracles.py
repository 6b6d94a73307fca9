"""Independent reference implementations used to cross-check the package.

Nothing here shares code with cbfcert internals: the QP oracles go through
scipy and literal grid enumeration, the constraint rows are built pair by
pair from the scalar formulas, and the samplers are plain rejection sampling.
"""

import numpy as np
from scipy.optimize import linprog, minimize


def prop_jacobian(d, reg_eps):
    """Jacobian of A(d) = phi(q) d with q = ||d||^2, phi(q) = exp(-q) / sqrt(q + eps^2).

    Equals phi I + 2 phi'(q) d d^T.
    """
    q = float(d @ d)
    root = np.sqrt(q + reg_eps**2)
    phi = np.exp(-q) / root
    dphi = -np.exp(-q) * (1.0 / root + 0.5 / root**3)
    return phi * np.eye(d.size) + 2.0 * dphi * np.outer(d, d)


def reference_rows(x, u_prev, params, w_bar, dynamics):
    """Constraint system (A, b) of one control step, built pair by pair.

    For pair (i, j), i < j, with d = x_i - x_j: h = ||d||^2 - d_min^2,
    grad h = 2d, A = phi(||d||^2) d and gamma = 2 w_bar ||grad h|| (zero with
    the robust margin off). Agent i's block is g^T grad h + psi kappa A and
    agent j's its negation; b = gamma - grad h . (f_i - f_j) - kappa h, and
    with freeze_adot also minus psi Adot . (u_prev_i - u_prev_j), where
    Adot = J(d) (xdot_i - xdot_j) along the previous control. A box bound c
    appends u >= -c and -u >= -c.
    """
    n_agents, n = x.shape
    m = u_prev.shape[1]
    if dynamics == "single_integrator":
        g = np.eye(n)
        f = np.zeros_like(x)
    else:  # double integrator: positions over velocities
        g = np.vstack([np.zeros((m, m)), np.eye(m)])
        f = np.hstack([x[:, m:], np.zeros((n_agents, m))])
    rows, rhs = [], []
    for i in range(n_agents):
        for j in range(i + 1, n_agents):
            d = x[i] - x[j]
            q = float(d @ d)
            h = q - params.d_min**2
            grad = 2.0 * d
            prop = d * np.exp(-q) / np.sqrt(q + params.reg_eps**2)
            gamma = 2.0 * w_bar * float(np.linalg.norm(grad))
            if not params.robust_margin_enabled:
                gamma = 0.0
            block = g.T @ grad
            if params.psi > 0:  # A lives in state space: needs m == n
                block = block + params.psi * params.kappa * prop
            row = np.zeros(n_agents * m)
            row[i * m : (i + 1) * m] = block
            row[j * m : (j + 1) * m] = -block
            b = gamma - float(grad @ (f[i] - f[j])) - params.kappa * h
            if params.freeze_adot and params.psi > 0:
                dxdot = (f[i] + g @ u_prev[i]) - (f[j] + g @ u_prev[j])
                a_dot = prop_jacobian(d, params.reg_eps) @ dxdot
                b -= params.psi * float(a_dot @ (u_prev[i] - u_prev[j]))
            rows.append(row)
            rhs.append(b)
    a = np.array(rows)
    b = np.array(rhs)
    if params.control_bound is not None:
        eye = np.eye(n_agents * m)
        a = np.vstack([a, eye, -eye])
        b = np.concatenate([b, np.full(2 * n_agents * m, -params.control_bound)])
    return a, b


def make_feasible_qp(rng, dim, n_cons):
    """Random constraint system with a certified feasible point.

    Roughly half the constraints are tight at the witness point so the
    optimum regularly sits on the boundary.
    """
    a = rng.uniform(-2.0, 2.0, size=(n_cons, dim))
    witness = rng.uniform(-2.0, 2.0, size=dim)
    margin = rng.uniform(0.0, 1.5, size=n_cons) * rng.integers(0, 2, size=n_cons)
    b = a @ witness - margin
    return a, b, witness


def qp_oracle_slsqp(a, b, start):
    """Minimum-norm feasible point via scipy's SLSQP (independent solver).

    Candidates are validated on feasibility directly instead of trusting the
    success flag (SLSQP reports line-search stalls near tight optima); the
    best feasible iterate across several starts is returned.
    """
    dim = a.shape[1]
    start = np.asarray(start, dtype=float)
    constraints = [
        {"type": "ineq", "fun": (lambda u, k=k: float(a[k] @ u - b[k]))}
        for k in range(a.shape[0])
    ]
    best_obj = np.inf
    best_u = None
    for x0 in (start, np.zeros(dim), 0.5 * start):
        res = minimize(
            lambda u: float(u @ u),
            x0,
            jac=lambda u: 2.0 * u,
            method="SLSQP",
            constraints=constraints,
            options={"maxiter": 1000, "ftol": 1e-12},
        )
        u = np.asarray(res.x)
        if np.min(a @ u - b, initial=0.0) >= -1e-7 and float(u @ u) < best_obj:
            best_obj = float(u @ u)
            best_u = u
    assert best_u is not None, "SLSQP oracle produced no feasible candidate"
    return best_u, best_obj


def min_shared_slack_lp(a, b):
    """Smallest t >= 0 with a u + t >= b for some u (LP phase one via HiGHS).

    Zero exactly when the polyhedron a u >= b is nonempty.
    """
    n_cons, dim = a.shape
    res = linprog(
        np.append(np.zeros(dim), 1.0),
        A_ub=-np.hstack([a, np.ones((n_cons, 1))]),
        b_ub=-b,
        bounds=[(None, None)] * dim + [(0.0, None)],
        method="highs",
    )
    assert res.status == 0, res.message
    return float(res.x[-1])


def qp_grid_oracle_2d(a, b, lo=-5.0, hi=5.0, step=1e-3, chunk=64):
    """Literal exhaustive grid search over [lo, hi]^2 (objective ||u||^2).

    Returns (best_objective, best_point); objective is inf when no grid point
    is feasible.
    """
    axis = np.arange(lo, hi + step / 2.0, step)
    best_obj = np.inf
    best_pt = None
    sq = axis * axis
    for start in range(0, axis.size, chunk):
        rows = axis[start : start + chunk]
        pts0 = np.repeat(rows, axis.size)
        pts1 = np.tile(axis, rows.size)
        obj = np.repeat(sq[start : start + chunk], axis.size) + np.tile(sq, rows.size)
        feas = np.ones(pts0.size, dtype=bool)
        for k in range(a.shape[0]):
            feas &= a[k, 0] * pts0 + a[k, 1] * pts1 >= b[k] - 1e-12
        if not np.any(feas):
            continue
        obj = np.where(feas, obj, np.inf)
        idx = int(np.argmin(obj))
        if obj[idx] < best_obj:
            best_obj = float(obj[idx])
            best_pt = np.array([pts0[idx], pts1[idx]])
    return best_obj, best_pt


def kkt_residuals(a, b, u, duals):
    """(stationarity, complementarity, dual-sign, primal-violation) residuals.

    Convention: at the optimum u equals the dual combination sum(lambda_k a_k).
    """
    stationarity = float(np.max(np.abs(u - a.T @ duals), initial=0.0))
    slack = a @ u - b
    complementarity = float(np.max(np.abs(duals * slack), initial=0.0))
    dual_sign = float(max(0.0, -np.min(duals, initial=0.0)))
    primal = float(max(0.0, -np.min(slack, initial=0.0)))
    return stationarity, complementarity, dual_sign, primal


def ball_samples_rejection(rng, radius, n, dim=2):
    """Uniform samples from a ball via rejection from the bounding cube."""
    out = np.empty((n, dim))
    filled = 0
    while filled < n:
        cand = rng.uniform(-radius, radius, size=(2 * (n - filled) + 8, dim))
        keep = cand[np.einsum("ij,ij->i", cand, cand) <= radius * radius]
        take = min(len(keep), n - filled)
        out[filled : filled + take] = keep[:take]
        filled += take
    return out


def spawn_round_by_round(config, rng, max_rounds=10_000):
    """Spawn positions redrawn one round at a time, pairs checked one by one.

    Each round draws all N positions from ``rng`` as an N x 2 array, uniform
    on the square of side ``domain_half_width``, and is accepted when every
    pair's squared distance reaches the squared separation. Returns the N x n
    joint state (velocities zero), or None when ``max_rounds`` rounds all fail.
    """
    n_agents = config.n_agents
    side = config.domain_half_width
    sep = config.min_initial_separation
    sep_sq = sep * sep
    for _ in range(max_rounds):
        pos = rng.uniform(0.0, side, size=(n_agents, 2))
        pts = pos.tolist()
        if all(
            (pts[i][0] - pts[j][0]) * (pts[i][0] - pts[j][0])
            + (pts[i][1] - pts[j][1]) * (pts[i][1] - pts[j][1])
            >= sep_sq
            for i in range(n_agents)
            for j in range(i + 1, n_agents)
        ):
            x = np.zeros((n_agents, config.state_dim))
            x[:, :2] = pos
            return x
    return None


def sampled_disturbance_sup(grad, w_bar, rng, n=10_000):
    """Monte Carlo under-approximation of sup |grad . (w_i - w_j)| over two balls.

    A linear functional over a ball is maximized on the boundary, so the
    candidate pairs are drawn from the bounding spheres; the sampled maximum
    still only under-approximates the true supremum.
    """
    dim = grad.size
    wi = rng.standard_normal((n, dim))
    wj = rng.standard_normal((n, dim))
    wi *= w_bar / np.linalg.norm(wi, axis=1, keepdims=True)
    wj *= w_bar / np.linalg.norm(wj, axis=1, keepdims=True)
    return float(np.max(np.abs((wi - wj) @ grad)))


def pairwise_variance_definition(x):
    """O(P^2) literal evaluation of the mean squared pair difference."""
    x = np.asarray(x, dtype=float)
    p = x.size
    total = 0.0
    for i in range(p):
        for j in range(i + 1, p):
            total += (x[i] - x[j]) ** 2
    return total / (p * (p - 1))


def margin_scores_two_pass(raw, theta, eps_norm):
    """Scores and flags of one group, in two passes over its raw margins.

    Pass one finds the normalizer: the largest margin among non-violated
    rollouts (margin not below zero, NaN included), zero if all are
    violated. Pass two maps each rollout to raw / max(normalizer, eps_norm),
    clamped to [0, 1], with violated rollouts pinned at zero. Flags mark
    scores below ``theta``.
    """
    raw = np.asarray(raw, dtype=float)
    violated = raw < 0.0
    clean = raw[~violated]
    h_tilde_max = float(np.max(clean)) if clean.size else 0.0
    denom = max(h_tilde_max, eps_norm)
    z = np.where(violated, 0.0, np.clip(raw / denom, 0.0, 1.0))
    return z, (z < theta).astype(int)
