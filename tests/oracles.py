"""Independent reference implementations used to cross-check the package.

Nothing here shares code with cbfcert internals: the QP oracles go through
scipy, literal grid enumeration and a scalar Lawson-Hanson loop
(``nnls_one_by_one``, which the package's lockstep NNLS must match bit for
bit), the constraint rows are built pair by pair from the scalar formulas,
the samplers are plain rejection sampling, and noise is scaled one agent at
a time. The exceptions are ``spawn_one_by_one``, which drives the package's
own sampler and per-step control one rollout and one candidate at a time, as
the reference for the engine's batched spawn rounds, and
``rollout_one_by_one``, which steps one rollout on that spawn.
"""

import math

import numpy as np
from scipy.optimize import linprog, minimize

from cbfcert.controller import RELAX_RHO, TOL_PRIMAL, _constraint_rows, fast_control
from cbfcert.errors import SetupError, SolverError
from cbfcert.safety import PairTable
from cbfcert.sysmodel import sample_initial_state


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


def nnls_one_by_one(gram, c, tol, passive=None, step_backs=None):
    """Lawson-Hanson active-set NNLS, min ||E y - f|| s.t. y >= 0, given only
    the normal equations gram = E^T E and c = E^T f: one problem at a time,
    the reference for the package's lockstep ``_nnls_batch``.

    Each pass frees the coordinate with the largest positive gradient
    component, then solves the unconstrained problem on the free set, stepping
    back along the segment whenever a free coordinate would turn nonpositive.
    A coordinate whose column is numerically dependent on the free set (the
    solve fails or gives it no positive weight) is skipped for that pass;
    without that guard, rounding in the gradient re-selects it forever. The
    same holds when a solve after a step back fails: the pass is undone and
    the entering coordinate skipped.

    On a free-set solve ||E y - f||^2 = ||f||^2 - c^T y, which exact passes
    lower; a pass that replaces y without raising c^T y has met rounding
    (an empty LDP polyhedron leaves gradients just above ``tol`` at a near-zero
    residual), and the loop stops converged instead of cycling.

    ``passive`` (bool per coordinate; None is empty) is the starting free set
    and receives the final one. Coordinates whose solve on it is nonpositive
    leave it first, and a singular solve empties it. The result is the solve
    on the final free set, so a start that ends where a cold start ends gives
    the same bytes in fewer passes. Each pass that steps back appends its
    entering coordinate to the list ``step_backs``, when one is given.
    """
    n = c.size
    y = np.zeros(n)
    start = passive
    passive = np.zeros(n, dtype=bool) if start is None else start.copy()
    idx = np.flatnonzero(passive)
    while idx.size:
        try:
            z = np.linalg.solve(gram[idx[:, None], idx], c[idx])
        except np.linalg.LinAlgError:
            passive[:] = False
            break
        if z.min() > 0.0:
            y[idx] = z
            break
        passive[idx[z <= 0.0]] = False
        idx = np.flatnonzero(passive)
    w = c - gram @ y
    fit = c @ y
    for _ in range(3 * n):
        candidates = np.where(passive, -np.inf, w)
        j = int(np.argmax(candidates))
        if candidates[j] <= tol:
            break
        passive[j] = True
        idx = np.flatnonzero(passive)
        try:
            z = np.linalg.solve(gram[idx[:, None], idx], c[idx])
        except np.linalg.LinAlgError:
            z = None
        if z is None or not z[np.searchsorted(idx, j)] > 0.0:
            passive[j] = False
            w[j] = 0.0
            continue
        if z.min() <= 0.0:
            # Saved only when a step back is needed; the common pass copies nothing.
            y_before, passive_before = y.copy(), passive.copy()
            passive_before[j] = False
            if step_backs is not None:
                step_backs.append(j)
        while z.min() <= 0.0:
            y_p = y[idx]
            neg = np.flatnonzero(z <= 0.0)
            ratio = y_p[neg] / np.maximum(y_p[neg] - z[neg], np.finfo(float).tiny)
            k = int(np.argmin(ratio))
            y_p += ratio[k] * (z - y_p)
            y_p[neg[k]] = 0.0  # exact zero, so the blocking coordinate leaves
            y[idx] = y_p
            passive[idx[y_p <= tol]] = False
            idx = np.flatnonzero(passive)
            try:
                z = np.linalg.solve(gram[idx[:, None], idx], c[idx])
            except np.linalg.LinAlgError:
                z = None
                break
        if z is None:
            y, passive = y_before, passive_before
            w[j] = 0.0
            continue
        y = np.zeros(n)
        y[idx] = z
        w = c - gram @ y
        fit, last = c @ y, fit
        if not fit > last:
            break
    else:
        raise SolverError(f"NNLS did not converge in {3 * n} passes")
    if start is not None:
        start[:] = passive
    return y


def ldp_one_by_one(a, b, passive=None, step_backs=None):
    """min ||v|| s.t. a v >= b as one ``nnls_one_by_one`` call on the
    unit-scaled rows of E = [a^T; b^T] (Lawson & Hanson, ch. 23), or None
    when the NNLS residual certifies that the polyhedron is empty."""
    dim = a.shape[1]
    e = np.empty(b.shape + (dim + 1,))
    e[..., :dim] = a
    e[..., dim] = b
    norms = np.maximum(np.sqrt(np.einsum("...ij,...ij->...i", e, e)), np.finfo(float).tiny)
    e /= norms[..., None]
    tol = 10.0 * max(e.shape) * np.finfo(float).eps
    y = nnls_one_by_one(e @ e.T, e[:, dim], tol, passive, step_backs)
    r = e.T @ y
    gap = 1.0 - r[dim]
    if gap <= tol:
        return None
    return r[:dim] / gap


def qp_one_by_one(a, b, passive=None, step_backs=None):
    """The minimum-norm point of a u >= b, some b_k positive, through
    ``ldp_one_by_one``, or its shared-slack relaxation when the polyhedron
    is empty or the point misses a row by more than ``TOL_PRIMAL`` (relative
    to the largest |b|): (u, rejected, relaxed), rejected when the exact
    answer was. The relaxation
    min ||u||^2 + rho*s^2 s.t. a u + s >= b, s >= 0 is the least-distance
    program over the rows [a, 1/sqrt(rho)] and [0, 1], solved cold; it
    counts as relaxed when its slack exceeds 1e-9. ``passive`` is the exact
    NNLS's start and receives its final free set, or none after a
    relaxation. ``step_backs`` collects both NNLS's step backs.
    """
    u = ldp_one_by_one(a, b, passive, step_backs)
    if u is not None:
        shortfall = b - (a @ u[..., None])[..., 0]
        if shortfall.max(axis=-1) <= TOL_PRIMAL * (1.0 + np.abs(b).max(axis=-1)):
            return u, False, False
    if passive is not None:
        passive[:] = False
    n_c, dim = a.shape
    root_rho = np.sqrt(RELAX_RHO)
    rows = np.zeros((n_c + 1, dim + 1))
    rows[:n_c, :dim] = a
    rows[:n_c, dim] = 1.0 / root_rho
    rows[n_c, dim] = 1.0
    v = ldp_one_by_one(rows, np.append(b, 0.0), None, step_backs)
    assert v is not None, "the relaxation is always feasible"
    return v[:dim], True, not max(float(v[dim]) / root_rho, 0.0) <= 1e-9


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


def spawn_block_by_block(config, rng, block, max_rounds=10_000):
    """Spawn positions drawn in blocks of ``block`` rounds, pairs checked one by one.

    Each round draws all N positions from ``rng`` as an N x 2 array, uniform
    on the square of side ``domain_half_width``, and is valid when every
    pair's squared distance reaches the squared separation. Rounds are drawn
    one at a time, but always a whole block of them (the last block cut at
    ``max_rounds``); the first valid round of a block is returned, after the
    rest of the block is drawn. Returns the N x n joint state (velocities
    zero), or None when ``max_rounds`` rounds all fail.
    """
    n_agents = config.n_agents
    side = config.domain_half_width
    sep = config.min_initial_separation
    sep_sq = sep * sep
    drawn = 0
    while drawn < max_rounds:
        accepted = None
        for _ in range(min(block, max_rounds - drawn)):
            pos = rng.uniform(0.0, side, size=(n_agents, 2))
            drawn += 1
            pts = pos.tolist()
            if accepted is None and all(
                (pts[i][0] - pts[j][0]) * (pts[i][0] - pts[j][0])
                + (pts[i][1] - pts[j][1]) * (pts[i][1] - pts[j][1])
                >= sep_sq
                for i in range(n_agents)
                for j in range(i + 1, n_agents)
            ):
                accepted = pos
        if accepted is not None:
            x = np.zeros((n_agents, config.state_dim))
            x[:, :2] = accepted
            return x
    return None


def noise_blocks(config, rng, blocks, block):
    """``blocks`` consecutive noise blocks of one generator, as a
    (blocks * block) x N x n array of per-step disturbances.

    Each block draws block * N * n standard normals, then (ball mode)
    block * N uniforms. Agent i's disturbance at a step is its normal vector
    scaled to norm ``noise_bound`` (sphere) or ``noise_bound * U^(1/n)``
    (ball), computed one agent at a time.
    """
    n_agents, n = config.n_agents, config.state_dim
    bound = config.noise_bound
    steps = []
    for _ in range(blocks):
        z = rng.standard_normal(block * n_agents * n).reshape(block, n_agents, n)
        if config.noise_dist == "ball":
            uniform = rng.random(block * n_agents).reshape(block, n_agents)
        for k in range(block):
            w = np.empty((n_agents, n))
            for i in range(n_agents):
                radius = bound
                if config.noise_dist == "ball":
                    radius *= uniform[k, i] ** (1.0 / n)
                w[i] = z[k, i] * (radius / math.sqrt(sum(v * v for v in z[k, i].tolist())))
            steps.append(w)
    return np.array(steps)


def spawn_one_by_one(config, model, rng, max_draws=1_000):
    """Spawn one rollout: draw candidates until one's first control is safe enough.

    Each candidate is a state from ``sample_initial_state``; its first control
    is ``fast_control`` on its own constraint rows with zero previous control
    and no warm start. The candidate is accepted when every pair's weighted
    margin at that control reaches ``config.h_min``. Returns the state, the
    control, the solver status and the number of candidates drawn; raises
    SetupError when ``max_draws`` candidates all fail.
    """
    sys_cfg, params = config.system, config.safety
    u_zero = np.zeros((sys_cfg.n_agents, sys_cfg.control_dim))
    for draws in range(1, max_draws + 1):
        x = sample_initial_state(sys_cfg, rng)
        table = PairTable(x, params, sys_cfg.noise_bound)
        u, status, _ = fast_control(*_constraint_rows(u_zero, params, model, table))
        u = u.reshape(u_zero.shape)
        if float(np.min(table.weighted_margins(u, params.psi))) >= config.h_min:
            return x, u, status, draws
    raise SetupError(f"no initial configuration reached margin {config.h_min}")


def rollout_one_by_one(config, model, seed, block):
    """One rollout stepped on its own: states and controls at its K + 1 grid
    points, as (K + 1) x N x n and (K + 1) x N x m arrays.

    It spawns through ``spawn_one_by_one``, then draws its noise from the
    same generator with ``noise_blocks`` (blocks of ``block`` steps, drawn
    whole) and solves each step's control with ``fast_control`` on its own
    rows, from a cold start, with plain Euler steps between.
    """
    sys_cfg, params = config.system, config.safety
    rng = np.random.default_rng(seed)
    x, u, _, _ = spawn_one_by_one(config, model, rng)
    steps = sys_cfg.horizon_steps
    noise = noise_blocks(sys_cfg, rng, -(-steps // block), block)
    xs, us = [x], [u]
    for k in range(steps):
        x = x + sys_cfg.dt * (x @ model.drift.T + u @ model.actuation.T + noise[k])
        table = PairTable(x, params, sys_cfg.noise_bound)
        u = fast_control(*_constraint_rows(u, params, model, table))[0].reshape(u.shape)
        xs.append(x)
        us.append(u)
    return np.array(xs), np.array(us)


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
