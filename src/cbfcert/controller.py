"""Per-step admissible-control computation.

For every unordered agent pair the forward-invariance condition
hdot_tilde + kappa * h_tilde >= gamma is linear in the joint control once the
propagation vector is held fixed within the step, so the admissible set is a
polyhedron and the minimum-effort input is the projection of the origin onto
it. That projection is a least-distance program, min ||u|| s.t. A u >= b,
which Lawson & Hanson (Solving Least Squares Problems, 1974, ch. 23) reduce to
one nonnegative least-squares problem; its residual also decides feasibility.
When the polyhedron is empty the same solver handles the shared-slack
relaxation, and the step reports how much relaxation was needed.
"""

from __future__ import annotations

import numpy as np

from .errors import SolverError
from .safety import PairTable, SafetyParams

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE_RELAXED = "infeasible_relaxed"

# Feasibility tolerance (absolute; constraint data is O(1)-O(10) in practice).
TOL_PRIMAL = 1e-9
RELAX_RHO = 1e6

_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny


def _rhs_vector(
    x: np.ndarray,
    u_prev: np.ndarray,
    params: SafetyParams,
    model,
    table: PairTable,
) -> np.ndarray:
    """Right-hand side b per pair: gamma - grad_h . (f_i - f_j) - kappa * h,
    minus the frozen propagation-derivative term when ``freeze_adot`` is on.

    x (..., N, n), u_prev (..., N, m) and ``table`` may carry the same leading
    batch axes; b then has shape (..., pairs).
    """
    idx_i, idx_j = table.idx_i, table.idx_j
    if model.identity_actuation:
        # Zero drift: only the margin and decay terms remain.
        b = table.gamma - params.kappa * table.h
        drift_all = None
    else:
        drift_all = model.drift_all(x)
        ddrift = drift_all[..., idx_i, :] - drift_all[..., idx_j, :]
        b = (
            table.gamma
            - np.einsum("...j,...j->...", table.grad, ddrift)
            - params.kappa * table.h
        )
    if params.freeze_adot and params.psi > 0:
        if model.identity_actuation:
            xdot = u_prev
        else:
            xdot = drift_all + u_prev @ model.actuation.T
        dxdot = xdot[..., idx_i, :] - xdot[..., idx_j, :]
        du_prev = u_prev[..., idx_i, :] - u_prev[..., idx_j, :]
        q = table.dist_sq
        root = np.sqrt(q + params.reg_eps**2)
        phi = np.exp(-q) / root
        dphi = -np.exp(-q) * (1.0 / root + 0.5 / root**3)
        along = np.einsum("...j,...j->...", table.diff, dxdot)
        a_dot = phi[..., None] * dxdot + (2.0 * dphi * along)[..., None] * table.diff
        b = b - params.psi * np.einsum("...j,...j->...", a_dot, du_prev)
    return b


def _constraint_rows(
    params: SafetyParams, model, table: PairTable, b_pairs: np.ndarray, dim: int
) -> tuple[np.ndarray, np.ndarray]:
    """The full system (A, b): one row per pair, then the optional control box.

    Pair (i, j) places +/-(g^T grad_h + psi*kappa*A) in the blocks of agents i
    and j (exact negation because g is state-independent for the supported
    models). A box bound c adds the rows u_k >= -c and -u_k >= -c.
    """
    m = model.control_dim
    if model.identity_actuation:
        gT_grad = table.grad
    else:
        gT_grad = table.grad @ model.actuation
    if params.psi > 0:
        block = gT_grad + (params.psi * params.kappa) * table.prop
    else:
        block = gT_grad
    rows = np.arange(len(b_pairs))[:, None]
    cols = np.arange(m)
    a = np.zeros((len(b_pairs), dim))
    a[rows, table.idx_i[:, None] * m + cols] = block
    a[rows, table.idx_j[:, None] * m + cols] = -block
    if params.control_bound is None:
        return a, b_pairs
    eye = np.eye(dim)
    box_b = np.full(2 * dim, -params.control_bound)
    return np.vstack([a, eye, -eye]), np.concatenate([b_pairs, box_b])


def _nnls(gram: np.ndarray, c: np.ndarray, tol: float) -> np.ndarray:
    """Lawson-Hanson active-set NNLS, min ||E y - f|| s.t. y >= 0, given only
    the normal equations gram = E^T E and c = E^T f.

    Each pass frees the coordinate with the largest positive gradient
    component, then solves the unconstrained problem on the free set, stepping
    back along the segment whenever a free coordinate would turn nonpositive.
    A coordinate whose column is numerically dependent on the free set (the
    solve fails or gives it no positive weight) is skipped for that pass;
    without that guard, rounding in the gradient re-selects it forever.
    """
    n = c.size
    y = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    w = c.copy()
    for _ in range(3 * n):
        candidates = np.where(passive, -np.inf, w)
        j = int(np.argmax(candidates))
        if candidates[j] <= tol:
            return y
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
        while z.min() <= 0.0:
            y_p = y[idx]
            neg = np.flatnonzero(z <= 0.0)
            ratio = y_p[neg] / np.maximum(y_p[neg] - z[neg], _TINY)
            k = int(np.argmin(ratio))
            y_p += ratio[k] * (z - y_p)
            y_p[neg[k]] = 0.0  # exact zero, so the blocking coordinate leaves
            y[idx] = y_p
            passive[idx[y_p <= tol]] = False
            idx = np.flatnonzero(passive)
            z = np.linalg.solve(gram[idx[:, None], idx], c[idx])
        y = np.zeros(n)
        y[idx] = z
        w = c - gram @ y
    raise SolverError(f"NNLS did not converge in {3 * n} passes")


def _ldp(a: np.ndarray, b: np.ndarray):
    """Least-distance program min ||v|| s.t. a v >= b, as one NNLS.

    With E = [a^T; b^T] and f the last unit vector, the NNLS residual
    r = E y - f gives v = -r[:dim] / r[dim] and duals y / (-r[dim]) (Lawson &
    Hanson, ch. 23). At the optimum -r[dim] = 1 / (1 + ||v||^2), and a zero
    residual certifies that the polyhedron is empty: returns None then.
    Each row (a_k, b_k) is scaled to unit norm first, which leaves the
    program unchanged and makes the NNLS tolerance scale-free.
    """
    dim = a.shape[1]
    e = np.empty((len(b), dim + 1))
    e[:, :dim] = a
    e[:, dim] = b
    norms = np.maximum(np.sqrt(np.einsum("ij,ij->i", e, e)), _TINY)
    e /= norms[:, None]
    tol = 10.0 * max(e.shape) * _EPS
    y = _nnls(e @ e.T, e[:, dim], tol)
    r = e.T @ y
    gap = 1.0 - r[dim]
    if gap <= tol:
        return None
    return r[:dim] / gap, y / (norms * gap)


def solve_qp(a: np.ndarray, b: np.ndarray):
    """Minimum-norm point of the polyhedron a u >= b, or its relaxation.

    Returns (u, duals, status, slack_used). The projection is solved exactly
    as a least-distance program through one Lawson-Hanson NNLS. When the
    NNLS residual certifies that the polyhedron is empty (or the point fails
    the feasibility check), the problem is re-solved with a shared slack
    s >= 0 weighted by ``RELAX_RHO``, and the answer is flagged
    ``infeasible_relaxed`` with ``slack_used`` set to the optimal slack.
    """
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("non-finite constraint data")
    n_c, dim = a.shape
    if n_c == 0 or b.max() <= TOL_PRIMAL:
        # The unconstrained optimum u = 0 already satisfies everything.
        return np.zeros(dim), np.zeros(n_c), STATUS_OPTIMAL, 0.0
    exact = _ldp(a, b)
    if exact is not None:
        u, duals = exact
        if (b - a @ u).max() <= TOL_PRIMAL * (1.0 + np.abs(b).max()):
            return u, duals, STATUS_OPTIMAL, 0.0

    # Empty polyhedron, or a point the check rejects: min ||u||^2 + rho*s^2
    # s.t. a_k^T u + s >= b_k, s >= 0 is the same program in
    # (u, sqrt(rho)*s), and it is always feasible.
    root_rho = np.sqrt(RELAX_RHO)
    rows = np.zeros((n_c + 1, dim + 1))
    rows[:n_c, :dim] = a
    rows[:n_c, dim] = 1.0 / root_rho
    rows[n_c, dim] = 1.0
    relaxed = _ldp(rows, np.append(b, 0.0))
    if relaxed is None:
        raise SolverError("relaxed QP produced no finite control")
    v, duals = relaxed
    slack = max(float(v[dim]) / root_rho, 0.0)
    if slack <= 1e-9:
        return v[:dim], duals[:n_c], STATUS_OPTIMAL, 0.0
    return v[:dim], duals[:n_c], STATUS_INFEASIBLE_RELAXED, slack


def needs_solve(b: np.ndarray) -> np.ndarray:
    """Whether a step needs the solver: some pair's right-hand side is positive.

    Otherwise the joint zero control is optimal, under box bounds too. The
    last axis is reduced, so a batch of right-hand sides gives one flag per
    rollout. A NaN right-hand side counts as positive, so that the solver
    rejects it instead of the step passing as unconstrained.
    """
    return ~(np.max(b, axis=-1, initial=0.0) <= TOL_PRIMAL)


def fast_control(
    x: np.ndarray,
    u_prev: np.ndarray,
    params: SafetyParams,
    model,
    table: PairTable,
) -> tuple[np.ndarray, str, float]:
    """The minimum-effort joint control for one step.

    Returns (u, status, slack_used) with u an N x m array. Skips
    constraint-matrix assembly entirely whenever every pair constraint has a
    non-positive right-hand side (the joint zero control is then optimal,
    including under box bounds); otherwise builds the rows with
    ``_constraint_rows`` and solves them with ``solve_qp``.
    """
    n_agents = x.shape[0]
    m = model.control_dim
    b = _rhs_vector(x, u_prev, params, model, table)
    if not needs_solve(b):
        return np.zeros((n_agents, m)), STATUS_OPTIMAL, 0.0
    dim = n_agents * m
    a, b = _constraint_rows(params, model, table, b, dim)
    try:
        u, _, status, slack = solve_qp(a, b)
    except ValueError as exc:  # non-finite state or config values
        raise SolverError(str(exc)) from exc
    if not np.all(np.isfinite(u)):
        raise SolverError("QP returned a non-finite control")
    return u.reshape(n_agents, m), status, slack
