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
from .sysmodel import Plant

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE_RELAXED = "infeasible_relaxed"

# Feasibility tolerance (absolute; constraint data is O(1)-O(10) in practice).
TOL_PRIMAL = 1e-9
RELAX_RHO = 1e6

_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny


def _constraint_rows(
    u_prev: np.ndarray, params: SafetyParams, plant: Plant, table: PairTable
) -> tuple[np.ndarray, np.ndarray]:
    """The step's system (A, b): one row per pair, then the optional control box.

    Pair (i, j) places +/-(G^T grad_h + psi*kappa*A) in the blocks of agents
    i and j (exact negation because G is state-independent). Its right-hand
    side is gamma - grad_h . (F d) - kappa * h, minus the frozen
    propagation-derivative term when ``freeze_adot`` is on; the plant is
    linear, so F d is the drift difference of the pair d = x_i - x_j. A box
    bound c adds the rows u_k >= -c and -u_k >= -c. u_prev (..., N, m) and
    ``table`` may carry the same leading batch axes; A is then
    (..., rows, N*m) and b (..., rows).
    """
    drift, actuation = plant
    dim = u_prev.shape[-2] * u_prev.shape[-1]
    d_drift = table.diff @ drift.T
    with np.errstate(invalid="ignore"):  # overflowed state: NaN, which solve_qp rejects
        b = table.gamma - np.einsum("...j,...j->...", table.grad, d_drift) - params.kappa * table.h
    if params.freeze_adot and params.psi > 0:
        du_prev = u_prev[..., table.idx_i, :] - u_prev[..., table.idx_j, :]
        dxdot = d_drift + du_prev @ actuation.T
        q = table.dist_sq
        root = np.sqrt(q + params.reg_eps**2)
        phi = np.exp(-q) / root
        dphi = -np.exp(-q) * (1.0 / root + 0.5 / root**3)
        along = np.einsum("...j,...j->...", table.diff, dxdot)
        a_dot = phi[..., None] * dxdot + (2.0 * dphi * along)[..., None] * table.diff
        b = b - params.psi * np.einsum("...j,...j->...", a_dot, du_prev)
    block = table.grad @ actuation
    if params.psi > 0:
        block = block + (params.psi * params.kappa) * table.prop
    pairs = np.arange(block.shape[-2])
    a = np.zeros(block.shape[:-1] + u_prev.shape[-2:])
    a[..., pairs, table.idx_i, :] = block
    a[..., pairs, table.idx_j, :] = -block
    a = a.reshape(block.shape[:-1] + (dim,))
    if params.control_bound is None:
        return a, b
    eye = np.eye(dim)
    box_a = np.broadcast_to(np.vstack([eye, -eye]), a.shape[:-2] + (2 * dim, dim))
    box_b = np.full(b.shape[:-1] + (2 * dim,), -params.control_bound)
    return np.concatenate([a, box_a], axis=-2), np.concatenate([b, box_b], axis=-1)


def row_count(params: SafetyParams, n_agents: int, control_dim: int) -> int:
    """Number of rows ``_constraint_rows`` builds: one per pair, plus the box."""
    rows = n_agents * (n_agents - 1) // 2
    if params.control_bound is not None:
        rows += 2 * n_agents * control_dim
    return rows


def _nnls(
    gram: np.ndarray, c: np.ndarray, tol: float, passive: np.ndarray | None = None
) -> np.ndarray:
    """Lawson-Hanson active-set NNLS, min ||E y - f|| s.t. y >= 0, given only
    the normal equations gram = E^T E and c = E^T f.

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
    the same bytes in fewer passes.
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


def _ldp(a: np.ndarray, b: np.ndarray, passive: np.ndarray | None = None):
    """Least-distance program min ||v|| s.t. a v >= b, as one NNLS.

    With E = [a^T; b^T] and f the last unit vector, the NNLS residual
    r = E y - f gives v = -r[:dim] / r[dim] and duals y / (-r[dim]) (Lawson &
    Hanson, ch. 23). At the optimum -r[dim] = 1 / (1 + ||v||^2), and a zero
    residual certifies that the polyhedron is empty: returns None then.
    Each row (a_k, b_k) is scaled to unit norm first, which leaves the
    program unchanged and makes the NNLS tolerance scale-free. ``passive``
    is the NNLS start and final free set over the rows (see ``_nnls``).
    """
    dim = a.shape[1]
    e = np.empty((len(b), dim + 1))
    e[:, :dim] = a
    e[:, dim] = b
    norms = np.maximum(np.sqrt(np.einsum("ij,ij->i", e, e)), _TINY)
    e /= norms[:, None]
    tol = 10.0 * max(e.shape) * _EPS
    y = _nnls(e @ e.T, e[:, dim], tol, passive)
    r = e.T @ y
    gap = 1.0 - r[dim]
    if gap <= tol:
        return None
    return r[:dim] / gap, y / (norms * gap)


def solve_qp(a: np.ndarray, b: np.ndarray, passive: np.ndarray | None = None):
    """Minimum-norm point of the polyhedron a u >= b, or its relaxation.

    Returns (u, duals, status, slack_used). The projection is solved exactly
    as a least-distance program through one Lawson-Hanson NNLS. When the
    NNLS residual certifies that the polyhedron is empty (or the point fails
    the feasibility check), the problem is re-solved with a shared slack
    s >= 0 weighted by ``RELAX_RHO``, and the answer is flagged
    ``infeasible_relaxed`` with ``slack_used`` set to the optimal slack.

    ``passive`` (bool per row) warm-starts the exact NNLS and receives the
    free set of the answer: the NNLS's final one, or none for u = 0 and for
    the relaxation, which runs cold. The answer does not depend on the start.
    """
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("non-finite constraint data")
    n_c, dim = a.shape
    if not needs_solve(b):
        # The unconstrained optimum u = 0 already satisfies everything.
        if passive is not None:
            passive[:] = False
        return np.zeros(dim), np.zeros(n_c), STATUS_OPTIMAL, 0.0
    exact = _ldp(a, b, passive)
    if exact is not None:
        u, duals = exact
        if (b - a @ u).max() <= TOL_PRIMAL * (1.0 + np.abs(b).max()):
            return u, duals, STATUS_OPTIMAL, 0.0
    if passive is not None:
        passive[:] = False

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
    """Whether a step needs the solver: some row's right-hand side is positive.

    Otherwise the joint zero control is optimal; box rows (right-hand side
    -c < 0) never flag. The last axis is reduced, so a batch of right-hand
    sides gives one flag per rollout. A NaN right-hand side counts as positive, so that the solver
    rejects it instead of the step passing as unconstrained.
    """
    return ~(np.max(b, axis=-1, initial=0.0) <= TOL_PRIMAL)


def fast_control(
    a: np.ndarray, b: np.ndarray, passive: np.ndarray | None = None
) -> tuple[np.ndarray, str, float]:
    """The minimum-effort joint control of one rollout-step, as (u, status,
    slack_used) with u flat (N*m,), from the step's rows (a, b) of the
    batch's ``_constraint_rows``. ``solve_qp`` solves them warm-started from
    ``passive`` (one bool per row, see ``row_count``), which receives the
    free set of the answer.
    """
    try:
        u, _, status, slack = solve_qp(a, b, passive)
    except ValueError as exc:  # non-finite state or config values
        raise SolverError(str(exc)) from exc
    if not np.all(np.isfinite(u)):
        raise SolverError("QP returned a non-finite control")
    return u, status, slack
