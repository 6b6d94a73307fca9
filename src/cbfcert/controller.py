"""Per-step admissible-control computation.

For every unordered agent pair the forward-invariance condition
hdot_tilde + kappa * h_tilde >= gamma is linear in the joint control once the
propagation vector is held fixed within the step, so the admissible set is a
polyhedron and the minimum-effort input is the projection of the origin onto
it. That projection is a least-distance program, min ||u|| s.t. A u >= b,
which Lawson & Hanson (Solving Least Squares Problems, 1974, ch. 23) reduce to
one nonnegative least-squares problem (``nnls``); its residual also decides
feasibility. When the polyhedron is empty the same solver handles the
shared-slack relaxation, and the step reports how much relaxation was needed.
``solve_batch`` solves the flagged problems of a lockstep step together.
"""

from __future__ import annotations

import numpy as np

from .errors import SolverError
from .nnls import _nnls, _nnls_batch
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


def _unit_rows(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """E = [a, b] with every row scaled to unit norm, and the row norms.

    a (..., rows, dim) and b (..., rows) may carry the same leading axes.
    """
    dim = a.shape[-1]
    e = np.empty(b.shape + (dim + 1,))
    e[..., :dim] = a
    e[..., dim] = b
    norms = np.maximum(np.sqrt(np.einsum("...ij,...ij->...i", e, e)), _TINY)
    e /= norms[..., None]
    return e, norms


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
    e, norms = _unit_rows(a, b)
    tol = 10.0 * max(e.shape) * _EPS
    y = _nnls(e @ e.T, e[:, dim], tol, passive)
    r = e.T @ y
    gap = 1.0 - r[dim]
    if gap <= tol:
        return None
    return r[:dim] / gap, y / (norms * gap)


def _feasible(a: np.ndarray, b: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Whether a u >= b holds to ``TOL_PRIMAL``, relative to the largest |b|;
    leading batch axes give one verdict per problem."""
    shortfall = b - (a @ u[..., None])[..., 0]
    return shortfall.max(axis=-1) <= TOL_PRIMAL * (1.0 + np.abs(b).max(axis=-1))


def _relaxed(a: np.ndarray, b: np.ndarray):
    """The shared-slack relaxation of a u >= b, as ``solve_qp`` returns it.

    min ||u||^2 + rho*s^2 s.t. a_k^T u + s >= b_k, s >= 0 is the
    least-distance program in (u, sqrt(rho)*s) over the rows
    [a_k, 1/sqrt(rho)] and [0, 1], and it is always feasible. It runs cold.
    """
    n_c, dim = a.shape
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
        if _feasible(a, b, u):
            return u, duals, STATUS_OPTIMAL, 0.0
    if passive is not None:
        passive[:] = False
    # Empty polyhedron, or a point the check rejects.
    return _relaxed(a, b)


def needs_solve(b: np.ndarray) -> np.ndarray:
    """Whether a step needs the solver: some row's right-hand side is positive.

    Otherwise the joint zero control is optimal; box rows (right-hand side
    -c < 0) never flag. The last axis is reduced, so a batch of right-hand
    sides gives one flag per rollout. A NaN right-hand side counts as positive, so that the solver
    rejects it instead of the step passing as unconstrained.
    """
    return ~(np.max(b, axis=-1, initial=0.0) <= TOL_PRIMAL)


def fast_control(
    a: np.ndarray, b: np.ndarray, passive: np.ndarray | None = None, exact: bool = True
) -> tuple[np.ndarray, str, float]:
    """The minimum-effort joint control of one rollout-step, as (u, status,
    slack_used) with u flat (N*m,), from the step's rows (a, b) of the
    batch's ``_constraint_rows``. ``solve_qp`` solves them warm-started from
    ``passive`` (one bool per row, see ``row_count``), which receives the
    free set of the answer. With ``exact`` false the step goes straight to
    the relaxation, as ``solve_qp`` does once it rejects the exact answer.
    """
    try:
        u, _, status, slack = solve_qp(a, b, passive) if exact else _relaxed(a, b)
    except ValueError as exc:  # non-finite state or config values
        raise SolverError(str(exc)) from exc
    if not np.all(np.isfinite(u)):
        raise SolverError("QP returned a non-finite control")
    return u, status, slack


# The Gram matrices that one lockstep slice of ``solve_batch`` stacks stay
# within this many bytes (a slice holds one problem when its Gram is larger),
# so the solver's memory does not grow with the batch.
_GRAM_BYTES = 1 << 21


def solve_batch(a: np.ndarray, b: np.ndarray, passive: np.ndarray, rows: np.ndarray):
    """The exact controls of the problems (a[r], b[r]), r in ``rows``, of a
    batch's ``_constraint_rows``, which ``needs_solve`` all flags.

    Returns (u, left, rejected) in the order of ``rows``: the flat controls,
    which problems are left for ``fast_control`` (their u rows are zero), and
    which of those had their exact answer rejected, so that ``fast_control``
    goes straight to the relaxation. passive[r] is r's warm start and
    receives its free set, or none where the answer was rejected; where r is
    left otherwise, it stays as it was. The problems are solved in slices
    whose Gram matrices take at most ``_GRAM_BYTES`` (one problem when a
    single Gram is larger).
    """
    n_c, dim = a.shape[-2:]
    u = np.zeros((len(rows), dim))
    out = u, np.ones(len(rows), dtype=bool), np.zeros(len(rows), dtype=bool)
    step = max(1, _GRAM_BYTES // (8 * n_c * n_c))
    for first in range(0, len(rows), step):
        _solve_slice(a, b, passive, rows, slice(first, first + step), out)
    if not np.all(np.isfinite(u)):
        raise SolverError("QP returned a non-finite control")
    return out


def _solve_slice(a, b, passive, rows, part, out) -> None:
    """``solve_batch`` on rows[part], written into ``out`` = (u, left, rejected).

    The exact NNLS runs through ``_nnls_batch``. A problem that it leaves,
    or whose data is not finite, stays left, and so does one whose exact
    answer ``solve_qp`` would reject, flagged as rejected. Every answer
    solved here is bitwise the one ``fast_control`` gives.
    """
    u, left, rejected = out
    dim = a.shape[-1]
    part = np.arange(len(rows))[part]
    sel = rows[part]
    if sel[-1] - sel[0] == len(sel) - 1:  # consecutive rows: views, not copies
        sel = slice(sel[0], sel[-1] + 1)
    a_p, b_p = a[sel], b[sel]
    finite = np.isfinite(a_p).all(axis=(1, 2)) & np.isfinite(b_p).all(axis=1)
    if not finite.all():
        part, a_p, b_p = part[finite], a_p[finite], b_p[finite]
    e, _ = _unit_rows(a_p, b_p)
    tol = 10.0 * max(e.shape[1:]) * _EPS
    free = passive[rows[part]]
    y, unsolved = _nnls_batch(e @ np.swapaxes(e, 1, 2), e[..., dim], tol, free)
    r = (np.swapaxes(e, 1, 2) @ y[..., None])[..., 0]
    gap = 1.0 - r[:, dim]
    exact = ~unsolved & (gap > tol)
    u_p = r[:, :dim] / np.where(exact, gap, 1.0)[:, None]
    exact &= _feasible(a_p, b_p, u_p)
    u[part[exact]] = u_p[exact]
    left[part[exact]] = False
    rejected[part] = dropped = ~(unsolved | exact)
    free[dropped] = False
    passive[rows[part[~unsolved]]] = free[~unsolved]
