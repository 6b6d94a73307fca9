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
``solve_batch`` solves the exact programs of a lockstep step's flagged
problems together; ``solve_qp`` and ``fast_control`` run the same code on one
problem and relax it when its polyhedron is empty.
"""

from __future__ import annotations

import numpy as np

from .errors import SolverError
from .nnls import _nnls_batch
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


def _ldp(a: np.ndarray, b: np.ndarray, passive: np.ndarray):
    """Least-distance programs min ||v|| s.t. a[p] v >= b[p] for a stack of
    problems, as one lockstep NNLS: (v, duals, solved), one row per problem.

    With E = [a^T; b^T] and f the last unit vector, the NNLS residual
    r = E y - f gives v = -r[:dim] / r[dim] and duals y / (-r[dim]) (Lawson &
    Hanson, ch. 23). At the optimum -r[dim] = 1 / (1 + ||v||^2), and a zero
    residual certifies that the polyhedron is empty: solved[p] is false then,
    and row p of v and duals means nothing. Each row (a_k, b_k) is scaled to
    unit norm first, which leaves the program unchanged and makes the NNLS
    tolerance scale-free. ``passive`` holds the NNLS starts and receives the
    final free sets, one row per problem (see ``_nnls_batch``).
    """
    dim = a.shape[-1]
    e, norms = _unit_rows(a, b)
    tol = 10.0 * max(e.shape[1:]) * _EPS
    e_t = np.swapaxes(e, 1, 2)
    y = _nnls_batch(e @ e_t, e[..., dim], tol, passive)
    r = (e_t @ y[..., None])[..., 0]
    gap = 1.0 - r[:, dim]
    solved = gap > tol
    gap = np.where(solved, gap, 1.0)[:, None]
    return r[:, :dim] / gap, y / (norms * gap), solved


def _feasible(a: np.ndarray, b: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Whether a u >= b holds to ``TOL_PRIMAL``, relative to the largest |b|;
    leading batch axes give one verdict per problem."""
    shortfall = b - (a @ u[..., None])[..., 0]
    return shortfall.max(axis=-1) <= TOL_PRIMAL * (1.0 + np.abs(b).max(axis=-1))


def solve_qp(a: np.ndarray, b: np.ndarray, passive: np.ndarray | None = None):
    """Minimum-norm point of the polyhedron a u >= b, or its relaxation.

    Returns (u, duals, status, slack_used). The point is the least-distance
    program ``_ldp`` on a stack of one, warm-started from ``passive`` (bool
    per row), which receives the NNLS's final free set; the answer does not
    depend on the start. Where the NNLS residual certifies that the
    polyhedron is empty, or the point fails the feasibility check, the
    problem is re-solved cold with a shared slack s >= 0:
    min ||u||^2 + rho*s^2 s.t. a_k^T u + s >= b_k, which is the
    least-distance program in (u, sqrt(rho)*s) over the rows
    [a_k, 1/sqrt(rho)] and [0, 1], always feasible; ``passive`` is cleared
    then, as it is for u = 0. A slack above 1e-9 flags the answer
    ``infeasible_relaxed``, with ``slack_used`` set to that slack.
    """
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("non-finite constraint data")
    n_c, dim = a.shape
    free = np.zeros((1, n_c), dtype=bool) if passive is None else passive[None]
    if not needs_solve(b):
        # The unconstrained optimum u = 0 already satisfies everything.
        free[:] = False
        return np.zeros(dim), np.zeros(n_c), STATUS_OPTIMAL, 0.0
    u, duals, exact = _ldp(a[None], b[None], free)
    if exact[0] and _feasible(a[None], b[None], u)[0]:
        return u[0], duals[0], STATUS_OPTIMAL, 0.0
    free[:] = False
    root_rho = np.sqrt(RELAX_RHO)
    rows = np.zeros((1, n_c + 1, dim + 1))
    rows[0, :n_c, :dim] = a
    rows[0, :n_c, dim] = 1.0 / root_rho
    rows[0, n_c, dim] = 1.0
    rhs = np.zeros((1, n_c + 1))
    rhs[0, :n_c] = b
    v, duals, solved = _ldp(rows, rhs, np.zeros(rhs.shape, dtype=bool))
    if not solved[0]:
        raise SolverError("relaxed QP produced no finite control")
    used = max(v[0, dim] / root_rho, 0.0)
    if used <= 1e-9:
        return v[0, :dim], duals[0, :n_c], STATUS_OPTIMAL, 0.0
    return v[0, :dim], duals[0, :n_c], STATUS_INFEASIBLE_RELAXED, used


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
    slack_used) with u flat (N*m,), from the step's rows (a, b) of a
    ``_constraint_rows`` system: ``solve_qp`` warm-started from ``passive``
    (one bool per row, see ``row_count``), which receives the free set of
    the answer, with its failures raised as ``SolverError``.
    """
    try:
        u, _, status, slack = solve_qp(a, b, passive)
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
    batch's ``_constraint_rows``, which ``needs_solve`` all flags, each bit
    for bit what ``solve_qp`` computes before it decides to relax.

    Returns (u, rejected) in the order of ``rows``: the flat controls, and
    which problems' exact answers ``solve_qp`` rejects (an empty polyhedron,
    or a point that fails the feasibility check). A rejected row of u means
    nothing and its passive row keeps its start, so that ``fast_control``
    from there repeats the same exact solve before it relaxes; every other
    passive[r] receives r's final free set. The exact programs run through
    ``_ldp`` in slices whose Gram matrices take at most ``_GRAM_BYTES`` (one
    problem when a single Gram is larger). Non-finite data raises
    ``SolverError``.
    """
    n_c, dim = a.shape[-2:]
    u = np.empty((len(rows), dim))
    rejected = np.empty(len(rows), dtype=bool)
    step = max(1, _GRAM_BYTES // (8 * n_c * n_c))
    for first in range(0, len(rows), step):
        part = slice(first, first + step)
        sel = rows[part]
        free = passive[sel]
        if sel[-1] - sel[0] == len(sel) - 1:  # consecutive rows: views, not copies
            sel = slice(sel[0], sel[-1] + 1)
        a_p, b_p = a[sel], b[sel]
        if not (np.isfinite(a_p).all() and np.isfinite(b_p).all()):
            raise SolverError("non-finite constraint data")
        u[part], _, exact = _ldp(a_p, b_p, free)
        exact &= _feasible(a_p, b_p, u[part])
        rejected[part] = ~exact
        passive[rows[part][exact]] = free[exact]
    return u, rejected
