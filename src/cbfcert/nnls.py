"""Lawson-Hanson nonnegative least squares on the normal equations, for a
stack of problems in lockstep (Lawson & Hanson, Solving Least Squares
Problems, 1974, ch. 23).

Every problem makes the passes it would make alone. Its solves come from one
stacked ``np.linalg.solve`` per free-set size and its products from stacked
``matmul`` calls, so its bytes do not depend on the stack it is solved in.
"""

from __future__ import annotations

import numpy as np

from .errors import SolverError

_TINY = np.finfo(float).tiny


def _free_solves(gram, c, passive, rows):
    """For each problem r in ``rows``: the solve of gram[r] restricted to its
    free set passive[r] against c[r] there, scattered into a zero row, and
    whether that solve was singular (its row stays zero).

    The problems with the same free-set size share one stacked
    ``np.linalg.solve``, which gives each the bytes of its own call.
    """
    free = passive[rows]
    z = np.zeros(free.shape)
    singular = np.zeros(len(rows), dtype=bool)
    sizes = free.sum(axis=1)
    for k in np.bincount(sizes).nonzero()[0]:
        at = (sizes == k).nonzero()[0]
        idx = free[at].nonzero()[1].reshape(len(at), k)
        sel = rows[at, None]
        sub = gram[sel[..., None], idx[:, :, None], idx[:, None, :]]
        rhs = c[sel, idx]
        try:
            sol = np.linalg.solve(sub, rhs[..., None])[..., 0]
        except np.linalg.LinAlgError:
            sol = np.zeros(rhs.shape)
            for i in range(len(at)):
                try:
                    sol[i] = np.linalg.solve(sub[i], rhs[i])
                except np.linalg.LinAlgError:
                    singular[at[i]] = True
        z[at[:, None], idx] = sol
    return z, singular


def _step_back(gram, c, tol, y, passive, rows, z):
    """The step backs of one pass for the problems ``rows``, in lockstep:
    z[i] is problem rows[i]'s solve on its free set, and some free
    coordinate of it is nonpositive.

    Each step moves y toward z until the first such coordinate reaches zero
    (only the nonpositive coordinates bound the step), drops the free
    coordinates at or below ``tol`` and solves again, until the solve is
    positive or singular. y is read, not written. Returns the last solves
    and which problems ended on a positive one; passive[rows] holds the
    final free sets. A free set that empties raises ``SolverError``.
    """
    y = y[rows]
    ok = np.zeros(len(rows), dtype=bool)
    live = np.arange(len(rows))
    while live.size:
        at = np.arange(len(live))
        free, y_l, z_l = passive[rows[live]], y[live], z[live]
        neg = free & (z_l <= 0.0)
        ratio = np.full(neg.shape, np.inf)
        ratio[neg] = y_l[neg] / np.maximum(y_l[neg] - z_l[neg], _TINY)
        k = ratio.argmin(axis=1)
        y_l = np.where(free, y_l + ratio[at, k][:, None] * (z_l - y_l), y_l)
        y_l[at, k] = 0.0  # exact zero, so the blocking coordinate leaves
        y[live] = y_l
        free &= ~(y_l <= tol)
        if not free.any(axis=1).all():
            raise SolverError("NNLS step back emptied the free set")
        passive[rows[live]] = free
        z[live], singular = _free_solves(gram, c, passive, rows[live])
        done = singular | (np.where(free, z[live], np.inf).min(axis=1) > 0.0)
        ok[live[done & ~singular]] = True
        live = live[~done]
    return z, ok


def _nnls_batch(gram: np.ndarray, c: np.ndarray, tol: float, passive: np.ndarray):
    """Active-set NNLS, min ||E_p y - f_p|| s.t. y >= 0, for every problem p
    of a stack in lockstep, given only the normal equations
    gram[p] = E_p^T E_p and c[p] = E_p^T f_p. Returns y, one row per problem.

    Each pass frees the coordinate with the largest positive gradient
    component, then solves the unconstrained problem on the free set,
    stepping back along the segment whenever a free coordinate would turn
    nonpositive (``_step_back``). A coordinate whose column is numerically
    dependent on the free set (the solve fails or gives it no positive
    weight) is skipped for that pass; without that guard, rounding in the
    gradient re-selects it forever. The same holds when a solve after a step
    back fails: the pass is undone and the entering coordinate skipped.

    On a free-set solve ||E y - f||^2 = ||f||^2 - c^T y, which exact passes
    lower; a pass that replaces y without raising c^T y has met rounding
    (an empty LDP polyhedron leaves gradients just above ``tol`` at a
    near-zero residual), and the problem stops converged instead of cycling.
    A problem still passing after 3n passes raises ``SolverError``.

    passive (P, n) holds the starting free sets and receives the final ones.
    Coordinates whose solve on the start is nonpositive leave it first, and
    a singular solve empties it. The result is the solve on the final free
    set, so a start that ends where a cold start ends gives the same bytes
    in fewer passes.
    """
    y = np.zeros(c.shape)
    rows = passive.any(axis=1).nonzero()[0]
    while rows.size:
        z, singular = _free_solves(gram, c, passive, rows)
        passive[rows[singular]] = False
        positive = ~singular & (np.where(passive[rows], z, np.inf).min(axis=1) > 0.0)
        y[rows[positive]] = z[positive]
        shrink = ~(positive | singular)
        rows, z = rows[shrink], z[shrink]
        passive[rows] &= ~(z <= 0.0)
        rows = rows[passive[rows].any(axis=1)]
    active = np.ones(len(c), dtype=bool)
    w = c - (gram @ y[..., None])[..., 0]
    fit = (c[:, None, :] @ y[..., None])[:, 0, 0]
    for _ in range(3 * c.shape[1]):
        rows = active.nonzero()[0]
        candidates = np.where(passive[rows], -np.inf, w[rows])
        j = candidates.argmax(axis=1)
        enter = ~(candidates[np.arange(len(rows)), j] <= tol)
        active[rows[~enter]] = False
        rows, j = rows[enter], j[enter]
        if not rows.size:
            break
        passive[rows, j] = True
        z, singular = _free_solves(gram, c, passive, rows)
        taken = ~singular & (z[np.arange(len(rows)), j] > 0.0)
        back = (taken & (np.where(passive[rows], z, np.inf).min(axis=1) <= 0.0)).nonzero()[0]
        if back.size:
            before = passive[rows[back]]
            before[np.arange(len(back)), j[back]] = False
            z[back], ok = _step_back(gram, c, tol, y, passive, rows[back], z[back])
            passive[rows[back[~ok]]] = before[~ok]
            taken[back[~ok]] = False
        skip = ~taken
        passive[rows[skip], j[skip]] = False
        w[rows[skip], j[skip]] = 0.0
        rows = rows[taken]
        y[rows] = z[taken]
        w[rows] = c[rows] - (gram @ y[..., None])[rows, :, 0]
        last, fit[rows] = fit[rows], (c[:, None, :] @ y[..., None])[rows, 0, 0]
        active[rows[~(fit[rows] > last)]] = False
    if active.any():
        raise SolverError(f"NNLS did not converge in {3 * c.shape[1]} passes")
    return y
