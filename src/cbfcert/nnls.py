"""Lawson-Hanson nonnegative least squares on the normal equations.

``_nnls`` solves one problem; ``_nnls_batch`` runs a stack of them in
lockstep and gives each problem it finishes the bytes of its own ``_nnls``
call (Lawson & Hanson, Solving Least Squares Problems, 1974, ch. 23).
"""

from __future__ import annotations

import numpy as np

from .errors import SolverError

_TINY = np.finfo(float).tiny


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


def _nnls_batch(gram: np.ndarray, c: np.ndarray, tol: float, passive: np.ndarray):
    """``_nnls`` on a stack of problems (gram[p], c[p]) in lockstep, started
    from the free sets passive (P, n), which receive the final ones.

    Every problem makes the passes of its own ``_nnls`` call, with its solves
    from ``_free_solves`` and its products as stacked ``matmul`` calls, so a
    problem finished here gets the bytes of that call. A problem that would
    need a step back, meets a singular free set or runs out of passes is
    left: the returned mask flags it, its y row is zero and its passive row
    is unspecified.
    """
    y = np.zeros(c.shape)
    left = np.zeros(len(c), dtype=bool)
    # The warm start: coordinates with a nonpositive solve leave the free
    # set until its solve is positive.
    rows = passive.any(axis=1).nonzero()[0]
    while rows.size:
        z, singular = _free_solves(gram, c, passive, rows)
        left[rows[singular]] = True
        positive = np.where(passive[rows], z, np.inf).min(axis=1) > 0.0
        y[rows[positive]] = z[positive]
        shrink = ~(positive | singular)
        rows, z = rows[shrink], z[shrink]
        passive[rows] &= ~(z <= 0.0)
        rows = rows[passive[rows].any(axis=1)]
    active = ~left
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
        taken = z[np.arange(len(rows)), j] > 0.0
        skip = ~(taken | singular)
        passive[rows[skip], j[skip]] = False
        w[rows[skip], j[skip]] = 0.0
        back = taken & (np.where(passive[rows], z, np.inf).min(axis=1) <= 0.0)
        left[rows[singular | back]] = True
        active[rows[singular | back]] = False
        solved = taken & ~back
        rows = rows[solved]
        y[rows] = z[solved]
        w[rows] = c[rows] - (gram @ y[..., None])[rows, :, 0]
        last, fit[rows] = fit[rows], (c[:, None, :] @ y[..., None])[rows, 0, 0]
        active[rows[~(fit[rows] > last)]] = False
    left |= active
    y[left] = 0.0
    return y, left
