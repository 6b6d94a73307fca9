"""Pairwise safety functions.

The raw barrier for a pair is h = ||x_i - x_j||^2 - d_min^2. The weighted
margin adds an amplitude-modulated control-alignment term
psi * A^T (u_i - u_j), where A is the regularized inter-agent direction
damped by exp(-||x_i - x_j||^2): nearby pairs couple strongly, distant pairs
effectively decouple.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Annotated

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class SafetyParams:
    psi: Annotated[float, "control-alignment weight (>= 0)"] = 2.0
    reg_eps: Annotated[float, "regularizer in the propagation vector"] = 1e-6
    d_min: Annotated[float, "minimum separation radius"] = 1.0
    kappa: Annotated[float, "linear class-K gain"] = 1.0
    robust_margin_enabled: Annotated[bool, "subtract the worst-case noise margin"] = True
    # Constraint-assembly switches (see controller module).
    freeze_adot: Annotated[bool, "fold the frozen propagation derivative into the QP rhs"] = False
    control_bound: Annotated[float | None, "optional symmetric box bound on each control entry"] = None

    def __post_init__(self) -> None:
        if self.psi < 0:
            raise ConfigError("psi must be >= 0")
        if self.reg_eps <= 0:
            raise ConfigError("reg_eps must be > 0")
        if self.d_min <= 0:
            raise ConfigError("d_min must be > 0")
        if self.kappa <= 0:
            raise ConfigError("kappa must be > 0")
        if self.control_bound is not None and self.control_bound <= 0:
            raise ConfigError("control_bound must be > 0 when set")


@lru_cache(maxsize=64)
def pair_indices(n_agents: int) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (first, second) enumerating unordered pairs with i < j."""
    first, second = np.triu_indices(n_agents, k=1)
    first.setflags(write=False)
    second.setflags(write=False)
    return first, second


class PairTable:
    """Vectorized per-pair geometry for one joint state or a batch of them.

    ``x`` is an N x n joint state, or any stack of them (..., N, n); every
    field then carries the same leading axes. Entry k of the pair axis
    describes pair (idx_i[k], idx_j[k]) with i < j: the difference
    d = x_i - x_j, the margin h, its gradient 2d with respect to x_i (negate
    for x_j), the damped direction A = phi(||d||^2) d with
    phi(q) = exp(-q) / sqrt(q + eps^2), whose norm never exceeds
    exp(-||d||^2) <= 1, and the worst-case noise effect
    gamma = 2 w_bar ||grad h|| attained by two disturbances (anti-)aligned
    with the gradient (zero when the robust margin is off). The noise bound
    ``w_bar`` is a float, or one bound per joint state of the stack.
    """

    __slots__ = ("idx_i", "idx_j", "diff", "dist_sq", "dist", "h", "grad", "prop", "gamma")

    def __init__(self, x: np.ndarray, params: SafetyParams, w_bar):
        idx_i, idx_j = pair_indices(x.shape[-2])
        self.idx_i = idx_i
        self.idx_j = idx_j
        diff = x[..., idx_i, :] - x[..., idx_j, :]
        dist_sq = np.einsum("...j,...j->...", diff, diff)
        self.diff = diff
        self.dist_sq = dist_sq
        self.dist = np.sqrt(dist_sq)
        self.h = dist_sq - params.d_min**2
        self.grad = 2.0 * diff
        damp = np.exp(-dist_sq) / np.sqrt(dist_sq + params.reg_eps**2)
        self.prop = diff * damp[..., None]
        self.gamma = np.zeros_like(self.h)
        if params.robust_margin_enabled:
            w_bar = np.asarray(w_bar, dtype=float)[..., None]
            np.multiply(4.0 * w_bar, self.dist, out=self.gamma, where=w_bar > 0)

    def weighted_margins(self, u: np.ndarray, psi: float) -> np.ndarray:
        """h_tilde for every pair at the joint control u (..., N, m).

        The alignment term pairs A with control differences, so psi > 0
        needs m == n; ``ExperimentConfig`` rejects other shapes.
        """
        if psi == 0.0:
            return self.h
        du = u[..., self.idx_i, :] - u[..., self.idx_j, :]
        return self.h + psi * np.einsum("...j,...j->...", self.prop, du)
