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

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class SafetyParams:
    psi: float = 2.0
    reg_eps: float = 1e-6
    d_min: float = 1.0
    kappa: float = 1.0
    robust_margin_enabled: bool = True
    # Constraint-assembly switches (see controller module).
    freeze_adot: bool = False
    control_bound: float | None = None

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
    with the gradient (zero when the robust margin is off).
    """

    __slots__ = ("idx_i", "idx_j", "diff", "dist_sq", "dist", "h", "grad", "prop", "gamma")

    def __init__(self, x: np.ndarray, params: SafetyParams, w_bar: float):
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
        if params.robust_margin_enabled and w_bar > 0:
            self.gamma = 4.0 * w_bar * self.dist
        else:
            self.gamma = np.zeros_like(self.h)

    def __getitem__(self, r) -> PairTable:
        """The table of joint state r of a batch, as views (nothing recomputed)."""
        table = object.__new__(type(self))
        table.idx_i = self.idx_i
        table.idx_j = self.idx_j
        for name in ("diff", "dist_sq", "dist", "h", "grad", "prop", "gamma"):
            setattr(table, name, getattr(self, name)[r])
        return table

    def weighted_margins(self, u: np.ndarray, psi: float) -> np.ndarray:
        """h_tilde for every pair at the joint control u (..., N, m).

        The alignment term pairs A with control differences, so psi > 0
        needs m == n; ``ExperimentConfig`` rejects other shapes.
        """
        if psi == 0.0:
            return self.h
        du = u[..., self.idx_i, :] - u[..., self.idx_j, :]
        return self.h + psi * np.einsum("...j,...j->...", self.prop, du)
