"""Multi-agent system model: control-affine dynamics, bounded-noise
sampling, and fixed-step Euler integration.

Joint states are N x n arrays (row i is agent i), joint controls N x m; the
dynamics also take stacks of them (..., N, n), one per rollout. Every
sampling routine takes explicit ``numpy.random.Generator`` objects, so
identical (config, seed) pairs reproduce trajectories bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SetupError

SINGLE_INTEGRATOR = "single_integrator"
DOUBLE_INTEGRATOR = "double_integrator"
NOISE_BALL = "ball"
NOISE_SPHERE = "sphere"

# Rejection-sampling budget for initial configurations.
_MAX_REJECTION_ROUNDS = 10_000


@dataclass(frozen=True)
class SystemConfig:
    """Static description of the closed-loop plant.

    ``domain_half_width`` is the side length of the square spawn region
    ``[0, domain_half_width]^2`` for agent positions.
    """

    n_agents: int = 2
    state_dim: int = 2
    control_dim: int = 2
    noise_bound: float = 0.03
    dt: float = 0.1
    horizon_steps: int = 50
    domain_half_width: float = 10.0
    min_initial_separation: float = 1.0
    dynamics: str = SINGLE_INTEGRATOR
    noise_dist: str = NOISE_BALL

    def __post_init__(self) -> None:
        if self.n_agents < 2:
            raise ConfigError("n_agents must be >= 2")
        if self.dt <= 0:
            raise ConfigError("dt must be > 0")
        if self.horizon_steps < 1:
            raise ConfigError("horizon_steps must be >= 1")
        if self.noise_bound < 0:
            raise ConfigError("noise_bound must be >= 0")
        if self.domain_half_width <= 0:
            raise ConfigError("domain_half_width must be > 0")
        if self.min_initial_separation <= 0:
            raise ConfigError("min_initial_separation must be > 0")
        if self.state_dim < 2:
            raise ConfigError("state_dim must be >= 2 (planar spawn region)")
        if self.dynamics == SINGLE_INTEGRATOR:
            if self.state_dim != self.control_dim:
                raise ConfigError("single integrator requires state_dim == control_dim")
        elif self.dynamics == DOUBLE_INTEGRATOR:
            if self.state_dim != 2 * self.control_dim:
                raise ConfigError(
                    "double integrator requires state_dim == 2 * control_dim "
                    "(positions stacked over velocities)"
                )
        else:
            raise ConfigError(f"unknown dynamics model {self.dynamics!r}")
        if self.noise_dist not in (NOISE_BALL, NOISE_SPHERE):
            raise ConfigError(f"unknown noise distribution {self.noise_dist!r}")


class SingleIntegrator:
    """x_dot = u + w: zero drift, identity actuation."""

    identity_actuation = True

    def __init__(self, dim: int):
        self.state_dim = dim
        self.control_dim = dim
        self.actuation = np.eye(dim)

    def drift_all(self, x: np.ndarray) -> np.ndarray:
        return np.zeros_like(x)


class DoubleIntegrator:
    """Planar kinematic chain: state (p, v), p_dot = v + w_p, v_dot = u + w_v.

    The disturbance is drawn over the full state, so it perturbs positions as
    well as velocities.
    """

    identity_actuation = False

    def __init__(self, planar_dim: int = 2):
        self.control_dim = planar_dim
        self.state_dim = 2 * planar_dim
        g = np.zeros((self.state_dim, planar_dim))
        g[planar_dim:, :] = np.eye(planar_dim)
        self.actuation = g

    def drift_all(self, x: np.ndarray) -> np.ndarray:
        out = np.zeros_like(x)
        out[..., : self.control_dim] = x[..., self.control_dim :]
        return out


def dynamics_model(config: SystemConfig):
    if config.dynamics == SINGLE_INTEGRATOR:
        return SingleIntegrator(config.state_dim)
    return DoubleIntegrator(config.control_dim)


def euler_step(
    x: np.ndarray, u: np.ndarray, w: np.ndarray, dt: float, model
) -> np.ndarray:
    """One explicit Euler step of every agent: x_i + dt * (f(x_i) + g u_i + w_i).

    x, u and w may carry the same leading batch axes.
    """
    actuated = u if model.identity_actuation else u @ model.actuation.T
    return x + dt * (model.drift_all(x) + actuated + w)


def noise_array(config: SystemConfig, rngs) -> np.ndarray:
    """Draw one bounded disturbance per agent for each generator, as an
    R x N x n array (slice r drawn from ``rngs[r]``).

    ``ball`` mode is uniform on the closed Euclidean ball of radius
    ``noise_bound`` (uniform direction, radius = bound * U^(1/n)); ``sphere``
    mode pins the norm at the bound. Either way the per-agent norm never
    exceeds the bound. Each generator draws N x n standard normals, then (ball
    mode) N uniforms, whatever the batch; the scaling runs once over the
    batch. The generator consumption pattern is independent of
    ``noise_bound``, so runs that differ only in the bound see the same
    underlying draws scaled linearly (common random numbers across noise
    levels).
    """
    n_agents, n = config.n_agents, config.state_dim
    ball = config.noise_dist == NOISE_BALL
    z = np.empty((len(rngs), n_agents, n))
    uniform = np.empty((len(rngs), n_agents))
    for r, rng in enumerate(rngs):
        rng.standard_normal(out=z[r])
        if ball:
            rng.random(out=uniform[r])
    norms = np.sqrt(np.einsum("...j,...j->...", z, z))
    degenerate = norms == 0.0
    if np.any(degenerate):  # probability-zero draw; pick an arbitrary direction
        z[degenerate, 0] = 1.0
        norms[degenerate] = 1.0
    if ball:
        radii = config.noise_bound * uniform ** (1.0 / n)
    else:
        radii = np.full(norms.shape, config.noise_bound)
    return z * (radii / norms)[..., None]


def sample_initial_state(config: SystemConfig, rng: np.random.Generator) -> np.ndarray:
    """Rejection-sample a spawn configuration as an N x n joint state.

    Positions are i.i.d. uniform on the square; the whole configuration is
    redrawn until every pairwise distance reaches ``min_initial_separation``,
    which keeps the accepted distribution exchangeable across agents.
    Higher state coordinates (velocities) start at zero.
    """
    n_agents = config.n_agents
    side = config.domain_half_width
    sep = config.min_initial_separation
    # Loose-packing precondition: the N exclusion disks must occupy well under
    # the square's area, otherwise rejection sampling cannot be expected to
    # stop (disk density 0.45 still accepts within a few thousand rounds for
    # small N; dense packings are rejected up front).
    disk_area = n_agents * math.pi * (sep / 2.0) ** 2
    if disk_area > 0.45 * side * side:
        raise SetupError(
            f"spawn domain too crowded: {n_agents} agents at separation {sep} "
            f"in a {side} x {side} square"
        )
    for _ in range(_MAX_REJECTION_ROUNDS):
        pos = rng.uniform(0.0, side, size=(n_agents, 2))
        ok = True
        for i in range(n_agents - 1):
            diff = pos[i + 1 :] - pos[i]
            if np.min(np.einsum("ij,ij->i", diff, diff)) < sep * sep:
                ok = False
                break
        if ok:
            x = np.zeros((n_agents, config.state_dim))
            x[:, :2] = pos
            return x
    raise SetupError(
        f"initial-state sampling did not terminate in {_MAX_REJECTION_ROUNDS} rounds"
    )
