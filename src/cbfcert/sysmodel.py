"""Multi-agent system model: linear control-affine dynamics, bounded-noise
sampling, and fixed-step Euler integration.

Joint states are N x n arrays (row i is agent i), joint controls N x m; the
dynamics also take stacks of them (..., N, n), one per rollout. Every
sampling routine takes explicit ``numpy.random.Generator`` objects, so
identical (config, seed) pairs reproduce trajectories bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Annotated, NamedTuple

import numpy as np

from .errors import ConfigError, SetupError
from .safety import pair_indices

SINGLE_INTEGRATOR = "single_integrator"
DOUBLE_INTEGRATOR = "double_integrator"
NOISE_BALL = "ball"
NOISE_SPHERE = "sphere"

# Rejection-sampling budget for initial configurations, in rounds.
_MAX_REJECTION_ROUNDS = 10_000

# Each generator draws its disturbances NOISE_BLOCK_STEPS steps at a time
# (``noise_array``) and its spawn rounds SPAWN_BLOCK_ROUNDS rounds at a time
# (``sample_initial_state``). Both are part of the seed -> stream mapping:
# changing either changes every rollout's draws.
NOISE_BLOCK_STEPS = 16
SPAWN_BLOCK_ROUNDS = 64


@dataclass(frozen=True)
class SystemConfig:
    """Static description of the closed-loop plant.

    ``domain_half_width`` is the side length of the square spawn region
    ``[0, domain_half_width]^2`` for agent positions.
    """

    n_agents: Annotated[int, "number of agents N (>= 2)"] = 2
    state_dim: Annotated[int, "per-agent state dimension n"] = 2
    control_dim: Annotated[int, "per-agent control dimension m"] = 2
    noise_bound: Annotated[float, "per-agent disturbance norm bound"] = 0.03
    dt: Annotated[float, "integration step"] = 0.1
    horizon_steps: Annotated[int, "number of Euler steps per rollout"] = 50
    domain_half_width: Annotated[float, "side length of the square spawn region"] = 10.0
    min_initial_separation: Annotated[float, "required pairwise spawn distance"] = 1.0
    dynamics: Annotated[str, "single_integrator | double_integrator"] = SINGLE_INTEGRATOR
    noise_dist: Annotated[str, "ball (uniform in ball) | sphere (norm pinned at bound)"] = NOISE_BALL

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
        if self.control_dim < 2:  # positions are the first m state coordinates
            raise ConfigError("control_dim must be >= 2 (planar agent positions)")
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


class Plant(NamedTuple):
    """Linear per-agent dynamics x_dot = F x + G u + w: ``drift`` F (n x n)
    and ``actuation`` G (n x m).

    The single integrator has F = 0 and G = I. The double integrator has
    state (p, v), p_dot = v + w_p and v_dot = u + w_v, so F = [[0, I], [0, 0]]
    and G = [[0], [I]]. The disturbance is drawn over the full state, so it
    perturbs positions as well as velocities.
    """

    drift: np.ndarray
    actuation: np.ndarray


def dynamics_model(config: SystemConfig) -> Plant:
    """The plant of ``config``, a chain of integrators: the derivative of each
    block of m state coordinates is the next block, and u drives the last."""
    n, m = config.state_dim, config.control_dim
    return Plant(drift=np.eye(n, k=m), actuation=np.eye(n, m, k=m - n))


def euler_step(
    x: np.ndarray, u: np.ndarray, w: np.ndarray, dt: float, plant: Plant
) -> np.ndarray:
    """One explicit Euler step of every agent: x_i + dt * (F x_i + G u_i + w_i).

    x, u and w may carry the same leading batch axes.
    """
    return x + dt * (x @ plant.drift.T + u @ plant.actuation.T + w)


def noise_array(config: SystemConfig, rngs, noise_bound=None) -> np.ndarray:
    """Draw the next ``NOISE_BLOCK_STEPS`` steps of bounded disturbance for
    each generator, as an R x B x N x n array (slice r drawn from ``rngs[r]``,
    its step k at ``[r, k]``).

    ``noise_bound`` holds one bound per generator (R,); None gives each the
    config's. ``ball`` mode is uniform on the closed Euclidean ball of radius
    ``noise_bound`` (uniform direction, radius = bound * U^(1/n)); ``sphere``
    mode pins the norm at the bound. Either way the per-agent norm never
    exceeds the bound. Each generator draws B x N x n standard normals in one
    call, then (ball mode) B x N uniforms in another, whatever the batch; the
    scaling runs once over the batch. The generator consumption pattern is
    independent of ``noise_bound``, so runs that differ only in the bound see
    the same underlying draws scaled linearly (common random numbers across
    noise levels).
    """
    n_agents, n = config.n_agents, config.state_dim
    ball = config.noise_dist == NOISE_BALL
    z = np.empty((len(rngs), NOISE_BLOCK_STEPS, n_agents, n))
    uniform = np.empty((len(rngs), NOISE_BLOCK_STEPS, n_agents))
    for r, rng in enumerate(rngs):
        rng.standard_normal(out=z[r])
        if ball:
            rng.random(out=uniform[r])
    norms = np.sqrt(np.einsum("...j,...j->...", z, z))
    degenerate = norms == 0.0
    if np.any(degenerate):  # probability-zero draw; pick an arbitrary direction
        z[degenerate, 0] = 1.0
        norms[degenerate] = 1.0
    bound = config.noise_bound if noise_bound is None else noise_bound[:, None, None]
    if ball:
        radii = bound * uniform ** (1.0 / n)
    else:
        radii = np.broadcast_to(bound, norms.shape)
    return z * (radii / norms)[..., None]


def sample_initial_state(config: SystemConfig, rng: np.random.Generator) -> np.ndarray:
    """Rejection-sample a spawn configuration as an N x n joint state.

    Positions are i.i.d. uniform on the square; the whole configuration is
    redrawn until every pairwise distance reaches ``min_initial_separation``,
    which keeps the accepted distribution exchangeable across agents.
    Higher state coordinates (velocities) start at zero.

    Rounds are drawn and tested ``SPAWN_BLOCK_ROUNDS`` at a time, in one
    generator call per block (the last block is cut at the round budget); the
    first valid round of a block is accepted, and the rest of the block stays
    consumed.
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
    first, second = pair_indices(n_agents)
    for rounds in range(0, _MAX_REJECTION_ROUNDS, SPAWN_BLOCK_ROUNDS):
        k = min(SPAWN_BLOCK_ROUNDS, _MAX_REJECTION_ROUNDS - rounds)
        pos = rng.uniform(0.0, side, size=(k, n_agents, 2))
        sq = np.take(pos, first, axis=1) - np.take(pos, second, axis=1)
        sq *= sq
        ok = (sq[..., 0] + sq[..., 1] >= sep * sep).all(axis=-1)
        a = int(ok.argmax())
        if ok[a]:
            x = np.zeros((n_agents, config.state_dim))
            x[:, :2] = pos[a]
            return x
    raise SetupError(
        f"initial-state sampling did not terminate in {_MAX_REJECTION_ROUNDS} rounds"
    )
