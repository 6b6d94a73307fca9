"""Seeded Monte Carlo rollouts of the closed loop and per-group margin scores.

Each rollout owns its generator, so its results are reproducible from
(config, seed) alone. A batch of rollouts steps in lockstep as R x N x n
arrays; batching changes no rollout's draws or arithmetic, so a rollout's
results are the same alone or in any batch, and an experiment's seeds can be
cut into chunks run serially or on worker processes with identical results.
Margins are always evaluated at the controls the QP actually produced at that
step.
"""

from __future__ import annotations

from concurrent.futures import Executor
from dataclasses import dataclass, field

import numpy as np

from .controller import STATUS_OPTIMAL, _rhs_vector, fast_control, needs_solve, row_count
from .errors import ConfigError, SetupError
from .safety import PairTable, SafetyParams
from .sysmodel import (
    SystemConfig,
    dynamics_model,
    euler_step,
    noise_array,
    sample_initial_state,
)

_MAX_INITIAL_DRAWS = 1_000


@dataclass(frozen=True)
class Rollouts:
    """Verdicts of closed-loop trajectories, one entry per seed.

    Every array leads with the batch shape: (R,) from ``run_rollouts``,
    (G, P) from ``run_experiment``. ``raw_min_margin`` is the minimum
    weighted margin over all time steps and agent pairs (the rollout is
    violated when it is negative); ``relaxed_steps`` counts the steps that
    ran on the QP's slack relaxation; ``max_control_norm`` feeds the per-step
    increment bound of the analytic certificate. ``trajectory`` is populated
    only when requested: the joint states, joint controls and min pair
    margins at the K + 1 grid points, shaped (..., K + 1, N, n),
    (..., K + 1, N, m) and (..., K + 1).
    """

    seed: np.ndarray
    raw_min_margin: np.ndarray
    min_distance: np.ndarray
    relaxed_steps: np.ndarray
    max_control_norm: np.ndarray
    trajectory: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None


@dataclass(frozen=True)
class ExperimentConfig:
    groups: int = 100
    rollouts_per_group: int = 50
    theta: float = 0.1
    delta: float = 0.1
    base_seed: int = 12345
    h_min: float = 0.05
    eps_norm: float = 1e-9
    system: SystemConfig = field(default_factory=SystemConfig)
    safety: SafetyParams = field(default_factory=SafetyParams)

    def __post_init__(self) -> None:
        if not 0.0 < self.theta < 1.0:
            raise ConfigError("theta must lie in (0, 1)")
        if not 0.0 < self.delta < 1.0:
            raise ConfigError("delta must lie in (0, 1)")
        if self.groups < 1:
            raise ConfigError("groups must be >= 1")
        if self.rollouts_per_group < 2:
            raise ConfigError("rollouts_per_group must be >= 2")
        if self.base_seed < 0:
            raise ConfigError("base_seed must be >= 0")
        if self.h_min < 0:
            raise ConfigError("h_min must be >= 0")
        if self.eps_norm <= 0:
            raise ConfigError("eps_norm must be > 0")
        # Spawn configurations must start inside the safe set.
        if self.system.min_initial_separation < self.safety.d_min:
            raise ConfigError(
                "min_initial_separation must be at least d_min so that "
                "initial states are safe"
            )
        if self.safety.psi > 0 and self.system.control_dim != self.system.state_dim:
            raise ConfigError("psi coupling requires control_dim == state_dim")


def _spawn(config: ExperimentConfig, model, rng: np.random.Generator):
    """Draw initial configurations until every pair's weighted margin,
    evaluated at the QP's own first control, reaches ``h_min``.

    Returns the accepted state, that first control and its status.
    """
    sys_cfg = config.system
    params = config.safety
    u_zero = np.zeros((sys_cfg.n_agents, sys_cfg.control_dim))
    for _ in range(_MAX_INITIAL_DRAWS):
        x = sample_initial_state(sys_cfg, rng)
        table = PairTable(x, params, sys_cfg.noise_bound)
        u, status, _ = fast_control(x, u_zero, params, model, table)
        h_tilde = table.weighted_margins(u, params.psi)
        if float(np.min(h_tilde)) >= config.h_min:
            return x, u, status
    raise SetupError(
        f"no initial configuration reached margin {config.h_min} "
        f"in {_MAX_INITIAL_DRAWS} draws"
    )


def _control(
    x: np.ndarray,
    u_prev: np.ndarray,
    config: ExperimentConfig,
    model,
    table: PairTable,
    passive: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The joint controls of a batch of rollouts, and which ones relaxed.

    The right-hand sides are computed for the whole batch; ``fast_control``
    runs only for the rollouts that ``needs_solve`` flags, its own early-exit
    test, and every other rollout gets the zero control that test returns.
    Row r of ``passive`` is rollout r's warm start, updated in place.
    """
    params = config.safety
    b = _rhs_vector(x, u_prev, params, model, table)
    u = np.zeros(u_prev.shape)
    relaxed = np.zeros(len(x), dtype=bool)
    for r in np.flatnonzero(needs_solve(b)):
        u[r], status, _ = fast_control(x[r], u_prev[r], params, model, table[r], passive[r])
        relaxed[r] = status != STATUS_OPTIMAL
    return u, relaxed


def run_rollouts(
    config: ExperimentConfig, seeds, record_trajectory: bool = False
) -> Rollouts:
    """Simulate one seeded trajectory of the closed loop per seed, in lockstep.

    Each rollout spawns on its own (see ``_spawn``). The batch then
    alternates control solve, noise draw and Euler step for
    ``horizon_steps`` steps, recording margins at each of the
    ``horizon_steps + 1`` grid points. Each rollout's QP starts from the
    rows active at its previous solve (see ``fast_control``).
    """
    sys_cfg = config.system
    params = config.safety
    model = dynamics_model(sys_cfg)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    spawned = [_spawn(config, model, rng) for rng in rngs]
    x = np.stack([s[0] for s in spawned])
    u = np.stack([s[1] for s in spawned])
    relaxed = np.array([s[2] != STATUS_OPTIMAL for s in spawned])
    table = PairTable(x, params, sys_cfg.noise_bound)
    h_tilde = table.weighted_margins(u, params.psi)
    passive = np.zeros(
        (len(rngs), row_count(params, sys_cfg.n_agents, sys_cfg.control_dim)), dtype=bool
    )

    raw_min = np.full(len(rngs), np.inf)
    min_dist = np.full(len(rngs), np.inf)
    relaxed_steps = np.zeros(len(rngs), dtype=int)
    max_u = np.zeros(len(rngs))
    frames = [] if record_trajectory else None
    for k in range(sys_cfg.horizon_steps + 1):
        # np.where(new < old, new, old), not np.minimum: a NaN step value
        # leaves the running extreme as it is.
        step_min = np.min(h_tilde, axis=-1)
        raw_min = np.where(step_min < raw_min, step_min, raw_min)
        step_dist = np.min(table.dist, axis=-1)
        min_dist = np.where(step_dist < min_dist, step_dist, min_dist)
        relaxed_steps += relaxed
        norm = np.max(np.sqrt(np.einsum("...j,...j->...", u, u)), axis=-1)
        max_u = np.where(norm > max_u, norm, max_u)
        if frames is not None:
            frames.append((x, u, step_min))
        if k == sys_cfg.horizon_steps:
            break
        x = euler_step(x, u, noise_array(sys_cfg, rngs), sys_cfg.dt, model)
        table = PairTable(x, params, sys_cfg.noise_bound)
        u, relaxed = _control(x, u, config, model, table, passive)
        h_tilde = table.weighted_margins(u, params.psi)

    return Rollouts(
        seed=np.array(seeds),
        raw_min_margin=raw_min,
        min_distance=min_dist,
        relaxed_steps=relaxed_steps,
        max_control_norm=max_u,
        trajectory=(
            None if frames is None else tuple(np.stack(f, axis=1) for f in zip(*frames))
        ),
    )


def run_rollout(config: ExperimentConfig, seed: int, record_trajectory: bool = False) -> Rollouts:
    """One seeded trajectory of the closed loop: ``run_rollouts`` on one seed."""
    return run_rollouts(config, [seed], record_trajectory)


def margin_scores(raw, theta: float, eps_norm: float) -> tuple[np.ndarray, np.ndarray]:
    """Normalized scores and flags of groups laid out along the last axis.

    A group's normalizer is its largest non-violated raw margin (zero if all
    are violated, NaN if any such margin is NaN). Each rollout scores
    raw / max(normalizer, eps_norm), clamped to [0, 1], with violated
    rollouts pinned at zero. Flags mark scores below ``theta``.
    """
    violated = raw < 0.0
    h_tilde_max = np.max(np.where(violated, 0.0, raw), axis=-1, keepdims=True)
    z = np.where(violated, 0.0, np.clip(raw / np.maximum(h_tilde_max, eps_norm), 0.0, 1.0))
    return z, (z < theta).astype(int)


def rollout_seed(config: ExperimentConfig, group_index: int, rollout_index: int) -> int:
    """Seed layout: consecutive blocks of P seeds per group above base_seed."""
    return config.base_seed + group_index * config.rollouts_per_group + rollout_index


def run_group(
    config: ExperimentConfig, group_index: int, record_trajectory: bool = False
) -> Rollouts:
    """The P rollouts of one group, as one lockstep batch."""
    return run_rollouts(
        config,
        [rollout_seed(config, group_index, p) for p in range(config.rollouts_per_group)],
        record_trajectory,
    )


def run_experiment(
    config: ExperimentConfig,
    jobs: int = 1,
    record_trajectory: bool = False,
    pool: Executor | None = None,
) -> tuple[Rollouts, np.ndarray, np.ndarray]:
    """All rollouts of the experiment as (G, P) arrays, with their scores and flags.

    The G x P seeds, in group order, are cut into ``min(jobs, G * P)``
    near-equal contiguous chunks (a chunk may end inside a group); each chunk
    is one ``run_rollouts`` batch, mapped over ``pool`` when one is given and
    run in this process otherwise. The batches are joined in seed order, so
    the result is the same for any ``jobs`` and any pool.
    """
    shape = (config.groups, config.rollouts_per_group)
    seeds = [rollout_seed(config, g, p) for g in range(shape[0]) for p in range(shape[1])]
    n_chunks = min(jobs, len(seeds))
    bounds = [len(seeds) * k // n_chunks for k in range(n_chunks + 1)]
    chunks = [seeds[a:b] for a, b in zip(bounds, bounds[1:])]
    mapper = map if pool is None else pool.map
    batches = list(
        mapper(run_rollouts, [config] * n_chunks, chunks, [record_trajectory] * n_chunks)
    )

    def joined(parts) -> np.ndarray:
        return np.concatenate(parts).reshape(shape + parts[0].shape[1:])

    rollouts = Rollouts(
        seed=joined([b.seed for b in batches]),
        raw_min_margin=joined([b.raw_min_margin for b in batches]),
        min_distance=joined([b.min_distance for b in batches]),
        relaxed_steps=joined([b.relaxed_steps for b in batches]),
        max_control_norm=joined([b.max_control_norm for b in batches]),
        trajectory=(
            tuple(map(joined, zip(*(b.trajectory for b in batches))))
            if record_trajectory
            else None
        ),
    )
    z, x_flags = margin_scores(rollouts.raw_min_margin, config.theta, config.eps_norm)
    return rollouts, z, x_flags
