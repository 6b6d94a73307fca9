"""Seeded Monte Carlo rollouts of the closed loop and per-group margin scores.

Each rollout owns its generator, so records are reproducible from (config,
seed) alone. A batch of rollouts steps in lockstep as R x N x n arrays;
batching changes no rollout's draws or arithmetic, so a rollout's record is
the same alone or in any batch, and an experiment's seeds can be cut into
chunks run serially or on worker processes with identical results. Margins
are always evaluated at the controls the QP actually produced at that step.
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
class RolloutRecord:
    """Verdict of one closed-loop trajectory.

    ``raw_min_margin`` is the minimum weighted margin over all time steps and
    agent pairs; ``violated`` is equivalent to that minimum being negative.
    ``max_control_norm`` feeds the per-step increment bound of the analytic
    certificate. ``trajectory`` is populated only when requested: rows of
    (time, joint state, joint control, min pair margin).
    """

    raw_min_margin: float
    violated: bool
    min_distance: float
    infeasible_steps: int
    seed: int
    max_control_norm: float = 0.0
    trajectory: tuple | None = None


@dataclass(frozen=True)
class GroupRecord:
    """One group of rollouts plus its normalized scores.

    Scores are zero exactly for violated rollouts, otherwise the raw minimum
    margin divided by the group-level normalizer (the largest margin among
    non-violated rollouts), clamped to [0, 1].
    """

    rollouts: tuple[RolloutRecord, ...]
    z_scores: np.ndarray
    x_flags: np.ndarray
    h_tilde_max: float
    theta: float

    def __post_init__(self) -> None:
        z = np.asarray(self.z_scores, dtype=float)
        x = np.asarray(self.x_flags, dtype=int)
        z.setflags(write=False)
        x.setflags(write=False)
        object.__setattr__(self, "z_scores", z)
        object.__setattr__(self, "x_flags", x)


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
        if self.groups < 0:
            raise ConfigError("groups must be >= 0")
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
) -> tuple[RolloutRecord, ...]:
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
    infeasible = np.zeros(len(rngs), dtype=int)
    max_u = np.zeros(len(rngs))
    frames = [] if record_trajectory else None
    t = 0.0
    for k in range(sys_cfg.horizon_steps + 1):
        # np.where(new < old, new, old), not np.minimum: a NaN step value
        # leaves the running extreme as it is.
        step_min = np.min(h_tilde, axis=-1)
        raw_min = np.where(step_min < raw_min, step_min, raw_min)
        step_dist = np.min(table.dist, axis=-1)
        min_dist = np.where(step_dist < min_dist, step_dist, min_dist)
        infeasible += relaxed
        norm = np.max(np.sqrt(np.einsum("...j,...j->...", u, u)), axis=-1)
        max_u = np.where(norm > max_u, norm, max_u)
        if frames is not None:
            frames.append((t, x, u, step_min))
        if k == sys_cfg.horizon_steps:
            break
        x = euler_step(x, u, noise_array(sys_cfg, rngs), sys_cfg.dt, model)
        t += sys_cfg.dt
        table = PairTable(x, params, sys_cfg.noise_bound)
        u, relaxed = _control(x, u, config, model, table, passive)
        h_tilde = table.weighted_margins(u, params.psi)

    return tuple(
        RolloutRecord(
            raw_min_margin=float(raw_min[r]),
            violated=bool(raw_min[r] < 0.0),
            min_distance=float(min_dist[r]),
            infeasible_steps=int(infeasible[r]),
            seed=seed,
            max_control_norm=float(max_u[r]),
            trajectory=(
                tuple((t, xs[r], us[r], float(m[r])) for t, xs, us, m in frames)
                if frames is not None
                else None
            ),
        )
        for r, seed in enumerate(seeds)
    )


def run_rollout(
    config: ExperimentConfig, seed: int, record_trajectory: bool = False
) -> RolloutRecord:
    """One seeded trajectory of the closed loop: ``run_rollouts`` on one seed."""
    return run_rollouts(config, [seed], record_trajectory)[0]


def margin_scores(
    rollouts, theta: float, eps_norm: float
) -> tuple[np.ndarray, np.ndarray, float]:
    """Two-pass normalized scores for one group.

    Pass one finds the normalizer (largest raw margin among non-violated
    rollouts, zero if all violated); pass two maps each rollout to
    raw / max(normalizer, eps_norm), clamped to [0, 1], with violated rollouts
    pinned at zero. Flags mark scores below ``theta``.
    """
    if len(rollouts) == 0:
        raise ValueError("margin_scores requires a non-empty group")
    raw = np.array([r.raw_min_margin for r in rollouts])
    violated = np.array([r.violated for r in rollouts])
    clean = raw[~violated]
    h_tilde_max = float(np.max(clean)) if clean.size else 0.0
    denom = max(h_tilde_max, eps_norm)
    z = np.where(violated, 0.0, np.clip(raw / denom, 0.0, 1.0))
    x_flags = (z < theta).astype(int)
    return z, x_flags, h_tilde_max


def rollout_seed(config: ExperimentConfig, group_index: int, rollout_index: int) -> int:
    """Seed layout: consecutive blocks of P seeds per group above base_seed."""
    return config.base_seed + group_index * config.rollouts_per_group + rollout_index


def _fold_groups(config: ExperimentConfig, rollouts) -> list[GroupRecord]:
    """Score consecutive blocks of P rollouts, in index order, as groups."""
    p = config.rollouts_per_group
    groups = []
    for start in range(0, len(rollouts), p):
        group = tuple(rollouts[start : start + p])
        z, x_flags, h_tilde_max = margin_scores(group, config.theta, config.eps_norm)
        groups.append(
            GroupRecord(
                rollouts=group,
                z_scores=z,
                x_flags=x_flags,
                h_tilde_max=h_tilde_max,
                theta=config.theta,
            )
        )
    return groups


def run_group(
    config: ExperimentConfig, group_index: int, record_trajectory: bool = False
) -> GroupRecord:
    """Run one group of P rollouts as one lockstep batch and score it."""
    seeds = [rollout_seed(config, group_index, p) for p in range(config.rollouts_per_group)]
    return _fold_groups(config, run_rollouts(config, seeds, record_trajectory))[0]


def run_experiment(
    config: ExperimentConfig,
    jobs: int = 1,
    record_trajectory: bool = False,
    pool: Executor | None = None,
) -> list[GroupRecord]:
    """All groups of the experiment, as ``jobs`` chunks of rollouts.

    The G x P seeds, in group order, are cut into ``min(jobs, G * P)``
    near-equal contiguous chunks (a chunk may end inside a group); each chunk
    is one ``run_rollouts`` batch, mapped over ``pool`` when one is given and
    run in this process otherwise. The records are joined in seed order and
    folded into groups of P, so the result is the same for any ``jobs`` and
    any pool.
    """
    seeds = [
        rollout_seed(config, g, p)
        for g in range(config.groups)
        for p in range(config.rollouts_per_group)
    ]
    n_chunks = max(1, min(jobs, len(seeds)))
    bounds = [len(seeds) * k // n_chunks for k in range(n_chunks + 1)]
    # Every chunk holds a seed; with no groups there is no chunk at all.
    chunks = [seeds[a:b] for a, b in zip(bounds, bounds[1:]) if b > a]
    mapper = map if pool is None else pool.map
    batches = mapper(
        run_rollouts, [config] * len(chunks), chunks, [record_trajectory] * len(chunks)
    )
    return _fold_groups(config, [r for batch in batches for r in batch])
