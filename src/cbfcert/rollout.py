"""Seeded Monte Carlo rollouts of the closed loop and per-group margin scores.

Each rollout owns its generator, so its results are reproducible from
(config, seed) alone. A batch of rollouts steps in lockstep as R x N x n
arrays; batching changes no rollout's draws or arithmetic, so a rollout's
results are the same alone or in any batch, and an experiment's seeds can be
cut into chunks run serially or on forked worker processes with identical
results. Margins are always evaluated at the controls the QP actually
produced at that step.
"""

from __future__ import annotations

import contextlib
import math
import os
import pickle
import signal
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .controller import (
    STATUS_OPTIMAL,
    _constraint_rows,
    fast_control,
    needs_solve,
    row_count,
    solve_batch,
)
from .errors import ConfigError, SetupError, WorkerError
from .safety import PairTable, SafetyParams
from .sysmodel import (
    NOISE_BLOCK_STEPS,
    Plant,
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


def _control(
    u_prev: np.ndarray,
    config: ExperimentConfig,
    plant: Plant,
    table: PairTable,
    passive: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The joint controls of a batch of rollouts, and which ones relaxed.

    The batch's constraint systems are built once, and ``solve_batch``
    solves every rollout that ``needs_solve`` flags, together; elsewhere the
    zero control is optimal. ``fast_control`` relaxes the few whose exact
    answer the batch rejects, one at a time, so that the benchmark's tracer,
    which wraps this module's ``fast_control``, counts every relaxation.
    Row r of ``passive`` is rollout r's warm start, updated in place.
    """
    a, b = _constraint_rows(u_prev, config.safety, plant, table)
    rows = np.flatnonzero(needs_solve(b))
    u = np.zeros(u_prev.shape)
    flat = u.reshape(len(u), a.shape[-1])
    flat[rows], rejected = solve_batch(a, b, passive, rows)
    relaxed = np.zeros(len(u_prev), dtype=bool)
    for r in rows[rejected]:
        flat[r], status, _ = fast_control(a[r], b[r], passive[r])
        relaxed[r] = status != STATUS_OPTIMAL
    return u, relaxed


def run_rollouts(
    config: ExperimentConfig, seeds, record_trajectory: bool = False, noise_bound=None
) -> Rollouts:
    """Simulate one seeded trajectory of the closed loop per seed, in lockstep.

    ``noise_bound`` holds one noise bound per seed, which then stands in for
    the config's ``system.noise_bound``; None gives every rollout the config's.

    The batch spawns in rounds: each redraws every pending rollout's initial
    state, takes its first control from ``_control`` (zero previous control,
    cold start) and keeps the rollouts whose min weighted margin there reaches
    ``h_min``, within ``_MAX_INITIAL_DRAWS`` draws per rollout. The batch then
    alternates control solve and Euler step for ``horizon_steps`` steps,
    recording margins at each of the ``horizon_steps + 1`` grid points, each
    QP starting from the rows active at the rollout's previous solve. Noise
    is drawn ``NOISE_BLOCK_STEPS`` steps at a time, at steps 0, B, 2B, ...
    """
    sys_cfg = config.system
    params = config.safety
    plant = dynamics_model(sys_cfg)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    w_bar = np.full(len(rngs), sys_cfg.noise_bound) if noise_bound is None else noise_bound
    n_rows = row_count(params, sys_cfg.n_agents, sys_cfg.control_dim)
    x = np.empty((len(rngs), sys_cfg.n_agents, sys_cfg.state_dim))
    u = np.empty((len(rngs), sys_cfg.n_agents, sys_cfg.control_dim))
    relaxed = np.empty(len(rngs), dtype=bool)
    # Each step's min weighted margin and min pair distance per rollout; at
    # step 0 they come from the spawn round that accepted the rollout.
    step_min = np.empty(len(rngs))
    step_dist = np.empty(len(rngs))
    pending = np.arange(len(rngs))
    for _ in range(_MAX_INITIAL_DRAWS):
        x[pending] = [sample_initial_state(sys_cfg, rngs[r]) for r in pending]
        table = PairTable(x[pending], params, w_bar[pending])
        cold = np.zeros((len(pending), n_rows), dtype=bool)
        u[pending], relaxed[pending] = _control(
            np.zeros(u[pending].shape), config, plant, table, cold
        )
        step_min[pending] = np.min(table.weighted_margins(u[pending], params.psi), axis=-1)
        step_dist[pending] = np.min(table.dist, axis=-1)
        pending = pending[~(step_min[pending] >= config.h_min)]
        if not pending.size:
            break
    else:
        raise SetupError(
            f"no initial configuration reached margin {config.h_min} "
            f"in {_MAX_INITIAL_DRAWS} draws"
        )
    passive = np.zeros((len(rngs), n_rows), dtype=bool)

    raw_min = np.full(len(rngs), np.inf)
    min_dist = np.full(len(rngs), np.inf)
    relaxed_steps = np.zeros(len(rngs), dtype=int)
    max_u = np.zeros(len(rngs))
    frames = [] if record_trajectory else None
    for k in range(sys_cfg.horizon_steps + 1):
        # np.where(new < old, new, old), not np.minimum: a NaN step value
        # leaves the running extreme as it is.
        raw_min = np.where(step_min < raw_min, step_min, raw_min)
        min_dist = np.where(step_dist < min_dist, step_dist, min_dist)
        relaxed_steps += relaxed
        norm = np.max(np.sqrt(np.einsum("...j,...j->...", u, u)), axis=-1)
        max_u = np.where(norm > max_u, norm, max_u)
        if frames is not None:
            frames.append((x, u, step_min))
        if k == sys_cfg.horizon_steps:
            break
        if k % NOISE_BLOCK_STEPS == 0:
            noise = noise_array(sys_cfg, rngs, w_bar)
        x = euler_step(x, u, noise[:, k % NOISE_BLOCK_STEPS], sys_cfg.dt, plant)
        table = PairTable(x, params, w_bar)
        u, relaxed = _control(u, config, plant, table, passive)
        step_min = np.min(table.weighted_margins(u, params.psi), axis=-1)
        step_dist = np.min(table.dist, axis=-1)

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


def _run_units(units: list, jobs: int) -> list:
    """``run_rollouts(*unit)`` for every unit, in unit order.

    At ``jobs > 1`` with more than one unit it forks n = ``min(jobs, units)``
    workers. Worker w runs units w, w + n, w + 2n, ... in order until its
    first failing unit, writes the pickled list of (index, result or
    exception) to its own pipe and leaves through ``os._exit``, so nothing
    the parent had buffered is written twice. A worker runs all of its units
    below the one that failed, so the smallest failing index over all
    workers is the unit whose exception a serial run raises, and it is
    raised. Every worker is reaped on every path; on an error, an interrupt
    or a dead worker the remaining ones are killed first. Where ``os.fork``
    does not exist the units run in this process.
    """
    n_workers = min(jobs, len(units))
    if n_workers < 2 or not hasattr(os, "fork"):
        return [run_rollouts(*unit) for unit in units]
    workers = {}  # pid -> read end of its result pipe, until it is reaped
    try:
        for w in range(n_workers):
            result_r, result_w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(result_r)
                os.close(result_w)
                raise
            if pid == 0:
                code = 1
                try:
                    done = []
                    for i in range(w, len(units), n_workers):
                        try:
                            done.append((i, run_rollouts(*units[i])))
                        except Exception as exc:
                            done.append((i, exc))
                            break
                    with open(result_w, "wb") as fh:
                        pickle.dump(done, fh, pickle.HIGHEST_PROTOCOL)
                    code = 0
                finally:
                    os._exit(code)
            os.close(result_w)
            workers[pid] = open(result_r, "rb")
        results = {}
        for pid in list(workers):
            data = workers[pid].read()
            status = os.waitpid(pid, 0)[1]
            workers.pop(pid).close()
            if status != 0:
                raise WorkerError(
                    f"worker process {pid} died before returning its results "
                    f"(exit status {os.waitstatus_to_exitcode(status)})"
                )
            results.update(pickle.loads(data))
    finally:
        for pid, fh in workers.items():
            fh.close()
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    for i in sorted(results):
        if isinstance(results[i], Exception):
            raise results[i]
    return [results[i] for i in range(len(units))]


# No lockstep batch of ``run_experiments`` holds more rollouts than this or
# the command's largest cell, whichever is more, so stacking cells does not
# raise a command's peak memory above that of its largest cell.
_BATCH_ROLLOUTS = 1024


def run_experiments(
    configs, jobs: int = 1, record_trajectory: bool = False
) -> list[tuple[Rollouts, np.ndarray, np.ndarray]]:
    """Every cell's rollouts as (G, P) arrays, with their scores and flags, per cell.

    Cells whose configs differ only in ``system.noise_bound`` form one
    stack: their G x P seeds, cell after cell and each in group order, run
    as one sequence of rollouts, each with its own cell's bound. Each stack
    is cut into ``max(ceil(jobs / stacks), ceil(size / cap))`` near-equal
    contiguous chunks (at most one per rollout; a chunk may end inside a
    group or a cell), where cap is the larger of ``_BATCH_ROLLOUTS`` and the
    largest cell. Each chunk is one ``run_rollouts`` batch, a work unit of
    ``_run_units``, which runs all units of all stacks at once. Each stack's
    batches are joined in seed order and split back into its cells, so the
    result is the same for any ``jobs``.
    """
    stacks = {}
    for i, config in enumerate(configs):
        shared = replace(config, system=replace(config.system, noise_bound=0.0))
        stacks.setdefault(shared, []).append(i)
    sizes = [config.groups * config.rollouts_per_group for config in configs]
    cap = max(_BATCH_ROLLOUTS, *sizes)
    per_stack = math.ceil(jobs / len(stacks))
    plan, units = [], []
    for cells in stacks.values():
        seeds = [
            rollout_seed(configs[i], g, p)
            for i in cells
            for g in range(configs[i].groups)
            for p in range(configs[i].rollouts_per_group)
        ]
        w_bar = np.repeat([configs[i].system.noise_bound for i in cells], [sizes[i] for i in cells])
        n_chunks = min(len(seeds), max(per_stack, math.ceil(len(seeds) / cap)))
        bounds = [len(seeds) * k // n_chunks for k in range(n_chunks + 1)]
        units += [
            (configs[cells[0]], seeds[a:b], record_trajectory, w_bar[a:b])
            for a, b in zip(bounds, bounds[1:])
        ]
        plan.append((cells, n_chunks))
    batches = iter(_run_units(units, jobs))

    names = [f.name for f in fields(Rollouts) if f.name != "trajectory"]
    results = [None] * len(configs)
    for cells, n_chunks in plan:
        parts = [next(batches) for _ in range(n_chunks)]
        arrays = [np.concatenate([getattr(b, name) for b in parts]) for name in names]
        if record_trajectory:
            arrays += [np.concatenate(t) for t in zip(*(b.trajectory for b in parts))]
        stop = 0
        for i in cells:
            config, start, stop = configs[i], stop, stop + sizes[i]
            shape = (config.groups, config.rollouts_per_group)
            cut = [v[start:stop].reshape(shape + v.shape[1:]) for v in arrays]
            rollouts = Rollouts(*cut[: len(names)], trajectory=tuple(cut[len(names) :]) or None)
            z, x_flags = margin_scores(rollouts.raw_min_margin, config.theta, config.eps_norm)
            results[i] = (rollouts, z, x_flags)
    return results


def run_experiment(
    config: ExperimentConfig, jobs: int = 1, record_trajectory: bool = False
) -> tuple[Rollouts, np.ndarray, np.ndarray]:
    """All rollouts of one experiment: ``run_experiments`` on one cell, whose
    G x P seeds are cut into ``min(G * P, max(jobs, ceil(G * P / cap)))``
    chunks."""
    return run_experiments([config], jobs, record_trajectory)[0]
