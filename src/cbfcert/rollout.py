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
from dataclasses import dataclass, field, replace
from typing import Annotated

import numpy as np

from .controller import (
    STATUS_OPTIMAL,
    _constraint_rows,
    fast_control,
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
    (G, P) from ``run_experiment``, which also sets ``score`` and ``flag``
    from ``margin_scores``. ``raw_min_margin`` is the minimum weighted
    margin over all time steps and agent pairs (the rollout is violated when
    it is negative); ``relaxed_steps`` counts the steps that ran on the QP's
    slack relaxation; ``max_control_norm`` feeds the per-step increment bound
    of the analytic certificate. Only a recorded trajectory sets ``states``,
    ``controls`` and ``step_margins``: the joint states, joint controls and
    min pair margins at the K + 1 grid points, shaped (..., K + 1, N, n),
    (..., K + 1, N, m) and (..., K + 1).
    """

    seed: np.ndarray
    raw_min_margin: np.ndarray
    min_distance: np.ndarray
    relaxed_steps: np.ndarray
    max_control_norm: np.ndarray
    score: np.ndarray | None = None
    flag: np.ndarray | None = None
    states: np.ndarray | None = None
    controls: np.ndarray | None = None
    step_margins: np.ndarray | None = None


@dataclass(frozen=True)
class ExperimentConfig:
    groups: Annotated[int, "number of independent rollout groups"] = 100
    rollouts_per_group: Annotated[int, "rollouts P per group (>= 2)"] = 50
    theta: Annotated[float, "violation threshold on normalized scores, in (0, 1)"] = 0.1
    delta: Annotated[float, "confidence level for all bounds, in (0, 1)"] = 0.1
    base_seed: Annotated[int, "rollout p of group g is seeded base_seed + g*P + p"] = 12345
    h_min: Annotated[float, "minimum accepted initial weighted margin"] = 0.05
    eps_norm: Annotated[float, "floor for the per-group score normalizer"] = 1e-9
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
        if self.base_seed + self.groups * self.rollouts_per_group > 2**63:  # int64 seeds
            raise ConfigError("base_seed + groups * rollouts_per_group must be at most 2**63")
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


def _control(config: ExperimentConfig, plant: Plant, x, u_prev, w_bar, passive):
    """(u, relaxed, min margin, min distance) of a batch of rollouts at joint
    states x (R, N, n) with previous controls u_prev (R, N, m) and noise
    bounds w_bar (R,): the joint controls, which ones relaxed, and each
    rollout's min weighted margin at u and min pair distance.

    The batch's constraint systems are built once and go to ``solve_batch``
    whole, which solves every rollout that can bind, together; elsewhere the
    zero control is optimal. ``fast_control`` relaxes the few whose exact
    answer the batch rejects, one at a time, so that the benchmark's tracer,
    which wraps this module's ``fast_control``, counts every relaxation.
    Row r of ``passive`` is rollout r's warm start, updated in place.
    """
    params = config.safety
    table = PairTable(x, params, w_bar)
    a, b = _constraint_rows(u_prev, params, plant, table)
    flat, _, relaxed = solve_batch(a, b, passive)
    # A rejected rollout counts as relaxed when its relaxation needs slack.
    for r in np.flatnonzero(relaxed):
        flat[r], status, _ = fast_control(a[r], b[r])
        relaxed[r] = status != STATUS_OPTIMAL
    u = flat.reshape(u_prev.shape)
    margins = table.weighted_margins(u, params.psi)
    return u, relaxed, np.min(margins, axis=-1), np.min(table.dist, axis=-1)


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
    plant = dynamics_model(sys_cfg)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    w_bar = np.full(len(rngs), sys_cfg.noise_bound) if noise_bound is None else noise_bound
    n_rows = row_count(config.safety, sys_cfg.n_agents, sys_cfg.control_dim)
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
        cold = np.zeros((len(pending), n_rows), dtype=bool)
        u[pending], relaxed[pending], step_min[pending], step_dist[pending] = _control(
            config, plant, x[pending], np.zeros(u[pending].shape), w_bar[pending], cold
        )
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
    frames = []
    for k in range(sys_cfg.horizon_steps + 1):
        # np.where(new < old, new, old), not np.minimum: a NaN step value
        # leaves the running extreme as it is.
        raw_min = np.where(step_min < raw_min, step_min, raw_min)
        min_dist = np.where(step_dist < min_dist, step_dist, min_dist)
        relaxed_steps += relaxed
        norm = np.max(np.sqrt(np.einsum("...j,...j->...", u, u)), axis=-1)
        max_u = np.where(norm > max_u, norm, max_u)
        if record_trajectory:
            frames.append((x, u, step_min))
        if k == sys_cfg.horizon_steps:
            break
        if k % NOISE_BLOCK_STEPS == 0:
            noise = noise_array(sys_cfg, rngs, w_bar)
        x = euler_step(x, u, noise[:, k % NOISE_BLOCK_STEPS], sys_cfg.dt, plant)
        u, relaxed, step_min, step_dist = _control(config, plant, x, u, w_bar, passive)
    states, controls, step_margins = [np.stack(f, axis=1) for f in zip(*frames)] or [None] * 3
    return Rollouts(
        seed=np.array(seeds),
        raw_min_margin=raw_min,
        min_distance=min_dist,
        relaxed_steps=relaxed_steps,
        max_control_norm=max_u,
        states=states,
        controls=controls,
        step_margins=step_margins,
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


def rollout_seed(config: ExperimentConfig, group_index: int, rollout_index):
    """Seed layout: consecutive blocks of P seeds per group above base_seed, each
    below 2**63, so that an array of rollout indices gives int64 seeds."""
    return config.base_seed + group_index * config.rollouts_per_group + rollout_index


def run_group(
    config: ExperimentConfig, group_index: int, record_trajectory: bool = False
) -> Rollouts:
    """The P rollouts of one group, as one lockstep batch."""
    seeds = rollout_seed(config, group_index, np.arange(config.rollouts_per_group))
    return run_rollouts(config, seeds, record_trajectory)


def _run_units(units: list, n_workers: int) -> list:
    """``run_rollouts(*unit)`` for every unit, in unit order.

    At ``n_workers = 0``, and where ``os.fork`` does not exist, the units run
    in this process. Otherwise it forks n = ``min(n_workers, units)`` workers.
    Worker w runs units w, w + n, w + 2n, ... in order until its first
    failing unit, writes the pickled list of (index, result or exception) to
    its own pipe and leaves through ``os._exit``, so nothing the parent had
    buffered is written twice. A worker runs all of its units below the one
    that failed, so the smallest failing index over all workers is the unit
    whose exception a serial run raises, and it is raised; a worker that
    cannot start or dies raises ``WorkerError``. Every worker is reaped on
    every path; on an error or an interrupt the others are killed first.
    """
    n_workers = min(n_workers, len(units))
    if n_workers == 0 or not hasattr(os, "fork"):
        return [run_rollouts(*unit) for unit in units]
    workers = {}  # pid -> read end of its result pipe, until it is reaped
    try:
        for w in range(n_workers):
            fds = ()
            try:
                fds = os.pipe()
                pid = os.fork()
            except OSError as exc:  # EAGAIN, EMFILE, ENOMEM
                for fd in fds:
                    os.close(fd)
                raise WorkerError(f"cannot start a worker process: {exc}") from exc
            result_r, result_w = fds
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

# Row-steps (rollout-steps x constraint rows) of work that each forked worker
# of ``run_experiments`` must get. A second worker adds about 70 ms of CPU to
# a command (its fork, a cold first chunk, its own numpy.random import and
# smaller lockstep batches), or about 36k row-steps at 2 us each. Four times
# that keeps the fixed cost of the workers a command forks under a quarter of
# its CPU. (Measured on a shared 2-CPU x86_64 host.)
_ROW_STEPS_PER_WORKER = 150_000


def run_experiments(configs, jobs: int = 1, record_trajectory: bool = False) -> list[Rollouts]:
    """Every cell's ``Rollouts`` as (G, P) arrays, scores and flags included.

    ``jobs`` is the most worker processes to fork. At ``jobs = 1`` nothing
    forks. Otherwise the command's work, the sum over cells of
    G x P x (horizon_steps + 1) x ``row_count`` row-steps, buys
    ``max(1, work // _ROW_STEPS_PER_WORKER)`` workers, at most ``jobs``, so
    at least one forks and the rollouts never run in the calling process.

    Cells whose configs differ only in ``system.noise_bound`` form one
    stack: their G x P seeds, cell after cell and each in group order, run
    as one sequence of rollouts, each with its own cell's bound. Each stack
    is cut into ``max(ceil(n / stacks), ceil(size / cap))`` near-equal
    contiguous chunks (at most one per rollout; a chunk may end inside a
    group or a cell), where n is that number of workers and cap is the
    larger of ``_BATCH_ROLLOUTS`` and the largest cell. Each chunk is one
    ``run_rollouts`` batch, a work unit of ``_run_units``, which runs all
    units of all stacks at once on ``min(n, units)`` workers. Each stack's
    batches are joined in seed order, every array field alike, and split
    back into its cells, so the result is the same for any ``jobs``.
    """
    stacks = {}
    for i, config in enumerate(configs):
        shared = replace(config, system=replace(config.system, noise_bound=0.0))
        stacks.setdefault(shared, []).append(i)
    sizes = [config.groups * config.rollouts_per_group for config in configs]
    cap = max(_BATCH_ROLLOUTS, *sizes)
    n_workers = 0
    if jobs > 1:
        work = sum(
            size
            * (config.system.horizon_steps + 1)
            * row_count(config.safety, config.system.n_agents, config.system.control_dim)
            for size, config in zip(sizes, configs)
        )
        n_workers = min(jobs, max(1, work // _ROW_STEPS_PER_WORKER))
    per_stack = math.ceil(n_workers / len(stacks))
    plan, units = [], []
    for cells in stacks.values():
        size = sizes[cells[0]]
        seeds = np.tile(rollout_seed(configs[cells[0]], 0, np.arange(size)), len(cells))
        w_bar = np.repeat([configs[i].system.noise_bound for i in cells], size)
        n_chunks = min(len(seeds), max(per_stack, math.ceil(len(seeds) / cap)))
        bounds = [len(seeds) * k // n_chunks for k in range(n_chunks + 1)]
        units += [
            (configs[cells[0]], seeds[a:b], record_trajectory, w_bar[a:b])
            for a, b in zip(bounds, bounds[1:])
        ]
        plan.append((cells, n_chunks))
    batches = iter(_run_units(units, n_workers))

    results = [None] * len(configs)
    for cells, n_chunks in plan:
        parts = [next(batches) for _ in range(n_chunks)]
        joined = {
            name: np.concatenate([getattr(b, name) for b in parts])
            for name, value in vars(parts[0]).items()
            if value is not None
        }
        stop = 0
        for i in cells:
            config, start, stop = configs[i], stop, stop + sizes[i]
            shape = (config.groups, config.rollouts_per_group)
            cut = {name: v[start:stop].reshape(shape + v.shape[1:]) for name, v in joined.items()}
            score, flag = margin_scores(cut["raw_min_margin"], config.theta, config.eps_norm)
            results[i] = Rollouts(**cut, score=score, flag=flag)
    return results


def run_experiment(
    config: ExperimentConfig, jobs: int = 1, record_trajectory: bool = False
) -> Rollouts:
    """All rollouts of one experiment: ``run_experiments`` on one cell, whose
    G x P seeds are cut into ``min(G * P, max(n, ceil(G * P / cap)))``
    chunks for its n workers."""
    return run_experiments([config], jobs, record_trajectory)[0]
