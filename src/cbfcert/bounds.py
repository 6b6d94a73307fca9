"""Empirical statistics and distribution-free violation-probability bounds.

Per group of P rollouts this module computes the empirical violation rate,
the pairwise variance estimator, and three finite-sample bound slacks
(variance-adaptive Bernstein, Hoeffding, scenario), every group of a cell in
one array pass over its (G, P) flags and scores. Across groups it builds the
certificate: pooled violation rate, bound-satisfaction fractions, the
analytic union-bound certificate, the per-group statistics and the run's
diagnostics, every section of ``certificate.json`` but its provenance.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError

# Per-group statistics in groups.csv column order, after group_id; the eps_*
# columns are slacks excluding p_hat. certificate.json's groups add
# bernstein_full = p_hat + eps_bernstein.
GROUP_COLUMNS = ("p_hat", "sigma2_hat", "eps_bernstein", "eps_hoeffding", "eps_scenario", "d_support")


def pairwise_variance(x_flags):
    """Mean squared difference over all ordered pairs, 1/(P(P-1)) sum (X_i-X_j)^2,
    of each group laid out along the last axis.

    Expanding the double sum gives (P * sum(x^2) - sum(x)^2) / (P(P-1)), which
    is evaluated in O(P) and coincides with the unbiased sample variance.
    """
    flags = np.asarray(x_flags, dtype=float)
    p = flags.shape[-1]
    if p < 2:
        raise ValueError("pairwise_variance requires at least two samples")
    total = flags.sum(axis=-1)
    total_sq = (flags * flags).sum(axis=-1)
    return (p * total_sq - total * total) / (p * (p - 1))


def _check_delta(delta: float) -> None:
    if not 0.0 < delta < 1.0:
        raise ConfigError("delta must lie in (0, 1)")


def bernstein_slack(sigma2_hat, p: int, delta: float):
    """Variance-adaptive slack sqrt(2 sigma^2 ln(2/delta) / P) + 7 ln(2/delta) / (3(P-1)),
    elementwise over an array of variances or for a scalar one."""
    _check_delta(delta)
    if p < 2:
        raise ValueError("bernstein_slack requires P >= 2")
    if np.any(np.asarray(sigma2_hat) < 0):
        raise ValueError("sigma2_hat must be >= 0")
    log_term = math.log(2.0 / delta)
    return np.sqrt(2.0 * sigma2_hat * log_term / p) + 7.0 * log_term / (3.0 * (p - 1))


def hoeffding_bound(p: int, delta: float) -> float:
    """Distribution-free slack sqrt(ln(2/delta) / (2P)); identical across groups."""
    _check_delta(delta)
    if p < 1:
        raise ValueError("hoeffding_bound requires P >= 1")
    return math.sqrt(math.log(2.0 / delta) / (2.0 * p))


def scenario_bound(d_support, p: int, delta: float):
    """Scenario-optimization slack (d + ln(1/delta)) / P, elementwise over an
    array of support counts or for a scalar one.

    Values above one are reported as-is (a vacuous bound)."""
    _check_delta(delta)
    d = np.asarray(d_support)
    if np.any((d < 0) | (d > p)):
        raise ValueError("d_support must lie in [0, P]")
    return (d_support + math.log(1.0 / delta)) / p


def count_support(z_scores):
    """Number of rollouts tied (within 1e-9) at the group's minimal score, minus
    one, for each group laid out along the last axis.

    A unique minimizer therefore contributes zero support constraints; with
    continuous noise ties almost surely do not occur.
    """
    z = np.asarray(z_scores, dtype=float)
    if z.shape[-1] == 0:
        raise ValueError("count_support requires a non-empty sequence")
    return np.count_nonzero(z <= z.min(axis=-1, keepdims=True) + 1e-9, axis=-1) - 1


def analytic_delta(
    *, h_min: float, K: int, sigma2_step: float, c_increment: float, n_pairs: int
) -> float:
    """Union-bound certificate n_pairs * exp(-h_min^2 / (2 K sigma^2 + (2/3) c h_min)).

    sigma2_step bounds the per-step conditional variance of the margin
    increment and c_increment the increment itself. Degenerates to 1
    (vacuous) when the initial margin is zero, and to 0 when the margin is
    positive but both the variance and increment bounds vanish.
    """
    if h_min == 0.0:
        return 1.0
    denom = 2.0 * K * sigma2_step + (2.0 / 3.0) * c_increment * h_min
    if denom == 0.0:
        return 0.0
    return min(1.0, n_pairs * math.exp(-(h_min**2) / denom))


def sup_grad_norm(domain_side: float) -> float:
    """Supremum of ||grad h|| over the spawn square: 2 * side * sqrt(2)."""
    return 2.0 * domain_side * math.sqrt(2.0)


def step_variance(w_bar: float, domain_side: float, dt: float) -> float:
    """Per-step variance bound 4 w_bar^2 sup||grad h||^2 dt^2."""
    return 4.0 * w_bar**2 * sup_grad_norm(domain_side) ** 2 * dt**2


def increment_bound(
    w_bar: float, domain_side: float, dt: float, u_max_observed: float
) -> float:
    """Per-step margin increment bound dt * sup||grad h|| * (2 u_max + 2 w_bar).

    Heuristic, not a proven bound: sup||grad h|| is taken over the spawn
    square, which agents leave during a rollout, and u_max is the largest
    control norm observed in a calibration or production run rather than a
    bound on every control the loop can produce.
    """
    return dt * sup_grad_norm(domain_side) * (2.0 * u_max_observed + 2.0 * w_bar)


def certificate(config, rollouts) -> dict:
    """An experiment's certificate from its ``Rollouts``, scores and flags set.

    Returns every section of ``certificate.json`` but the provenance, in file
    order: pooled_violation_rate, satisfaction, analytic_delta, groups and
    diagnostics. The analytic delta is heuristic: its variance and increment
    inputs use sup||grad h|| over the spawn square and the observed maximum
    control (see :func:`increment_bound`), not bounds over the region visited.
    """
    sys_cfg = config.system
    flags = np.asarray(rollouts.flag, dtype=float)
    p = flags.shape[-1]
    sigma2 = pairwise_variance(flags)
    p_hat = flags.mean(axis=-1)
    d_support = count_support(rollouts.score)
    eps = {
        "bernstein": bernstein_slack(sigma2, p, config.delta),
        "hoeffding": np.full_like(p_hat, hoeffding_bound(p, config.delta)),
        "scenario": scenario_bound(d_support, p, config.delta),
    }
    pooled = float(np.mean(rollouts.flag))
    # A group satisfies a bound family when pooled <= p_hat + slack; the
    # pooled rate over all groups stands in for the unknown true probability.
    satisfaction = {
        name: float(np.count_nonzero(pooled <= p_hat + slack) / p_hat.size)
        for name, slack in eps.items()
    }
    columns = (p_hat, sigma2, *eps.values(), d_support, p_hat + eps["bernstein"])
    w_bar, side, dt = sys_cfg.noise_bound, sys_cfg.domain_half_width, sys_cfg.dt
    u_max = float(np.max(rollouts.max_control_norm))
    return {
        "pooled_violation_rate": pooled,
        "satisfaction": satisfaction,
        "analytic_delta": analytic_delta(
            h_min=config.h_min,
            K=sys_cfg.horizon_steps,
            sigma2_step=step_variance(w_bar, side, dt),
            c_increment=increment_bound(w_bar, side, dt, u_max),
            n_pairs=sys_cfg.n_agents * (sys_cfg.n_agents - 1) // 2,
        ),
        "groups": [
            {"group_id": k, **dict(zip((*GROUP_COLUMNS, "bernstein_full"), row))}
            for k, row in enumerate(zip(*(column.tolist() for column in columns)))
        ],
        # Steps whose constraint polyhedron was empty and that ran on the
        # shared-slack relaxation: the barrier condition did not hold there.
        "diagnostics": {
            "relaxed_steps": int(rollouts.relaxed_steps.sum()),
            "relaxed_rollouts": int(np.count_nonzero(rollouts.relaxed_steps)),
        },
    }
