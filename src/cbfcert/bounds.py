"""Empirical statistics and distribution-free violation-probability bounds.

Per group of P rollouts this module computes the empirical violation rate,
the pairwise variance estimator, and three finite-sample bound slacks
(variance-adaptive Bernstein, Hoeffding, scenario). Across groups it builds
the certificate: pooled violation rate, bound-satisfaction fractions, the
analytic union-bound certificate, the per-group statistics and the run's
diagnostics, every section of ``certificate.json`` but its provenance.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class GroupStats:
    """Per-group statistics; the eps_* fields are slacks excluding p_hat."""

    p_hat: float
    sigma2_hat: float
    eps_bernstein: float
    eps_hoeffding: float
    eps_scenario: float
    d_support: int

    @property
    def bernstein_full(self) -> float:
        """Full high-confidence upper bound p_hat + slack on the true violation rate."""
        return self.p_hat + self.eps_bernstein


def empirical_mean(x_flags) -> float:
    """Arithmetic mean of the violation indicators."""
    flags = np.asarray(x_flags, dtype=float)
    if flags.size == 0:
        raise ValueError("empirical_mean requires a non-empty sequence")
    return float(flags.mean())


def pairwise_variance(x_flags) -> float:
    """Mean squared difference over all ordered pairs, 1/(P(P-1)) sum (X_i-X_j)^2.

    Expanding the double sum gives (P * sum(x^2) - sum(x)^2) / (P(P-1)), which
    is evaluated in O(P) and coincides with the unbiased sample variance.
    """
    flags = np.asarray(x_flags, dtype=float)
    p = flags.size
    if p < 2:
        raise ValueError("pairwise_variance requires at least two samples")
    total = float(flags.sum())
    total_sq = float((flags * flags).sum())
    return (p * total_sq - total * total) / (p * (p - 1))


def _check_delta(delta: float) -> None:
    if not 0.0 < delta < 1.0:
        raise ConfigError("delta must lie in (0, 1)")


def bernstein_slack(sigma2_hat: float, p: int, delta: float) -> float:
    """Variance-adaptive slack sqrt(2 sigma^2 ln(2/delta) / P) + 7 ln(2/delta) / (3(P-1))."""
    _check_delta(delta)
    if p < 2:
        raise ValueError("bernstein_slack requires P >= 2")
    if sigma2_hat < 0:
        raise ValueError("sigma2_hat must be >= 0")
    log_term = math.log(2.0 / delta)
    return math.sqrt(2.0 * sigma2_hat * log_term / p) + 7.0 * log_term / (3.0 * (p - 1))


def hoeffding_bound(p: int, delta: float) -> float:
    """Distribution-free slack sqrt(ln(2/delta) / (2P)); identical across groups."""
    _check_delta(delta)
    if p < 1:
        raise ValueError("hoeffding_bound requires P >= 1")
    return math.sqrt(math.log(2.0 / delta) / (2.0 * p))


def scenario_bound(d_support: int, p: int, delta: float) -> float:
    """Scenario-optimization slack (d + ln(1/delta)) / P.

    Values above one are reported as-is (a vacuous bound)."""
    _check_delta(delta)
    if not 0 <= d_support <= p:
        raise ValueError("d_support must lie in [0, P]")
    return (d_support + math.log(1.0 / delta)) / p


def count_support(z_scores) -> int:
    """Number of rollouts tied (within 1e-9) at the group's minimal score, minus one.

    A unique minimizer therefore contributes zero support constraints; with
    continuous noise ties almost surely do not occur.
    """
    z = np.asarray(z_scores, dtype=float)
    if z.size == 0:
        raise ValueError("count_support requires a non-empty sequence")
    return int(np.count_nonzero(z <= z.min() + 1e-9) - 1)


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


def satisfaction_stats(
    stats: list[GroupStats] | tuple[GroupStats, ...], pooled: float
) -> tuple[float, float, float]:
    """Fraction of groups whose bound covers the pooled violation rate.

    A group satisfies a bound family when pooled <= p_hat + slack; the pooled
    rate over all groups stands in for the unknown true probability.
    """
    if len(stats) == 0:
        raise ValueError("satisfaction_stats requires at least one group")
    b = sum(pooled <= s.p_hat + s.eps_bernstein for s in stats)
    h = sum(pooled <= s.p_hat + s.eps_hoeffding for s in stats)
    s_ = sum(pooled <= s.p_hat + s.eps_scenario for s in stats)
    n = len(stats)
    return b / n, h / n, s_ / n


def group_stats(x_flags, z_scores, delta: float) -> GroupStats:
    """All per-group statistics for one scored group."""
    flags = np.asarray(x_flags)
    p = flags.size
    p_hat = empirical_mean(flags)
    sigma2 = pairwise_variance(flags)
    d_support = count_support(z_scores)
    return GroupStats(
        p_hat=p_hat,
        sigma2_hat=sigma2,
        eps_bernstein=bernstein_slack(sigma2, p, delta),
        eps_hoeffding=hoeffding_bound(p, delta),
        eps_scenario=scenario_bound(d_support, p, delta),
        d_support=d_support,
    )


def certificate(config, rollouts, z_scores, x_flags) -> dict:
    """An experiment's certificate from its ``Rollouts`` and (G, P) scores and flags.

    Returns every section of ``certificate.json`` but the provenance, in file
    order: pooled_violation_rate, satisfaction, analytic_delta, groups and
    diagnostics. The CLI reads the first four by position, so a new section
    goes after them. The analytic delta is heuristic: its variance and
    increment inputs use sup||grad h|| over the spawn square and the observed
    maximum control (see :func:`increment_bound`), not bounds over the region
    visited.
    """
    sys_cfg = config.system
    stats = [group_stats(x, z, config.delta) for x, z in zip(x_flags, z_scores)]
    pooled = float(np.mean(x_flags))
    b_sat, h_sat, s_sat = satisfaction_stats(stats, pooled)
    w_bar, side, dt = sys_cfg.noise_bound, sys_cfg.domain_half_width, sys_cfg.dt
    u_max = float(np.max(rollouts.max_control_norm))
    return {
        "pooled_violation_rate": pooled,
        "satisfaction": {"bernstein": b_sat, "hoeffding": h_sat, "scenario": s_sat},
        "analytic_delta": analytic_delta(
            h_min=config.h_min,
            K=sys_cfg.horizon_steps,
            sigma2_step=step_variance(w_bar, side, dt),
            c_increment=increment_bound(w_bar, side, dt, u_max),
            n_pairs=sys_cfg.n_agents * (sys_cfg.n_agents - 1) // 2,
        ),
        "groups": [
            {"group_id": k, **asdict(s), "bernstein_full": s.bernstein_full}
            for k, s in enumerate(stats)
        ],
        # Steps whose constraint polyhedron was empty and that ran on the
        # shared-slack relaxation: the barrier condition did not hold there.
        "diagnostics": {
            "relaxed_steps": int(rollouts.relaxed_steps.sum()),
            "relaxed_rollouts": int(np.count_nonzero(rollouts.relaxed_steps)),
        },
    }
