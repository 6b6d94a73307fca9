
from dataclasses import asdict, fields

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbfcert.bounds import (
    GroupStats,
    analytic_delta,
    bernstein_slack,
    certificate,
    count_support,
    empirical_mean,
    group_stats,
    hoeffding_bound,
    increment_bound,
    pairwise_variance,
    satisfaction_stats,
    scenario_bound,
    step_variance,
)
from cbfcert.errors import ConfigError
from cbfcert.rollout import ExperimentConfig, Rollouts
from cbfcert.sysmodel import SystemConfig
from oracles import pairwise_variance_definition

binary_lists = st.lists(st.integers(0, 1), min_size=2, max_size=120)


def mp_bernstein_slack(sigma2, p, delta):
    with mp.workdps(40):
        log_term = mp.log(2 / mp.mpf(delta))
        return float(mp.sqrt(2 * mp.mpf(sigma2) * log_term / p) + 7 * log_term / (3 * (p - 1)))


class TestEmpiricalMean:
    def test_quarter(self):
        assert empirical_mean([1, 0, 0, 0]) == pytest.approx(0.25)

    def test_all_zero(self):
        assert empirical_mean([0] * 10) == 0.0

    def test_two_of_fifty(self):
        assert empirical_mean([1, 1] + [0] * 48) == pytest.approx(0.04)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            empirical_mean([])


class TestPairwiseVariance:
    def test_single_one_of_four(self):
        # Three discordant pairs out of twelve ordered: 3 / (4*3) * ... = 0.25.
        assert pairwise_variance([1, 0, 0, 0]) == pytest.approx(0.25)

    def test_constant_sequences(self):
        assert pairwise_variance([1, 1, 1]) == 0.0
        assert pairwise_variance([0, 0]) == 0.0

    def test_two_of_four(self):
        assert pairwise_variance([1, 1, 0, 0]) == pytest.approx(1.0 / 3.0)

    def test_requires_two_samples(self):
        with pytest.raises(ValueError):
            pairwise_variance([1])

    @given(binary_lists)
    @settings(max_examples=120, deadline=None)
    def test_equals_definition_and_unbiased_variance(self, flags):
        ours = pairwise_variance(flags)
        assert ours == pytest.approx(pairwise_variance_definition(flags), abs=1e-12)
        assert ours == pytest.approx(float(np.var(flags, ddof=1)), abs=1e-12)

    def test_bounded_for_binary_data(self):
        # Max at a balanced sequence: P/(4(P-1)) = 0.2551 for P = 50.
        worst = pairwise_variance([1] * 25 + [0] * 25)
        assert worst == pytest.approx(25 * 25 / (50 * 49))
        assert worst <= 0.2552


class TestBernstein:
    def test_zero_variance_slack(self):
        assert bernstein_slack(0.0, 50, 0.1) == pytest.approx(0.142653, abs=5e-5)
        assert bernstein_slack(0.0, 50, 0.1) == pytest.approx(
            mp_bernstein_slack(0, 50, 0.1), abs=1e-12
        )

    def test_full_bound_is_additive(self):
        zero = group_stats([0] * 50, np.linspace(0.2, 1.0, 50), 0.1)
        assert zero.bernstein_full == bernstein_slack(0.0, 50, 0.1)
        flags = [1] * 15 + [0] * 35
        stats = group_stats(flags, np.linspace(0.0, 1.0, 50), 0.1)
        assert stats.bernstein_full == stats.p_hat + stats.eps_bernstein
        assert stats.bernstein_full == pytest.approx(
            0.3 + bernstein_slack(pairwise_variance(flags), 50, 0.1)
        )

    def test_quarter_variance_slack(self):
        assert bernstein_slack(0.25, 50, 0.1) == pytest.approx(
            mp_bernstein_slack(0.25, 50, 0.1), abs=1e-12
        )
        assert bernstein_slack(0.25, 50, 0.1) == pytest.approx(0.315736, abs=5e-5)

    def test_tighter_than_hoeffding_at_zero_variance(self):
        assert bernstein_slack(0.0, 50, 0.1) < hoeffding_bound(50, 0.1)

    @given(
        sigma2=st.floats(0, 0.25),
        p1=st.integers(2, 200),
        p2=st.integers(2, 200),
        d1=st.floats(0.01, 0.99),
        d2=st.floats(0.01, 0.99),
    )
    @settings(max_examples=80, deadline=None)
    def test_monotone_in_samples_and_confidence(self, sigma2, p1, p2, d1, d2):
        lo_p, hi_p = sorted((p1, p2))
        assert bernstein_slack(sigma2, hi_p, 0.1) <= bernstein_slack(sigma2, lo_p, 0.1)
        lo_d, hi_d = sorted((d1, d2))
        assert bernstein_slack(sigma2, 50, hi_d) <= bernstein_slack(sigma2, 50, lo_d)


class TestHoeffding:
    def test_table_value(self):
        assert hoeffding_bound(50, 0.1) == pytest.approx(0.17308, abs=5e-5)

    def test_quadrupling_samples_halves_bound(self):
        assert hoeffding_bound(200, 0.1) == pytest.approx(hoeffding_bound(50, 0.1) / 2)

    def test_delta_domain_guard(self):
        with pytest.raises(ConfigError):
            hoeffding_bound(50, 2.0)
        with pytest.raises(ConfigError):
            hoeffding_bound(50, 0.0)

    @given(p1=st.integers(1, 500), p2=st.integers(1, 500))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_samples(self, p1, p2):
        lo, hi = sorted((p1, p2))
        assert hoeffding_bound(hi, 0.1) <= hoeffding_bound(lo, 0.1)


class TestScenario:
    def test_no_support_constraints(self):
        assert scenario_bound(0, 50, 0.1) == pytest.approx(0.046052, abs=5e-5)

    def test_one_support_constraint(self):
        assert scenario_bound(1, 50, 0.1) == pytest.approx(0.066052, abs=5e-5)

    def test_vacuous_when_all_support(self):
        assert scenario_bound(50, 50, 0.1) > 1.0

    def test_domain_guards(self):
        with pytest.raises(ValueError):
            scenario_bound(-1, 50, 0.1)
        with pytest.raises(ValueError):
            scenario_bound(51, 50, 0.1)


class TestCountSupport:
    def test_distinct_scores(self):
        assert count_support([0.5, 0.7, 0.2, 0.9]) == 0

    def test_tie_at_minimum(self):
        assert count_support([0.2, 0.2, 0.8]) == 1

    def test_all_tied(self):
        assert count_support([0.3] * 5) == 4

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            count_support([])


class TestAnalyticDelta:
    def test_zero_margin_is_vacuous(self):
        inputs = dict(h_min=0.0, K=500, sigma2_step=0.01, c_increment=1.0, n_pairs=3)
        assert analytic_delta(**inputs) == 1.0

    def test_worked_example(self):
        inputs = dict(h_min=1.0, K=500, sigma2_step=0.0288, c_increment=1.0, n_pairs=1)
        with mp.workdps(40):
            expected = float(mp.e ** (-1 / (2 * 500 * mp.mpf("0.0288") + mp.mpf(2) / 3)))
        assert analytic_delta(**inputs) == pytest.approx(expected, abs=1e-12)
        assert analytic_delta(**inputs) == pytest.approx(0.96663, abs=1e-4)

    def test_step_variance_matches_worked_example(self):
        # w = 0.03, dt = 0.1, side 10: 4 w^2 (2 L sqrt(2))^2 dt^2 = 0.0288.
        assert step_variance(0.03, 10.0, 0.1) == pytest.approx(0.0288, abs=1e-12)

    def test_degenerate_denominator_with_positive_margin(self):
        inputs = dict(h_min=0.5, K=10, sigma2_step=0.0, c_increment=0.0, n_pairs=2)
        assert analytic_delta(**inputs) == 0.0

    def test_long_horizons_degrade_to_vacuous(self):
        vals = [
            analytic_delta(h_min=1.0, K=k, sigma2_step=0.0288, c_increment=1.0, n_pairs=1)
            for k in (1, 10, 100, 1000, 100000)
        ]
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))
        assert vals[-1] > 0.999

    @given(
        h1=st.floats(0.01, 5.0),
        h2=st.floats(0.01, 5.0),
        s1=st.floats(0.0, 1.0),
        s2=st.floats(0.0, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_margin_and_variance(self, h1, h2, s1, s2):
        lo_h, hi_h = sorted((h1, h2))
        make = lambda h, s: analytic_delta(h_min=h, K=50, sigma2_step=s, c_increment=0.5, n_pairs=1)
        assert make(hi_h, 0.1) <= make(lo_h, 0.1) + 1e-15
        lo_s, hi_s = sorted((s1, s2))
        assert make(1.0, lo_s) <= make(1.0, hi_s) + 1e-15

    def test_monotone_in_horizon_and_increment_on_grids(self):
        ks = [1, 5, 20, 100, 500, 5000]
        vals_k = [
            analytic_delta(h_min=1.0, K=k, sigma2_step=0.01, c_increment=0.5, n_pairs=2)
            for k in ks
        ]
        assert all(a <= b + 1e-15 for a, b in zip(vals_k, vals_k[1:]))
        cs = [0.0, 0.1, 0.5, 1.0, 5.0, 50.0]
        vals_c = [
            analytic_delta(h_min=1.0, K=50, sigma2_step=0.01, c_increment=c, n_pairs=2)
            for c in cs
        ]
        assert all(a <= b + 1e-15 for a, b in zip(vals_c, vals_c[1:]))


class TestSatisfaction:
    def make_stats(self, p_hats, eps=0.1):
        return [
            GroupStats(
                p_hat=p,
                sigma2_hat=0.0,
                eps_bernstein=eps,
                eps_hoeffding=eps,
                eps_scenario=eps,
                d_support=0,
            )
            for p in p_hats
        ]

    def test_equal_rates_all_satisfied(self):
        stats = self.make_stats([0.2, 0.2, 0.2])
        assert satisfaction_stats(stats, 0.2) == (1.0, 1.0, 1.0)

    def test_zero_slack_counts_upside_groups(self):
        stats = self.make_stats([0.1, 0.3, 0.5], eps=0.0)
        b, h, s = satisfaction_stats(stats, 0.3)
        assert b == h == s == pytest.approx(2.0 / 3.0)

    def test_requires_groups(self):
        with pytest.raises(ValueError):
            satisfaction_stats([], 0.1)


class TestGroupStats:
    def test_fields_are_consistent(self):
        flags = [1, 0, 0, 1, 0]
        z = [0.0, 0.5, 0.9, 0.05, 0.7]
        s = group_stats(flags, z, delta=0.1)
        assert s.p_hat == pytest.approx(0.4)
        assert s.sigma2_hat == pytest.approx(pairwise_variance(flags))
        assert s.eps_bernstein == pytest.approx(bernstein_slack(s.sigma2_hat, 5, 0.1))
        assert s.eps_hoeffding == pytest.approx(hoeffding_bound(5, 0.1))
        assert s.d_support == 0
        assert s.eps_scenario == pytest.approx(scenario_bound(0, 5, 0.1))


class TestCertificate:
    # One hand-built cell of 2 groups x 4 rollouts: three of its rollouts
    # relaxed six steps between them, and the largest control norm is 0.7.
    # h_min = 3 keeps the analytic delta below one.
    CONFIG = ExperimentConfig(
        groups=2,
        rollouts_per_group=4,
        h_min=3.0,
        system=SystemConfig(n_agents=3, noise_bound=0.05, domain_half_width=2.5),
    )
    FLAGS = np.array([[1, 0, 0, 1], [0, 0, 0, 0]], dtype=bool)
    SCORES = np.array([[0.0, 0.5, 0.9, 0.05], [0.3, 0.3, 0.8, 1.0]])
    ROLLOUTS = Rollouts(
        seed=np.arange(8).reshape(2, 4),
        raw_min_margin=np.ones((2, 4)),
        min_distance=np.ones((2, 4)),
        relaxed_steps=np.array([[0, 2, 0, 0], [1, 0, 0, 3]]),
        max_control_norm=np.array([[0.1, 0.7, 0.2, 0.3], [0.4, 0.0, 0.5, 0.6]]),
    )

    def cert(self):
        return certificate(self.CONFIG, self.ROLLOUTS, self.SCORES, self.FLAGS)

    def test_sections_in_file_order(self):
        cert = self.cert()
        assert list(cert) == [
            "pooled_violation_rate", "satisfaction", "analytic_delta", "groups", "diagnostics",
        ]
        assert list(cert["satisfaction"]) == ["bernstein", "hoeffding", "scenario"]
        names = [f.name for f in fields(GroupStats)]
        for group in cert["groups"]:
            assert list(group) == ["group_id", *names, "bernstein_full"]

    def test_groups_are_group_stats(self):
        groups = self.cert()["groups"]
        assert len(groups) == 2
        for k, (x, z) in enumerate(zip(self.FLAGS, self.SCORES)):
            s = group_stats(x, z, self.CONFIG.delta)
            assert groups[k] == {"group_id": k, **asdict(s), "bernstein_full": s.bernstein_full}
        assert [g["p_hat"] for g in groups] == [0.5, 0.0]
        assert [g["d_support"] for g in groups] == [0, 1]  # group 1 ties at 0.3

    def test_pooled_rate_and_satisfaction(self):
        cert = self.cert()
        assert cert["pooled_violation_rate"] == 0.25
        stats = [group_stats(x, z, self.CONFIG.delta) for x, z in zip(self.FLAGS, self.SCORES)]
        assert tuple(cert["satisfaction"].values()) == satisfaction_stats(stats, 0.25)

    def test_analytic_delta_from_the_largest_control(self):
        expected = analytic_delta(
            h_min=3.0,
            K=50,
            sigma2_step=step_variance(0.05, 2.5, 0.1),
            c_increment=increment_bound(0.05, 2.5, 0.1, 0.7),
            n_pairs=3,
        )
        assert 0.0 < expected < 1.0
        assert self.cert()["analytic_delta"] == expected

    def test_diagnostics_count_relaxed_steps_and_rollouts(self):
        diagnostics = self.cert()["diagnostics"]
        assert diagnostics == {"relaxed_steps": 6, "relaxed_rollouts": 3}
        assert all(type(v) is int for v in diagnostics.values())


class TestCoverageSmoke:
    def test_bernstein_covers_synthetic_bernoulli(self, rng):
        # Desk-scale version of the coverage gate: 2000 groups of P = 50
        # Bernoulli(0.05) flags; the bound must cover p at rate >= 1 - delta.
        p_true, delta, P = 0.05, 0.1, 50
        flags = rng.random((2000, P)) < p_true
        covered = 0
        for row in flags:
            p_hat = row.mean()
            slack = bernstein_slack(pairwise_variance(row), P, delta)
            covered += p_true <= p_hat + slack
        assert covered / 2000 >= 1 - delta
