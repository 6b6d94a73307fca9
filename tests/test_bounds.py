import json

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cbfcert.bounds import (
    GROUP_COLUMNS,
    analytic_delta,
    bernstein_slack,
    certificate,
    count_support,
    hoeffding_bound,
    increment_bound,
    pairwise_variance,
    scenario_bound,
    step_variance,
)
from cbfcert.errors import ConfigError
from cbfcert.rollout import ExperimentConfig, Rollouts
from cbfcert.sysmodel import SystemConfig
from oracles import group_stats_one_by_one, pairwise_variance_definition

binary_lists = st.lists(st.integers(0, 1), min_size=2, max_size=120)


def mp_bernstein_slack(sigma2, p, delta):
    with mp.workdps(40):
        log_term = mp.log(2 / mp.mpf(delta))
        return float(mp.sqrt(2 * mp.mpf(sigma2) * log_term / p) + 7 * log_term / (3 * (p - 1)))


# The config of hand-built cells' certificates: of it, the group statistics and
# the satisfaction read only delta (0.1 here).
CONFIG = ExperimentConfig(groups=1, rollouts_per_group=2)


def cell_certificate(x_flags, z_scores=None, config=CONFIG):
    """certificate of (G, P) flags and scores, on a run record that no group
    statistic reads; distinct scores by default."""
    flags = np.asarray(x_flags, dtype=bool)
    if z_scores is None:
        z_scores = np.broadcast_to(np.linspace(0.0, 1.0, flags.shape[-1]), flags.shape)
    ones = np.ones(flags.shape)
    rollouts = Rollouts(
        seed=np.zeros(flags.shape, dtype=int),
        raw_min_margin=ones,
        min_distance=ones,
        relaxed_steps=np.zeros(flags.shape, dtype=int),
        max_control_norm=ones,
        score=np.asarray(z_scores, dtype=float),
        flag=flags,
    )
    return certificate(config, rollouts)


class TestEmpiricalMean:
    def test_quarter(self):
        assert cell_certificate([[1, 0, 0, 0]])["groups"][0]["p_hat"] == 0.25

    def test_all_zero(self):
        assert cell_certificate([[0] * 10])["groups"][0]["p_hat"] == 0.0

    def test_two_of_fifty(self):
        groups = cell_certificate([[1, 1] + [0] * 48, [1] * 50])["groups"]
        assert [g["p_hat"] for g in groups] == [pytest.approx(0.04), 1.0]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            cell_certificate(np.zeros((1, 0)))


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

    def test_reduces_each_row(self):
        rows = [[1, 0, 0, 0], [1, 1, 0, 0], [1, 1, 1, 1]]
        assert pairwise_variance(rows).tolist() == [pairwise_variance(r) for r in rows]

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
        flags = [[0] * 50, [1] * 15 + [0] * 35]
        zero, stats = cell_certificate(flags)["groups"]
        assert zero["bernstein_full"] == bernstein_slack(0.0, 50, 0.1)
        assert stats["bernstein_full"] == stats["p_hat"] + stats["eps_bernstein"]
        assert stats["bernstein_full"] == pytest.approx(
            0.3 + bernstein_slack(pairwise_variance(flags[1]), 50, 0.1)
        )

    def test_elementwise_over_variances(self):
        sigma2 = np.array([0.0, 0.1, 0.25])
        assert bernstein_slack(sigma2, 50, 0.1).tolist() == [
            bernstein_slack(float(s), 50, 0.1) for s in sigma2
        ]

    def test_guards(self):
        with pytest.raises(ValueError):
            bernstein_slack(np.array([0.1, -1e-3]), 50, 0.1)
        with pytest.raises(ValueError):
            bernstein_slack(0.1, 1, 0.1)
        with pytest.raises(ConfigError):
            bernstein_slack(np.array([0.1]), 50, 1.0)

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
        with pytest.raises(ValueError):
            scenario_bound(np.array([0, 3, 51]), 50, 0.1)

    def test_elementwise_over_support_counts(self):
        d = np.array([0, 1, 50])
        assert scenario_bound(d, 50, 0.1).tolist() == [scenario_bound(int(k), 50, 0.1) for k in d]


class TestCountSupport:
    def test_distinct_scores(self):
        assert count_support([0.5, 0.7, 0.2, 0.9]) == 0

    def test_tie_at_minimum(self):
        assert count_support([0.2, 0.2, 0.8]) == 1

    def test_all_tied(self):
        assert count_support([0.3] * 5) == 4

    def test_reduces_each_row(self):
        scores = [[0.5, 0.7, 0.2, 0.9], [0.2, 0.2, 0.8, 0.9], [0.3] * 4]
        assert count_support(scores).tolist() == [0, 1, 3]

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
    # 50 rollouts per group at delta = 0.1: a group without flags has
    # Bernstein slack 0.1427, Hoeffding 0.1731 and, with no tie at its minimal
    # score, scenario slack 0.0461.
    def test_equal_rates_all_satisfied(self):
        flags = [[1] * 10 + [0] * 40] * 3
        assert cell_certificate(flags)["satisfaction"] == {
            "bernstein": 1.0, "hoeffding": 1.0, "scenario": 1.0,
        }

    def test_counts_groups_at_or_above_the_pooled_rate(self):
        # Pooled 0.5: the flag-free group's bounds all fall short of it.
        flags = [[0] * 50, [1] * 25 + [0] * 25, [1] * 50]
        satisfaction = cell_certificate(flags)["satisfaction"]
        assert list(satisfaction.values()) == [2 / 3, 2 / 3, 2 / 3]

    def test_families_differ_on_one_group(self):
        # Pooled 0.1 lies between the flag-free group's scenario slack and its
        # Bernstein and Hoeffding slacks.
        flags = [[0] * 50, [1] * 10 + [0] * 40]
        satisfaction = cell_certificate(flags)["satisfaction"]
        assert satisfaction == {"bernstein": 1.0, "hoeffding": 1.0, "scenario": 0.5}

    def test_ties_at_the_minimum_widen_the_scenario_bound(self):
        # All 50 scores tied: 49 support constraints make the slack vacuous.
        flags = [[0] * 50, [1] * 10 + [0] * 40]
        scores = [[0.5] * 50, np.linspace(0.0, 1.0, 50)]
        cert = cell_certificate(flags, scores)
        assert cert["groups"][0]["d_support"] == 49
        assert cert["satisfaction"]["scenario"] == 1.0


class TestGroupStats:
    def test_fields_are_consistent(self):
        flags = [1, 0, 0, 1, 0]
        z = [0.0, 0.5, 0.9, 0.05, 0.7]
        (s,) = cell_certificate([flags], [z])["groups"]
        assert s["p_hat"] == pytest.approx(0.4)
        assert s["sigma2_hat"] == pytest.approx(pairwise_variance(flags))
        assert s["eps_bernstein"] == pytest.approx(bernstein_slack(s["sigma2_hat"], 5, 0.1))
        assert s["eps_hoeffding"] == pytest.approx(hoeffding_bound(5, 0.1))
        assert s["d_support"] == 0
        assert s["eps_scenario"] == pytest.approx(scenario_bound(0, 5, 0.1))


@st.composite
def scored_cells(draw):
    """(G, P) flags and scores with flag-free, all-flagged and mixed groups,
    and scores drawn from a small grid so that ties at the minimum, exact or
    within 1e-9, are common."""
    g, p = draw(st.integers(1, 6)), draw(st.integers(2, 40))
    row = lambda elements: st.lists(elements, min_size=p, max_size=p)
    flags = draw(
        st.lists(
            st.one_of(st.just([0] * p), st.just([1] * p), row(st.integers(0, 1))),
            min_size=g,
            max_size=g,
        )
    )
    grid = st.sampled_from([0.0, 5e-10, 1e-9, 0.25, 0.5, 1.0])
    scores = draw(st.lists(row(st.one_of(grid, st.floats(0.0, 1.0))), min_size=g, max_size=g))
    delta = draw(st.sampled_from([0.01, 0.05, 0.1, 0.5]))
    return np.array(flags, dtype=bool), np.array(scores), delta


class TestAgainstOneByOne:
    @given(scored_cells())
    @example((np.array([[True, False]]), np.array([[0.3, 0.3]]), 0.1))  # G = 1, P = 2
    @example((np.ones((3, 4), dtype=bool), np.zeros((3, 4)), 0.05))
    @example((np.zeros((2, 5), dtype=bool), np.array([[0.0, 1e-9, 2e-9, 0.5, 1.0]] * 2), 0.1))
    @settings(max_examples=150, deadline=None)
    def test_groups_and_satisfaction_equal_the_scalar_code(self, cell):
        flags, scores, delta = cell
        config = ExperimentConfig(groups=1, rollouts_per_group=2, delta=delta)
        cert = cell_certificate(flags, scores, config)
        groups, satisfaction = group_stats_one_by_one(flags, scores, delta)
        assert cert["groups"] == groups
        assert cert["satisfaction"] == satisfaction
        # Equal values of other types would print other bytes.
        assert json.dumps(cert["groups"]) == json.dumps(groups)
        assert json.dumps(cert["satisfaction"]) == json.dumps(satisfaction)


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
        score=SCORES,
        flag=FLAGS,
    )

    def cert(self):
        return certificate(self.CONFIG, self.ROLLOUTS)

    def test_sections_in_file_order(self):
        cert = self.cert()
        assert list(cert) == [
            "pooled_violation_rate", "satisfaction", "analytic_delta", "groups", "diagnostics",
        ]
        assert list(cert["satisfaction"]) == ["bernstein", "hoeffding", "scenario"]
        for group in cert["groups"]:
            assert list(group) == ["group_id", *GROUP_COLUMNS, "bernstein_full"]

    def test_groups_are_group_stats(self):
        groups = self.cert()["groups"]
        assert groups == group_stats_one_by_one(self.FLAGS, self.SCORES, self.CONFIG.delta)[0]
        assert [g["p_hat"] for g in groups] == [0.5, 0.0]
        assert [g["d_support"] for g in groups] == [0, 1]  # group 1 ties at 0.3

    def test_pooled_rate_and_satisfaction(self):
        cert = self.cert()
        assert cert["pooled_violation_rate"] == 0.25
        _, satisfaction = group_stats_one_by_one(self.FLAGS, self.SCORES, self.CONFIG.delta)
        assert cert["satisfaction"] == satisfaction

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
        bound = flags.mean(axis=1) + bernstein_slack(pairwise_variance(flags), P, delta)
        assert np.mean(p_true <= bound) >= 1 - delta
