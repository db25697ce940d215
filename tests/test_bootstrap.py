"""PSU bootstrap: conditional moment identities and interval constructions."""
import math

import numpy as np
import pytest

from twostage import (
    BootstrapConfig,
    RatioEstimand,
    TotalEstimand,
    bootstrap_variance,
    percentile_ci,
    resample_wr,
    stratified_proportion_resample,
    studentized_ci,
    substream,
)
from twostage.bootstrap import ReplicateSet, multinomial_weights, replicate_se
from twostage.estimators import ProportionEstimand, StratifiedClusterSample, linearized_values


class TestResampleWr:
    def test_constant_values_degenerate(self):
        z = np.full(8, 3.0)
        (reps,) = resample_wr(z, 100, BootstrapConfig(replicates=200, seed=1), compute_se=True)
        assert np.all(reps.theta_star == 300.0)
        assert bootstrap_variance(reps) == 0.0
        assert np.all(reps.se_star == 0.0)

    def test_conditional_mean_identity(self):
        # E(Zbar*_m | Z) = Zbar, checked by MC within 3 standard errors
        rng = np.random.default_rng(2)
        z = rng.normal(10.0, 2.0, size=25)
        (reps,) = resample_wr(z, 1, BootstrapConfig(replicates=10000, seed=3))
        se = reps.theta_star.std(ddof=1) / math.sqrt(reps.theta_star.size)
        assert abs(reps.theta_star.mean() - z.mean()) < 3 * se

    def test_conditional_variance_identity(self):
        # V(Zbar*_m | Z) = (1/m) * (1/n) * sum (Z_j - Zbar)^2
        rng = np.random.default_rng(4)
        z = rng.normal(0.0, 3.0, size=20)
        m = 20
        (reps,) = resample_wr(z, 1, BootstrapConfig(replicates=100000, seed=5, m=m))
        target = np.sum((z - z.mean()) ** 2) / (m * z.size)
        observed = reps.theta_star.var(ddof=1)
        assert observed == pytest.approx(target, rel=0.03)

    def test_total_bootstrap_variance_tracks_v_wr(self):
        # with the default m = n-1 the bootstrap variance of the total is
        # conditionally unbiased for v_WR
        rng = np.random.default_rng(6)
        n, n_pop = 40, 1000
        z = rng.normal(50.0, 8.0, size=n)
        v_wr = n_pop**2 / n * np.var(z, ddof=1)
        cfg = BootstrapConfig(replicates=40000, seed=7)
        (reps,) = resample_wr(z, n_pop, cfg)
        assert cfg.resolve_m(n) == n - 1
        assert bootstrap_variance(reps) == pytest.approx(v_wr, rel=0.05)

    def test_se_star_matches_replicate_spread_for_totals(self):
        rng = np.random.default_rng(8)
        z = rng.normal(50.0, 8.0, size=50)
        (reps,) = resample_wr(z, 200, BootstrapConfig(replicates=5000, seed=9), compute_se=True)
        assert np.median(reps.se_star) == pytest.approx(reps.theta_star.std(ddof=1), rel=0.10)

    def test_ratio_se_star_raises(self):
        # within-replicate standard errors exist for totals only
        z = np.column_stack([np.arange(1.0, 11.0), np.arange(2.0, 12.0)])
        d_mat = multinomial_weights(substream(11, "bootstrap"), 100, 10, 9)
        with pytest.raises(ValueError, match="totals only"):
            replicate_se(d_mat, z, (d_mat @ z) * (500 / 9), 500, 9, RatioEstimand(0, 1))

    def test_se_star_for_the_totals_only(self):
        # side by side, a total and a ratio share one weight matrix; only the total gets se*
        z = np.column_stack([np.arange(1.0, 11.0), np.arange(2.0, 12.0), np.arange(3.0, 13.0)])
        cfg = BootstrapConfig(replicates=100, seed=11)
        total, ratio = resample_wr(z, 500, cfg, (TotalEstimand(0), RatioEstimand(0, 1)),
                                   compute_se=True)
        (alone,) = resample_wr(z[:, :1], 500, cfg, compute_se=True)
        assert ratio.se_star is None and total.se_star is not None
        assert np.array_equal(total.se_star, alone.se_star)
        assert total.base == 500 * z[:, 0].mean() and ratio.base == pytest.approx(z[:, 1].sum()
                                                                                   / z[:, 2].sum())

    def test_refuses_columns_the_estimands_do_not_read(self):
        z = np.column_stack([np.arange(1.0, 11.0), np.arange(2.0, 12.0)])
        with pytest.raises(ValueError, match="read 1 columns, got 2"):
            resample_wr(z, 500, BootstrapConfig(replicates=100, seed=11))

    def test_determinism_and_m_default(self):
        z = np.arange(1.0, 11.0)
        cfg = BootstrapConfig(replicates=100, seed=12)
        (a,) = resample_wr(z, 10, cfg)
        (b,) = resample_wr(z, 10, cfg)
        assert np.array_equal(a.theta_star, b.theta_star)
        assert cfg.resolve_m(z.size) == 9  # defaults to n - 1

    def test_input_validation(self):
        with pytest.raises(ValueError):
            resample_wr(np.array([1.0]), 10, BootstrapConfig(replicates=100, seed=0))
        with pytest.raises(ValueError):
            BootstrapConfig(replicates=10, seed=0)
        with pytest.raises(ValueError):
            BootstrapConfig(replicates=100, m=1, seed=0)
        with pytest.raises(ValueError):
            BootstrapConfig(replicates=100, alpha=0.7, seed=0)


class TestPercentileCi:
    def test_small_set_quantiles(self):
        reps = ReplicateSet(np.array([-1.0, 0.0, 1.0]), 0.0)
        # type-7 interpolation: Q(1/3) of {-1,0,1} is -1/3
        lo, hi = percentile_ci(reps, 1 / 3)
        assert lo == pytest.approx(-1 / 3)
        assert hi == pytest.approx(1 / 3)

    def test_degenerate_replicates(self):
        reps = ReplicateSet(np.full(100, 2.5), 2.5)
        assert percentile_ci(reps, 0.025) == (2.5, 2.5)

    def test_accepts_mc_replicate_counts(self):
        # the MC harness runs R = 50 replicates at alpha = 0.01
        reps = ReplicateSet(np.arange(50.0), 25.0)
        lo, hi = percentile_ci(reps, 0.01)
        assert lo == pytest.approx(0.49)
        assert hi == pytest.approx(48.51)


class TestStudentizedCi:
    def test_symmetric_pivots_give_symmetric_interval(self):
        theta = np.array([9.0, 9.5, 10.5, 11.0])
        reps = ReplicateSet(theta, 10.0, se_star=np.ones(4))
        lo, hi = studentized_ci(reps, 2.0, 0.25)
        assert lo + hi == pytest.approx(20.0)

    def test_normal_pivot_quantiles_match_normal_ci(self):
        from twostage import normal_ci

        # pivots placed so that the alpha-quantiles are exactly +-1.96
        t = np.linspace(-1.96, 1.96, 4001)
        reps = ReplicateSet(10.0 + t * 1.0, 10.0, se_star=np.ones(t.size))
        lo, hi = studentized_ci(reps, 3.0, 1 / t.size)
        ref_lo, ref_hi = normal_ci(10.0, 9.0, 0.025)
        assert lo == pytest.approx(ref_lo, abs=0.01)
        assert hi == pytest.approx(ref_hi, abs=0.01)

    def test_rejects_missing_or_zero_se(self):
        reps = ReplicateSet(np.arange(100.0), 50.0)
        with pytest.raises(ValueError, match="standard errors"):
            studentized_ci(reps, 1.0, 0.025)
        reps = ReplicateSet(np.arange(100.0), 50.0, se_star=np.zeros(100))
        with pytest.raises(ValueError, match="degenerate"):
            studentized_ci(reps, 1.0, 0.025)
        reps = ReplicateSet(np.arange(100.0), 50.0, se_star=np.ones(100))
        with pytest.raises(ValueError, match="base_se"):
            studentized_ci(reps, -1.0, 0.025)

    def test_drops_zero_se_replicates(self):
        theta = np.array([9.0, 9.5, 10.5, 11.0])
        kept = studentized_ci(ReplicateSet(theta, 10.0, se_star=np.ones(4)), 2.0, 0.25)
        # two degenerate replicates far out in the tails must not move the interval
        padded = ReplicateSet(np.append(theta, [-50.0, 70.0]), 10.0,
                              se_star=np.append(np.ones(4), [0.0, 0.0]))
        assert studentized_ci(padded, 2.0, 0.25) == kept

    def test_accepts_zero_base_se(self):
        # a census-like draw has v_SIMP = 0, which the MC harness passes through
        reps = ReplicateSet(np.arange(100.0), 50.0, se_star=np.ones(100))
        assert studentized_ci(reps, 0.0, 0.01) == (50.0, 50.0)


PROP = ProportionEstimand(0, 1.0)


def _toy_sample():
    counts_a, sizes_a = [2.0, 3.0, 1.0, 4.0, 2.0], [4.0, 6.0, 3.0, 7.0, 5.0]
    counts_b, sizes_b = [1.0, 0.0, 2.0, 1.0, 3.0, 2.0], [5.0, 4.0, 6.0, 3.0, 7.0, 6.0]
    return StratifiedClusterSample(
        {"a": 400, "b": 600},
        {"a": np.column_stack([counts_a, sizes_a]), "b": np.column_stack([counts_b, sizes_b])},
    )


class TestStratifiedBootstrap:
    def test_replicate_mean_tracks_estimate(self):
        sample = _toy_sample()
        p_hat = float(PROP.evaluate(sample.totals))
        reps = stratified_proportion_resample(
            sample, PROP, BootstrapConfig(replicates=20000, seed=13)
        )
        assert reps.base == pytest.approx(p_hat)
        se = reps.theta_star.std(ddof=1) / math.sqrt(reps.theta_star.size)
        # resampling a nonlinear statistic: allow a small-sample bias margin
        assert abs(reps.theta_star.mean() - p_hat) < 5 * se + 0.01

    def test_se_star_vanishes_only_on_single_value_replicates(self):
        # se* is 0 up to rounding exactly when every stratum's weights sit on
        # PSUs with one linearized value E = (Y_c - theta* N_i) / N_hat*;
        # stratum b's PSUs 2 and 5 are identical, so such replicates occur
        sample = _toy_sample()
        cfg = BootstrapConfig(replicates=100_000, seed=14)
        reps = stratified_proportion_resample(sample, PROP, cfg)
        rng = substream(cfg.seed, "bootstrap")
        weights = {label: multinomial_weights(rng, cfg.replicates, y.shape[0],
                                              cfg.resolve_m(y.shape[0]))
                   for label, y in sample.subtotals.items()}
        n_hat = sum(sample.n_psus_population[label] / weights[label][0].sum()
                    * (weights[label] @ y[:, 1]) for label, y in sample.subtotals.items())
        single = np.ones(cfg.replicates, dtype=bool)
        for label, y in sample.subtotals.items():
            e = (y[:, 0] - reps.theta_star[:, None] * y[:, 1]) / n_hat[:, None]
            held = weights[label] > 0
            single &= (np.where(held, e, -np.inf).max(axis=1)
                       == np.where(held, e, np.inf).min(axis=1))
        assert np.all(np.isfinite(reps.se_star)) and np.all(reps.se_star >= 0)
        # the weighted mean of equal values rounds, so their dispersion is ~1e-18
        assert np.all(reps.se_star[single] <= 1e-12 * np.median(reps.se_star))
        t = (reps.theta_star - reps.base)[~single] / reps.se_star[~single]
        assert np.all(np.isfinite(t))

    def test_identical_psus_give_zero_se(self):
        sample = StratifiedClusterSample({"a": 50}, {"a": np.array([[2.0, 4.0]] * 3)})
        reps = stratified_proportion_resample(
            sample, PROP, BootstrapConfig(replicates=100, seed=15)
        )
        assert np.all(reps.theta_star == 0.5)
        assert np.all(reps.se_star == 0.0)

    def test_common_m_override(self):
        reps = stratified_proportion_resample(
            _toy_sample(), PROP, BootstrapConfig(replicates=100, m=5, seed=16)
        )
        assert reps.theta_star.size == 100

    def test_deterministic(self):
        cfg = BootstrapConfig(replicates=200, seed=17)
        a = stratified_proportion_resample(_toy_sample(), PROP, cfg)
        b = stratified_proportion_resample(_toy_sample(), PROP, cfg)
        assert np.array_equal(a.theta_star, b.theta_star)
        assert np.array_equal(a.se_star, b.se_star)

    def test_se_star_is_linearized_variance_of_resampled_sample(self):
        # se*_r^2 is v_STWR of the sample in which PSU j of stratum l is
        # repeated D_rj times: m_l rows, p* and N* of that sample
        sample = _toy_sample()
        cfg = BootstrapConfig(replicates=60, seed=18)
        reps = stratified_proportion_resample(sample, PROP, cfg)
        rng = substream(cfg.seed, "bootstrap")
        weights = {label: multinomial_weights(rng, cfg.replicates, y.shape[0],
                                              cfg.resolve_m(y.shape[0]))
                   for label, y in sample.subtotals.items()}
        for r in range(cfg.replicates):
            expanded = StratifiedClusterSample(sample.n_psus_population, {
                label: np.repeat(y, weights[label][r].astype(np.int64), axis=0)
                for label, y in sample.subtotals.items()
            })
            totals = expanded.totals
            assert reps.theta_star[r] == pytest.approx(totals[0] / totals[1], rel=1e-12)
            v = linearized_values(expanded, totals[0] / totals[1], totals[1])[0]
            assert reps.se_star[r] ** 2 == pytest.approx(v, rel=1e-10)
