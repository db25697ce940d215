"""Estimator tests against exact enumeration oracles."""
import numpy as np
import pytest
from oracles import (
    be_outcomes,
    enum_mean_var,
    hh_sir_value,
    ht_be_value,
    ht_si_value,
    si_outcomes,
    sir_outcomes,
)

from twostage import (
    CorrelationEstimand,
    DesignSpec,
    Frame,
    ProportionEstimand,
    RatioEstimand,
    TotalEstimand,
    draw_si,
    ht_total_be,
    mean_total,
    linearized_values,
    normal_ci,
    normal_quantile,
    population_value,
    theoretical_variance,
    variance_estimate,
)
from twostage.designs import FirstStageDraw
from twostage.estimators import StratifiedClusterSample, si_second_stage_variances

SUB = np.array([1.0, 2.0, 3.0, 4.0, 5.0])


def _si_total(sample):
    draw = FirstStageDraw(DesignSpec("SI", n_I=len(sample)), np.array(sample), 5)
    return mean_total(draw, (SUB[list(sample)][:, None], np.zeros((len(sample), 1))))


def _sir_total(seq):
    draw = FirstStageDraw(
        DesignSpec("SIR", n_I=len(seq)), np.array(seq), 5,
        distinct=np.unique(seq), multiplicity=np.ones(len(set(seq))),
    )
    return mean_total(draw, (SUB[list(seq)][:, None], np.zeros((len(seq), 1))))


def _be_total(subset, n_expected):
    draw = FirstStageDraw(DesignSpec("BE", expected_n_I=n_expected), np.array(subset, dtype=np.int64), 5)
    if subset:
        est = (SUB[list(subset)][:, None], np.zeros((len(subset), 1)))
    else:
        est = (np.empty((0, 1)), np.empty((0, 1)))
    return ht_total_be(draw, est)


class TestEnumerationOracles:
    """Exact unbiasedness of points and variance estimators on {1..5}, n=2."""

    def test_si_point_and_variance(self):
        points, weights = [], []
        v_estimates = []
        for sample, w in si_outcomes(5, 2):
            oracle = ht_si_value(SUB, sample, 2)
            total = _si_total(sample)
            assert total.y_hat == pytest.approx(oracle, rel=1e-14)
            points.append(total.y_hat)
            weights.append(w)
            v_estimates.append(variance_estimate(total, "UNBIASED"))
        mean, var = enum_mean_var(points, weights)
        assert mean == pytest.approx(15.0, rel=1e-12)
        assert var == pytest.approx(18.75, rel=1e-12)
        v_mean, _ = enum_mean_var(v_estimates, weights)
        assert v_mean == pytest.approx(var, rel=1e-10)

    def test_sir_point_and_variance(self):
        points, weights, v_estimates = [], [], []
        for seq, w in sir_outcomes(5, 2):
            oracle = hh_sir_value(SUB, seq)
            total = _sir_total(seq)
            assert total.y_hat == pytest.approx(oracle, rel=1e-14)
            points.append(total.y_hat)
            weights.append(w)
            v_estimates.append(variance_estimate(total, "WITH_REPLACEMENT"))
        mean, var = enum_mean_var(points, weights)
        assert mean == pytest.approx(15.0, rel=1e-12)
        assert var == pytest.approx(25.0, rel=1e-12)
        v_mean, _ = enum_mean_var(v_estimates, weights)
        assert v_mean == pytest.approx(var, rel=1e-10)

    def test_be_point_and_conditional_variance(self):
        # v_B is unbiased conditionally on a nonempty sample; the point
        # estimator is unbiased over all outcomes (empty sample counts as 0).
        points, weights = [], []
        v_estimates, v_weights = [], []
        for subset, w in be_outcomes(5, 0.4):
            oracle = ht_be_value(SUB, subset, 2.0)
            total = _be_total(subset, 2.0)
            assert total.y_hat == pytest.approx(oracle, rel=1e-14, abs=1e-14)
            points.append(total.y_hat)
            weights.append(w)
            if subset:
                v_estimates.append(variance_estimate(total, "BERNOULLI"))
                v_weights.append(w)
        mean, var = enum_mean_var(points, weights)
        assert mean == pytest.approx(15.0, rel=1e-12)
        assert var == pytest.approx(82.5, rel=1e-12)
        v_weights = np.asarray(v_weights) / np.sum(v_weights)
        v_mean, _ = enum_mean_var(v_estimates, v_weights)
        assert v_mean == pytest.approx(var, rel=1e-10)

    def test_be_empty_sample_rules(self):
        total = _be_total((), 2.0)
        assert total.y_hat == 0.0
        assert variance_estimate(total, "BERNOULLI") == 0.0


class TestTheoreticalVariance:
    def test_closed_forms_match_enumeration(self, frame_1to5):
        assert theoretical_variance(frame_1to5, DesignSpec("SI", n_I=2)) == pytest.approx(18.75)
        assert theoretical_variance(frame_1to5, DesignSpec("SIR", n_I=2)) == pytest.approx(25.0)
        assert theoretical_variance(frame_1to5, DesignSpec("BE", expected_n_I=2)) == pytest.approx(82.5)

    def test_with_second_stage_variances(self, frame_1to5):
        v_i = np.full(5, 3.0)
        v = theoretical_variance(frame_1to5, DesignSpec("SI", n_I=2), v_i)
        assert v == pytest.approx(18.75 + 25 / 2 * 3.0)

    def test_unsupported_design(self, frame_1to5):
        with pytest.raises(ValueError):
            theoretical_variance(frame_1to5, DesignSpec("STRAT_SI", allocations={"a": 1}))


class TestVarianceEstimateContracts:
    def test_census_both_stages_recovers_total_exactly(self, frame_1to5):
        rng = np.random.default_rng(0)
        draw = draw_si(5, 5, rng)
        total = mean_total(draw, (frame_1to5.subtotals[draw.order], None))
        assert total.y_hat == pytest.approx(15.0, rel=1e-14)

    def test_wr_vs_simplified_factor(self):
        total = _si_total((0, 3))
        v_simp = variance_estimate(total, "SIMPLIFIED")
        v_wr = variance_estimate(total, "WITH_REPLACEMENT")
        assert v_wr == pytest.approx(v_simp / (1 - 0.4))
        assert v_wr >= v_simp

    def test_unbiased_requires_vhat(self):
        draw = FirstStageDraw(DesignSpec("SI", n_I=2), np.array([0, 1]), 5)
        total = mean_total(draw, (SUB[:2][:, None], None))
        with pytest.raises(ValueError, match="v_hat"):
            variance_estimate(total, "UNBIASED")

    def test_single_draw_dispersion_undefined(self):
        draw = FirstStageDraw(DesignSpec("SI", n_I=1), np.array([2]), 5)
        total = mean_total(draw, (SUB[2:3][:, None], np.zeros((1, 1))))
        with pytest.raises(ValueError, match="n_I = 1"):
            variance_estimate(total, "SIMPLIFIED")

    def test_method_design_mismatch(self):
        total = _si_total((0, 1))
        with pytest.raises(ValueError):
            variance_estimate(total, "BERNOULLI")
        with pytest.raises(ValueError):
            variance_estimate(total, "NOPE")

    def test_s2_recomputable_from_z_values(self):
        total = _si_total((1, 4))
        assert total.s2 == pytest.approx(float(np.var(total.z_values, ddof=1)), rel=1e-12)
        assert total.y_hat == pytest.approx(5 * float(total.z_values.mean()), rel=1e-12)


class TestSecondStageVariances:
    def test_closed_form_census_is_zero(self):
        frame = Frame(np.arange(12.0)[:, None], np.array([4, 4, 4]))
        v = si_second_stage_variances(frame, 4, 0)
        assert np.allclose(v, 0.0)

    def test_si_formula(self):
        frame = Frame(np.arange(8.0)[:, None], np.array([4, 4]))
        v = si_second_stage_variances(frame, 2, 0)
        for i in range(2):
            y = frame.values[frame.offsets[i]:frame.offsets[i + 1], 0]
            expected = 16 / 2 * (1 - 0.5) * np.var(y, ddof=1)
            assert v[i] == pytest.approx(expected)

    def test_n0_above_a_psu_rejected(self):
        # the message of every second stage that checks n0 against the PSU sizes
        frame = Frame(np.arange(7.0)[:, None], np.array([4, 3]))
        with pytest.raises(ValueError, match="^n0 exceeds the size of a selected PSU$"):
            si_second_stage_variances(frame, 4, 0)


class TestPluginEstimands:
    def test_ratio_trivials(self):
        assert RatioEstimand(0, 1).evaluate(np.array([3.0, 3.0])) == 1.0
        with pytest.raises(ZeroDivisionError):
            RatioEstimand(0, 1).evaluate(np.array([1.0, 0.0]))

    def test_correlation_of_variable_with_itself(self):
        rng = np.random.default_rng(3)
        vals = rng.normal(size=(40, 1))
        frame = Frame(np.hstack([vals, vals]), np.full(4, 10))
        assert population_value(frame, CorrelationEstimand(0, 1)) == pytest.approx(1.0)

    def test_proportion_all_in_category(self):
        frame = Frame(np.full((12, 1), 2.0), np.array([4, 4, 4]))
        assert population_value(frame, ProportionEstimand(0, 2.0)) == 1.0

    def test_ratio_scale_invariance(self):
        rng = np.random.default_rng(4)
        vals = rng.normal(10.0, 2.0, size=(30, 2))
        frame = Frame(vals, np.full(6, 5))
        scaled = Frame(7.0 * vals, np.full(6, 5))
        est = RatioEstimand(0, 1)
        assert population_value(frame, est) == pytest.approx(
            population_value(scaled, est), rel=1e-12
        )

    def test_total_has_degree_one(self):
        rng = np.random.default_rng(5)
        vals = rng.normal(10.0, 2.0, size=(30, 1))
        frame = Frame(vals, np.full(6, 5))
        scaled = Frame(7.0 * vals, np.full(6, 5))
        est = TotalEstimand(0)
        assert population_value(scaled, est) == pytest.approx(
            7.0 * population_value(frame, est), rel=1e-12
        )

    def test_population_correlation_matches_numpy(self):
        rng = np.random.default_rng(6)
        vals = rng.normal(size=(60, 2))
        vals[:, 1] = 0.5 * vals[:, 0] + vals[:, 1]
        frame = Frame(vals, np.full(12, 5))
        # population correlation over all SSUs
        expected = np.corrcoef(vals[:, 0], vals[:, 1])[0, 1]
        assert population_value(frame, CorrelationEstimand(0, 1)) == pytest.approx(expected)


def _toy_stratified_sample(counts_a, sizes_a, counts_b, sizes_b, pops):
    return StratifiedClusterSample(
        {"a": pops[0], "b": pops[1]},
        {"a": np.column_stack([counts_a, sizes_a]).astype(float),
         "b": np.column_stack([counts_b, sizes_b]).astype(float)},
    )


def _v_stwr(sample):
    """(v_STWR, p_hat, N_hat) of a stratified cluster sample."""
    n_hat = sample.totals[1]
    p_hat = float(ProportionEstimand(0, 1.0).evaluate(sample.totals))
    return float(linearized_values(sample, p_hat, n_hat)[0]), p_hat, n_hat


class TestLinearizedProportion:
    def test_identical_psus_give_zero_dispersion(self):
        sample = _toy_stratified_sample([2, 2], [4, 4], [1, 1], [5, 5], (10, 10))
        v, p_hat, _ = _v_stwr(sample)
        assert v == 0.0
        assert p_hat == pytest.approx((10 / 2 * 4 + 10 / 2 * 2) / (10 / 2 * 8 + 10 / 2 * 10))

    def test_weighted_linearized_values_sum_to_zero(self):
        # at the point estimate the weighted E_i = (Y_ic - p_hat N_i) / N_hat cancel
        sample = _toy_stratified_sample([2, 3], [4, 6], [1, 5], [5, 7], (8, 12))
        _, p_hat, n_hat = _v_stwr(sample)
        acc = 0.0
        for label, y in sample.subtotals.items():
            e = (y[:, 0] - p_hat * y[:, 1]) / n_hat
            acc += sample.n_psus_population[label] / y.shape[0] * e.sum()
        assert abs(acc) < 1e-10

    def test_single_psu_stratum_rejected(self):
        sample = _toy_stratified_sample([2], [4], [1, 5], [5, 7], (8, 12))
        with pytest.raises(ValueError, match="single sampled PSU"):
            _v_stwr(sample)

    def test_single_stratum_reduces_to_wr_form(self):
        counts = np.array([2.0, 3.0, 1.0])
        sizes = np.array([4.0, 6.0, 5.0])
        sample = StratifiedClusterSample({"a": 9}, {"a": np.column_stack([counts, sizes])})
        v, p_hat, n_hat = _v_stwr(sample)
        expected = 81 / 3 * np.var((counts - p_hat * sizes) / n_hat, ddof=1)
        assert v == pytest.approx(expected, rel=1e-12)

    def test_v_stwr_is_exactly_the_sum_of_stratum_dispersions(self):
        # unit weights reproduce sum_l N_l^2/n_l * np.var(E_l, ddof=1) bit for bit
        rng = np.random.default_rng(9)
        for _ in range(200):
            n_l = rng.integers(2, 40, size=3)
            sizes = [rng.integers(1, 9, size=n).astype(float) for n in n_l]
            sample = StratifiedClusterSample(
                {f"s{l}": int(n + rng.integers(0, 50)) for l, n in enumerate(n_l)},
                {f"s{l}": np.column_stack([rng.binomial(sz.astype(np.int64), 0.3), sz])
                 .astype(float) for l, sz in enumerate(sizes)},
            )
            v, p_hat, n_hat = _v_stwr(sample)
            expected = 0.0
            for label, y in sample.subtotals.items():
                e = (y[:, 0] - p_hat * y[:, 1]) / n_hat
                n_pop = sample.n_psus_population[label]
                expected += n_pop**2 / y.shape[0] * float(np.var(e, ddof=1))
            assert v == expected

    def test_enumeration_oracle_toy_frame(self):
        # two strata of three PSUs, two sampled in each: mean of v_STWR over
        # the 9 equally-likely samples tracks the with-replacement target
        # sum_l (N_l^2/n_l) S_El^2 built from the population linearization
        import itertools

        counts = {"a": np.array([2.0, 3.0, 1.0]), "b": np.array([4.0, 0.0, 2.0])}
        sizes = {"a": np.array([4.0, 5.0, 3.0]), "b": np.array([6.0, 4.0, 5.0])}
        p_true = (counts["a"].sum() + counts["b"].sum()) / (sizes["a"].sum() + sizes["b"].sum())
        n_true = sizes["a"].sum() + sizes["b"].sum()
        target = 0.0
        for label in ("a", "b"):
            e_pop = (counts[label] - p_true * sizes[label]) / n_true
            target += 9 / 2 * np.var(e_pop, ddof=1)

        v_values = []
        for sa, sb in itertools.product(itertools.combinations(range(3), 2), repeat=2):
            sample = _toy_stratified_sample(
                counts["a"][list(sa)], sizes["a"][list(sa)],
                counts["b"][list(sb)], sizes["b"][list(sb)], (3, 3),
            )
            v_values.append(_v_stwr(sample)[0])
        assert np.mean(v_values) == pytest.approx(target, rel=0.05)

    def test_proportion_estimate_census_is_exact(self):
        sample = _toy_stratified_sample([2, 3, 1], [4, 5, 3], [4, 0, 2], [6, 4, 5], (3, 3))
        _, p_hat, n_hat = _v_stwr(sample)
        assert p_hat == pytest.approx(12 / 27)
        assert n_hat == pytest.approx(27.0)


class TestNormalQuantilesAndCi:
    def test_quantile_against_published_value(self):
        assert abs(normal_quantile(0.975) - 1.95996398454) < 1e-8

    def test_quantile_against_scipy(self):
        from scipy.stats import norm

        for p in (1e-9, 1e-4, 0.025, 0.31, 0.5, 0.69, 0.975, 0.9999, 1 - 1e-9):
            assert abs(normal_quantile(p) - norm.ppf(p)) < 1e-8

    @pytest.mark.parametrize("p, bits", [
        (0.975, "0x1.f5c0331eeff82p+0"),
        (0.95, "0x1.a515209676ab8p+0"),
        (0.9, "0x1.4813c36e26d34p+0"),
        (0.995, "0x1.49b4c64d6915fp+1"),
        (1e-9, "-0x1.7fdc11f44b5a7p+2"),
    ])
    def test_quantile_keeps_its_bits(self, p, bits):
        """The intervals of every recorded output rest on these quantiles, bit for bit."""
        assert normal_quantile(p).hex() == bits

    def test_quantile_refuses_nan(self):
        # the standard library's inv_cdf returns nan for a nan p
        with pytest.raises(ValueError):
            normal_quantile(float("nan"))

    def test_ci_examples(self):
        lo, hi = normal_ci(0.0, 1.0, 0.025)
        assert lo == pytest.approx(-1.95996, abs=1e-4)
        assert hi == pytest.approx(1.95996, abs=1e-4)
        assert normal_ci(5.0, 0.0, 0.1) == (5.0, 5.0)
        # alpha is a one-tailed error rate in (0, 0.5), as every caller checks it
        with pytest.raises(ValueError, match=r"alpha must be in \(0, 0.5\)"):
            normal_ci(2.0, 4.0, 0.5)

    def test_ci_rejects_negative_variance(self):
        with pytest.raises(ValueError):
            normal_ci(0.0, -1.0, 0.025)
        with pytest.raises(ValueError):
            normal_quantile(0.0)
