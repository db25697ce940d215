"""Sampling-engine distribution checks (fixed seeds, Monte Carlo tolerances)."""
import itertools
import math

import numpy as np
import pytest
from scipy.stats import chi2

from twostage import (
    Frame,
    draw_be,
    draw_si,
    draw_sir,
    draw_stratified_si,
    substream,
)
from twostage.designs import second_stage_estimates, si_order, si_order_excluding
from conftest import scalar_frame

CHI2_LEVEL = 0.001


def _one_hot_psu(n):
    """A single PSU of n SSUs; SSU j carries the indicator column of position j."""
    return Frame(np.eye(n), np.array([n]))


def _subsample(frame, psu_indices, method, n0, rng, with_vhat=False):
    """Draw and estimate a size-n0 second stage of the frame's own values in the listed PSUs."""
    y_hat, v_hat = second_stage_estimates(frame, frame.values, frame.subtotals,
                                          np.asarray(psu_indices)[None], method, n0, (rng,),
                                          with_vhat=with_vhat)
    return y_hat[0], (None if v_hat is None else v_hat[0])


def _inclusions(frame, n0, method, rng, draws=1):
    """(draws, N_i) inclusion counts of independent size-n0 samples inside PSU 0.

    The second stage estimates (N_i/n0) * (sum of the sampled rows), so
    on one-hot columns it is N_i/n0 times each SSU's inclusion count.
    """
    y, _ = _subsample(frame, np.zeros(draws, dtype=np.int64), method, n0, rng)
    return np.rint(y * n0 / frame.sizes[0]).astype(np.int64)


class TestDrawSi:
    def test_census_is_permutation(self):
        rng = substream(1, "si")
        draw = draw_si(5, 5, rng)
        assert sorted(draw.order) == [0, 1, 2, 3, 4]

    def test_rejects_oversized_sample(self):
        with pytest.raises(ValueError):
            draw_si(5, 6, substream(1, "si"))

    def test_large_draw_distinct(self):
        draw = draw_si(2000, 20, substream(2, "si"))
        assert len(set(draw.order.tolist())) == 20
        assert draw.n_population == 2000

    def test_pair_frequencies_uniform(self):
        # all C(5,2)=10 unordered pairs equally likely
        counts = {pair: 0 for pair in itertools.combinations(range(5), 2)}
        n_draws = 50000
        rng = substream(3, "si")
        for _ in range(n_draws):
            order = si_order(5, 2, rng)
            counts[tuple(sorted(order.tolist()))] += 1
        expected = n_draws / 10
        stat = sum((c - expected) ** 2 / expected for c in counts.values())
        assert stat < chi2.ppf(1 - CHI2_LEVEL, df=9)

    def test_draw_order_exchangeable(self):
        # per-position mean of the drawn value within 3 MC standard errors
        values = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        n_draws = 50000
        rng = substream(4, "si")
        sums = np.zeros(3)
        sums_sq = np.zeros(3)
        for _ in range(n_draws):
            z = values[si_order(6, 3, rng)]
            sums += z
            sums_sq += z**2
        means = sums / n_draws
        sds = np.sqrt(sums_sq / n_draws - means**2)
        for j in range(3):
            se = sds[j] / math.sqrt(n_draws)
            assert abs(means[j] - 3.5) < 3 * se

    def test_exclusion_draws_avoid_excluded(self):
        rng = substream(5, "si")
        for _ in range(200):
            out = si_order_excluding(10, 4, np.array([0, 1, 2]), rng)
            assert len(set(out.tolist())) == 4
            assert not set(out.tolist()) & {0, 1, 2}
        # rejection branch (large population, small exclusion)
        out = si_order_excluding(100000, 5, np.array([7]), rng)
        assert 7 not in out

    def test_exclusion_uniformity(self):
        # drawing 1 from {0..4} minus {1,3}: each candidate ~ 1/3
        rng = substream(6, "si")
        counts = {0: 0, 2: 0, 4: 0}
        n_draws = 30000
        for _ in range(n_draws):
            counts[int(si_order_excluding(5, 1, np.array([1, 3]), rng)[0])] += 1
        expected = n_draws / 3
        stat = sum((c - expected) ** 2 / expected for c in counts.values())
        assert stat < chi2.ppf(1 - CHI2_LEVEL, df=2)


class TestDrawSir:
    def test_single_unit_population(self):
        draw = draw_sir(1, 3, substream(7, "sir"))
        assert draw.order.tolist() == [0, 0, 0]
        assert draw.distinct.tolist() == [0]
        assert draw.multiplicity.tolist() == [3]

    def test_multiplicity_sums_to_draw_count(self):
        rng = substream(8, "sir")
        for n, n_pop in [(2, 5), (7, 3), (20, 2000), (5, 5)]:
            draw = draw_sir(n_pop, n, rng)
            assert int(draw.multiplicity.sum()) == n
            assert set(draw.distinct.tolist()) == set(draw.order.tolist())

    def test_collision_probability(self):
        # P(single distinct PSU) = 1/5 for N=5, n=2 (25 ordered outcomes)
        rng = substream(9, "sir")
        n_draws = 50000
        singles = sum(draw_sir(5, 2, rng).distinct.size == 1 for _ in range(n_draws))
        se = math.sqrt(0.2 * 0.8 / n_draws)
        assert abs(singles / n_draws - 0.2) < 3 * se

    def test_mean_distinct_count(self):
        # E(n_d) = N(1 - (1-1/N)^n) = 1.8 for N=5, n=2
        rng = substream(10, "sir")
        n_draws = 50000
        sizes = np.array([draw_sir(5, 2, rng).distinct.size for _ in range(n_draws)])
        se = sizes.std(ddof=1) / math.sqrt(n_draws)
        assert abs(sizes.mean() - 1.8) < 3 * se


class TestDrawBe:
    def test_inclusion_probability_single_unit(self):
        rng = substream(11, "be")
        hits = sum(draw_be(1, 0.5, rng).n_drawn for _ in range(20000))
        se = math.sqrt(0.25 / 20000)
        assert abs(hits / 20000 - 0.5) < 3 * se

    def test_expected_size(self):
        rng = substream(12, "be")
        sizes = np.array([draw_be(2000, 0.01, rng).n_drawn for _ in range(3000)])
        se = sizes.std(ddof=1) / math.sqrt(sizes.size)
        assert abs(sizes.mean() - 20.0) < 3 * se

    def test_size_variance_binomial(self):
        rng = substream(13, "be")
        n_draws = 30000
        sizes = np.array([draw_be(50, 0.3, rng).n_drawn for _ in range(n_draws)])
        target = 50 * 0.3 * 0.7
        assert sizes.var(ddof=1) == pytest.approx(target, rel=0.05)

    def test_membership_indicators_uncorrelated(self):
        rng = substream(14, "be")
        n_draws = 30000
        joint = np.zeros((n_draws, 2), dtype=bool)
        for b in range(n_draws):
            order = draw_be(10, 0.4, rng).order
            joint[b, 0] = 0 in order
            joint[b, 1] = 7 in order
        cov = np.cov(joint[:, 0], joint[:, 1])[0, 1]
        se = math.sqrt((0.4 * 0.6) ** 2 / n_draws)
        assert abs(cov) < 3 * se

    def test_boundary_probabilities_rejected(self):
        with pytest.raises(ValueError):
            draw_be(5, 0.0, substream(15, "be"))
        with pytest.raises(ValueError):
            draw_be(5, 1.0, substream(15, "be"))


class TestDrawSystematic:
    def test_integer_interval_gaps(self):
        inc = _inclusions(_one_hot_psu(40), 5, "SYSTEMATIC", substream(16, "sys"))[0]
        idx = np.flatnonzero(inc)
        assert idx.size == 5
        assert np.all(np.diff(idx) == 8)

    def test_census(self):
        inc = _inclusions(_one_hot_psu(7), 7, "SYSTEMATIC", substream(17, "sys"))[0]
        assert inc.tolist() == [1] * 7

    def test_fractional_interval_inclusion_probabilities(self):
        n_draws = 50000
        rng = substream(18, "sys")
        frame = _one_hot_psu(41)
        counts = np.zeros(41)
        for _ in range(10):
            inc = _inclusions(frame, 5, "SYSTEMATIC", rng, draws=n_draws // 10)
            assert np.all(inc.sum(axis=1) == 5)
            assert np.all(inc <= 1)  # five distinct positions
            counts += inc.sum(axis=0)
        p = 5 / 41
        se = math.sqrt(p * (1 - p) / n_draws)
        assert np.all(np.abs(counts / n_draws - p) < 4.5 * se)


class TestStratifiedSi:
    def _frame(self):
        sizes = np.ones(9, dtype=np.int64)
        values = np.arange(9.0)[:, None]
        strata = ["a"] * 4 + ["b"] * 3 + ["c"] * 2
        return Frame(values, sizes, strata=strata)

    def test_single_stratum_reduces_to_si(self):
        values = np.arange(5.0)[:, None]
        frame = Frame(values, np.ones(5, dtype=np.int64), strata=["s"] * 5)
        draws = draw_stratified_si(frame, {"s": 2}, substream(19, "strat"))
        assert set(draws) == {"s"}
        assert draws["s"].n_drawn == 2

    def test_independent_draws_per_stratum(self):
        frame = self._frame()
        draws = draw_stratified_si(frame, {"a": 2, "b": 1, "c": 1}, substream(20, "strat"))
        assert set(draws["a"].order.tolist()) <= {0, 1, 2, 3}
        assert set(draws["b"].order.tolist()) <= {4, 5, 6}
        assert set(draws["c"].order.tolist()) <= {7, 8}

    def test_per_stratum_inclusion_probabilities(self):
        frame = self._frame()
        rng = substream(21, "strat")
        n_draws = 30000
        counts = np.zeros(9)
        for _ in range(n_draws):
            draws = draw_stratified_si(frame, {"a": 2, "b": 1, "c": 1}, rng)
            for d in draws.values():
                counts[d.order] += 1
        probs = counts / n_draws
        targets = np.array([0.5] * 4 + [1 / 3] * 3 + [0.5] * 2)
        ses = np.sqrt(targets * (1 - targets) / n_draws)
        assert np.all(np.abs(probs - targets) < 4.5 * ses)

    def test_allocation_errors(self):
        frame = self._frame()
        with pytest.raises(ValueError, match="missing allocation"):
            draw_stratified_si(frame, {"a": 2, "b": 1}, substream(22, "strat"))
        with pytest.raises(ValueError, match="invalid for stratum"):
            draw_stratified_si(frame, {"a": 5, "b": 1, "c": 1}, substream(22, "strat"))
        plain = scalar_frame([1.0, 2.0])
        with pytest.raises(ValueError, match="no strata"):
            draw_stratified_si(plain, {"a": 1}, substream(22, "strat"))


class TestSecondStage:
    def test_census_has_probability_one(self):
        frame = _one_hot_psu(6)
        y, _ = _subsample(frame, np.array([0]), "SI", 6, substream(23, "ss"))
        assert y[0].tolist() == [1.0] * 6  # every SSU once, expansion weight N_i/n0 = 1

    def test_si_sample_size_and_probs(self):
        frame = _one_hot_psu(40)
        y, _ = _subsample(frame, np.array([0]), "SI", 5, substream(24, "ss"))
        picked = y[0][y[0] != 0]
        assert picked.size == 5  # five distinct SSUs
        assert np.all(picked == 40 / 5)  # each weighted by 1 / (n0/N_i)

    def test_systematic_frequencies(self):
        n_draws = 30000
        inc = _inclusions(_one_hot_psu(40), 5, "SYSTEMATIC", substream(25, "ss"), draws=n_draws)
        p = 5 / 40
        se = math.sqrt(p * (1 - p) / n_draws)
        assert np.all(np.abs(inc.sum(axis=0) / n_draws - p) < 4.5 * se)

    def test_oversized_subsample_rejected(self):
        frame = _one_hot_psu(4)
        with pytest.raises(ValueError, match="n0 exceeds"):
            _subsample(frame, np.array([0]), "SI", 5, substream(26, "ss"))


class TestVectorizedSubsampling:
    def test_si_estimates_unbiased(self):
        frame = Frame(np.arange(24.0)[:, None], np.array([8, 8, 8]))
        rng = substream(27, "vec")
        n_draws = 20000
        acc = np.zeros(3)
        for _ in range(n_draws):
            y, _ = _subsample(frame, np.arange(3), "SI", 2, rng)
            acc += y[:, 0]
        means = acc / n_draws
        for i in range(3):
            sub = frame.subtotals[i, 0]
            assert means[i] == pytest.approx(sub, rel=0.02)

    def test_vhat_matches_formula_under_census(self):
        frame = Frame(np.arange(12.0)[:, None], np.array([4, 4, 4]))
        y, v = _subsample(frame, np.arange(3), "SI", 4, substream(28, "vec"), with_vhat=True)
        assert np.allclose(y[:, 0], frame.subtotals[:, 0])
        assert np.allclose(v, 0.0)

    def test_systematic_refuses_vhat(self):
        frame = Frame(np.arange(12.0)[:, None], np.array([4, 4, 4]))
        with pytest.raises(ValueError, match="systematic"):
            _subsample(frame, np.arange(3), "SYSTEMATIC", 2, substream(29, "vec"), with_vhat=True)


class TestDeterminism:
    def test_engines_are_pure_functions_of_stream(self):
        a = draw_si(100, 10, substream(30, "det"))
        b = draw_si(100, 10, substream(30, "det"))
        assert np.array_equal(a.order, b.order)
        a = draw_sir(100, 10, substream(30, "det", 1))
        b = draw_sir(100, 10, substream(30, "det", 1))
        assert np.array_equal(a.order, b.order)
        a = draw_be(100, 0.1, substream(30, "det", 2))
        b = draw_be(100, 0.1, substream(30, "det", 2))
        assert np.array_equal(a.order, b.order)

    def test_draw_record_serialization(self):
        draw = draw_sir(10, 4, substream(31, "det"))
        d = draw.to_dict()
        assert d["kind"] == "SIR"
        assert sum(d["multiplicity"]) == 4
        assert len(d["order"]) == 4
