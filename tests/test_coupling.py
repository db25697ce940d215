"""Coupled-draw marginals, sharing rules, and bound/decay verification."""
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import binom, chi2

from twostage import (
    Frame,
    coupled_be_si,
    coupled_sir_si,
    substream,
    verify_decay,
    verify_hajek_bound,
    verify_sir_si_bound,
)
from twostage.bootstrap import multinomial_weights
from twostage.estimators import expansion_totals, si_second_stage_variances
from conftest import multi_ssu_frame, scalar_frame

CHI2_LEVEL = 0.001


class TestCoupledBeSi:
    def test_both_marginals_from_one_coupled_stream(self):
        # chi-square goodness-of-fit at level 0.001 for the SI sample (all
        # C(5,2)=10 unordered pairs) and the Bernoulli size (Binomial(5, .4))
        # simultaneously, over 1e5 coupled draws
        frame = scalar_frame(np.arange(1.0, 6.0))
        n_draws = 100000
        pair_counts = {pair: 0 for pair in itertools.combinations(range(5), 2)}
        size_counts = np.zeros(6)
        for b in range(n_draws):
            draw = coupled_be_si(frame, 2, substream(40, "t", b))
            assert draw.si_indices.size == 2
            pair_counts[tuple(sorted(draw.si_indices.tolist()))] += 1
            size_counts[draw.be_indices.size] += 1
        expected = n_draws / 10
        stat = sum((c - expected) ** 2 / expected for c in pair_counts.values())
        assert stat < chi2.ppf(1 - CHI2_LEVEL, df=9)
        expected_sizes = binom.pmf(np.arange(6), 5, 0.4) * n_draws
        stat = float(np.sum((size_counts - expected_sizes) ** 2 / expected_sizes))
        assert stat < chi2.ppf(1 - CHI2_LEVEL, df=5)

    def test_equal_size_branch_shares_everything(self):
        frame = scalar_frame(np.arange(1.0, 6.0))
        seen = 0
        for b in range(300):
            draw = coupled_be_si(frame, 2, substream(42, "t", b))
            if draw.be_indices.size == 2:
                seen += 1
                assert np.array_equal(np.sort(draw.be_indices), np.sort(draw.si_indices))
                assert draw.delta2(3.0) == 0.0
        assert seen > 0

    def test_intersection_shares_second_stage_bitwise(self):
        rng_frame = np.random.default_rng(5)
        frame = Frame(rng_frame.normal(10, 3, size=(60, 1)), np.full(6, 10))
        for b in range(200):
            draw = coupled_be_si(frame, 3, substream(43, "t", b), second_stage="SI", n0=4)
            shared = set(draw.be_indices.tolist()) & set(draw.si_indices.tolist())
            be_map = {int(i): draw.be_values[j, 0] for j, i in enumerate(draw.be_indices)}
            si_map = {int(i): draw.si_values[j, 0] for j, i in enumerate(draw.si_indices)}
            for i in shared:
                assert be_map[i] == si_map[i]  # bitwise equal: one draw, one estimate

    def test_ht_totals_unbiased(self):
        frame = scalar_frame(np.arange(1.0, 6.0))
        n_draws = 30000
        ht_be = np.empty(n_draws)
        ht_si = np.empty(n_draws)
        for b in range(n_draws):
            draw = coupled_be_si(frame, 2, substream(44, "t", b))
            ht_be[b] = expansion_totals(draw.be_values[:, 0], 5, 2)
            ht_si[b] = expansion_totals(draw.si_values[:, 0], 5, 2)
        for values in (ht_be, ht_si):
            se = values.std(ddof=1) / math.sqrt(n_draws)
            assert abs(values.mean() - 15.0) < 3 * se


class TestCoupledSirSi:
    def test_both_marginals_from_one_coupled_stream(self):
        # SI marginal: all C(4,2)=6 unordered pairs; SIR marginal: all 16
        # ordered with-replacement pairs; both at level 0.001 over 1e5 draws
        frame = scalar_frame(np.arange(1.0, 5.0))
        pairs = {pair: 0 for pair in itertools.combinations(range(4), 2)}
        wr_counts = np.zeros((4, 4))
        n_draws = 100000
        for b in range(n_draws):
            draw = coupled_sir_si(frame, 2, substream(45, "t", b))
            pairs[tuple(sorted(draw.si_indices.tolist()))] += 1
            wr_counts[draw.wr_order[0], draw.wr_order[1]] += 1
        expected = n_draws / 6
        stat = sum((c - expected) ** 2 / expected for c in pairs.values())
        assert stat < chi2.ppf(1 - CHI2_LEVEL, df=5)
        stat = float(np.sum((wr_counts - n_draws / 16) ** 2 / (n_draws / 16)))
        assert stat < chi2.ppf(1 - CHI2_LEVEL, df=15)

    def test_no_repeat_draw_collapses(self):
        frame = scalar_frame(np.arange(1.0, 6.0))
        seen = 0
        for b in range(200):
            draw = coupled_sir_si(frame, 2, substream(46, "t", b))
            if draw.distinct.size == 2:
                seen += 1
                assert np.array_equal(draw.si_indices, draw.distinct)
                assert draw.ht_wr(0) == draw.ht_si(0)
        assert seen > 0

    def test_single_draw_is_exact_coupling(self):
        frame = scalar_frame(np.arange(1.0, 6.0))
        for b in range(50):
            draw = coupled_sir_si(frame, 1, substream(47, "t", b))
            assert draw.ht_wr(0) == draw.ht_si(0)

    def test_first_occurrence_shared_with_repeats_fresh(self):
        rng_frame = np.random.default_rng(6)
        frame = Frame(rng_frame.normal(10, 3, size=(40, 1)), np.full(4, 10))
        found_repeat = False
        for b in range(400):
            draw = coupled_sir_si(frame, 3, substream(48, "t", b), second_stage="SI", n0=4)
            first_seen: dict[int, float] = {}
            for j, psu in enumerate(draw.wr_order.tolist()):
                if psu not in first_seen:
                    first_seen[psu] = draw.x_values[j, 0]
                    assert draw.z_values[j, 0] == draw.x_values[j, 0]
                else:
                    found_repeat = True
                    # fresh second-stage draw for the repeat, fresh SI unit for z
                    assert draw.z_values[j, 0] != draw.x_values[j, 0]
        assert found_repeat

    def test_both_estimators_unbiased(self):
        frame = scalar_frame(np.arange(1.0, 6.0))
        n_draws = 30000
        ht_wr = np.empty(n_draws)
        ht_si = np.empty(n_draws)
        for b in range(n_draws):
            draw = coupled_sir_si(frame, 2, substream(49, "t", b))
            ht_wr[b] = draw.ht_wr(0)
            ht_si[b] = draw.ht_si(0)
        for values in (ht_wr, ht_si):
            se = values.std(ddof=1) / math.sqrt(n_draws)
            assert abs(values.mean() - 15.0) < 3 * se

    def test_deterministic(self):
        frame = scalar_frame(np.arange(1.0, 9.0))
        a = coupled_sir_si(frame, 3, substream(50, "t"))
        b = coupled_sir_si(frame, 3, substream(50, "t"))
        assert np.array_equal(a.wr_order, b.wr_order)
        assert np.array_equal(a.si_indices, b.si_indices)


class TestSharedMultinomial:
    """Law of the weights that verify_decay applies to both coupled vectors."""

    def test_degenerate_single_category(self):
        d = multinomial_weights(substream(51, "m"), 1, 1, 7)
        assert d.tolist() == [[7.0]]

    def test_weights_sum_to_m(self):
        d = multinomial_weights(substream(52, "m"), 100, 5, 13)
        assert d.shape == (100, 5)
        assert np.all(d.sum(axis=1) == 13)

    def test_mean_weight(self):
        n_draws = 20000
        d = multinomial_weights(substream(53, "m"), n_draws, 4, 8)
        se = math.sqrt(8 * 0.25 * 0.75 / n_draws)
        assert np.all(np.abs(d.mean(axis=0) - 2.0) < 4 * se)

    def test_two_by_two_enumeration(self):
        n_draws = 40000
        d = multinomial_weights(substream(54, "m"), n_draws, 2, 2)
        hits = np.count_nonzero(d[:, 0] == 2)
        se = math.sqrt(0.25 * 0.75 / n_draws)
        assert abs(hits / n_draws - 0.25) < 3 * se


class TestBounds:
    def test_hajek_bound_small_config(self):
        frame = scalar_frame(np.arange(1.0, 101.0))
        report = verify_hajek_bound(frame, 10, 20000, seed=55)
        assert report.rhs_bound == pytest.approx(math.sqrt(0.1 + 1 / 90))
        assert report.passed
        assert report.lhs_se > 0

    def test_sir_si_bound_tight_case(self):
        frame = scalar_frame(np.arange(1.0, 6.0))
        report = verify_sir_si_bound(frame, 2, 20000, seed=56)
        assert report.rhs_bound == pytest.approx(0.25)
        # census second stage makes the bound an equality; 3 se absorbs MC noise
        assert abs(report.lhs_estimate - 0.25) < 3 * report.lhs_se
        assert report.passed

    def test_degenerate_frame_rejected(self):
        frame = scalar_frame(np.full(10, 4.0))
        with pytest.raises(ValueError, match="degenerate"):
            verify_hajek_bound(frame, 2, 1000, seed=57)
        with pytest.raises(ValueError, match="degenerate"):
            verify_sir_si_bound(frame, 2, 1000, seed=57)

    def test_minimum_replicates_enforced(self):
        frame = scalar_frame(np.arange(1.0, 6.0))
        with pytest.raises(ValueError):
            verify_hajek_bound(frame, 2, 500, seed=58)

    def test_report_serialization(self):
        frame = scalar_frame(np.arange(1.0, 21.0))
        report = verify_sir_si_bound(frame, 4, 2000, seed=59)
        d = report.to_dict()
        assert set(d) == {
            "check", "n_psus", "n_I", "replicates", "lhs_estimate", "lhs_se",
            "rhs_bound", "passed",
        }


class TestDecay:
    def _family(self, sizes, seed=60):
        frames = []
        for i, n in enumerate(sizes):
            rng = substream(seed, "frame", i)
            frames.append(scalar_frame(100.0 + 15.0 * rng.standard_normal(n)))
        return frames

    def test_requires_three_frames_and_f_below_one(self):
        frames = self._family([100, 400])
        with pytest.raises(ValueError, match="at least 3"):
            verify_decay(frames, 10, 2000, seed=61)
        frames = self._family([100, 400, 1600])
        with pytest.raises(ValueError, match="n_I < N_I"):
            verify_decay([scalar_frame(np.arange(10.0))] + frames[1:], 10, 2000, seed=61)

    def test_metrics_decay_along_family(self):
        frames = self._family([100, 1000, 10000])
        report = verify_decay(frames, 10, 4000, seed=62)
        assert [r.n_psus for r in report.rows] == [100, 1000, 10000]
        for metric in ("mean_sq_diff", "abs_s2_diff", "boot_sq_diff"):
            assert report.strictly_decreasing(metric), metric

    def test_unknown_metric_rejected(self):
        frames = self._family([100, 400, 1600])
        report = verify_decay(frames, 5, 1000, seed=63)
        with pytest.raises(ValueError):
            report.strictly_decreasing("nope")


def _sir_si_ratio_exact(y, n):
    """E(Yhat_WR - Yhat_SI)^2 / V(Yhat_WR) of the SIR/SI coupling, by enumeration.

    Every ordered with-replacement draw has probability N^-n; its repeats r
    are completed by each r-subset of the never-drawn PSUs with equal
    probability.  Under a census the estimators are (N/n) times the sums of
    the drawn subtotals, and V(Yhat_WR) = (N^2/n) sigma^2 with divisor N.
    """
    N = len(y)
    y = [Fraction(v) for v in y]
    scale = Fraction(N, n) ** 2
    second_moment = Fraction(0)
    for seq in itertools.product(range(N), repeat=n):
        distinct = set(seq)
        rest = [i for i in range(N) if i not in distinct]
        r = n - len(distinct)
        completions = list(itertools.combinations(rest, r))
        wr_minus_distinct = sum(y[i] for i in seq) - sum(y[i] for i in distinct)
        for comp in completions:
            diff = wr_minus_distinct - sum(y[i] for i in comp)
            second_moment += scale * diff**2 / (N**n * len(completions))
    mean = sum(y) / N
    sigma2 = sum((v - mean) ** 2 for v in y) / N
    return second_moment / (Fraction(N * N, n) * sigma2)


class TestSirSiIdentity:
    """Under a census second stage the SIR/SI "bound" holds with equality.

    With W_i the SIR multiplicity, I_i = 1{W_i >= 1} and J_i the SI
    completion, c_i = W_i - I_i - J_i is exchangeable and sums to 0, so
    E(Yhat_WR - Yhat_SI)^2 / V(Yhat_WR) = (n_I - 1)/(N_I - 1) for every y.
    """

    @pytest.mark.parametrize("y, n", [
        ([1, 2, 3, 4, 5], 2),
        ([0, 0, 7, 3], 3),
        ([2, 9, 4, 4, 1, 6], 3),
        ([1, 5, 2], 3),
    ])
    def test_identity_by_exact_enumeration(self, y, n):
        assert _sir_si_ratio_exact(y, n) == Fraction(n - 1, len(y) - 1)

    @pytest.mark.parametrize("n_psus, n_I, replicates, seed", [
        (20, 5, 20000, 90),
        (3000, 60, 5000, 91),  # N_I above 2,048: completions by rejection
    ])
    def test_identity_holds_two_sided(self, n_psus, n_I, replicates, seed):
        frame = scalar_frame(100.0 + 15.0 * substream(seed, "frame").standard_normal(n_psus))
        report = verify_sir_si_bound(frame, n_I, replicates, seed=seed)
        assert abs(report.lhs_estimate - report.rhs_bound) < 4 * report.lhs_se


def _within_heavy_frame():
    """10 PSUs of 20-30 SSUs whose within-PSU variance dwarfs the between-PSU one."""
    rng = np.random.default_rng(4)
    sizes = rng.integers(20, 31, size=10).astype(np.int64)
    return Frame(rng.normal(50.0, 10.0, size=(int(sizes.sum()), 1)), sizes)


class TestStrictBoundsWithSubsampling:
    """An SI second stage makes both bounds strict inequalities."""

    def test_sir_si_matches_its_closed_form_below_the_bound(self):
        # Second-stage errors of first occurrences cancel; each repeat adds a
        # fresh estimate of a drawn PSU and one of its completion PSU, so
        # E(diff^2) = (n-1)/(N-1) (N^2/n) sigma^2 + (N/n)^2 2 E(r) Vbar with
        # E(r) = n - N + N (1 - 1/N)^n repeats, and V(Yhat_WR) = (N^2/n)
        # (sigma^2 + Vbar).  Since 2 E(r)/n < (n-1)/(N-1), the ratio lies
        # strictly below the bound.
        frame = _within_heavy_frame()
        N, n, n0 = frame.n_psus, 8, 2
        y = frame.subtotals[:, 0]
        sigma2 = float(np.mean((y - y.mean()) ** 2))
        v_bar = float(si_second_stage_variances(frame, n0, 0).mean())
        repeats = n - N + N * (1.0 - 1.0 / N) ** n
        exact = ((n - 1) / (N - 1) * sigma2 + 2.0 * repeats / n * v_bar) / (sigma2 + v_bar)
        report = verify_sir_si_bound(frame, n, 20000, seed=92, second_stage="SI", n0=n0)
        assert abs(report.lhs_estimate - exact) < 4 * report.lhs_se
        assert report.lhs_estimate + 4 * report.lhs_se < report.rhs_bound
        assert report.passed

    @pytest.mark.parametrize("n_psus, n_I", [(10, 5), (2500, 40)])
    def test_hajek_bound_strict_on_multi_ssu_frames(self, n_psus, n_I):
        report = verify_hajek_bound(multi_ssu_frame(n_psus, 94), n_I, 5000, seed=93,
                                    var_index=1, second_stage="SI", n0=2)
        assert report.passed
        assert report.lhs_estimate + 4 * report.lhs_se < report.rhs_bound
