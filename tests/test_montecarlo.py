"""Scenario runner: report summaries, coverage orientation, determinism."""
import numpy as np
import pytest

from twostage import (
    BootstrapConfig,
    DesignSpec,
    Frame,
    ProportionEstimand,
    RatioEstimand,
    Scenario,
    TotalEstimand,
    approximate_true_variance,
    coverage_stats,
    run_scenario,
    scaling_study,
    substream,
)
import twostage.montecarlo as montecarlo
from conftest import multi_ssu_frame, scalar_frame
from normality import anderson_darling_normal, normality_screen


def _report(reports, estimand, family):
    for r in reports:
        if r.estimand == estimand and r.family == family:
            return r
    raise AssertionError(f"missing report {estimand}/{family}")


class TestCoverageStats:
    def test_all_covering(self):
        lo = np.full(200, -1.0)
        hi = np.full(200, 1.0)
        assert coverage_stats(lo, hi, 0.0) == (0.0, 0.0)

    def test_orientation(self):
        # intervals entirely below theta miss on the upper side: (L, U) = (0, 100)
        lo = np.full(200, -2.0)
        hi = np.full(200, -1.0)
        assert coverage_stats(lo, hi, 0.0) == (0.0, 100.0)
        # entirely above theta: (100, 0)
        assert coverage_stats(-hi, -lo, 0.0) == (100.0, 0.0)

    def test_exact_normal_pivot_rates(self):
        rng = substream(70, "cov")
        b = 10000
        x = rng.standard_normal(b)
        half = 1.959963984540054
        l_pct, u_pct = coverage_stats(x - half, x + half, 0.0)
        assert 1.9 <= l_pct <= 3.1
        assert 1.9 <= u_pct <= 3.1

    def test_minimum_replicates(self):
        with pytest.raises(ValueError):
            coverage_stats(np.zeros(50), np.ones(50), 0.5)


class TestScenarioValidation:
    def test_census_takes_no_n0(self, frame_1to5):
        scn = Scenario(DesignSpec("SI", n_I=2), "CENSUS", n0=5, replicates=100)
        with pytest.raises(ValueError, match="census"):
            scn.validate(frame_1to5)

    @pytest.mark.parametrize("n0", [2.5, 3.0, True])
    def test_non_integer_n0_rejected(self, n0):
        scn = Scenario(DesignSpec("SI", n_I=2), "SI", n0=n0, replicates=100)
        with pytest.raises(ValueError, match=r"^n0 must be an integer under SI subsampling"):
            scn.check()

    def test_repeated_estimand_rejected(self):
        scn = Scenario(DesignSpec("SI", n_I=2), estimands=(TotalEstimand(0), TotalEstimand(0)),
                       variance_methods=("SIMPLIFIED",), replicates=100)
        with pytest.raises(ValueError, match=r"^estimands must have distinct labels"):
            scn.check()

    def test_unbiased_with_systematic_rejected(self):
        frame = Frame(np.arange(40.0)[:, None], np.full(4, 10))
        scn = Scenario(
            DesignSpec("SI", n_I=2), "SYSTEMATIC", n0=2,
            variance_methods=("UNBIASED",), replicates=100,
        )
        with pytest.raises(ValueError, match="systematic"):
            scn.validate(frame)

    def test_studentized_needs_bootstrap_and_base(self, frame_1to5):
        scn = Scenario(DesignSpec("SI", n_I=2), studentized=True, replicates=100)
        with pytest.raises(ValueError, match="bootstrap"):
            scn.validate(frame_1to5)
        scn = Scenario(
            DesignSpec("SI", n_I=2), studentized=True, replicates=100,
            bootstrap=BootstrapConfig(replicates=50, seed=0),
        )
        with pytest.raises(ValueError, match="SIMPLIFIED"):
            scn.validate(frame_1to5)

    def test_stratified_restrictions(self):
        frame = Frame(np.arange(6.0)[:, None], np.ones(6, dtype=np.int64),
                      strata=["a"] * 3 + ["b"] * 3)
        scn = Scenario(
            DesignSpec("STRAT_SI", allocations={"a": 2, "b": 2}),
            estimands=(TotalEstimand(0),), replicates=100,
        )
        with pytest.raises(ValueError, match="proportions"):
            scn.validate(frame)

    @pytest.mark.parametrize("stratified", [False, True])
    @pytest.mark.parametrize("estimator", ["variance", "bootstrap"])
    def test_one_sampled_psu_rejected_before_the_reference_run(
        self, monkeypatch, stratified, estimator
    ):
        frame = Frame(np.arange(8.0)[:, None], np.ones(8, dtype=np.int64),
                      strata=["a"] * 4 + ["b"] * 4)
        if stratified:
            design, estimand, method = (DesignSpec("STRAT_SI", allocations={"a": 2, "b": 1}),
                                        ProportionEstimand(0, 3.0), "STRAT_WR")
        else:
            design, estimand, method = DesignSpec("SI", n_I=1), TotalEstimand(0), "SIMPLIFIED"
        extra = ({"variance_methods": (method,)} if estimator == "variance"
                 else {"bootstrap": BootstrapConfig(replicates=50, seed=0)})
        scn = Scenario(design, estimands=(estimand,), replicates=100, true_run=1000, **extra)
        calls = []
        monkeypatch.setattr(montecarlo, "_reference_run",
                            lambda *args, **kwargs: calls.append(args) or ({}, {}))
        with pytest.raises(ValueError, match="at least 2 sampled PSUs"):
            run_scenario(frame, scn, seed=5)
        assert calls == []
        # a point estimate alone needs one PSU
        run_scenario(frame, Scenario(design, estimands=(estimand,), replicates=100), seed=5)

    def test_unallocated_stratum_rejected_before_the_reference_run(self, monkeypatch):
        frame = Frame(np.arange(8.0)[:, None], np.ones(8, dtype=np.int64),
                      strata=["a"] * 4 + ["b"] * 4)
        scn = Scenario(DesignSpec("STRAT_SI", allocations={"a": 2}),
                       estimands=(ProportionEstimand(0, 3.0),), variance_methods=("STRAT_WR",),
                       replicates=100, true_run=1000)
        calls = []
        monkeypatch.setattr(montecarlo, "_reference_run",
                            lambda *args, **kwargs: calls.append(args) or ({}, {}))
        with pytest.raises(ValueError, match="^missing allocation for stratum 'b'$"):
            run_scenario(frame, scn, seed=5)
        with pytest.raises(ValueError, match="^missing allocation for stratum 'b'$"):
            scaling_study(frame, [({}, scn)], seed=5)
        assert calls == []

    @pytest.mark.parametrize("ci_alpha", [0.7, 0.5, 0.0, float("nan")])
    def test_ci_alpha_out_of_range_rejected_before_the_reference_run(
        self, monkeypatch, frame_1to5, ci_alpha
    ):
        scn = Scenario(DesignSpec("SI", n_I=2), variance_methods=("SIMPLIFIED",),
                       ci_alpha=ci_alpha, replicates=100, true_run=1000)
        calls = []
        monkeypatch.setattr(montecarlo, "_reference_run",
                            lambda *args, **kwargs: calls.append(args) or ({}, {}))
        with pytest.raises(ValueError, match=r"^ci_alpha must be in \(0, 0.5\)$"):
            run_scenario(frame_1to5, scn, seed=5)
        assert calls == []


    def test_n0_above_a_psu_is_refused_by_validation(self):
        scn = Scenario(DesignSpec("SI", n_I=2), "SI", 4, replicates=100, true_run=1000)
        frame = multi_ssu_frame(20, 5)  # PSUs of 3-6 SSUs
        with pytest.raises(ValueError, match="^n0 exceeds the size of a selected PSU$"):
            scn.validate(frame)
        Scenario(DesignSpec("SI", n_I=2), "SI", 3, replicates=100, true_run=1000).validate(frame)

    @pytest.mark.parametrize("second_stage, n0", [("CENSUS", None), ("SYSTEMATIC", 3)])
    def test_a_variable_past_the_frames_count_is_refused_by_validation(self, second_stage, n0):
        scn = Scenario(DesignSpec("SI", n_I=2), second_stage, n0,
                       estimands=(TotalEstimand(1), RatioEstimand(0, 2)),
                       replicates=100, true_run=1000)
        frame = multi_ssu_frame(20, 5)  # two variables
        message = r"^estimands\[1\] ratio\[y1/y3\] reads y3, past the frame's 2 variables$"
        with pytest.raises(ValueError, match=message):
            scn.validate(frame)
        with pytest.raises(ValueError, match=message):
            approximate_true_variance(frame, scn, seed=1)

    def test_reference_run_size_is_checked_when_v_true_is_supplied(self, frame_1to5):
        scn = Scenario(DesignSpec("SI", n_I=5), "CENSUS", replicates=100, true_run=999)
        with pytest.raises(ValueError, match="^true_run must be >= 1000$"):
            run_scenario(frame_1to5, scn, seed=1, v_true={"total[y1]": 1.0})


class TestRunScenario:
    def test_constant_estimator_has_zero_rb_rs(self, frame_1to5):
        # census first and second stage: the estimator equals Y identically
        scn = Scenario(DesignSpec("SI", n_I=5), "CENSUS", replicates=150, true_run=1000)
        reports = run_scenario(frame_1to5, scn, seed=71, v_true={"total[y1]": 1.0})
        point = _report(reports, "total[y1]", "point")
        assert point.rb == 0.0
        assert point.rs == 0.0
        assert point.theta_true == 15.0

    def test_point_rb_within_mc_error_and_rs_dominates(self):
        frame = scalar_frame(np.arange(1.0, 21.0))
        scn = Scenario(DesignSpec("SI", n_I=5), "CENSUS", replicates=4000, true_run=1000)
        reports = run_scenario(frame, scn, seed=72, v_true={"total[y1]": 1.0})
        point = _report(reports, "total[y1]", "point")
        assert abs(point.rb) <= 3 * point.rb_se
        assert point.rs >= abs(point.rb)
        assert point.rs**2 >= point.rb**2

    def test_variance_reports_and_cis(self):
        frame = scalar_frame(np.arange(1.0, 21.0))
        scn = Scenario(
            DesignSpec("SI", n_I=6), "CENSUS",
            variance_methods=("SIMPLIFIED", "WITH_REPLACEMENT"),
            bootstrap=BootstrapConfig(replicates=300, seed=0),
            replicates=400, true_run=4000,
        )
        reports = run_scenario(frame, scn, seed=73)
        v_simp = _report(reports, "total[y1]", "v_simp")
        v_wr = _report(reports, "total[y1]", "v_wr")
        boot = _report(reports, "total[y1]", "boot_var")
        # v_SIMP is unbiased here (census second stage); v_WR inflates by ~1/(1-f)
        assert abs(v_simp.rb) < 3 * v_simp.rb_se + 2.0
        assert v_wr.mean_estimate > v_simp.mean_estimate
        assert boot.theta_true == v_simp.theta_true
        for family in ("ci_normal_simp", "ci_normal_wr", "ci_percentile"):
            rep = _report(reports, "total[y1]", family)
            assert 0.0 <= rep.lower_pct <= 100.0
            assert 0.0 <= rep.upper_pct <= 100.0

    def test_ratio_estimand_runs(self):
        rng = np.random.default_rng(74)
        values = np.column_stack([rng.normal(20, 2, 200), rng.normal(10, 1, 200)])
        frame = Frame(values, np.full(20, 10))
        scn = Scenario(
            DesignSpec("SI", n_I=6), "SI", n0=4,
            estimands=(RatioEstimand(0, 1),),
            bootstrap=BootstrapConfig(replicates=200, seed=0),
            replicates=300, true_run=2000,
        )
        reports = run_scenario(frame, scn, seed=75)
        point = _report(reports, "ratio[y1/y2]", "point")
        assert abs(point.rb) < 5.0  # percent
        assert _report(reports, "ratio[y1/y2]", "boot_var").mean_estimate > 0

    def test_the_reference_run_reuses_the_built_context(self, monkeypatch):
        frame = multi_ssu_frame(30, 78)
        scn = Scenario(
            DesignSpec("SI", n_I=6), "SYSTEMATIC", n0=3,
            estimands=(TotalEstimand(0), RatioEstimand(0, 1)), variance_methods=("SIMPLIFIED",),
            bootstrap=BootstrapConfig(replicates=100, seed=0), replicates=100, true_run=1000,
        )
        v_true, _ = approximate_true_variance(frame, scn, seed=78)
        supplied = run_scenario(frame, scn, seed=78, v_true=v_true)
        # a SYSTEMATIC context's one costly part is its table of every sample
        calls = []
        build = montecarlo.systematic_table
        monkeypatch.setattr(montecarlo, "systematic_table",
                            lambda *args: calls.append(args) or build(*args))
        fresh = multi_ssu_frame(30, 78)  # equal values, but no table kept for it yet
        first = run_scenario(fresh, scn, seed=78)
        assert first == supplied
        assert len(calls) == 1
        # the next run on the frame reads the table it kept
        assert run_scenario(fresh, scn, seed=78) == first
        assert len(calls) == 1

    def test_supplied_v_true_used_for_variance_rows(self, frame_1to5):
        scn = Scenario(
            DesignSpec("SI", n_I=2), "CENSUS",
            variance_methods=("SIMPLIFIED",), replicates=200, true_run=1000,
        )
        reports = run_scenario(frame_1to5, scn, seed=76, v_true={"total[y1]": 18.75})
        v_simp = _report(reports, "total[y1]", "v_simp")
        assert v_simp.theta_true == 18.75
        # census second stage: v_SIMP is exactly unbiased for 18.75
        assert abs(v_simp.rb) < 3 * v_simp.rb_se

    def test_metric_rows_shape(self, frame_1to5):
        scn = Scenario(
            DesignSpec("SI", n_I=2), "CENSUS",
            variance_methods=("SIMPLIFIED",), replicates=150, true_run=1000,
        )
        reports = run_scenario(frame_1to5, scn, seed=77, v_true={"total[y1]": 18.75})
        ci = _report(reports, "total[y1]", "ci_normal_simp")
        rows = ci.metric_rows()
        names = [r[0] for r in rows]
        assert names == ["ci_normal_simp.L", "ci_normal_simp.U", "ci_normal_simp.two_sided"]
        two = rows[2]
        assert two[1] == pytest.approx(ci.lower_pct + ci.upper_pct)


class TestStratifiedScenario:
    def _frame(self, seed=78):
        rng = substream(seed, "stratpop")
        sizes = rng.integers(2, 6, size=300).astype(np.int64)
        n = int(sizes.sum())
        cat = (rng.random(n) < 0.3).astype(np.float64)
        strata = ["s1"] * 100 + ["s2"] * 100 + ["s3"] * 100
        return Frame(cat[:, None], sizes, strata=strata)

    def test_proportion_pipeline(self):
        frame = self._frame()
        est = ProportionEstimand(0, 1.0)
        scn = Scenario(
            DesignSpec("STRAT_SI", allocations={"s1": 10, "s2": 10, "s3": 10}),
            estimands=(est,),
            variance_methods=("STRAT_WR",),
            bootstrap=BootstrapConfig(replicates=200, seed=0),
            studentized=True,
            replicates=300, true_run=2000,
        )
        reports = run_scenario(frame, scn, seed=79)
        point = _report(reports, est.label, "point")
        assert abs(point.rb) < 3 * point.rb_se + 1.0
        for family in ("v_stwr", "boot_var"):
            assert _report(reports, est.label, family).mean_estimate > 0
        for family in ("ci_normal_stwr", "ci_percentile", "ci_studentized"):
            rep = _report(reports, est.label, family)
            assert rep.lower_pct + rep.upper_pct < 30.0


def _run_spans_in_process(monkeypatch) -> list:
    """Make montecarlo's fork pool run its initializer and then its spans in this process.

    The returned list receives each pool's requested worker count.
    """
    import twostage.montecarlo as mc

    requested = []

    class FakePool:
        def __init__(self, processes, initializer, initargs):
            requested.append(processes)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, spans):
            return [fn(span) for span in spans]

    class FakeContext:
        Pool = FakePool

    monkeypatch.setattr(mc.multiprocessing, "get_context", lambda method: FakeContext())
    monkeypatch.setattr(mc, "_WORKER_CTX", None)  # restored after the test
    return requested


class TestDeterminismAndParallel:
    def test_thread_count_does_not_change_results(self):
        frame = scalar_frame(np.arange(1.0, 41.0))
        scn = Scenario(
            DesignSpec("SI", n_I=8), "CENSUS",
            variance_methods=("SIMPLIFIED",),
            bootstrap=BootstrapConfig(replicates=100, seed=0),
            replicates=200, true_run=1000,
        )
        serial = run_scenario(frame, scn, seed=80)
        parallel = run_scenario(frame, scn, seed=80, threads=2)
        for a, b in zip(serial, parallel):
            assert a == b

    def test_workers_capped_at_cores_and_spans(self, monkeypatch):
        import os

        import twostage.montecarlo as mc

        frame = scalar_frame(np.arange(1.0, 41.0))
        scn = Scenario(DesignSpec("SI", n_I=8), "CENSUS", replicates=200, true_run=1000)
        serial = run_scenario(frame, scn, seed=80, v_true={"total[y1]": 1.0})
        requested = _run_spans_in_process(monkeypatch)
        capped = run_scenario(frame, scn, seed=80, threads=10**6, v_true={"total[y1]": 1.0})
        n_spans = -(-200 // mc._BLOCK)  # one-block chunks once threads * 8 exceeds the total
        assert requested == [min(os.cpu_count() or 1, n_spans)]
        assert capped == serial

    @pytest.mark.parametrize("threads", [2, 4])
    def test_spans_are_whole_blocks(self, monkeypatch, threads):
        """A span cut inside a block of the rows given to _parallel would make the block engine
        run a short block."""
        import twostage.montecarlo as mc

        spans = []

        class RecordingPool:
            def __init__(self, processes, initializer, initargs):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                spans.extend((start, end) for _, start, end in jobs)
                return [np.zeros((end - start, 1)) for _, start, end in jobs]

        class RecordingContext:
            Pool = RecordingPool

        monkeypatch.setattr(mc.multiprocessing, "get_context", lambda method: RecordingContext())
        for rows in (mc._BLOCK, 128, 1600):
            spans.clear()
            mc._parallel(None, 1000, threads, None, rows)
            # threads * 8 blocks of 64 rows or more exceed 1,000: one block per span
            assert spans == [(lo, min(lo + rows, 1000)) for lo in range(0, 1000, rows)]
            for total in (32, 200, 4097, 20000):
                spans.clear()
                mc._parallel(None, total, threads, None, rows)
                starts, ends = zip(*spans)
                assert starts == (0, *ends[:-1]) and ends[-1] == total
                assert all(lo % rows == 0 for lo in starts)

    def test_one_generator_pool_serves_every_span(self, monkeypatch):
        """At threads = 4 every span draws on the generators its process made once."""
        import threading

        import twostage.montecarlo as mc
        import twostage.rng as rng_module

        made = []
        real = rng_module.new_stream
        monkeypatch.setattr(mc, "new_stream", lambda: made.append(1) or real())
        monkeypatch.setattr(mc, "_POOL", threading.local())  # an empty pool, restored after
        requested = _run_spans_in_process(monkeypatch)
        frame = multi_ssu_frame(300, seed=14)
        scn = Scenario(DesignSpec("SI", n_I=100), "SI", n0=2, variance_methods=("SIMPLIFIED",),
                       replicates=200, true_run=1000)
        rows = mc._point_block_rows(scn)
        assert rows == 320  # so the reference run makes 4 spans, and the replicates 4 more
        reports = run_scenario(frame, scn, seed=89, threads=4)
        assert len(requested) == 2 and len(made) == rows
        monkeypatch.setattr(mc, "_POOL", threading.local())
        made.clear()
        assert run_scenario(frame, scn, seed=89) == reports
        assert len(made) == rows

    def test_rerun_is_identical(self, frame_1to5):
        scn = Scenario(DesignSpec("SI", n_I=2), "CENSUS", replicates=150, true_run=1000)
        a = run_scenario(frame_1to5, scn, seed=81, v_true={"total[y1]": 18.75})
        b = run_scenario(frame_1to5, scn, seed=81, v_true={"total[y1]": 18.75})
        assert a == b


class TestTrueVariance:
    def test_census_design_has_zero_variance(self, frame_1to5):
        scn = Scenario(DesignSpec("SI", n_I=5), "CENSUS", replicates=100, true_run=1500)
        v, means = approximate_true_variance(frame_1to5, scn, seed=82)
        assert v["total[y1]"] == 0.0
        assert means["total[y1]"] == pytest.approx(15.0)

    def test_matches_enumeration_variance(self, frame_1to5):
        scn = Scenario(DesignSpec("SI", n_I=2), "CENSUS", replicates=100, true_run=20000)
        v, _ = approximate_true_variance(frame_1to5, scn, seed=83)
        # se of a sample variance of 20000 draws is ~2% relative here
        assert v["total[y1]"] == pytest.approx(18.75, rel=0.06)


class TestScalingStudy:
    def test_one_cell_grid_reduces_to_run_scenario(self):
        frame = scalar_frame(np.arange(1.0, 21.0))
        scn = Scenario(
            DesignSpec("SI", n_I=5), "CENSUS",
            variance_methods=("SIMPLIFIED",), replicates=150, true_run=1000,
        )
        rows = scaling_study(frame, [({"population": "p", "n0": "", "nI": 5}, scn)], seed=84)
        reports = run_scenario(frame, scn, seed=84, stream_tag=("cell", 0))
        expected = sum(len(r.metric_rows()) for r in reports)
        assert len(rows) == expected
        assert all(row["population"] == "p" for row in rows)

    def test_empty_grid_rejected(self, frame_1to5):
        with pytest.raises(ValueError):
            scaling_study(frame_1to5, [], seed=85)


class TestNormalityScreen:
    def test_standard_normal_passes(self):
        rng = substream(86, "ad")
        screen = normality_screen(rng.standard_normal(10000))
        assert screen.statistic < 6.0
        assert screen.passed

    def test_uniform_fails(self):
        rng = substream(87, "ad")
        screen = normality_screen(rng.random(10000))
        assert not screen.passed

    def test_statistic_scale(self):
        # location shift of 0.1 at n=10000 should push A2 well above critical
        rng = substream(88, "ad")
        a2 = anderson_darling_normal(rng.standard_normal(10000) + 0.15)
        assert a2 > 6.0
