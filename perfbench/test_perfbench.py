"""Tests of the benchmark itself: every checker rejects a perturbed output.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""
import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import layertrace  # noqa: E402
import run  # noqa: E402
import twostage.coupling as coupling  # noqa: E402
import twostage.designs as designs  # noqa: E402
import twostage.montecarlo as montecarlo  # noqa: E402
from twostage.frame import (  # noqa: E402
    Frame,
    SyntheticConfig,
    frame_to_csv,
    generate_population,
    ingest_frame,
)


def _means(exact, se, k, shift=0.0, seed=0):
    rng = np.random.default_rng(seed)
    return list(exact + shift * se * math.sqrt(k) + se * rng.standard_normal(k)), [se] * k


class TestMeanCheck:
    def test_accepts_unbiased_means(self):
        means, ses = _means(1000.0, 2.0, 30)
        assert checks.check_mean("total", 1000.0, means, ses) == []

    @pytest.mark.parametrize("shift", [10.0, -10.0])
    def test_rejects_total_shifted_by_10_se(self, shift):
        # shift is in units of the pooled standard error
        means, ses = _means(1000.0, 2.0, 30, shift=shift)
        assert checks.check_mean("total", 1000.0, means, ses)

    def test_rejects_unusable_se(self):
        assert checks.check_mean("total", 1.0, [1.0], [0.0])
        assert checks.check_mean("total", 1.0, [math.nan], [1.0])

    def test_positive_and_finite(self):
        assert checks.check_positive({"v": 2.0}) == []
        for bad in (0.0, -1.0, math.nan, math.inf):
            assert checks.check_positive({"v": bad})
        assert checks.check_finite({"m": math.inf})


class TestCouplingChecks:
    def test_be_si_bound(self):
        assert checks.check_be_si("be", 0.30, 0.01, 0.3333) == []
        assert checks.check_be_si("be", 0.3333 + 3.5 * 0.01, 0.01, 0.3333)

    @pytest.mark.parametrize("offset", [10.0, -10.0])
    def test_sir_si_lhs_off_the_identity(self, offset):
        n_i, n_psus, se = 20, 2000, 0.002
        rhs = (n_i - 1) / (n_psus - 1)
        assert checks.check_sir_si_identity("sir", n_i, n_psus, [rhs + 0.5 * se], [se]) == []
        assert checks.check_sir_si_identity("sir", n_i, n_psus, [rhs + offset * se], [se])

    def test_sir_si_identity_on_library_output(self):
        frame = Frame(np.array([[3.0], [1.0], [4.0], [1.0], [5.0]]), np.ones(5, dtype=np.int64))
        rep = coupling.verify_sir_si_bound(frame, 2, 4000, seed=11)
        assert checks.check_sir_si_identity("sir", 2, 5, [rep.lhs_estimate], [rep.lhs_se]) == []

    def test_decay(self):
        row = lambda a, s: {"mean_sq_diff": a, "abs_s2_diff": a, "boot_sq_diff": a,
                            "mean_sq_diff_se": s, "abs_s2_diff_se": s, "boot_sq_diff_se": s}
        good = [row(20.0, 1.0), row(2.0, 0.2), row(0.2, 0.05)]
        assert checks.check_decay_order("decay", good) == []
        assert checks.check_decay_pooled("decay", [good, good]) == []
        flat = [row(20.0, 1.0), row(2.0, 0.2), row(2.0, 0.2)]
        assert checks.check_decay_order("decay", flat)
        close = [row(20.0, 1.0), row(2.0, 0.6), row(1.0, 0.6)]  # decreasing, within noise
        assert checks.check_decay_order("decay", close) == []
        assert checks.check_decay_pooled("decay", [close])


class TestFrameRoundTrip:
    @pytest.fixture(scope="class")
    def frames(self, tmp_path_factory):
        cfg = SyntheticConfig(30, 6, 0.1, 20.0, 2.0, (0.1, 0.3), 0.6, seed=5)
        generated = generate_population(cfg)
        path = str(tmp_path_factory.mktemp("frame") / "frame.csv")
        frame_to_csv(generated, path)
        return generated, ingest_frame(path)

    def test_round_trip_is_bit_identical(self, frames):
        assert checks.check_frame_equal(*frames) == []

    def test_rejects_one_value_changed_by_one_ulp(self, frames):
        expected, got = frames
        values = got.values.copy()
        values[17, 1] = np.nextafter(values[17, 1], np.inf)
        changed = Frame(values, got.sizes, got.psu_ids, got.ssu_ids)
        problems = checks.check_frame_equal(expected, changed)
        assert len(problems) == 1 and problems[0].startswith("frame values differ")

    def test_rejects_changed_ids(self, frames):
        expected, got = frames
        psu_ids = got.psu_ids.copy()
        psu_ids[0] = 999
        assert checks.check_frame_equal(
            expected, Frame(got.values, got.sizes, psu_ids, got.ssu_ids))


class TestThreadOutputs:
    def test_rejects_non_identical_outputs(self):
        a = {"mc_total.csv": b"x,1.0\n", "mc_ratio.csv": b"y,2.0\n"}
        assert checks.check_same_outputs(a, dict(a)) == []
        assert checks.check_same_outputs(a, {**a, "mc_total.csv": b"x,1.1\n"})
        assert checks.check_same_outputs(a, {"mc_total.csv": a["mc_total.csv"]})


class TestTail:
    def test_tail_leaves_ten_beyond(self):
        value, pct, beyond = run.tail(list(range(40)))
        assert (value, beyond) == (29, 10)
        assert pct == pytest.approx(75.0)

    def test_few_values_report_the_maximum(self):
        assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


class TestTracer:
    def test_wraps_at_import_sites_and_restores(self):
        original = designs.si_order
        tracer = layertrace.Tracer()
        tracer.install()
        try:
            assert montecarlo.si_order is not original
            assert designs.si_order is not original
        finally:
            tracer.uninstall()
        assert montecarlo.si_order is original and designs.si_order is original

    def test_self_times_sum_to_op_wall(self):
        frame = Frame(np.arange(1.0, 51.0)[:, None], np.ones(50, dtype=np.int64))
        tracer = layertrace.Tracer()
        tracer.install()
        try:
            with tracer.op_span(0):
                coupling.verify_hajek_bound(frame, 5, 1000, seed=3)
        finally:
            tracer.uninstall()
        own = tracer.self_times()
        root = [s for s in tracer.spans if s[0] == layertrace.OP_LAYER]
        assert len(root) == 1
        assert sum(own) == root[0][2] - root[0][1]
        assert all(s >= 0 for s in own)
        names = [s[0] for s in tracer.spans]
        assert names.count("coupling.coupled_be_si") == 1000
        assert names.count("rng.substream") == 1000
        assert tracer.counters["coupling.coupled_be_si.repaired"] <= 1000


class TestSpeed:
    def test_stopwatch_laps_and_timings(self):
        import speed

        stopwatch = speed.Stopwatch("draws")
        stopwatch.start()
        stopwatch.lap("a")
        stopwatch.lap("b")
        assert list(stopwatch.laps) == ["a", "b"]
        assert stopwatch.wall_s == sum(stopwatch.laps.values()) > 0
        assert len(stopwatch.timings) == 9  # three kernel timings at every boundary
        assert speed.slowdown("draws", stopwatch.timings) > 0

    def test_ops_borrow_neighbour_timings(self):
        class Wl:
            kernel = "draws"

        ref = __import__("speed").KERNELS["draws"][2]
        recs = []
        for t in (1.0, 1.0, 5.0, 1.0, 1.0, 1.0):
            rec = run.OpRecord(len(recs), False)
            rec.timings = [t * ref]
            recs.append(rec)
        # one slow timing is outvoted by the neighbours' timings
        assert run.slowdowns(Wl, recs) == [1.0] * 6
