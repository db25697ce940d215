"""Population model, synthetic generator calibration, and file ingestion."""
import math

import numpy as np
import pytest

from twostage import (
    DesignSpec,
    Frame,
    SyntheticConfig,
    calibrate_model,
    frame_to_csv,
    generate_population,
    ingest_frame,
    theoretical_variance,
)
from twostage.frame import IngestError, empirical_icc, empirical_pair_correlation


def _model_moments(rho_h, alpha):
    """ICC and pair correlation implied by the generator's parameters."""
    c2 = (1.0 - rho_h) / rho_h
    icc = 1.0 / (1.0 + c2 * (alpha**2 + 1.0))
    pair = (1.0 + c2 * alpha**2) / (1.0 + c2 * (alpha**2 + 1.0))
    return icc, pair


class TestCalibration:
    def test_low_icc_example(self):
        rho_h, alpha = calibrate_model(0.1, 0.6)
        assert rho_h == pytest.approx(0.2, rel=1e-12)
        assert alpha == pytest.approx(math.sqrt(1.25), rel=1e-12)

    def test_high_icc_example(self):
        rho_h, alpha = calibrate_model(0.3, 0.6)
        assert (1 - rho_h) / rho_h == pytest.approx(4 / 3, rel=1e-12)
        assert rho_h == pytest.approx(3 / 7, rel=1e-12)
        assert alpha == pytest.approx(math.sqrt(0.75), rel=1e-12)

    def test_shared_noise_vanishes_at_equal_targets(self):
        _, alpha = calibrate_model(0.6 - 1e-9, 0.6)
        assert alpha == pytest.approx(0.0, abs=1e-4)

    def test_infeasible_targets_rejected(self):
        with pytest.raises(ValueError, match="infeasible"):
            calibrate_model(0.6, 0.6)
        with pytest.raises(ValueError, match="infeasible"):
            calibrate_model(0.7, 0.6)
        with pytest.raises(ValueError):
            calibrate_model(0.0, 0.6)

    @pytest.mark.parametrize("targets", [(0.1, 0.6), (0.2, 0.6), (0.3, 0.6), (0.05, 0.9)])
    def test_moment_equations_hit_targets_exactly(self, targets):
        rho_star, r_star = targets
        rho_h, alpha = calibrate_model(rho_star, r_star)
        icc, pair = _model_moments(rho_h, alpha)
        assert icc == pytest.approx(rho_star, rel=1e-12)
        assert pair == pytest.approx(r_star, rel=1e-12)


class TestGeneratePopulation:
    def test_equal_sizes_when_cv_zero(self):
        cfg = SyntheticConfig(200, 40, 0.0, 20.0, 2.0, (0.1, 0.2, 0.3), 0.6, seed=7)
        frame = generate_population(cfg)
        assert frame.n_psus == 200
        assert np.all(frame.sizes == 40)
        assert frame.n_vars == 6
        assert frame.n_ssus == 8000

    def test_sigma_zero_degenerates(self):
        cfg = SyntheticConfig(50, 10, 0.0, 20.0, 0.0, (0.1,), 0.6, seed=1)
        frame = generate_population(cfg)
        assert np.allclose(frame.values, 20.0)
        # equal subtotals: no first-stage variance
        assert theoretical_variance(frame, DesignSpec("SI", n_I=10)) == 0.0

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["mean_size", "size_cv", "lam", "sigma"])
    def test_non_finite_numbers_are_refused(self, field, value):
        # a NaN passes every comparison-based check; a NaN size_cv would give 2-SSU PSUs
        numbers = {"mean_size": 10.0, "size_cv": 0.1, "lam": 20.0, "sigma": 2.0, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be finite$"):
            SyntheticConfig(50, **numbers, icc_targets=(0.1,), pair_corr_target=0.6, seed=1)

    def test_size_cv_realized(self):
        cfg = SyntheticConfig(4000, 40, 0.06, 20.0, 2.0, (0.1,), 0.6, seed=9)
        frame = generate_population(cfg)
        sizes = frame.sizes.astype(float)
        assert sizes.mean() == pytest.approx(40.0, rel=0.01)
        assert sizes.std() / sizes.mean() == pytest.approx(0.06, rel=0.12)
        assert sizes.min() >= 2

    def test_deterministic_given_seed(self):
        cfg = SyntheticConfig(100, 15, 0.03, 20.0, 2.0, (0.2,), 0.6, seed=123)
        a = generate_population(cfg)
        b = generate_population(cfg)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.sizes, b.sizes)
        c = generate_population(SyntheticConfig(100, 15, 0.03, 20.0, 2.0, (0.2,), 0.6, seed=124))
        assert not np.array_equal(a.values, c.values)

    def test_empirical_icc_and_pair_correlation(self):
        cfg = SyntheticConfig(2500, 40, 0.06, 20.0, 2.0, (0.1, 0.3), 0.6, seed=11)
        frame = generate_population(cfg)
        assert empirical_icc(frame, 0) == pytest.approx(0.1, abs=0.02)
        assert empirical_icc(frame, 2) == pytest.approx(0.3, abs=0.02)
        assert empirical_pair_correlation(frame, 0, 1) == pytest.approx(0.6, abs=0.03)
        assert empirical_pair_correlation(frame, 2, 3) == pytest.approx(0.6, abs=0.03)


class TestFrameInvariants:
    def test_sizes_must_cover_values(self):
        with pytest.raises(ValueError):
            Frame(np.ones((5, 1)), np.array([2, 2]))
        with pytest.raises(ValueError, match="at least one SSU"):
            Frame(np.ones((2, 1)), np.array([2, 0]))
        with pytest.raises(ValueError, match="finite"):
            Frame(np.array([[np.nan]]), np.array([1]))

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            Frame(np.ones((2, 1)), np.array([1, 1]), psu_ids=np.array([3, 3]))
        with pytest.raises(ValueError, match="duplicate ssu_id"):
            Frame(np.ones((2, 1)), np.array([2]), ssu_ids=np.array([5, 5]))

    def test_subtotals_and_views(self):
        values = np.array([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]])
        frame = Frame(values, np.array([2, 1]))
        assert np.allclose(frame.subtotals, [[3.0, 30.0], [3.0, 30.0]])
        assert frame.offsets.tolist() == [0, 2, 3]
        assert np.shares_memory(frame.values, values)  # a view, not a copy

    def test_constructor_round_trip(self):
        values = np.array([[1.0], [2.0], [4.0]])
        frame = Frame(values, np.array([2, 1]), psu_ids=np.array([7, 9]),
                      ssu_ids=np.array([0, 1, 0]), strata=["a", "b"])
        back = Frame(frame.values, frame.sizes, frame.psu_ids, frame.ssu_ids, frame.strata)
        assert back.n_psus == 2
        assert list(back.psu_ids) == [7, 9]
        assert back.ssu_ids.tolist() == [0, 1, 0]
        assert back.strata == ("a", "b")
        assert back.values[back.offsets[1], 0] == 4.0

    def test_arrays_are_read_only(self):
        frame = Frame(np.arange(6.0).reshape(3, 2), np.array([2, 1]), strata=["a", "b"])
        cached = (frame.subtotals, frame.within_psu_variances,
                  frame.stratum_psu_indices()["a"])
        for array in (frame.values, frame.sizes, frame.offsets, frame.psu_ids,
                      frame.ssu_ids) + cached:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1
        with pytest.raises(ValueError, match="read-only"):
            frame.values[0, 0] = 99.0
        assert frame.subtotals[0].tolist() == [2.0, 4.0]

    def test_stratum_groups_are_cached(self):
        frame = Frame(np.ones((4, 1)), np.ones(4, dtype=np.int64), strata=["a", "b", "a", "b"])
        first = frame.stratum_psu_indices()
        assert {k: v.tolist() for k, v in first.items()} == {"a": [0, 2], "b": [1, 3]}
        first.pop("a")  # the caller's dict is a copy
        again = frame.stratum_psu_indices()
        assert set(again) == {"a", "b"}
        assert again["b"] is first["b"]


class TestIngestion:
    def _write(self, tmp_path, text, name="frame.csv"):
        path = tmp_path / name
        path.write_text(text)
        return path

    def test_three_rows_two_psus(self, tmp_path):
        path = self._write(tmp_path, "psu_id,ssu_id,y1,y2\n1,1,1.5,2\n1,2,2.5,3\n2,1,4,5\n")
        frame = ingest_frame(path)
        assert frame.n_psus == 2
        assert frame.n_ssus == 3
        assert frame.n_vars == 2
        assert frame.strata is None

    def test_duplicate_ssu_reports_line(self, tmp_path):
        path = self._write(tmp_path, "psu_id,ssu_id,y1\n1,1,1\n1,1,2\n")
        with pytest.raises(IngestError, match="line 3.*duplicate"):
            ingest_frame(path)

    def test_malformed_and_ragged_rows(self, tmp_path):
        path = self._write(tmp_path, "psu_id,ssu_id,y1\n1,1,abc\n")
        with pytest.raises(IngestError, match="line 2"):
            ingest_frame(path)
        path = self._write(tmp_path, "psu_id,ssu_id,y1\n1,1,1.0,9\n")
        with pytest.raises(IngestError, match="line 2.*fields"):
            ingest_frame(path)

    def test_stratified_partition(self, tmp_path):
        lines = ["stratum,psu_id,ssu_id,y1"]
        for k in range(11):
            lines.append(f"s{k},{2 * k},0,1.0")
            lines.append(f"s{k},{2 * k + 1},0,2.0")
        path = self._write(tmp_path, "\n".join(lines) + "\n")
        frame = ingest_frame(path)
        groups = frame.stratum_psu_indices()
        assert len(groups) == 11
        assert sum(g.size for g in groups.values()) == frame.n_psus

    def test_psu_in_two_strata_rejected(self, tmp_path):
        path = self._write(tmp_path, "stratum,psu_id,ssu_id,y1\na,1,0,1\nb,1,1,2\n")
        with pytest.raises(IngestError, match="two strata"):
            ingest_frame(path)

    def test_round_trip_preserves_frame(self, tmp_path):
        cfg = SyntheticConfig(20, 6, 0.1, 20.0, 2.0, (0.2,), 0.6, seed=3)
        frame = generate_population(cfg)
        path = tmp_path / "pop.csv"
        frame_to_csv(frame, path)
        back = ingest_frame(path)
        assert np.array_equal(back.sizes, frame.sizes)
        assert np.array_equal(back.values, frame.values)

    def test_schema_override_and_tsv(self, tmp_path):
        path = self._write(tmp_path, "cluster\tunit\tv1\n1\t1\t3.0\n1\t2\t4.0\n", name="f.tsv")
        frame = ingest_frame(path, schema={"psu_id": "cluster", "ssu_id": "unit", "y_prefix": "v"})
        assert frame.n_psus == 1
        assert frame.subtotals[0, 0] == 7.0
        with pytest.raises(ValueError, match="unknown schema"):
            ingest_frame(path, schema={"bogus": "x"})
