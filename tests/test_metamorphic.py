"""Metamorphic relations: how the outputs must change when the input is transformed.

A relation holds for any seed and any stream, so it keeps checking the
engines after a stream change re-records the golden digests.  Scaling every
y by a power of two is exact in floating point, so its relation holds bit
for bit.
"""
import csv
import dataclasses
import json

import numpy as np
import pytest

from twostage import (
    BootstrapConfig,
    CorrelationEstimand,
    DesignSpec,
    Frame,
    RatioEstimand,
    Scenario,
    SyntheticConfig,
    TotalEstimand,
    frame_to_csv,
    generate_population,
    ingest_frame,
    run_scenario,
)
from twostage.cli import main

SCALE = 8.0
DRAW = {"design": {"kind": "SI", "n_I": 10}, "second_stage": {"method": "SI", "n0": 3},
        "estimands": [{"kind": "total", "var": 1}, {"kind": "ratio", "num": 1, "den": 2},
                      {"kind": "correlation", "a": 1, "b": 2}],
        "variance_methods": ["UNBIASED", "SIMPLIFIED", "WITH_REPLACEMENT"]}
CONFIGS = {"estimate": DRAW,
           "bootstrap": dict(DRAW, bootstrap={"replicates": 200}, studentized=True)}
# the data outputs of each command beside its manifest, which holds times
OUTPUTS = {"estimate": ("estimate.json", "draw.json"),
           "bootstrap": ("bootstrap.json", "replicates.csv")}


def _population() -> Frame:
    return generate_population(SyntheticConfig(60, 8, 0.05, 20.0, 2.0, (0.1, 0.3), 0.6, seed=4))


def _run(tmp_path, command: str, frame: Frame, name: str):
    """Run ``command`` on ``frame`` through the CLI; returns its output directory."""
    frame_path, cfg_path, out = (tmp_path / f"{name}.csv", tmp_path / f"{name}-{command}.json",
                                 tmp_path / f"{name}-{command}")
    frame_to_csv(frame, frame_path)
    cfg_path.write_text(json.dumps(dict(CONFIGS[command], frame=str(frame_path))))
    assert main([command, "--config", str(cfg_path), "--seed", "31", "--out", str(out)]) == 0
    return out


def _same_bits(got: float, want: float) -> None:
    assert isinstance(got, float) and got.hex() == want.hex(), (got, want)


def _factor(kind: str, key: str) -> float:
    """The factor a field of an estimand's entry takes when every y is scaled by SCALE."""
    if kind != "total":  # ratios and correlations are scale-free
        return 1.0
    return SCALE ** 2 if key in ("variance_by_method", "bootstrap_variance") else SCALE


def _assert_scaled(base, scaled, factor: float) -> None:
    """Every float of ``scaled`` is ``factor`` times its twin in ``base``; the rest is equal."""
    if isinstance(base, dict):
        assert base.keys() == scaled.keys()
        for key in base:
            _assert_scaled(base[key], scaled[key], factor)
    elif isinstance(base, list):
        assert len(base) == len(scaled)
        for a, b in zip(base, scaled):
            _assert_scaled(a, b, factor)
    elif isinstance(base, float):
        _same_bits(scaled, base * factor)
    else:
        assert scaled == base


def _assert_report_scaled(base: dict, scaled: dict) -> None:
    _assert_scaled({k: v for k, v in base.items() if k != "estimates"},
                   {k: v for k, v in scaled.items() if k != "estimates"}, 1.0)
    assert len(base["estimates"]) == len(scaled["estimates"]) == 3
    for a, b in zip(base["estimates"], scaled["estimates"]):
        assert a.keys() == b.keys()
        for key in a:
            _assert_scaled(a[key], b[key], _factor(a["kind"], key))


def _assert_replicates_scaled(base, scaled) -> None:
    """replicates.csv: a total's theta* and se* scale; a ratio's or correlation's keep their bits."""
    base_rows, scaled_rows = (list(csv.reader(path.open())) for path in (base, scaled))
    assert base_rows[0] == scaled_rows[0] == ["r", "estimand", "theta_star", "se_star"]
    assert len(base_rows) == len(scaled_rows) == 1 + 3 * 200
    for a, b in zip(base_rows[1:], scaled_rows[1:]):
        assert a[:2] == b[:2]
        factor = SCALE if a[1].startswith("total") else 1.0
        _same_bits(float(b[2]), float(a[2]) * factor)
        assert (a[3] == "") == (b[3] == "") and (a[3] == "") != a[1].startswith("total")
        if a[3]:
            _same_bits(float(b[3]), float(a[3]) * factor)


@pytest.mark.parametrize("command", sorted(CONFIGS))
def test_scaling_every_y_by_eight(tmp_path, command):
    """A total's point, CIs and replicates scale by 8 and its variances by 64; a ratio and a
    correlation keep their bits."""
    frame = _population()
    scaled = Frame(frame.values * SCALE, frame.sizes, frame.psu_ids, frame.ssu_ids)
    base_out = _run(tmp_path, command, frame, "base")
    scaled_out = _run(tmp_path, command, scaled, "scaled")
    report, data = OUTPUTS[command]
    base_report, scaled_report = (json.loads((out / report).read_text())
                                  for out in (base_out, scaled_out))
    assert base_report["estimates"][0]["point"] != scaled_report["estimates"][0]["point"]
    _assert_report_scaled(base_report, scaled_report)
    if command == "estimate":
        assert (base_out / data).read_bytes() == (scaled_out / data).read_bytes()
    else:
        _assert_replicates_scaled(base_out / data, scaled_out / data)


MC = Scenario(DesignSpec("SI", n_I=10), "SYSTEMATIC", n0=3,
              estimands=(TotalEstimand(1), RatioEstimand(1, 2), CorrelationEstimand(1, 2)),
              variance_methods=("SIMPLIFIED", "WITH_REPLACEMENT"),
              bootstrap=BootstrapConfig(replicates=50, seed=0), studentized=True,
              replicates=100, true_run=1000)
# the report fields that carry the estimand's units; every other field is scale-free
SCALED_FIELDS = ("theta_true", "mean_estimate", "mean_se")


def test_scaling_every_y_by_eight_in_the_mc_harness():
    """``run_scenario`` on the frame, then on its copy with every y scaled by 8, in one process:
    RB, RS and the L/U rows keep their bits; a total's reference and mean estimates scale by 8
    for its point and intervals and by 64 for its variances, a ratio's and a correlation's keep
    their bits.  The copy has the frame's sizes, so it must not read the frame's kept table."""
    frame = _population()
    scaled = Frame(frame.values * SCALE, frame.sizes, frame.psu_ids, frame.ssu_ids)
    base_reports = run_scenario(frame, MC, seed=31)
    scaled_reports = run_scenario(scaled, MC, seed=31)
    assert len(base_reports) == len(scaled_reports) == 14
    for a, b in zip(base_reports, scaled_reports):
        factor = 1.0
        if a.estimand.startswith("total"):
            factor = SCALE if a.kind in ("point", "ci") else SCALE ** 2
        for field in dataclasses.fields(a):
            x, y = getattr(a, field.name), getattr(b, field.name)
            if isinstance(x, float):
                _same_bits(y, x * (factor if field.name in SCALED_FIELDS else 1.0))
            else:
                assert y == x, (a.estimand, a.family, field.name)


def _same_frame(a: Frame, b: Frame) -> None:
    for name in ("values", "sizes", "psu_ids", "ssu_ids", "offsets"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes(), name
    assert a.strata == b.strata


@pytest.mark.parametrize("n_psus, mean_size, icc", [(1, 2, (0.2,)), (60, 8, (0.1, 0.3)),
                                                     (300, 3, (0.5, 0.05, 0.2))])
def test_writing_and_reading_a_frame_gives_it_back(tmp_path, n_psus, mean_size, icc):
    """``ingest_frame`` of ``frame_to_csv`` is the frame itself, bit for bit, for generated
    frames; a stratified relabelling comes back regrouped by stratum, and then stays put."""
    frame = generate_population(SyntheticConfig(n_psus, mean_size, 0.3, 20.0, 2.0, icc, 0.6,
                                                seed=n_psus))
    path = tmp_path / "frame.csv"
    frame_to_csv(frame, path)
    _same_frame(ingest_frame(path), frame)

    relabelled = Frame(frame.values, frame.sizes, frame.psu_ids[::-1] * 3 - 50,
                       frame.ssu_ids * 2 + 1, [f"h{i % 3}" for i in range(frame.n_psus)])
    frame_to_csv(relabelled, path)
    once = ingest_frame(path)
    assert np.array_equal(np.sort(once.values, axis=0), np.sort(frame.values, axis=0))
    frame_to_csv(once, path)
    _same_frame(ingest_frame(path), once)
