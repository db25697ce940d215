"""Command-line front end: config validation, outputs, reproducibility."""
import json
import platform

import numpy as np
import pytest

from twostage import (
    DesignSpec,
    ProportionEstimand,
    Scenario,
    frame_to_csv,
    ingest_frame,
    population_summary,
    verify_decay,
    verify_hajek_bound,
    verify_sir_si_bound,
)
import twostage.cli as cli
import twostage.coupling as coupling
from twostage.cli import ConfigError, main, parse_config
from conftest import multi_ssu_frame

POP = {
    "n_psus": 60,
    "mean_size": 8,
    "size_cv": 0.05,
    "lam": 20.0,
    "sigma": 2.0,
    "icc_targets": [0.1, 0.3],
    "pair_corr_target": 0.6,
}


def _write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _run(args):
    return main([str(a) for a in args])


def _config_error(tmp_path, capsys, command, payload):
    """Run ``command`` on ``payload``, expect exit 2 with a config error, return its message."""
    cfg = _write_config(tmp_path, f"{command}.json", payload)
    rc = _run([command, "--config", cfg, "--seed", 1, "--out", tmp_path / "o"])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "config"
    return err["error"]["message"]


MC_SCENARIO = {"first_stage": {"kind": "SI", "n_I": [8]}, "second_stage": {"method": "CENSUS"},
               "estimands": [{"kind": "total", "var": 1}], "replicates": 100, "true_run": 1000}
PROPORTION = {"kind": "proportion", "var": 1, "category": 1.0}
# faults of an mc scenario that need no frame: (scenario config changes, the same changes
# to a library Scenario, the config key the CLI names)
FRAME_FREE_FAULTS = {
    "systematic-unbiased": (
        {"second_stage": {"method": "SYSTEMATIC", "n0": [2]}, "variance_methods": ["UNBIASED"]},
        {"second_stage": "SYSTEMATIC", "n0": 2, "variance_methods": ("UNBIASED",)},
        "variance_methods[0]"),
    "strat-wr-under-si": ({"variance_methods": ["STRAT_WR"]},
                          {"variance_methods": ("STRAT_WR",)}, "variance_methods[0]"),
    "studentized-without-bootstrap": (
        {"variance_methods": ["SIMPLIFIED"], "studentized": True},
        {"variance_methods": ("SIMPLIFIED",), "studentized": True}, "studentized"),
    "two-strat-si-proportions": (
        {"first_stage": {"kind": "STRAT_SI", "allocations": {"s0": 2}},
         "estimands": [PROPORTION, PROPORTION]},
        {"first_stage": DesignSpec("STRAT_SI", allocations={"s0": 2}),
         "estimands": (ProportionEstimand(0, 1.0),) * 2}, "estimands"),
    "replicates-99": ({"replicates": 99}, {"replicates": 99}, "replicates"),
    "true-run-999": ({"true_run": 999}, {"true_run": 999}, "true_run"),
    "alpha-0.5": ({"alpha": 0.5}, {"ci_alpha": 0.5}, "alpha"),
    "census-with-n0": ({"second_stage": {"method": "CENSUS", "n0": [2]}}, {"n0": 2},
                       "second_stage.n0"),
    "one-sampled-psu": (
        {"first_stage": {"kind": "SI", "n_I": [1]}, "variance_methods": ["SIMPLIFIED"]},
        {"first_stage": DesignSpec("SI", n_I=1), "variance_methods": ("SIMPLIFIED",)},
        "first_stage.n_I"),
}
# faults of a verify check that need no frame: (check, config changes, the same changes to
# the library call, the config key the CLI names, the attribute the library names); a decay
# "frames" change is the number of frames
VERIFY_FAULTS = {
    "be-si-n_I-0": ("be_si", {"n_I": 0}, {"n_I": 0}, "bounds[0].n_I", "n_I"),
    "sir-si-replicates-999": ("sir_si", {"replicates": 999}, {"replicates": 999},
                              "bounds[0].replicates", "replicates"),
    "be-si-systematic": ("be_si", {"second_stage": {"method": "SYSTEMATIC", "n0": 1}},
                         {"second_stage": "SYSTEMATIC", "n0": 1},
                         "bounds[0].second_stage.method", "second_stage"),
    "sir-si-si-without-n0": ("sir_si", {"second_stage": {"method": "SI"}},
                             {"second_stage": "SI"}, "bounds[0].second_stage.n0", "n0"),
    "be-si-census-with-n0": ("be_si", {"second_stage": {"method": "CENSUS", "n0": 1}},
                             {"n0": 1}, "bounds[0].second_stage.n0", "n0"),
    "decay-two-frames": ("decay", {"frames": 2}, {"frames": 2}, "decay.frames", "frames"),
    "decay-n_I-1": ("decay", {"n_I": 1}, {"n_I": 1}, "decay.n_I", "n_I"),
    "decay-m-0": ("decay", {"m": 0}, {"m": 0}, "decay.m", "m"),
    "decay-m-1": ("decay", {"m": 1}, {"m": 1}, "decay.m", "m"),
    "decay-replicates-1": ("decay", {"replicates": 1}, {"replicates": 1}, "decay.replicates",
                           "replicates"),
    # one above the 10,000,000-replicate ceiling
    "sir-si-replicates-above-the-ceiling": ("sir_si", {"replicates": 10**7 + 1},
                                            {"replicates": 10**7 + 1},
                                            "bounds[0].replicates", "replicates"),
    "decay-replicates-above-the-ceiling": ("decay", {"replicates": 10**7 + 1},
                                           {"replicates": 10**7 + 1}, "decay.replicates",
                                           "replicates"),
    "decay-unknown-method": ("decay", {"second_stage": {"method": "PPS", "n0": 2}},
                             {"second_stage": "PPS", "n0": 2}, "decay.second_stage.method",
                             "second_stage"),
    "decay-systematic-n0-0": ("decay", {"second_stage": {"method": "SYSTEMATIC", "n0": 0}},
                              {"second_stage": "SYSTEMATIC", "n0": 0}, "decay.second_stage.n0",
                              "n0"),
}


class TestParseConfig:
    def test_minimal_genpop_defaults(self, tmp_path):
        path = _write_config(tmp_path, "c.json", {"population": POP})
        cfg = parse_config("gen-pop", path, {"seed": 5, "out": str(tmp_path / "o")})
        assert cfg.seed == 5
        assert cfg.threads == 1
        assert cfg.payload["population"]["n_psus"] == 60

    def test_unknown_key_is_named(self, tmp_path):
        path = _write_config(tmp_path, "c.json", {"population": POP, "bogus_key": 1})
        with pytest.raises(ConfigError, match="bogus_key"):
            parse_config("gen-pop", path, {"seed": 5, "out": "o"})

    def test_nested_unknown_key(self, tmp_path):
        pop = dict(POP, extra=3)
        path = _write_config(tmp_path, "c.json", {"population": pop})
        with pytest.raises(ConfigError, match="config.population.*extra"):
            parse_config("gen-pop", path, {"seed": 5, "out": "o"})

    def test_seed_is_mandatory(self, tmp_path):
        path = _write_config(tmp_path, "c.json", {"population": POP, "out": "o"})
        with pytest.raises(ConfigError, match="seed"):
            parse_config("gen-pop", path, {})

    def test_flags_override_file_values(self, tmp_path):
        path = _write_config(
            tmp_path, "c.json", {"population": POP, "seed": 1, "out": "a", "threads": 2}
        )
        cfg = parse_config("gen-pop", path, {"seed": 9, "out": "b", "threads": None})
        assert cfg.seed == 9
        assert cfg.out == "b"
        assert cfg.threads == 2

    def test_mc_grid_config(self, tmp_path):
        payload = {
            "population": POP,
            "population_label": "pop3",
            "scenario": {
                "first_stage": {"kind": "SI", "n_I": [20, 200]},
                "second_stage": {"method": "SYSTEMATIC", "n0": [5, 10]},
                "estimands": [
                    {"kind": "total", "var": 1, "rho": 0.1},
                    {"kind": "ratio", "num": 1, "den": 2, "rho": 0.1},
                ],
                "variance_methods": ["SIMPLIFIED"],
                "bootstrap": {"replicates": 1000},
                "replicates": 1000,
                "true_run": 20000,
            },
        }
        path = _write_config(tmp_path, "c.json", payload)
        cfg = parse_config("mc", path, {"seed": 3, "out": "o"})
        assert len(cfg.payload["scenario"]["_estimands"]) == 2

    def test_invalid_estimand_kind(self, tmp_path):
        payload = {
            "frame": "f.csv",
            "design": {"kind": "SI", "n_I": 2},
            "second_stage": {"method": "CENSUS"},
            "estimands": [{"kind": "median", "var": 1}],
        }
        path = _write_config(tmp_path, "c.json", payload)
        with pytest.raises(ConfigError, match="estimands"):
            parse_config("estimate", path, {"seed": 1, "out": "o"})

    def test_unknown_command(self):
        with pytest.raises(ConfigError, match="unknown command"):
            parse_config("transmogrify", None, {"seed": 1, "out": "o"})


class TestGenPopEstimateRoundTrip:
    def test_census_estimate_recovers_population_total(self, tmp_path):
        out_pop = tmp_path / "pop"
        cfg = _write_config(tmp_path, "gen.json", {"population": POP})
        assert _run(["gen-pop", "--config", cfg, "--seed", 11, "--out", out_pop]) == 0
        frame_path = out_pop / "frame.csv"
        frame = ingest_frame(frame_path)
        total, _, _ = population_summary(frame, 0)

        est_cfg = _write_config(
            tmp_path,
            "est.json",
            {
                "frame": str(frame_path),
                "design": {"kind": "SI", "n_I": 60},
                "second_stage": {"method": "CENSUS"},
                "estimands": [{"kind": "total", "var": 1}],
            },
        )
        out_est = tmp_path / "est"
        assert _run(["estimate", "--config", est_cfg, "--seed", 12, "--out", out_est]) == 0
        report = json.loads((out_est / "estimate.json").read_text())
        assert report["estimates"][0]["point"] == pytest.approx(total, rel=1e-12)

    def test_sidecar_carries_config_and_rng(self, tmp_path):
        cfg = _write_config(tmp_path, "gen.json", {"population": POP})
        out = tmp_path / "pop"
        assert _run(["gen-pop", "--config", cfg, "--seed", 11, "--out", out]) == 0
        meta = json.loads((out / "frame.meta.json").read_text())
        assert meta["rng"] == "philox4x64"
        assert meta["population"]["icc_targets"] == [0.1, 0.3]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "gen-pop"
        assert "wall_time_s" in manifest

    def test_manifest_records_environment(self, tmp_path):
        gen = _write_config(tmp_path, "gen.json", {"population": POP})
        verify = _write_config(tmp_path, "verify.json", {"bounds": [
            {"check": "be_si", "n_I": 5, "frame": {"kind": "range", "n_psus": 50},
             "replicates": 1000}]})
        for command, cfg in (("gen-pop", gen), ("verify", verify)):
            out = tmp_path / command
            assert _run([command, "--config", cfg, "--seed", 3, "--out", out]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["environment"] == {
                "python": platform.python_version(),
                "numpy": np.__version__,
                "platform": platform.platform(),
            }

    def test_manifest_times_every_phase(self, tmp_path):
        """Frame load or generation, compute and output writing, within the wall time."""
        frame = str(tmp_path / "gen-pop" / "frame.csv")
        draw = {"frame": frame, "design": {"kind": "SI", "n_I": 10},
                "second_stage": {"method": "SI", "n0": 3},
                "estimands": [{"kind": "total", "var": 1}, {"kind": "correlation", "a": 1, "b": 2}],
                "variance_methods": ["SIMPLIFIED"]}
        configs = {
            "gen-pop": {"population": POP},
            "estimate": draw,
            "bootstrap": dict(draw, bootstrap={"replicates": 100}),
            "mc": {"frame": frame, "scenario": {
                "first_stage": {"kind": "SI", "n_I": [8]},
                "second_stage": {"method": "SYSTEMATIC", "n0": [3]},
                "estimands": [{"kind": "total", "var": 1}], "variance_methods": ["SIMPLIFIED"],
                "replicates": 100, "true_run": 1000}},
            "verify": {"bounds": [{"check": "be_si", "n_I": 5, "replicates": 1000,
                                   "frame": {"kind": "range", "n_psus": 50}}],
                       "decay": {"n_I": 4, "replicates": 1000, "frames": [
                           {"kind": "normal", "n_psus": n, "mean": 10.0, "sd": 2.0}
                           for n in (20, 40, 80)]}},
        }
        for command, payload in configs.items():
            out = tmp_path / command
            cfg = _write_config(tmp_path, f"{command}.json", payload)
            assert _run([command, "--config", cfg, "--seed", 3, "--out", out]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            phases = manifest["phase_s"]
            assert set(phases) == {"frame", "compute", "write"}
            assert all(s >= 0.0 for s in phases.values())
            # whole milliseconds: their sum rounds to at most the wall time
            assert round(sum(phases.values()), 3) <= manifest["wall_time_s"]


class TestEstimateAndBootstrapCommands:
    @pytest.fixture
    def frame_path(self, tmp_path):
        cfg = _write_config(tmp_path, "gen.json", {"population": POP})
        out = tmp_path / "pop"
        assert _run(["gen-pop", "--config", cfg, "--seed", 21, "--out", out]) == 0
        return str(out / "frame.csv")

    def test_estimate_report_structure(self, tmp_path, frame_path):
        cfg = _write_config(
            tmp_path,
            "est.json",
            {
                "frame": frame_path,
                "design": {"kind": "SI", "n_I": 10},
                "second_stage": {"method": "SI", "n0": 3},
                "estimands": [
                    {"kind": "total", "var": 1},
                    {"kind": "correlation", "a": 1, "b": 2},
                ],
                "variance_methods": ["UNBIASED", "SIMPLIFIED", "WITH_REPLACEMENT"],
            },
        )
        out = tmp_path / "est"
        assert _run(["estimate", "--config", cfg, "--seed", 22, "--out", out]) == 0
        report = json.loads((out / "estimate.json").read_text())
        total_entry = report["estimates"][0]
        assert set(total_entry["variance_by_method"]) == {
            "UNBIASED", "SIMPLIFIED", "WITH_REPLACEMENT",
        }
        assert total_entry["variance_by_method"]["WITH_REPLACEMENT"] >= (
            total_entry["variance_by_method"]["SIMPLIFIED"]
        )
        for ci in total_entry["ci_by_method"].values():
            assert ci[0] <= total_entry["point"] <= ci[1]
        corr_entry = report["estimates"][1]
        assert -1.0 <= corr_entry["point"] <= 1.0
        assert (out / "draw.json").exists()

    def test_manifest_lists_skipped_variance_methods(self, tmp_path, frame_path):
        payload = {
            "frame": frame_path,
            "design": {"kind": "SIR", "n_I": 10},
            "second_stage": {"method": "CENSUS"},
            "estimands": [{"kind": "total", "var": 1}, {"kind": "total", "var": 2}],
            "variance_methods": ["WITH_REPLACEMENT", "SIMPLIFIED", "BERNOULLI"],
        }
        out = tmp_path / "est"
        cfg = _write_config(tmp_path, "est.json", payload)
        assert _run(["estimate", "--config", cfg, "--seed", 22, "--out", out]) == 0
        report = json.loads((out / "estimate.json").read_text())
        labels = [e["estimand"] for e in report["estimates"]]
        assert all(set(e["variance_by_method"]) == {"WITH_REPLACEMENT"}
                   for e in report["estimates"])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["skipped_variance_methods"] == [
            {"estimand": label, "method": method, "message": message}
            for label in labels
            for method, message in [("SIMPLIFIED", "SIMPLIFIED variance needs an SI total"),
                                    ("BERNOULLI", "BERNOULLI variance needs a BE total")]
        ]
        # the data outputs are those of a run that never asked for the skipped methods
        payload["variance_methods"] = ["WITH_REPLACEMENT"]
        lean = tmp_path / "lean"
        cfg = _write_config(tmp_path, "lean.json", payload)
        assert _run(["estimate", "--config", cfg, "--seed", 22, "--out", lean]) == 0
        for name in ("estimate.json", "draw.json"):
            assert (out / name).read_bytes() == (lean / name).read_bytes()
        manifest = json.loads((lean / "manifest.json").read_text())
        assert manifest["skipped_variance_methods"] == []

    def test_bootstrap_outputs(self, tmp_path, frame_path):
        cfg = _write_config(
            tmp_path,
            "boot.json",
            {
                "frame": frame_path,
                "design": {"kind": "SI", "n_I": 10},
                "second_stage": {"method": "SYSTEMATIC", "n0": 3},
                "estimands": [{"kind": "total", "var": 1}],
                "variance_methods": ["SIMPLIFIED"],
                "bootstrap": {"replicates": 200},
                "studentized": True,
            },
        )
        out = tmp_path / "boot"
        assert _run(["bootstrap", "--config", cfg, "--seed", 23, "--out", out]) == 0
        report = json.loads((out / "bootstrap.json").read_text())
        entry = report["estimates"][0]
        assert entry["bootstrap_variance"] > 0
        assert len(entry["ci_percentile"]) == 2
        assert len(entry["ci_studentized"]) == 2
        lines = (out / "replicates.csv").read_text().strip().splitlines()
        assert lines[0] == "r,estimand,theta_star,se_star"
        assert len(lines) == 201

    def test_studentized_drops_degenerate_replicates(self, tmp_path, frame_path):
        # with n_I = 2 about half the replicates resample one PSU twice (se* = 0)
        cfg = _write_config(
            tmp_path,
            "boot2.json",
            {
                "frame": frame_path,
                "design": {"kind": "SI", "n_I": 2},
                "second_stage": {"method": "CENSUS"},
                "estimands": [{"kind": "total", "var": 1}, {"kind": "total", "var": 2},
                              {"kind": "ratio", "num": 1, "den": 2}],
                "bootstrap": {"replicates": 200},
                "studentized": True,
            },
        )
        out = tmp_path / "boot2"
        assert _run(["bootstrap", "--config", cfg, "--seed", 24, "--out", out]) == 0
        zeros: dict = {}
        for line in (out / "replicates.csv").read_text().splitlines()[1:]:
            _, label, _, se = line.split(",")
            if se:
                zeros[label] = zeros.get(label, 0) + (float(se) == 0.0)
        assert 0 < zeros["total[y1]"] < 200
        for entry in json.loads((out / "bootstrap.json").read_text())["estimates"][:2]:
            lo, hi = entry["ci_studentized"]
            assert lo <= hi
        # the manifest counts the dropped replicates of every Studentized interval;
        # the ratio has no se* and no Studentized interval
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["studentized_dropped_replicates"] == zeros


class TestVerifyCommand:
    def test_bounds_and_decay_outputs(self, tmp_path):
        cfg = _write_config(
            tmp_path,
            "verify.json",
            {
                "bounds": [
                    {"check": "be_si", "n_I": 5,
                     "frame": {"kind": "range", "n_psus": 50}, "replicates": 2000},
                    {"check": "sir_si", "n_I": 5,
                     "frame": {"kind": "normal", "n_psus": 50, "mean": 10, "sd": 2},
                     "replicates": 2000},
                ],
                "decay": {
                    "n_I": 5, "replicates": 2000,
                    "frames": [
                        {"kind": "normal", "n_psus": n, "mean": 100, "sd": 15}
                        for n in (50, 500, 5000)
                    ],
                },
            },
        )
        out = tmp_path / "verify"
        assert _run(["verify", "--config", cfg, "--seed", 31, "--out", out]) == 0
        bounds = (out / "bounds.csv").read_text().strip().splitlines()
        assert bounds[0].startswith("check,")
        assert len(bounds) == 3
        assert all(line.endswith("True") for line in bounds[1:])
        decay = json.loads((out / "decay.json").read_text())
        assert set(decay["strictly_decreasing"]) == {
            "mean_sq_diff", "abs_s2_diff", "boot_sq_diff",
        }


    def test_path_frame_with_an_si_second_stage_matches_the_library(self, tmp_path):
        frames = [multi_ssu_frame(n, seed=n) for n in (40, 80, 160)]
        paths = []
        for i, frame in enumerate(frames):
            paths.append(str(tmp_path / f"frame{i}.csv"))
            frame_to_csv(frame, paths[-1])
        second = {"method": "SI", "n0": 3}
        cfg = _write_config(tmp_path, "verify.json", {
            "bounds": [
                {"check": check, "n_I": 6, "replicates": 1000, "second_stage": second,
                 "frame": {"kind": "path", "path": paths[0]}}
                for check in ("be_si", "sir_si")
            ],
            "decay": {"n_I": 5, "replicates": 1000, "second_stage": second,
                      "frames": [{"kind": "path", "path": p} for p in paths]},
        })
        out = tmp_path / "verify"
        assert _run(["verify", "--config", cfg, "--seed", 32, "--out", out]) == 0
        frames = [ingest_frame(p) for p in paths]
        bounds = [fn(frames[0], 6, 1000, 32, second_stage="SI", n0=3).to_dict()
                  for fn in (verify_hajek_bound, verify_sir_si_bound)]
        assert json.loads((out / "bounds.json").read_text()) == bounds
        decay = verify_decay(frames, 5, 1000, 32, second_stage="SI", n0=3)
        assert json.loads((out / "decay.json").read_text())["rows"] == [
            r.to_dict() for r in decay.rows]
        # a census draws other bits
        census = verify_hajek_bound(frames[0], 6, 1000, 32).to_dict()
        assert census["lhs_estimate"] != bounds[0]["lhs_estimate"]

    @pytest.mark.parametrize("spec, message", [
        ({"method": "SYSTEMATIC", "n0": 1}, "bounds[0].second_stage.method"),
        ({"method": "SI"}, "bounds[0].second_stage.n0: must be >= 1 under SI subsampling"),
        ({"method": "CENSUS", "n0": 2}, "n0: must not be given for a census second stage"),
        ({"method": "SI", "n0": 2}, "n0 must be 1"),
        ({"method": "SI", "n0": 1, "n1": 2}, "n1"),
    ])
    def test_second_stage_is_validated(self, tmp_path, capsys, spec, message):
        cfg = _write_config(tmp_path, "verify.json", {"bounds": [
            {"check": "be_si", "n_I": 5, "second_stage": spec,
             "frame": {"kind": "range", "n_psus": 50}}]})
        assert _run(["verify", "--config", cfg, "--seed", 1, "--out", tmp_path / "o"]) == 2
        assert message in json.loads(capsys.readouterr().err)["error"]["message"]


class TestMcCommand:
    def _mc_config(self, tmp_path, threads=None):
        payload = {
            "population": dict(POP, n_psus=80),
            "population_label": "toy",
            "scenario": {
                "first_stage": {"kind": "SI", "n_I": [8]},
                "second_stage": {"method": "SYSTEMATIC", "n0": [3]},
                "estimands": [
                    {"kind": "total", "var": 1, "rho": 0.1},
                    {"kind": "ratio", "num": 1, "den": 2, "rho": 0.1},
                ],
                "variance_methods": ["SIMPLIFIED"],
                "bootstrap": {"replicates": 100},
                "replicates": 120,
                "true_run": 1000,
            },
        }
        if threads is not None:
            payload["threads"] = threads
        return _write_config(tmp_path, f"mc{threads}.json", payload)

    def test_emits_family_csvs(self, tmp_path):
        cfg = self._mc_config(tmp_path)
        out = tmp_path / "mc"
        assert _run(["mc", "--config", cfg, "--seed", 41, "--out", out]) == 0
        total_lines = (out / "mc_total.csv").read_text().splitlines()
        assert total_lines[0] == "population,rho,n0,nI,estimand,metric,value,mc_se"
        metrics = {line.split(",")[5] for line in total_lines[1:]}
        assert "v_simp.rb" in metrics
        assert "ci_percentile.two_sided" in metrics
        assert (out / "mc_ratio.csv").exists()

    def test_stratified_proportion_pipeline(self, tmp_path):
        # small stratified cluster frame written by hand: 3 strata of 40 PSUs
        import numpy as np

        from twostage import Frame, frame_to_csv

        rng = np.random.default_rng(7)
        sizes = rng.integers(2, 5, size=120).astype(np.int64)
        cat = (rng.random(int(sizes.sum())) < 0.4).astype(np.float64)
        frame = Frame(cat[:, None], sizes, strata=[f"s{i // 40}" for i in range(120)])
        frame_path = tmp_path / "strat.csv"
        frame_to_csv(frame, frame_path)

        payload = {
            "frame": str(frame_path),
            "population_label": "strat-toy",
            "scenario": {
                "first_stage": {"kind": "STRAT_SI",
                                "allocations": {"s0": 8, "s1": 8, "s2": 8}},
                "second_stage": {"method": "CENSUS"},
                "estimands": [{"kind": "proportion", "var": 1, "category": 1.0}],
                "variance_methods": ["STRAT_WR"],
                "bootstrap": {"replicates": 100},
                "studentized": True,
                "replicates": 120,
                "true_run": 1000,
            },
        }
        cfg = _write_config(tmp_path, "strat.json", payload)
        out = tmp_path / "strat-out"
        assert _run(["mc", "--config", cfg, "--seed", 43, "--out", out]) == 0
        lines = (out / "mc_proportion.csv").read_text().splitlines()
        metrics = {line.split(",")[5] for line in lines[1:]}
        assert {"v_stwr.rb", "ci_studentized.two_sided", "ci_percentile.L"} <= metrics

    def test_byte_identical_across_threads_and_reruns(self, tmp_path):
        cfg = self._mc_config(tmp_path)
        outputs = {}
        for threads in (1, 2, 4):
            out = tmp_path / f"mc{threads}"
            rc = _run(["mc", "--config", cfg, "--seed", 42, "--out", out,
                       "--threads", threads])
            assert rc == 0
            outputs[threads] = (out / "mc_total.csv").read_bytes()
        assert outputs[1] == outputs[2] == outputs[4]
        out = tmp_path / "mc1b"
        assert _run(["mc", "--config", cfg, "--seed", 42, "--out", out]) == 0
        assert (out / "mc_total.csv").read_bytes() == outputs[1]


class TestErrorReporting:
    def test_config_error_exit_code(self, tmp_path, capsys):
        message = _config_error(tmp_path, capsys, "gen-pop", {"population": POP, "oops": 1})
        assert "oops" in message

    def test_stratified_non_census_is_a_config_error(self, tmp_path, capsys):
        payload = {
            "population": POP,
            "scenario": {
                "first_stage": {"kind": "STRAT_SI", "allocations": {"s0": 2}},
                "second_stage": {"method": "SI", "n0": [2]},
                "estimands": [{"kind": "proportion", "var": 1, "category": 1.0}],
            },
        }
        message = _config_error(tmp_path, capsys, "mc", payload)
        assert "config.scenario.second_stage.method" in message

    @pytest.mark.parametrize("design, stray", [
        ({"kind": "BE", "expected_n_I": 10, "n_I": 5}, "n_I"),
        ({"kind": "SI", "n_I": 5, "expected_n_I": 10}, "expected_n_I"),
        ({"kind": "SIR", "n_I": 5, "expected_n_I": 10}, "expected_n_I"),
    ])
    def test_size_key_of_another_design_is_a_config_error(self, tmp_path, capsys, design, stray):
        # a BE point divided by a stray n_I instead of expected_n_I
        message = _config_error(tmp_path, capsys, "estimate", {
            "frame": "f.csv", "design": design, "second_stage": {"method": "CENSUS"},
            "estimands": [{"kind": "total", "var": 1}],
        })
        assert f"config.design.{stray}" in message

    @pytest.mark.parametrize("alpha", [0.7, 0.5, 0.0])
    def test_mc_alpha_out_of_range_is_a_config_error(self, tmp_path, capsys, alpha):
        message = _config_error(tmp_path, capsys, "mc", {
            "population": POP,
            "scenario": {
                "first_stage": {"kind": "SI", "n_I": [8]},
                "second_stage": {"method": "CENSUS"},
                "estimands": [{"kind": "total", "var": 1}],
                "variance_methods": ["SIMPLIFIED"],
                "alpha": alpha, "replicates": 100, "true_run": 1000,
            },
        })
        assert message == "config.scenario.alpha: must be in (0, 0.5)"

    @pytest.mark.parametrize("command", ["estimate", "bootstrap"])
    @pytest.mark.parametrize("method", ["UNBIASED", "BERNOULLI"])
    def test_within_psu_variance_under_systematic_is_a_config_error(
        self, tmp_path, capsys, command, method
    ):
        # settled by the config alone: no frame is read, no sample drawn
        message = _config_error(tmp_path, capsys, command, {
            "frame": str(tmp_path / "missing.csv"), "design": {"kind": "SI", "n_I": 4},
            "second_stage": {"method": "SYSTEMATIC", "n0": 2},
            "estimands": [{"kind": "total", "var": 1}],
            "variance_methods": ["SIMPLIFIED", method],
        })
        assert message.startswith(f"config.variance_methods[1]: {method} ")

    @pytest.mark.parametrize("config, changes, key", FRAME_FREE_FAULTS.values(),
                             ids=list(FRAME_FREE_FAULTS))
    def test_frame_free_mc_fault_fails_before_the_population(
        self, tmp_path, capsys, monkeypatch, config, changes, key
    ):
        """The library refuses the scenario, and the CLI does so before generating a frame."""
        scenario = Scenario(**{"first_stage": DesignSpec("SI", n_I=8), "replicates": 100,
                               "true_run": 1000, **changes})
        with pytest.raises(ValueError):
            scenario.check()
        calls = []
        monkeypatch.setattr(cli, "generate_population", lambda *a, **k: calls.append(a))
        message = _config_error(tmp_path, capsys, "mc",
                                {"population": POP, "scenario": {**MC_SCENARIO, **config}})
        assert message.startswith(f"config.scenario.{key}: ")
        assert calls == []

    @pytest.mark.parametrize("check, config, changes, key, attribute", VERIFY_FAULTS.values(),
                             ids=list(VERIFY_FAULTS))
    def test_frame_free_verify_fault_fails_before_any_frame(
        self, tmp_path, capsys, monkeypatch, check, config, changes, key, attribute
    ):
        """The library refuses the check before it draws, and the CLI before it reads a frame."""
        draws = []
        monkeypatch.setattr(coupling, "substreams", lambda *a, **k: draws.append(a) or iter(()))
        changes = {"n_I": 5, "replicates": 1000, "seed": 1, **changes}
        frames = [multi_ssu_frame(n, 8) for n in (20, 40, 80, 160)[:changes.pop("frames", 3)]]
        with pytest.raises(ValueError) as refusal:
            if check == "decay":
                verify_decay(frames, **changes)
            else:
                fn = verify_hajek_bound if check == "be_si" else verify_sir_si_bound
                fn(frames[0], **changes)
        assert str(refusal.value).startswith(f"{attribute} ")
        assert draws == []
        # a frame that does not exist: exit 2 shows that no frame was read
        missing = {"kind": "path", "path": str(tmp_path / "missing.csv")}
        if check == "decay":
            config = {**config, "frames": [missing] * config.get("frames", 3)}
            payload = {"decay": {"n_I": 5, "replicates": 1000, **config}}
        else:
            payload = {"bounds": [{"check": check, "n_I": 5, "replicates": 1000,
                                   "frame": missing, **config}]}
        message = _config_error(tmp_path, capsys, "verify", payload)
        assert message.startswith(f"config.{key}: ")

    @pytest.mark.parametrize("command, changes, message", [
        # an integer path would be read as an open file descriptor
        ("mc", {"frame": 3, "scenario": MC_SCENARIO}, "config.frame: expected a string"),
        ("mc", {"population": POP,
                "scenario": {**MC_SCENARIO, "variance_methods": {"SIMPLIFIED": 1}}},
         "config.scenario.variance_methods: expected a list"),
        ("estimate", {"variance_methods": "SIMPLIFIED"}, "config.variance_methods: expected a list"),
    ])
    def test_mistyped_path_or_method_list_is_a_config_error(
        self, tmp_path, capsys, command, changes, message
    ):
        payload = ({"frame": str(tmp_path / "missing.csv"), "design": {"kind": "SI", "n_I": 4},
                    "second_stage": {"method": "CENSUS"},
                    "estimands": [{"kind": "total", "var": 1}]} if command == "estimate" else {})
        assert _config_error(tmp_path, capsys, command, {**payload, **changes}) == message

    @pytest.mark.parametrize("expected_n_I", [0, -2.5])
    def test_be_size_is_a_config_error_before_the_frame_is_read(
        self, tmp_path, capsys, expected_n_I
    ):
        message = _config_error(tmp_path, capsys, "estimate", {
            "frame": str(tmp_path / "missing.csv"),
            "design": {"kind": "BE", "expected_n_I": expected_n_I},
            "second_stage": {"method": "CENSUS"}, "estimands": [{"kind": "total", "var": 1}],
        })
        assert message.startswith("config.design.expected_n_I: ")

    @pytest.mark.parametrize("command", ["bootstrap", "mc"])
    def test_bootstrap_refusal_names_its_key_once(self, tmp_path, capsys, command):
        boot = {"replicates": 49}
        if command == "bootstrap":
            payload, path = {"frame": str(tmp_path / "missing.csv"),
                             "design": {"kind": "SI", "n_I": 4},
                             "second_stage": {"method": "CENSUS"},
                             "estimands": [{"kind": "total", "var": 1}],
                             "bootstrap": boot}, "config.bootstrap"
        else:
            payload = {"population": POP, "scenario": {**MC_SCENARIO, "bootstrap": boot}}
            path = "config.scenario.bootstrap"
        message = _config_error(tmp_path, capsys, command, payload)
        assert message == f"{path}.replicates: must be >= 50"

    def test_invalid_mc_grid_fails_before_the_first_cell(self, tmp_path, capsys, monkeypatch):
        import twostage.montecarlo as montecarlo

        calls = []
        monkeypatch.setattr(montecarlo, "run_scenario", lambda *a, **k: calls.append(a))
        cfg = _write_config(tmp_path, "mc.json", {
            "population": POP,
            "scenario": {
                "first_stage": {"kind": "SI", "n_I": [8, 500]},
                "second_stage": {"method": "CENSUS"},
                "estimands": [{"kind": "total", "var": 1}],
                "replicates": 100, "true_run": 1000,
            },
        })
        rc = _run(["mc", "--config", cfg, "--seed", 1, "--out", tmp_path / "o"])
        assert rc == 1
        assert "SI size n_I=500 exceeds N_I=60" in capsys.readouterr().err
        assert calls == []

    def test_runtime_error_surfaces_as_json(self, tmp_path, capsys):
        cfg = _write_config(
            tmp_path,
            "est.json",
            {
                "frame": str(tmp_path / "missing.csv"),
                "design": {"kind": "SI", "n_I": 2},
                "second_stage": {"method": "CENSUS"},
                "estimands": [{"kind": "total", "var": 1}],
            },
        )
        rc = _run(["estimate", "--config", cfg, "--seed", 1, "--out", tmp_path / "o"])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "FileNotFoundError"
