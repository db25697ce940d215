"""Golden outputs: the SHA-256 of every CLI data output for small configs.

Each config runs in-process through ``twostage.cli.main``; every file it
writes except ``manifest.json`` (which carries a wall time) is hashed and
compared with the digest pinned below.  A refactor that keeps the statistics
the same keeps every digest.  The numpy ``Generator`` algorithms may change
between numpy releases, so the pins hold for the numpy major.minor recorded
in ``NUMPY`` and the test skips on any other.
"""
import hashlib
import json
import os

import numpy as np
import pytest

from twostage import Frame, frame_to_csv
from twostage.cli import main

NUMPY = "2.4"

POP = {"n_psus": 60, "mean_size": 8, "size_cv": 0.05, "lam": 20.0, "sigma": 2.0,
       "icc_targets": [0.1, 0.3], "pair_corr_target": 0.6}
ESTIMANDS = [
    {"kind": "total", "var": 1},
    {"kind": "total", "var": 2},
    {"kind": "ratio", "num": 1, "den": 2},
    {"kind": "correlation", "a": 1, "b": 2},
]
SECOND_STAGES = {"CENSUS": {"method": "CENSUS"},
                 "SI": {"method": "SI", "n0": 3},
                 "SYSTEMATIC": {"method": "SYSTEMATIC", "n0": 3}}
# every variance method valid for the (design, second stage) pair
DESIGNS = {
    "SI": ({"kind": "SI", "n_I": 10},
           {"CENSUS": ["UNBIASED", "SIMPLIFIED", "WITH_REPLACEMENT"],
            "SI": ["UNBIASED", "SIMPLIFIED", "WITH_REPLACEMENT"],
            "SYSTEMATIC": ["SIMPLIFIED", "WITH_REPLACEMENT"]}),
    "SIR": ({"kind": "SIR", "n_I": 10},
            {"CENSUS": ["WITH_REPLACEMENT"], "SI": ["WITH_REPLACEMENT"],
             "SYSTEMATIC": ["WITH_REPLACEMENT"]}),
    # 6.6 is an expected size with (e / N_I) * N_I != e
    "BE": ({"kind": "BE", "expected_n_I": 6.6},
           {"CENSUS": ["BERNOULLI"], "SI": ["BERNOULLI"], "SYSTEMATIC": []}),
}


def _stratified_frame(path: str) -> None:
    """Three strata of 20 PSUs holding 2-4 SSUs with a 0/1 category."""
    rng = np.random.default_rng(7)
    sizes = rng.integers(2, 5, size=60).astype(np.int64)
    cat = (rng.random(int(sizes.sum())) < 0.4).astype(np.float64)
    frame_to_csv(Frame(cat[:, None], sizes, strata=[f"s{i // 20}" for i in range(60)]), path)


def _configs(root: str) -> dict[str, tuple[str, dict]]:
    frame = os.path.join(root, "gen-pop", "frame.csv")
    runs: dict[str, tuple[str, dict]] = {"gen-pop": ("gen-pop", {"population": POP})}
    for kind, (design, methods) in DESIGNS.items():
        for method, second in SECOND_STAGES.items():
            runs[f"estimate-{kind}-{method}"] = ("estimate", {
                "frame": frame, "design": design, "second_stage": second,
                "estimands": ESTIMANDS, "variance_methods": methods[method],
            })
    runs["bootstrap-SI-SYSTEMATIC"] = ("bootstrap", {
        "frame": frame, "design": {"kind": "SI", "n_I": 10},
        "second_stage": SECOND_STAGES["SYSTEMATIC"], "estimands": ESTIMANDS,
        "variance_methods": ["SIMPLIFIED"], "bootstrap": {"replicates": 200},
        "studentized": True,
    })
    runs["mc-SI-SI"] = ("mc", {
        "frame": frame, "population_label": "golden",
        "scenario": {
            "first_stage": {"kind": "SI", "n_I": [8]},
            "second_stage": {"method": "SI", "n0": [3]},
            "estimands": [dict(e, rho=0.1) for e in ESTIMANDS],
            "variance_methods": ["UNBIASED", "SIMPLIFIED", "WITH_REPLACEMENT"],
            "bootstrap": {"replicates": 50}, "studentized": True,
            "replicates": 100, "true_run": 1000,
        },
    })
    # true_run and replicates are not multiples of the MC block size (64)
    mc_systematic = {
        "frame": frame, "population_label": "golden",
        "scenario": {
            "first_stage": {"kind": "SI", "n_I": [8]},
            "second_stage": {"method": "SYSTEMATIC", "n0": [3]},
            "estimands": [dict(e, rho=0.1) for e in ESTIMANDS],
            "variance_methods": ["SIMPLIFIED"],
            "bootstrap": {"replicates": 50}, "studentized": True,
            "replicates": 100, "true_run": 1000,
        },
    }
    runs["mc-SI-SYSTEMATIC"] = ("mc", mc_systematic)
    runs["mc-SI-SYSTEMATIC-threads2"] = ("mc", dict(mc_systematic, threads=2))
    runs["mc-SI-CENSUS"] = ("mc", {
        "frame": frame, "population_label": "golden",
        "scenario": {
            "first_stage": {"kind": "SI", "n_I": [8]},
            "second_stage": {"method": "CENSUS"},
            "estimands": [dict(e, rho=0.1) for e in ESTIMANDS],
            "variance_methods": ["UNBIASED", "SIMPLIFIED", "WITH_REPLACEMENT"],
            "replicates": 100, "true_run": 1000,
        },
    })
    runs["mc-STRAT_SI"] = ("mc", {
        "frame": os.path.join(root, "strat.csv"), "population_label": "strat",
        "scenario": {
            "first_stage": {"kind": "STRAT_SI", "allocations": {"s0": 5, "s1": 6, "s2": 4}},
            "second_stage": {"method": "CENSUS"},
            "estimands": [{"kind": "proportion", "var": 1, "category": 1.0}],
            "variance_methods": ["STRAT_WR"], "bootstrap": {"replicates": 50},
            "studentized": True, "replicates": 100, "true_run": 1000,
        },
    })
    runs["verify"] = ("verify", {
        "bounds": [
            {"check": "be_si", "n_I": 5, "frame": {"kind": "range", "n_psus": 30},
             "replicates": 1000},
            {"check": "sir_si", "n_I": 5,
             "frame": {"kind": "normal", "n_psus": 30, "mean": 10, "sd": 2},
             "replicates": 1000},
        ],
        "decay": {"n_I": 4, "replicates": 1000,
                  "frames": [{"kind": "normal", "n_psus": n, "mean": 100, "sd": 15}
                             for n in (20, 200, 2000)]},
    })
    return runs


def run_golden_configs(root: str) -> dict[str, str]:
    """Run every golden config under ``root``; returns {run/file: sha256}."""
    _stratified_frame(os.path.join(root, "strat.csv"))
    digests: dict[str, str] = {}
    for name, (command, payload) in _configs(root).items():
        cfg = os.path.join(root, f"{name}.json")
        with open(cfg, "w") as fh:
            json.dump(payload, fh)
        out = os.path.join(root, name)
        rc = main([command, "--config", cfg, "--seed", "20261018", "--out", out])
        assert rc == 0, f"{name} exited {rc}"
        for fname in sorted(os.listdir(out)):
            if fname != "manifest.json":
                with open(os.path.join(out, fname), "rb") as fh:
                    digests[f"{name}/{fname}"] = hashlib.sha256(fh.read()).hexdigest()
    return digests


GOLDEN: dict[str, str] = {
    "bootstrap-SI-SYSTEMATIC/bootstrap.json":
        "3488af12cc62200d1c2db6c7f69aa3599d6459828a4ee469e222dea0ce5e2b6d",
    "bootstrap-SI-SYSTEMATIC/replicates.csv":
        "494b00e24d45ecca00b9144f88280f26fae5905d6725928467a41b226ce3939b",
    "estimate-BE-CENSUS/draw.json":
        "a3b81c57e39173d66aea99a9dba72becd92d6c6d609a418d33ceb0bad95ea22e",
    "estimate-BE-CENSUS/estimate.json":
        "f7347cd9e14ff82a95e82e6963f2141548307b183390459d61d7d48d9d5633bd",
    "estimate-BE-SI/draw.json":
        "a3b81c57e39173d66aea99a9dba72becd92d6c6d609a418d33ceb0bad95ea22e",
    "estimate-BE-SI/estimate.json":
        "7e929583f8a573b65e310aa8f4d05b8be6b33d5a53fc9c630545a6447cae56f0",
    "estimate-BE-SYSTEMATIC/draw.json":
        "a3b81c57e39173d66aea99a9dba72becd92d6c6d609a418d33ceb0bad95ea22e",
    "estimate-BE-SYSTEMATIC/estimate.json":
        "48b5c542041986ff52d88d9731ecc6dae14484a2eddab4a4718e9424469bd4e6",
    "estimate-SI-CENSUS/draw.json":
        "9eab02cbb2d18b933cefbd5873c4fee9f04ce774fca9ff613e6f5bfea4b655cc",
    "estimate-SI-CENSUS/estimate.json":
        "ccc981d08b22c93dbc6cac9464d3f8f9fc48daf07104740a82c636e70d55d670",
    "estimate-SI-SI/draw.json":
        "9eab02cbb2d18b933cefbd5873c4fee9f04ce774fca9ff613e6f5bfea4b655cc",
    "estimate-SI-SI/estimate.json":
        "9e5f22d916261f814f787598574c065117372b458453a4a77a24b058476c8879",
    "estimate-SI-SYSTEMATIC/draw.json":
        "9eab02cbb2d18b933cefbd5873c4fee9f04ce774fca9ff613e6f5bfea4b655cc",
    "estimate-SI-SYSTEMATIC/estimate.json":
        "127d324921ea77af8458c4d069f0025d3beaf4664a7edeef57d71e6bd9775d80",
    "estimate-SIR-CENSUS/draw.json":
        "671330b23db63e642bb321815d90a9d67a98506e3a11c372042b9723f9209914",
    "estimate-SIR-CENSUS/estimate.json":
        "bf84b36c50663e57bf9e6aedccb967b1fb9b6ae10201a10c7d2b74144d6a9d60",
    "estimate-SIR-SI/draw.json":
        "671330b23db63e642bb321815d90a9d67a98506e3a11c372042b9723f9209914",
    "estimate-SIR-SI/estimate.json":
        "dede5d720c890f7d1bfeb59f35aaacfbd65f3b24384d67f6b8c0da1d1dcac7cc",
    "estimate-SIR-SYSTEMATIC/draw.json":
        "671330b23db63e642bb321815d90a9d67a98506e3a11c372042b9723f9209914",
    "estimate-SIR-SYSTEMATIC/estimate.json":
        "b8df423bd11190dd49cf0559129fdf03f918c755bb0cff6bc97ec5a06acd5333",
    "gen-pop/frame.csv":
        "236647d65cac56a33a95e3229b3022ae20f9981a9bc5b724ae4d3b47a647a300",
    "gen-pop/frame.meta.json":
        "d650c341798a3440a4502ada0f6d3ed91bf4fb1459a4a858ba98a13a100b3688",
    "mc-SI-SI/mc_correlation.csv":
        "e8a4505d12be1cf8ada49bedcaf0c1f4714ea68625e551bd4a970f7e25ebb7aa",
    "mc-SI-SI/mc_ratio.csv":
        "a124264abebd25f0c1591fa5f1118af5b10d27a5c7c47a3298ee86dd64f76140",
    "mc-SI-SI/mc_total.csv":
        "20cb55aaf3782b4e544464f2d08bae9fba72bf52f415dc40f432cc6311140b45",
    "mc-SI-CENSUS/mc_correlation.csv":
        "7718b935e6a42db8a7478fa1fe0c88da716b0cdb7eedd8f35ec0ce4f45ba5559",
    "mc-SI-CENSUS/mc_ratio.csv":
        "a0c6a15505bad3d454779206894373c6b48c2fb1ffadc5249b9bf2ef1b79439e",
    "mc-SI-CENSUS/mc_total.csv":
        "9cc35d32b7888ac06d340e85d0b813b13cd41330a467242c8b6a8378520b31d3",
    "mc-SI-SYSTEMATIC/mc_correlation.csv":
        "6380c44bed47c39be977fe80b864c9abdc9a74832f43e317d1b48c5e372f2f45",
    "mc-SI-SYSTEMATIC/mc_ratio.csv":
        "71fe1f960a15782988f272732dae71bef15e00d40b9105f9da72aa529d647c1a",
    "mc-SI-SYSTEMATIC/mc_total.csv":
        "e566839294bf1e5e49c844a5a95eb76354275fc8d9d85c6f6dd9458763ae2fa8",
    # the same cell on two worker processes
    "mc-SI-SYSTEMATIC-threads2/mc_correlation.csv":
        "6380c44bed47c39be977fe80b864c9abdc9a74832f43e317d1b48c5e372f2f45",
    "mc-SI-SYSTEMATIC-threads2/mc_ratio.csv":
        "71fe1f960a15782988f272732dae71bef15e00d40b9105f9da72aa529d647c1a",
    "mc-SI-SYSTEMATIC-threads2/mc_total.csv":
        "e566839294bf1e5e49c844a5a95eb76354275fc8d9d85c6f6dd9458763ae2fa8",
    "mc-STRAT_SI/mc_proportion.csv":
        "27b0d4166764295a73b28e0c542112400e15b077bdab12916cd6e6695de1fe01",
    "verify/bounds.csv":
        "13f19323bb8e2e5eda08d105d5b60a0655199e9dc052554e80d6fac1f39a586f",
    "verify/bounds.json":
        "f11074801e54825705a270d66fed4d966e92d1d30a174a3d0fffc413ee999429",
    "verify/decay.csv":
        "b6f439f25620ca1de9107dfa496d36427d7693821c8c1fd4afebf7788cefb5aa",
    "verify/decay.json":
        "9e6ae35512746e519936f7225a864ce43264d860a882a2084e9722861a382006",
}


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    if ".".join(np.__version__.split(".")[:2]) != NUMPY:
        pytest.skip(f"digests pinned on numpy {NUMPY}.x, running numpy {np.__version__}")
    return run_golden_configs(str(tmp_path_factory.mktemp("golden")))


def test_same_outputs(digests):
    assert sorted(digests) == sorted(GOLDEN)


@pytest.mark.parametrize("output", sorted(GOLDEN))
def test_output_digest(digests, output):
    assert digests[output] == GOLDEN[output]
