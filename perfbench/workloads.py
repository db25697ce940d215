"""The four benchmark workloads, each timing one public entry point of twostage.

A workload builds its inputs from the benchmark seed in ``setup``; ``op(i)``
makes one call of the entry point (one CLI cycle for ``cli_frame``) on inputs
derived from the seed and the op index, so the library only ever receives
generated inputs.  ``check`` judges one op's outputs and ``pooled_checks``
judges the ops of a run together (see checks.py).  Library functions are
looked up on their modules at call time so that the layer trace sees them.
"""
from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

import twostage.cli as cli
import twostage.coupling as coupling
import twostage.frame as tsframe
import twostage.montecarlo as montecarlo
from twostage.bootstrap import BootstrapConfig
from twostage.designs import DesignSpec
from twostage.estimators import (
    CorrelationEstimand,
    RatioEstimand,
    TotalEstimand,
    population_value,
)

import checks

# the pop3 cell of acceptance criteria 5-6: 2,000 PSUs of mean size 40, six variables
POP3 = dict(n_psus=2000, mean_size=40, size_cv=0.06, lam=20.0, sigma=2.0,
            icc_targets=(0.1, 0.2, 0.3), pair_corr_target=0.6)
ESTIMANDS = (
    TotalEstimand(0), TotalEstimand(4),
    RatioEstimand(0, 1), RatioEstimand(4, 5),
    CorrelationEstimand(0, 1), CorrelationEstimand(4, 5),
)
TOTALS = tuple(e for e in ESTIMANDS if isinstance(e, TotalEstimand))


def derive(seed: int, *path) -> int:
    """A 63-bit seed for the library, derived from the benchmark seed and a path."""
    text = ":".join(str(p) for p in (seed, *path)).encode()
    return int.from_bytes(hashlib.blake2b(text, digest_size=8).digest(), "little") >> 1


def scalar_frame(values) -> tsframe.Frame:
    """Frame of single-SSU PSUs (census second stage) with the given subtotals."""
    values = np.asarray(values, dtype=np.float64)[:, None]
    return tsframe.Frame(values, np.ones(values.shape[0], dtype=np.int64))


def pop3_frame(seed: int) -> tsframe.Frame:
    cfg = tsframe.SyntheticConfig(**POP3, seed=derive(seed, "pop3"))
    return tsframe.generate_population(cfg)


def si_scenario(bootstrap_reps: int, replicates: int, true_run: int) -> montecarlo.Scenario:
    """SI(n_I=200) first stage, SYSTEMATIC(n0=10) second stage, six estimands."""
    return montecarlo.Scenario(
        DesignSpec("SI", n_I=200), "SYSTEMATIC", n0=10,
        estimands=ESTIMANDS,
        variance_methods=("SIMPLIFIED",),
        bootstrap=BootstrapConfig(replicates=bootstrap_reps, seed=0),
        replicates=replicates,
        true_run=true_run,
    )


class Workload:
    name = ""
    unit = ""  # what one unit of work_per_s is
    kernel = ""  # the speed.py kernel doing the same kind of work as the hot path
    traced_ops = 1  # ops of a traced run; fixed so that call counts repeat exactly

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def op_seed(self, i: int) -> int:
        return derive(self.seed, self.name, "op", i)

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, i: int, stopwatch):
        """One call of the entry point; a multi-part op closes each part with stopwatch.lap."""
        raise NotImplementedError

    def units(self, result) -> float:
        raise NotImplementedError

    def check(self, result) -> list[str]:
        return []

    def pooled_checks(self, results: list) -> list[str]:
        return []

    def untimed_checks(self) -> list[str]:
        return []


class TrueRun(Workload):
    """approximate_true_variance: the variance-reference run of criteria 5-6."""

    name = "true_run"
    kernel = "draws"
    unit = "reference samples"
    traced_ops = 3
    samples = 1000  # the library's minimum reference-run size

    def setup(self):
        self.frame = pop3_frame(self.seed)
        self.scenario = si_scenario(1000, 1000, self.samples)
        self.exact = {e.label: population_value(self.frame, e) for e in TOTALS}

    def op(self, i, stopwatch):
        v_true, means = montecarlo.approximate_true_variance(
            self.frame, self.scenario, seed=self.op_seed(i), threads=1
        )
        return {"v": v_true, "mean": means}

    def units(self, result):
        return self.samples

    def check(self, result):
        return checks.check_positive(result["v"]) + checks.check_finite(result["mean"])

    def pooled_checks(self, results):
        problems = []
        for label, exact in self.exact.items():
            means = [r["mean"][label] for r in results]
            ses = [math.sqrt(r["v"][label] / self.samples) for r in results]
            problems += checks.check_mean(label, exact, means, ses)
        return problems


class McBoot(Workload):
    """run_scenario with the reference supplied: SIMPLIFIED plus a bootstrap with R=1000."""

    name = "mc_boot"
    kernel = "bootstrap"
    unit = "MC replicates"
    traced_ops = 2
    replicates = 100  # the library's minimum MC replicate count

    def setup(self):
        self.frame = pop3_frame(self.seed)
        self.scenario = si_scenario(1000, self.replicates, 1000)
        self.theta_true = {e.label: population_value(self.frame, e) for e in ESTIMANDS}
        self.v_true, _ = montecarlo.approximate_true_variance(
            self.frame, self.scenario, seed=derive(self.seed, "v_true"), threads=1
        )

    def op(self, i, stopwatch):
        reports = montecarlo.run_scenario(
            self.frame, self.scenario, seed=self.op_seed(i), threads=1,
            v_true=self.v_true, theta_true=self.theta_true,
        )
        return {(r.estimand, r.family): r for r in reports}

    def units(self, result):
        return self.replicates

    def check(self, result):
        variances = {f"{k[0]} {k[1]}": r.mean_estimate
                     for k, r in result.items() if r.kind == "variance"}
        points = {f"{k[0]} point": r.mean_estimate
                  for k, r in result.items() if r.kind == "point"}
        problems = checks.check_positive(variances) + checks.check_finite(points)
        if len(variances) != len(TOTALS) + len(ESTIMANDS):
            problems.append(f"expected v_simp for totals and boot_var for every estimand, "
                            f"got {sorted(variances)}")
        return problems

    def pooled_checks(self, results):
        problems = []
        for e in TOTALS:
            exact = self.theta_true[e.label]
            reps = [r[(e.label, "point")] for r in results]
            problems += checks.check_mean(
                e.label, exact, [p.mean_estimate for p in reps], [p.mean_se for p in reps]
            )
        return problems

    def untimed_checks(self):
        """A small mc cell writes byte-identical outputs at 1 and 2 worker processes."""
        config = {
            "population": {"n_psus": 80, "mean_size": 8, "size_cv": 0.05, "lam": 20.0,
                           "sigma": 2.0, "icc_targets": [0.1, 0.3], "pair_corr_target": 0.6},
            "population_label": "toy",
            "scenario": {
                "first_stage": {"kind": "SI", "n_I": [8]},
                "second_stage": {"method": "SYSTEMATIC", "n0": [3]},
                "estimands": [{"kind": "total", "var": 1, "rho": 0.1},
                              {"kind": "ratio", "num": 1, "den": 2, "rho": 0.1}],
                "variance_methods": ["SIMPLIFIED"],
                "bootstrap": {"replicates": 100},
                "replicates": 120,
                "true_run": 1000,
            },
        }
        path = os.path.join(self.workdir, "mc_threads.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        outputs = []
        for threads in (1, 2):
            out = os.path.join(self.workdir, f"mc_threads_{threads}")
            rc = cli.main(["mc", "--config", path, "--seed", str(derive(self.seed, "mc_threads")),
                           "--threads", str(threads), "--out", out])
            if rc != 0:
                return [f"mc at {threads} threads exited {rc}"]
            outputs.append(read_outputs(out))
        return checks.check_same_outputs(*outputs)


def read_outputs(directory: str) -> dict[str, bytes]:
    """Bytes of every data output of a CLI run; the manifest holds a wall time."""
    out = {}
    for name in sorted(os.listdir(directory)):
        if name != "manifest.json":
            with open(os.path.join(directory, name), "rb") as fh:
                out[name] = fh.read()
    return out


class Coupling(Workload):
    """verify_hajek_bound, verify_sir_si_bound and verify_decay on census frames."""

    name = "coupling"
    kernel = "coupling"
    unit = "coupled replicates"
    traced_ops = 3
    replicates = 1000  # the library's minimum per verify call
    # (N_I, n_I) of criterion 3's configurations; verify_decay runs criterion 4's sequence
    be_si = ((100, 10), (1000, 100), (2000, 20))
    sir_si = ((5, 2), (500, 50), (2000, 20))
    decay_sizes = (500, 5000, 50000)
    decay_n = 50

    def _frame(self, tag, n):
        rng = np.random.default_rng(derive(self.seed, "frame", tag, n))
        return scalar_frame(100.0 + 15.0 * rng.standard_normal(n))

    def setup(self):
        self.be_frames = [(self._frame("be", N), n) for N, n in self.be_si]
        self.sir_frames = [(self._frame("sir", N), n) for N, n in self.sir_si]
        self.decay_frames = [self._frame("decay", N) for N in self.decay_sizes]

    def op(self, i, stopwatch):
        seed = self.op_seed(i)
        r = self.replicates
        be = [coupling.verify_hajek_bound(fr, n, r, seed=seed) for fr, n in self.be_frames]
        sir = [coupling.verify_sir_si_bound(fr, n, r, seed=seed) for fr, n in self.sir_frames]
        decay = coupling.verify_decay(self.decay_frames, self.decay_n, r, seed=seed,
                                      m=self.decay_n)
        return {"be": be, "sir": sir, "decay": [row.to_dict() for row in decay.rows]}

    def units(self, result):
        return self.replicates * (len(self.be_si) + len(self.sir_si) + len(self.decay_sizes))

    def check(self, result):
        problems = []
        for rep in result["be"]:
            problems += checks.check_be_si(f"be_si N={rep.n_psus} n={rep.n_I}",
                                           rep.lhs_estimate, rep.lhs_se, rep.rhs_bound)
        for rep in result["sir"]:
            problems += checks.check_positive({f"sir_si N={rep.n_psus} se": rep.lhs_se})
        problems += checks.check_decay_order("decay", result["decay"])
        return problems

    def pooled_checks(self, results):
        problems = []
        for j, (N, n) in enumerate(self.sir_si):
            reps = [r["sir"][j] for r in results]
            problems += checks.check_sir_si_identity(
                f"sir_si N={N} n={n}", n, N,
                [x.lhs_estimate for x in reps], [x.lhs_se for x in reps],
            )
        problems += checks.check_decay_pooled("decay", [r["decay"] for r in results])
        return problems


class CliFrame(Workload):
    """One in-process CLI cycle: gen-pop, then estimate, then bootstrap on the written frame."""

    name = "cli_frame"
    kernel = "text"
    unit = "frame SSUs"
    traced_ops = 1
    commands = ("gen-pop", "estimate", "bootstrap")
    population = {"n_psus": 500, "mean_size": 40, "size_cv": 0.06, "lam": 20.0, "sigma": 2.0,
                  "icc_targets": [0.1, 0.2, 0.3], "pair_corr_target": 0.6}

    def setup(self):
        self.out = {c: os.path.join(self.workdir, c) for c in self.commands}
        self.frame_path = os.path.join(self.out["gen-pop"], "frame.csv")
        draw = {
            "frame": self.frame_path,
            "design": {"kind": "SI", "n_I": 200},
            "second_stage": {"method": "SYSTEMATIC", "n0": 10},
            "estimands": [{"kind": "total", "var": 1}, {"kind": "total", "var": 5},
                          {"kind": "ratio", "num": 1, "den": 2},
                          {"kind": "correlation", "a": 1, "b": 2}],
        }
        configs = {
            "gen-pop": {"population": self.population},
            "estimate": {**draw, "variance_methods": ["SIMPLIFIED", "WITH_REPLACEMENT"]},
            "bootstrap": {**draw, "variance_methods": ["SIMPLIFIED"],
                          "bootstrap": {"replicates": 1000}, "studentized": True},
        }
        self.config = {}
        for command, payload in configs.items():
            self.config[command] = os.path.join(self.workdir, f"{command}.json")
            with open(self.config[command], "w") as fh:
                json.dump(payload, fh)

    def op(self, i, stopwatch):
        seed = str(self.op_seed(i))
        rc = {}
        for command in self.commands:
            rc[command] = cli.main([command, "--config", self.config[command], "--seed", seed,
                                    "--out", self.out[command]])
            stopwatch.lap(command)
        return {"seed": int(seed), "rc": rc}

    def units(self, result):
        with open(os.path.join(self.out["gen-pop"], "frame.meta.json")) as fh:
            return json.load(fh)["n_ssus"]

    def check(self, result):
        problems = [f"{c} exited {code}" for c, code in result["rc"].items() if code != 0]
        if problems:
            return problems
        cfg = tsframe.SyntheticConfig(**{**self.population,
                                         "icc_targets": tuple(self.population["icc_targets"])},
                                      seed=result["seed"])
        problems += checks.check_frame_equal(tsframe.generate_population(cfg),
                                             tsframe.ingest_frame(self.frame_path))
        for command, report in (("estimate", "estimate.json"), ("bootstrap", "bootstrap.json")):
            with open(os.path.join(self.out[command], report)) as fh:
                estimates = json.load(fh)["estimates"]
            problems += checks.check_finite({f"{command} {e['estimand']}": e["point"]
                                             for e in estimates})
            if not os.path.isfile(os.path.join(self.out[command], "manifest.json")):
                problems.append(f"{command} wrote no manifest")
        return problems


WORKLOADS = {w.name: w for w in (TrueRun, McBoot, Coupling, CliFrame)}
