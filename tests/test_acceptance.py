"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Heavy Monte Carlo runs use fixed seeds; the tolerances are pinned here and
the replicate counts satisfy each criterion's runtime budget on two cores.
Run with ``pytest tests/test_acceptance.py`` (lines print unbuffered so they
are visible regardless of capture settings); every test carries the
``acceptance`` marker, so ``pytest -m "not acceptance"`` runs the rest.
"""
import json
import time

import numpy as np
import pytest
from oracles import (
    be_outcomes,
    enum_mean_var,
    si_outcomes,
    sir_outcomes,
)

from twostage import (
    BootstrapConfig,
    CorrelationEstimand,
    DesignSpec,
    Frame,
    ProportionEstimand,
    RatioEstimand,
    Scenario,
    SyntheticConfig,
    TotalEstimand,
    draw_si,
    generate_population,
    resample_wr,
    run_scenario,
    substream,
    theoretical_variance,
    verify_decay,
    verify_hajek_bound,
    verify_sir_si_bound,
)
from twostage.cli import main as cli_main
from twostage.designs import FirstStageDraw
from twostage.estimators import (
    ht_total_be,
    mean_total,
    si_second_stage_variances,
    variance_estimate,
)
from twostage.frame import empirical_icc, empirical_pair_correlation
from conftest import ACCEPTANCE_LINES, scalar_frame
from normality import normality_screen

pytestmark = pytest.mark.acceptance

POP3_SEED = 20250810
GRID_SEED = 818283
THREADS = 2


def _announce(criterion: int, passed: bool, detail: str, elapsed: float) -> None:
    status = "PASS" if passed else "FAIL"
    line = f"[{status}] criterion {criterion}: {detail} [{elapsed:.1f}s]"
    ACCEPTANCE_LINES.append(line)
    print(line)  # visible live with -s; always echoed in the terminal summary


# ---------------------------------------------------------------------------
# criterion 1: enumeration oracle suite
# ---------------------------------------------------------------------------


def _enumerate_design(subtotals, n_i, f):
    """Exact (point mean, point variance, variance-estimator means) per design."""
    n_pop = len(subtotals)
    out = {}

    points, weights, v_est = [], [], []
    for sample, w in si_outcomes(n_pop, n_i):
        draw = FirstStageDraw(DesignSpec("SI", n_I=n_i), np.array(sample), n_pop)
        total = mean_total(draw, (subtotals[list(sample)][:, None], np.zeros((n_i, 1))))
        points.append(total.y_hat)
        weights.append(w)
        v_est.append(variance_estimate(total, "UNBIASED"))
    mean, var = enum_mean_var(points, weights)
    out["SI"] = (mean, var, enum_mean_var(v_est, weights)[0])

    points, weights, v_est = [], [], []
    for seq, w in sir_outcomes(n_pop, n_i):
        draw = FirstStageDraw(DesignSpec("SIR", n_I=n_i), np.array(seq), n_pop)
        total = mean_total(draw, (subtotals[list(seq)][:, None], np.zeros((n_i, 1))))
        points.append(total.y_hat)
        weights.append(w)
        v_est.append(variance_estimate(total, "WITH_REPLACEMENT"))
    mean, var = enum_mean_var(points, weights)
    out["SIR"] = (mean, var, enum_mean_var(v_est, weights)[0])

    points, weights, v_est, v_w = [], [], [], []
    for subset, w in be_outcomes(n_pop, f):
        draw = FirstStageDraw(
            DesignSpec("BE", expected_n_I=f * n_pop), np.array(subset, dtype=np.int64), n_pop
        )
        est = (subtotals[list(subset)][:, None], np.zeros((len(subset), 1)))
        total = ht_total_be(draw, est)
        points.append(total.y_hat)
        weights.append(w)
        if subset:  # v_B is unbiased conditionally on a nonempty sample
            v_est.append(variance_estimate(total, "BERNOULLI"))
            v_w.append(w)
    mean, var = enum_mean_var(points, weights)
    v_w = np.asarray(v_w) / np.sum(v_w)
    out["BE"] = (mean, var, enum_mean_var(v_est, v_w)[0])
    return out


def test_criterion_1_enumeration_oracles():
    started = time.perf_counter()
    failures = []

    results = _enumerate_design(np.arange(1.0, 6.0), 2, 0.4)
    frozen = {"SI": 18.75, "SIR": 25.0, "BE": 82.5}
    for design, (mean, var, v_mean) in results.items():
        if abs(mean / 15.0 - 1.0) > 1e-10:
            failures.append(f"{design} point mean {mean}")
        if abs(var / frozen[design] - 1.0) > 1e-10:
            failures.append(f"{design} variance {var} != {frozen[design]}")
        if abs(v_mean / var - 1.0) > 1e-10:
            failures.append(f"{design} variance-estimator mean {v_mean} != {var}")

    subtotals = np.array([2.0, 3.0, 5.0, 7.0, 11.0, 13.0])
    total = subtotals.sum()
    for design, (mean, var, v_mean) in _enumerate_design(subtotals, 3, 0.5).items():
        if abs(mean / total - 1.0) > 1e-10:
            failures.append(f"N_I=6 {design} point mean {mean}")
        if abs(v_mean / var - 1.0) > 1e-10:
            failures.append(f"N_I=6 {design} variance-estimator mean {v_mean} != {var}")

    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 1.0
    _announce(1, ok, "enumeration oracle suite (SI/SIR/BE exact unbiasedness)", elapsed)
    assert ok, failures or f"runtime {elapsed:.2f}s >= 1s"


# ---------------------------------------------------------------------------
# criterion 2: bias directions of v_SIMP and v_WR
# ---------------------------------------------------------------------------


def test_criterion_2_bias_directions():
    started = time.perf_counter()
    rng = substream(9202, "bias-pop")
    n_psus, psu_size, n_i, n0 = 12, 8, 4, 3
    psu_effects = 50.0 + 10.0 * rng.standard_normal(n_psus)
    values = np.repeat(psu_effects, psu_size) + 6.0 * rng.standard_normal(n_psus * psu_size)
    frame = Frame(values[:, None], np.full(n_psus, psu_size))

    v_i = si_second_stage_variances(frame, n0, 0)
    v_true = theoretical_variance(frame, DesignSpec("SI", n_I=n_i), v_i)
    s2 = float(np.var(frame.subtotals[:, 0], ddof=1))

    scn = Scenario(
        DesignSpec("SI", n_I=n_i), "SI", n0=n0,
        estimands=(TotalEstimand(0),),
        variance_methods=("SIMPLIFIED", "WITH_REPLACEMENT"),
        replicates=100000, true_run=1000,
    )
    reports = run_scenario(
        frame, scn, seed=9202, threads=THREADS, v_true={"total[y1]": v_true}
    )
    by_family = {r.family: r for r in reports if r.kind == "variance"}

    failures = []
    simp = by_family["v_simp"]
    target = v_true - float(v_i.sum())  # downward bias of exactly -sum(V_i)
    if abs(simp.mean_estimate - target) > 3 * simp.mean_se:
        failures.append(
            f"v_SIMP mean {simp.mean_estimate:.2f} vs target {target:.2f} "
            f"(3se={3 * simp.mean_se:.2f})"
        )
    wr = by_family["v_wr"]
    target = v_true + n_psus * s2  # upward bias of exactly +N_I * S^2
    if abs(wr.mean_estimate - target) > 3 * wr.mean_se:
        failures.append(
            f"v_WR mean {wr.mean_estimate:.2f} vs target {target:.2f} "
            f"(3se={3 * wr.mean_se:.2f})"
        )

    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 60.0
    _announce(2, ok, "variance-estimator bias directions (-sum V_i and +N_I*S^2)", elapsed)
    assert ok, failures or f"runtime {elapsed:.1f}s >= 60s"


# ---------------------------------------------------------------------------
# criterion 3: coupling ratio bounds
# ---------------------------------------------------------------------------


def test_criterion_3_coupling_bounds():
    started = time.perf_counter()
    replicates = 100000
    failures = []
    lines = []

    hajek_configs = [
        (scalar_frame(np.arange(1.0, 101.0)), 10),
        (scalar_frame(np.arange(1.0, 1001.0)), 100),
        (scalar_frame(np.arange(1.0, 2001.0)), 20),
    ]
    for i, (frame, n_i) in enumerate(hajek_configs):
        report = verify_hajek_bound(frame, n_i, replicates, seed=9300 + i)
        lines.append(
            f"be_si N={report.n_psus} n={n_i}: lhs={report.lhs_estimate:.4f} "
            f"rhs={report.rhs_bound:.4f}"
        )
        if not report.passed:
            failures.append(lines[-1])

    rng = substream(9310, "frame")
    sir_configs = [
        (scalar_frame(np.arange(1.0, 6.0)), 2),
        (scalar_frame(100.0 + 15.0 * rng.standard_normal(500)), 50),
        (scalar_frame(np.arange(1.0, 2001.0)), 20),
    ]
    expected_rhs = [0.25, 49 / 499, 19 / 1999]
    for i, ((frame, n_i), rhs) in enumerate(zip(sir_configs, expected_rhs)):
        report = verify_sir_si_bound(frame, n_i, replicates, seed=9320 + i)
        lines.append(
            f"sir_si N={report.n_psus} n={n_i}: lhs={report.lhs_estimate:.4f} "
            f"rhs={report.rhs_bound:.4f}"
        )
        if abs(report.rhs_bound - rhs) > 1e-12:
            failures.append(f"rhs mismatch: {report.rhs_bound} != {rhs}")
        if not report.passed:
            failures.append(lines[-1])

    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 300.0
    _announce(3, ok, "coupling bounds on 3+3 configurations; " + "; ".join(lines), elapsed)
    assert ok, failures or f"runtime {elapsed:.1f}s >= 300s"


# ---------------------------------------------------------------------------
# criterion 4: coupled-moment decay along a scaling sequence
# ---------------------------------------------------------------------------


def test_criterion_4_coupling_decay():
    started = time.perf_counter()
    frames = []
    for i, n in enumerate((500, 5000, 50000)):
        rng = substream(9400, "frame", i)
        frames.append(scalar_frame(100.0 + 15.0 * rng.standard_normal(n)))
    report = verify_decay(frames, 50, 100000, seed=9401, m=50)

    failures = [
        metric
        for metric in ("mean_sq_diff", "abs_s2_diff", "boot_sq_diff")
        if not report.strictly_decreasing(metric)
    ]
    values = ", ".join(
        f"N={row.n_psus}: ({row.mean_sq_diff:.3g}, {row.abs_s2_diff:.3g}, "
        f"{row.boot_sq_diff:.3g})"
        for row in report.rows
    )
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 600.0
    _announce(4, ok, f"coupled-moment decay strictly decreasing; {values}", elapsed)
    assert ok, failures or f"runtime {elapsed:.1f}s >= 600s"


# ---------------------------------------------------------------------------
# criteria 5 and 6: desk-scale reproduction of the simulation tables
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def pop3():
    return generate_population(
        SyntheticConfig(2000, 40, 0.06, 20.0, 2.0, (0.1, 0.2, 0.3), 0.6, seed=POP3_SEED)
    )


@pytest.fixture(scope="module")
def table_grid(pop3):
    """Reports for the n_I in {20,200} x n0 in {5,10} x rho in {0.1,0.3} grid."""
    estimands = (
        TotalEstimand(0), TotalEstimand(4),
        RatioEstimand(0, 1), RatioEstimand(4, 5),
        CorrelationEstimand(0, 1), CorrelationEstimand(4, 5),
    )
    started = time.perf_counter()
    cells = {}
    for n0 in (5, 10):
        for n_i in (20, 200):
            scn = Scenario(
                DesignSpec("SI", n_I=n_i), "SYSTEMATIC", n0=n0,
                estimands=estimands,
                variance_methods=("SIMPLIFIED",),
                bootstrap=BootstrapConfig(replicates=1000, seed=0),
                replicates=1000,
                true_run=200000 if n_i == 200 else 60000,
            )
            cells[(n0, n_i)] = run_scenario(
                pop3, scn, seed=GRID_SEED, threads=THREADS, stream_tag=("cell", n0, n_i)
            )
    return cells, time.perf_counter() - started


def _grid_check(cells, estimand_labels, variance_families, ci_families):
    failures = []
    worst_rb = 0.0
    cov_range = [100.0, 0.0]
    for (n0, n_i), reports in cells.items():
        for r in reports:
            if r.estimand not in estimand_labels:
                continue
            if r.kind == "variance" and r.family in variance_families:
                worst_rb = max(worst_rb, abs(r.rb))
                if abs(r.rb) > 10.0:
                    failures.append(
                        f"(n0={n0}, nI={n_i}) {r.estimand} {r.family}: |RB|={abs(r.rb):.2f}% > 10%"
                    )
            elif r.kind == "ci" and r.family in ci_families:
                two_sided = r.lower_pct + r.upper_pct
                cov_range = [min(cov_range[0], two_sided), max(cov_range[1], two_sided)]
                if not 3.0 <= two_sided <= 8.5:
                    failures.append(
                        f"(n0={n0}, nI={n_i}) {r.estimand} {r.family}: "
                        f"L+U={two_sided:.1f} outside [3.0, 8.5]"
                    )
    return failures, worst_rb, cov_range


def test_criterion_5_total_variance_table(table_grid):
    cells, shared_elapsed = table_grid
    totals = {"total[y1]", "total[y5]"}
    failures, worst_rb, cov_range = _grid_check(
        cells, totals,
        variance_families={"v_simp", "boot_var"},
        ci_families={"ci_normal_simp", "ci_percentile"},
    )
    ok = not failures and shared_elapsed < 1800.0
    _announce(
        5, ok,
        f"totals: worst |RB|={worst_rb:.2f}% (<=10), two-sided error in "
        f"[{cov_range[0]:.1f}, {cov_range[1]:.1f}] (within [3.0, 8.5])",
        shared_elapsed,
    )
    assert ok, failures or f"runtime {shared_elapsed:.0f}s >= 1800s"


def test_criterion_6_ratio_correlation_table(table_grid):
    cells, shared_elapsed = table_grid
    smooth = {"ratio[y1/y2]", "ratio[y5/y6]", "corr[y1,y2]", "corr[y5,y6]"}
    failures, worst_rb, cov_range = _grid_check(
        cells, smooth,
        variance_families={"boot_var"},
        ci_families={"ci_percentile"},
    )
    ok = not failures and shared_elapsed < 1800.0
    _announce(
        6, ok,
        f"ratios/correlations: worst |RB|={worst_rb:.2f}% (<=10), two-sided error in "
        f"[{cov_range[0]:.1f}, {cov_range[1]:.1f}] (within [3.0, 8.5])",
        shared_elapsed,
    )
    assert ok, failures or f"runtime {shared_elapsed:.0f}s >= 1800s"


# ---------------------------------------------------------------------------
# criterion 7: bootstrap pivot normality and stratified Studentized coverage
# ---------------------------------------------------------------------------


def _stratified_household_frame(seed):
    """Synthetic stratified cluster population: households of individuals
    carrying a category, with a household-level effect (L=11 strata)."""
    rng = substream(seed, "strat-pop")
    labels, sizes, vals = [], [], []
    for l in range(11):
        n_l = 1500
        hh_sizes = 1 + rng.binomial(5, 0.35, size=n_l)
        base = -0.8 + 0.12 * l
        u = 0.8 * rng.standard_normal(n_l)
        p_i = 1.0 / (1.0 + np.exp(-(base + u)))
        for i in range(n_l):
            k = int(hh_sizes[i])
            vals.append((rng.random(k) < p_i[i]).astype(np.float64))
            sizes.append(k)
            labels.append(f"s{l:02d}")
    return Frame(
        np.concatenate(vals)[:, None], np.array(sizes, dtype=np.int64), strata=labels
    )


def test_criterion_7_pivot_normality_and_stratified_coverage():
    started = time.perf_counter()
    failures = []

    # (a) Studentized bootstrap pivot over 10^4 replicates on N_I=10^4, n_I=100
    rng = substream(431, "pivot-frame")
    frame = Frame(
        (800.0 + 90.0 * rng.standard_normal(10000))[:, None],
        np.ones(10000, dtype=np.int64),
    )
    draw = draw_si(10000, 100, substream(431, "pivot-draw"))
    z = frame.subtotals[draw.order, 0]
    (reps,) = resample_wr(
        z, 10000, BootstrapConfig(replicates=10000, seed=431), compute_se=True
    )
    pivot = (reps.theta_star - reps.base) / reps.se_star
    screen = normality_screen(pivot)  # level 0.001 critical value 6.0
    if not screen.passed:
        failures.append(f"pivot A2={screen.statistic:.2f} >= {screen.critical}")

    # (b) stratified proportion pipeline: Studentized CI two-sided error
    sframe = _stratified_household_frame(52)
    estimand = ProportionEstimand(0, 1.0)
    scn = Scenario(
        DesignSpec("STRAT_SI", allocations={f"s{l:02d}": 20 for l in range(11)}),
        estimands=(estimand,),
        variance_methods=("STRAT_WR",),
        bootstrap=BootstrapConfig(replicates=1000, seed=0),
        studentized=True,
        replicates=1000,
        true_run=2000,
    )
    reports = run_scenario(sframe, scn, seed=61, threads=THREADS, stream_tag=("strat",))
    stud = next(r for r in reports if r.family == "ci_studentized")
    two_sided = stud.lower_pct + stud.upper_pct
    if not 3.0 <= two_sided <= 8.5:
        failures.append(f"Studentized L+U={two_sided:.1f} outside [3.0, 8.5]")

    elapsed = time.perf_counter() - started
    ok = not failures
    _announce(
        7, ok,
        f"pivot A2={screen.statistic:.2f} (<6.0); stratified Studentized "
        f"L+U={two_sided:.1f} (within [3.0, 8.5])",
        elapsed,
    )
    assert ok, failures


# ---------------------------------------------------------------------------
# criterion 8: calibration targets on 10^6 SSUs
# ---------------------------------------------------------------------------


def test_criterion_8_calibration_on_million_ssus():
    started = time.perf_counter()
    cfg = SyntheticConfig(25000, 40, 0.0, 20.0, 2.0, (0.1, 0.2, 0.3), 0.6, seed=9800)
    frame = generate_population(cfg)
    assert frame.n_ssus == 10**6

    failures = []
    details = []
    for h, target in enumerate((0.1, 0.2, 0.3)):
        icc = empirical_icc(frame, 2 * h)
        details.append(f"ICC(y{2 * h + 1})={icc:.3f}")
        if abs(icc - target) > 0.02:
            failures.append(f"ICC of y{2 * h + 1} = {icc:.4f} vs {target} +- 0.02")
        corr = empirical_pair_correlation(frame, 2 * h, 2 * h + 1)
        details.append(f"corr(y{2 * h + 1},y{2 * h + 2})={corr:.3f}")
        if abs(corr - 0.6) > 0.03:
            failures.append(f"pair correlation {corr:.4f} vs 0.60 +- 0.03")

    elapsed = time.perf_counter() - started
    ok = not failures
    _announce(8, ok, "calibration on 10^6 SSUs: " + ", ".join(details), elapsed)
    assert ok, failures


# ---------------------------------------------------------------------------
# criterion 9: byte-identical outputs at 1, 4 and 8 threads
# ---------------------------------------------------------------------------


def _data_outputs(out_dir):
    return {
        p.name: p.read_bytes()
        for p in sorted(out_dir.iterdir())
        if p.name != "manifest.json"  # manifest holds the wall-time field
    }


def test_criterion_9_thread_count_determinism(tmp_path):
    started = time.perf_counter()
    pop = {
        "n_psus": 80, "mean_size": 8, "size_cv": 0.05, "lam": 20.0, "sigma": 2.0,
        "icc_targets": [0.1, 0.3], "pair_corr_target": 0.6,
    }
    frame_dir = tmp_path / "gen-pop-t1"
    configs = {}
    configs["gen-pop"] = {"population": pop}
    configs["estimate"] = {
        "frame": str(frame_dir / "frame.csv"),
        "design": {"kind": "SI", "n_I": 10},
        "second_stage": {"method": "SYSTEMATIC", "n0": 3},
        "estimands": [{"kind": "total", "var": 1}, {"kind": "ratio", "num": 1, "den": 2}],
        "variance_methods": ["SIMPLIFIED", "WITH_REPLACEMENT"],
    }
    configs["bootstrap"] = {
        **{k: v for k, v in configs["estimate"].items() if k != "variance_methods"},
        "variance_methods": ["SIMPLIFIED"],
        "bootstrap": {"replicates": 200},
        "studentized": True,
    }
    configs["mc"] = {
        "population": pop,
        "population_label": "toy",
        "scenario": {
            "first_stage": {"kind": "SI", "n_I": [8]},
            "second_stage": {"method": "SYSTEMATIC", "n0": [3]},
            "estimands": [{"kind": "total", "var": 1, "rho": 0.1}],
            "variance_methods": ["SIMPLIFIED"],
            "bootstrap": {"replicates": 100},
            "replicates": 120,
            "true_run": 1000,
        },
    }
    configs["verify"] = {
        "bounds": [
            {"check": "be_si", "n_I": 5, "frame": {"kind": "range", "n_psus": 50},
             "replicates": 2000},
            {"check": "sir_si", "n_I": 5, "frame": {"kind": "range", "n_psus": 50},
             "replicates": 2000},
        ],
        "decay": {
            "n_I": 5, "replicates": 2000,
            "frames": [
                {"kind": "normal", "n_psus": n, "mean": 100, "sd": 15}
                for n in (50, 500, 5000)
            ],
        },
    }

    failures = []
    for command, payload in configs.items():
        cfg_path = tmp_path / f"{command}.json"
        cfg_path.write_text(json.dumps(payload))
        outputs = {}
        for threads in (1, 4, 8):
            out = tmp_path / f"{command}-t{threads}"
            rc = cli_main([
                command, "--config", str(cfg_path), "--seed", "97",
                "--threads", str(threads), "--out", str(out),
            ])
            if rc != 0:
                failures.append(f"{command} at {threads} threads exited {rc}")
                break
            outputs[threads] = _data_outputs(out)
        else:
            if not (outputs[1] == outputs[4] == outputs[8]):
                failures.append(f"{command}: outputs differ across thread counts")

    elapsed = time.perf_counter() - started
    ok = not failures
    _announce(9, ok, "all five commands byte-identical at 1/4/8 threads", elapsed)
    assert ok, failures
