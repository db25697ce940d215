"""Monte Carlo harness: relative bias/stability and tail coverage of estimators.

A :class:`Scenario` fixes a two-stage design and a set of estimands; the
runner draws B independent two-stage samples, evaluates the point estimator,
the requested variance estimators and confidence intervals on each, and
summarizes them against reference values:

* percent relative bias   RB = 100 * (mean(est) - theta) / theta
* percent relative stability  RS = 100 * sqrt(mean((est - theta)^2)) / theta
* one-tailed error rates L (interval entirely above theta) and U (entirely
  below), in percent.

For variance estimators the reference is the "true" design variance,
approximated from a separate run of C independent samples unless supplied
in closed form.  Replicate b derives all of its randomness from the
substream (seed, ..., "mc", b), so reports are bit-identical for any number
of worker processes.
"""
from __future__ import annotations

import math
import multiprocessing
import os
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .bootstrap import (
    BootstrapConfig,
    ReplicateSet,
    bootstrap_variance,
    multinomial_weights,
    percentile_ci,
    replicate_se,
    stratified_proportion_resample,
    studentized_ci,
)
from .designs import (
    DesignSpec,
    FirstStageDraw,
    psu_subtotal_estimates,
    second_stage_positions,
    si_order,
)
from .estimators import (
    ProportionEstimand,
    SmoothEstimand,
    StratifiedClusterSample,
    TotalEstimand,
    estimand_columns,
    linearized_values,
    mean_total,
    normal_ci,
    population_value,
    variance_estimate,
)
from .frame import Frame
from .rng import substream

__all__ = [
    "Scenario",
    "MCReport",
    "run_scenario",
    "approximate_true_variance",
    "coverage_stats",
    "scaling_study",
    "anderson_darling_normal",
    "normality_screen",
    "NormalityScreen",
]

STRAT_WR = "STRAT_WR"

# SI replicates are drawn and estimated in fixed blocks of this many; the
# block never depends on the thread count, and neither do the results
_BLOCK = 64

_SI_VARIANCE_METHODS = ("UNBIASED", "SIMPLIFIED", "WITH_REPLACEMENT")

_FAMILY = {
    "UNBIASED": "v_unb",
    "SIMPLIFIED": "v_simp",
    "WITH_REPLACEMENT": "v_wr",
    STRAT_WR: "v_stwr",
}


@dataclass
class Scenario:
    """One simulation cell: design, estimands, estimators to evaluate."""

    first_stage: DesignSpec
    second_stage: str = "CENSUS"  # "SI" | "SYSTEMATIC" | "CENSUS"
    n0: int | None = None
    estimands: tuple[SmoothEstimand, ...] = (TotalEstimand(0),)
    variance_methods: tuple[str, ...] = ()
    bootstrap: BootstrapConfig | None = None
    studentized: bool = False
    ci_alpha: float = 0.025
    replicates: int = 1000
    true_run: int = 20000

    def validate(self, frame: Frame) -> None:
        if self.replicates < 100:
            raise ValueError("need at least 100 Monte Carlo replicates")
        if not self.estimands:
            raise ValueError("scenario needs at least one estimand")
        if self.second_stage == "CENSUS":
            if self.n0 is not None:
                raise ValueError("a census second stage takes no n0")
        else:
            if self.n0 is None or self.n0 < 1:
                raise ValueError(f"second stage {self.second_stage} needs n0 >= 1")
            if np.any(frame.sizes < self.n0):
                raise ValueError("n0 exceeds the smallest PSU size")
        kind = self.first_stage.kind
        if kind == "SI":
            self.first_stage.validate_for(frame.n_psus)
            bad = set(self.variance_methods) - set(_SI_VARIANCE_METHODS)
            if bad:
                raise ValueError(f"variance methods {sorted(bad)} unavailable under SI")
            if "UNBIASED" in self.variance_methods and self.second_stage == "SYSTEMATIC":
                raise ValueError(
                    "UNBIASED variance needs within-PSU variance estimates, "
                    "which systematic subsampling does not provide"
                )
        elif kind == "STRAT_SI":
            groups = frame.stratum_psu_indices()
            self.first_stage.validate_for(
                frame.n_psus, {k: v.size for k, v in groups.items()}
            )
            if set(self.variance_methods) - {STRAT_WR}:
                raise ValueError("stratified scenarios support the STRAT_WR method only")
            if self.second_stage != "CENSUS":
                raise ValueError("stratified cluster scenarios use a census second stage")
            if not all(isinstance(e, ProportionEstimand) for e in self.estimands):
                raise ValueError("stratified scenarios estimate proportions")
        else:
            raise ValueError(f"scenario first stage must be SI or STRAT_SI, got {kind}")
        # a variance estimate or a bootstrap needs two sampled PSUs in every stratum
        if self.variance_methods or self.bootstrap is not None:
            sampled = (
                {"n_I": self.first_stage.n_I} if kind == "SI"
                else {f"stratum {k!r}": n for k, n in self.first_stage.allocations.items()}
            )
            for where, n in sampled.items():
                if n < 2:
                    raise ValueError(
                        "variance methods and the bootstrap need at least 2 sampled PSUs; "
                        f"{where} samples {n}"
                    )
        if self.studentized:
            if self.bootstrap is None:
                raise ValueError("Studentized intervals need a bootstrap configuration")
            base = "SIMPLIFIED" if kind == "SI" else STRAT_WR
            if base not in self.variance_methods:
                raise ValueError(
                    f"Studentized intervals use the {base} variance as base standard error"
                )


@dataclass
class MCReport:
    """Summary of one (estimand, estimator family) pair over the MC replicates."""

    estimand: str
    family: str
    kind: str  # "point" | "variance" | "ci"
    theta_true: float
    n_replicates: int
    rb: float | None = None
    rb_se: float | None = None
    rs: float | None = None
    rs_se: float | None = None
    lower_pct: float | None = None
    upper_pct: float | None = None
    tail_se: float | None = None
    mean_estimate: float | None = None
    mean_se: float | None = None

    def metric_rows(self) -> list[tuple[str, float, float]]:
        """(metric, value, mc_se) rows for the long CSV format."""
        rows: list[tuple[str, float, float]] = []
        if self.kind in ("point", "variance"):
            rows.append((f"{self.family}.rb", self.rb, self.rb_se))
            rows.append((f"{self.family}.rs", self.rs, self.rs_se))
        else:
            p2 = min((self.lower_pct + self.upper_pct) / 100.0, 1.0)
            two_sided_se = 100.0 * math.sqrt(max(p2 * (1.0 - p2), 1e-12) / self.n_replicates)
            rows.append((f"{self.family}.L", self.lower_pct, self.tail_se))
            rows.append((f"{self.family}.U", self.upper_pct, self.tail_se))
            rows.append(
                (f"{self.family}.two_sided", self.lower_pct + self.upper_pct, two_sided_se)
            )
        return rows


def coverage_stats(
    lower: np.ndarray, upper: np.ndarray, theta: float
) -> tuple[float, float]:
    """Tail miss percentages: L = % of intervals entirely above theta, U = below."""
    lower = np.asarray(lower, dtype=np.float64)
    upper = np.asarray(upper, dtype=np.float64)
    if lower.size < 100:
        raise ValueError("need at least 100 replicate intervals")
    n = lower.size
    miss_low = float(np.count_nonzero(lower > theta)) / n
    miss_high = float(np.count_nonzero(upper < theta)) / n
    return 100.0 * miss_low, 100.0 * miss_high


# ---------------------------------------------------------------------------
# replicate engine
# ---------------------------------------------------------------------------


@dataclass
class _Context:
    frame: Frame
    scenario: Scenario
    seed: int
    tag: tuple
    columns: np.ndarray  # (N, p_distinct) distinct columns of the derived SSU matrix
    col_subtotals: np.ndarray  # (N_I, p_distinct) their exact subtotals
    expand: np.ndarray  # (p_total,) index of each estimand column in ``columns``
    slices: list[slice]  # each estimand's slice of the p_total columns
    slots: dict[tuple, int]
    n_slots: int
    need_vhat: bool = False

    def rng_for(self, b: int, purpose: str) -> np.random.Generator:
        return substream(self.seed, *self.tag, purpose, b)


def _build_context(frame: Frame, scenario: Scenario, seed: int, tag: tuple) -> _Context:
    scenario.validate(frame)
    est = scenario.estimands
    slots: dict[tuple, int] = {}

    def add(key: tuple) -> None:
        slots[key] = len(slots)

    # variance methods (and the Studentized base) apply to totals under SI
    # and to the proportion under STRAT_SI; other estimands are bootstrap-only
    if scenario.first_stage.kind == "SI":
        vm_kind: tuple = (TotalEstimand,)
    else:
        vm_kind = (ProportionEstimand,)
        if len(est) != 1:
            raise ValueError("stratified scenarios run one proportion estimand at a time")
    for e in est:
        add(("point", e.label))
    for e in est:
        if isinstance(e, vm_kind):
            for vm in scenario.variance_methods:
                add(("var", e.label, vm))
                add(("ci", e.label, f"ci_normal_{_FAMILY[vm][2:]}", "lo"))
                add(("ci", e.label, f"ci_normal_{_FAMILY[vm][2:]}", "hi"))
    if scenario.bootstrap is not None:
        for e in est:
            add(("bootvar", e.label))
            add(("ci", e.label, "ci_percentile", "lo"))
            add(("ci", e.label, "ci_percentile", "hi"))
            if scenario.studentized and isinstance(e, vm_kind):
                add(("ci", e.label, "ci_studentized", "lo"))
                add(("ci", e.label, "ci_studentized", "hi"))

    # under STRAT_SI the proportion's (count, size) subtotals are the rows
    # of every stratified sample
    columns, col_subtotals, slices = estimand_columns(frame, est)
    keep, expand = _distinct_columns(columns)
    return _Context(
        frame, scenario, seed, tag, np.take(columns, keep, axis=1),
        np.take(col_subtotals, keep, axis=1), expand, slices, slots, len(slots),
        need_vhat="UNBIASED" in scenario.variance_methods,
    )


def _distinct_columns(columns: np.ndarray) -> tuple[list[int], np.ndarray]:
    """The bitwise-distinct columns of an (N, p) matrix, gathered once per sample.

    Returns the indices ``keep`` of each column's first copy and ``expand``,
    with ``columns[:, keep][:, expand]`` equal to ``columns``.  Every column
    is summed on its own, so gathering the copies once changes no bit, as
    long as two or more columns are gathered: numpy sums a lone column
    pairwise, not one row after another, so when p > 1 but all columns are
    equal every column is kept.
    """
    bits = columns.view(np.uint64)

    def equal(c: int, f: int) -> bool:  # the first rows tell most columns apart
        return (np.array_equal(bits[:64, c], bits[:64, f])
                and np.array_equal(bits[:, c], bits[:, f]))

    keep: list[int] = []
    expand = []
    for c in range(columns.shape[1]):
        u = next((u for u, f in enumerate(keep) if equal(c, f)), len(keep))
        if u == len(keep):
            keep.append(c)
        expand.append(u)
    if len(keep) < 2:
        return list(range(columns.shape[1])), np.arange(columns.shape[1])
    return keep, np.array(expand)


@dataclass
class _SiBlock:
    """The two-stage draws and point estimates of a block of SI replicates.

    Replicate i of the block drew ``orders[i]`` and its second stage from
    ``rngs[i]``, which the replicate's variance and bootstrap work goes on
    drawing from.
    """

    rngs: list[np.random.Generator]
    orders: np.ndarray  # (B, n_I) first-stage draws
    yhat: np.ndarray  # (B, n_I, p_distinct) estimated subtotals, C-contiguous
    vhat: np.ndarray | None  # (B, n_I, p_distinct) within-PSU variance estimates
    theta: np.ndarray  # (B, n_estimands) point estimates


def _blocks(start: int, end: int):
    """The spans of [start, end) cut at multiples of _BLOCK."""
    lo = start
    while lo < end:
        hi = min(end, (lo // _BLOCK + 1) * _BLOCK)
        yield lo, hi
        lo = hi


def _si_block(ctx: _Context, purpose: str, lo: int, hi: int) -> _SiBlock:
    """Replicates lo..hi-1: each draws from its own substream, then one estimate for all.

    A replicate's draws are those of a lone replicate, and every reduction
    runs over axis 1 of a C-contiguous array, so each row has the bits that
    the replicate computed on its own would have.
    """
    sc = ctx.scenario
    frame = ctx.frame
    N, n, n0 = frame.n_psus, sc.first_stage.n_I, sc.n0
    census = sc.second_stage == "CENSUS"
    rngs = [ctx.rng_for(b, purpose) for b in range(lo, hi)]
    orders = np.empty((hi - lo, n), dtype=np.int64)
    rows = None if census else np.empty((hi - lo, n, n0), dtype=np.int64)
    for i, rng in enumerate(rngs):
        orders[i] = si_order(N, n, rng)
        if rows is not None:
            rows[i] = second_stage_positions(frame, orders[i], sc.second_stage, n0, rng)
    vhat = None
    if census:
        yhat = ctx.col_subtotals[orders]
        if ctx.need_vhat:
            vhat = np.zeros_like(yhat)
    elif ctx.need_vhat:
        pairs = [psu_subtotal_estimates(frame, ctx.columns, o, r, n0, with_vhat=True)
                 for o, r in zip(orders, rows)]
        yhat = np.stack([y for y, _ in pairs])
        vhat = np.stack([v for _, v in pairs])
    else:
        flat, _ = psu_subtotal_estimates(frame, ctx.columns, orders.ravel(),
                                         rows.reshape(-1, n0), n0)
        yhat = flat.reshape(hi - lo, n, -1)
    totals = (N * yhat.mean(axis=1))[:, ctx.expand]
    theta = np.column_stack([e.evaluate(totals[:, sl])
                             for e, sl in zip(sc.estimands, ctx.slices)])
    return _SiBlock(rngs, orders, yhat, vhat, theta)


def _si_replicate_row(ctx: _Context, block: _SiBlock, i: int, row: np.ndarray) -> None:
    """Variance estimates and the bootstrap of replicate i of the block."""
    sc = ctx.scenario
    n = sc.first_stage.n_I
    N = ctx.frame.n_psus
    # fresh C-contiguous (n_I, p_total) arrays, as a lone replicate would have
    yhat = np.take(block.yhat[i], ctx.expand, axis=1)
    vhat = None if block.vhat is None else np.take(block.vhat[i], ctx.expand, axis=1)
    draw = FirstStageDraw(sc.first_stage, block.orders[i], N)

    for j, (e, sl) in enumerate(zip(sc.estimands, ctx.slices)):
        theta = float(block.theta[i, j])
        row[ctx.slots[("point", e.label)]] = theta
        if isinstance(e, TotalEstimand) and sc.variance_methods:
            total = mean_total(draw, (yhat[:, sl], None if vhat is None else vhat[:, sl]))
            for vm in sc.variance_methods:
                v = variance_estimate(total, vm)
                row[ctx.slots[("var", e.label, vm)]] = v
                lo, hi = normal_ci(theta, v, sc.ci_alpha)
                fam = f"ci_normal_{_FAMILY[vm][2:]}"
                row[ctx.slots[("ci", e.label, fam, "lo")]] = lo
                row[ctx.slots[("ci", e.label, fam, "hi")]] = hi

    if sc.bootstrap is None:
        return
    cfg = sc.bootstrap
    m = cfg.resolve_m(n)
    d_mat = multinomial_weights(block.rngs[i], cfg.replicates, n, m)
    totals_star = (d_mat @ yhat) * (N / m)  # (R, p_total)
    for e, sl in zip(sc.estimands, ctx.slices):
        studentized = sc.studentized and ("ci", e.label, "ci_studentized", "lo") in ctx.slots
        reps = ReplicateSet(
            np.asarray(e.evaluate(totals_star[:, sl]), dtype=np.float64),
            row[ctx.slots[("point", e.label)]],
            replicate_se(d_mat, yhat[:, sl], totals_star[:, sl], N, m, e) if studentized else None,
        )
        _write_bootstrap(ctx, row, e.label, reps, "SIMPLIFIED" if studentized else None)


def _write_bootstrap(
    ctx: _Context, row: np.ndarray, label: str, reps: ReplicateSet, base_method: str | None
) -> None:
    """Store the bootstrap variance and intervals; Studentized with the base_method variance."""
    alpha = ctx.scenario.bootstrap.alpha
    row[ctx.slots[("bootvar", label)]] = bootstrap_variance(reps)
    lo, hi = percentile_ci(reps, alpha)
    row[ctx.slots[("ci", label, "ci_percentile", "lo")]] = lo
    row[ctx.slots[("ci", label, "ci_percentile", "hi")]] = hi
    if base_method is not None:
        base_se = math.sqrt(row[ctx.slots[("var", label, base_method)]])
        lo, hi = studentized_ci(reps, base_se, alpha)
        row[ctx.slots[("ci", label, "ci_studentized", "lo")]] = lo
        row[ctx.slots[("ci", label, "ci_studentized", "hi")]] = hi


def _strat_replicate_row(ctx: _Context, rng: np.random.Generator, row: np.ndarray) -> None:
    sc = ctx.scenario
    e = sc.estimands[0]
    sample = StratifiedClusterSample.draw(ctx.frame, sc.first_stage.allocations,
                                          ctx.col_subtotals, rng)
    p_hat = float(e.evaluate(sample.totals))
    row[ctx.slots[("point", e.label)]] = p_hat

    if STRAT_WR in sc.variance_methods:
        v_stwr = float(linearized_values(sample, p_hat, sample.totals[1])[0])
        row[ctx.slots[("var", e.label, STRAT_WR)]] = v_stwr
        lo, hi = normal_ci(p_hat, v_stwr, sc.ci_alpha)
        row[ctx.slots[("ci", e.label, "ci_normal_stwr", "lo")]] = lo
        row[ctx.slots[("ci", e.label, "ci_normal_stwr", "hi")]] = hi

    if sc.bootstrap is None:
        return
    reps = stratified_proportion_resample(sample, e, sc.bootstrap, rng=rng,
                                          compute_se=sc.studentized)
    _write_bootstrap(ctx, row, e.label, reps, STRAT_WR if sc.studentized else None)


def _replicate_rows(ctx: _Context, start: int, end: int) -> np.ndarray:
    out = np.full((end - start, ctx.n_slots), np.nan)
    if ctx.scenario.first_stage.kind == "STRAT_SI":
        for b in range(start, end):
            _strat_replicate_row(ctx, ctx.rng_for(b, "mc"), out[b - start])
        return out
    for lo, hi in _blocks(start, end):
        block = _si_block(ctx, "mc", lo, hi)
        for i in range(hi - lo):
            _si_replicate_row(ctx, block, i, out[lo - start + i])
    return out


def _point_rows(ctx: _Context, start: int, end: int) -> np.ndarray:
    sc = ctx.scenario
    if sc.first_stage.kind != "STRAT_SI":
        return np.vstack([_si_block(ctx, "true", lo, hi).theta for lo, hi in _blocks(start, end)])
    (e,) = sc.estimands
    out = np.empty((end - start, 1))
    for b in range(start, end):
        totals = StratifiedClusterSample.draw(ctx.frame, sc.first_stage.allocations,
                                              ctx.col_subtotals, ctx.rng_for(b, "true")).totals
        out[b - start, 0] = float(e.evaluate(totals[None, :])[0])
    return out


# module-level worker state for fork-based pools
_WORKER_CTX: _Context | None = None


def _pool_init(ctx: _Context) -> None:
    global _WORKER_CTX
    _WORKER_CTX = ctx


def _pool_mc(span: tuple[int, int]) -> np.ndarray:
    return _replicate_rows(_WORKER_CTX, span[0], span[1])


def _pool_true(span: tuple[int, int]) -> np.ndarray:
    return _point_rows(_WORKER_CTX, span[0], span[1])


def _parallel(fn_serial, pool_fn, total: int, threads: int, ctx: _Context) -> np.ndarray:
    """Run a chunked replicate loop, serial or on a fork pool.

    Every replicate derives its stream from its own index, and chunk results
    are reassembled in index order, so the output does not depend on the
    thread count.
    """
    if threads <= 1 or total < 32:
        return fn_serial(ctx, 0, total)
    try:
        mp = multiprocessing.get_context("fork")
    except ValueError:
        return fn_serial(ctx, 0, total)
    chunk = max(16, -(-total // (threads * 8)))
    spans = [(s, min(s + chunk, total)) for s in range(0, total, chunk)]
    # more workers than cores or spans would only add processes
    workers = min(threads, os.cpu_count() or 1, len(spans))
    with mp.Pool(processes=workers, initializer=_pool_init, initargs=(ctx,)) as pool:
        parts = pool.map(pool_fn, spans)
    return np.vstack(parts)


# ---------------------------------------------------------------------------
# public runners
# ---------------------------------------------------------------------------


def approximate_true_variance(
    frame: Frame,
    scenario: Scenario,
    seed: int,
    threads: int = 1,
    stream_tag: tuple = (),
) -> tuple[dict[str, float], dict[str, float]]:
    """Empirical variance (and mean) of the point estimators over C samples.

    Returns ``(v_true, mean)`` keyed by estimand label; C = scenario.true_run.
    """
    if scenario.true_run < 1000:
        raise ValueError("the reference run needs at least 1000 samples")
    ctx = _build_context(frame, scenario, seed, stream_tag)
    theta = _parallel(_point_rows, _pool_true, scenario.true_run, threads, ctx)
    v_true = {e.label: float(np.var(theta[:, j], ddof=1)) for j, e in enumerate(scenario.estimands)}
    means = {e.label: float(theta[:, j].mean()) for j, e in enumerate(scenario.estimands)}
    return v_true, means


def run_scenario(
    frame: Frame,
    scenario: Scenario,
    seed: int,
    threads: int = 1,
    v_true: Mapping[str, float] | None = None,
    theta_true: Mapping[str, float] | None = None,
    stream_tag: tuple = (),
) -> list[MCReport]:
    """Run the Monte Carlo study for one scenario and summarize it.

    ``theta_true`` defaults to the exact population values; ``v_true`` (the
    reference for variance-estimator bias) defaults to a separate
    ``scenario.true_run``-sample approximation.
    """
    ctx = _build_context(frame, scenario, seed, stream_tag)
    if v_true is None:
        needs_v = bool(scenario.variance_methods) or scenario.bootstrap is not None
        if needs_v:
            v_true, _ = approximate_true_variance(
                frame, scenario, seed, threads, stream_tag
            )
        else:
            v_true = {}
    theta_true = dict(theta_true) if theta_true is not None else {
        e.label: population_value(frame, e) for e in scenario.estimands
    }

    rows = _parallel(_replicate_rows, _pool_mc, scenario.replicates, threads, ctx)
    b = scenario.replicates
    reports: list[MCReport] = []

    def rb_rs(values: np.ndarray, ref: float) -> tuple[float, float, float, float, float, float]:
        if ref == 0:
            raise ValueError("relative bias/stability need a nonzero reference value")
        mean = float(values.mean())
        mean_se = float(values.std(ddof=1)) / math.sqrt(b)
        msq = float(np.mean((values - ref) ** 2))
        msq_se = float(np.std((values - ref) ** 2, ddof=1)) / math.sqrt(b)
        rb = 100.0 * (mean - ref) / ref
        rb_se = 100.0 * mean_se / abs(ref)
        rs = 100.0 * math.sqrt(msq) / abs(ref)
        rs_se = 100.0 * msq_se / (2.0 * math.sqrt(msq) * abs(ref)) if msq > 0 else 0.0
        return rb, rb_se, rs, rs_se, mean, mean_se

    for e, sl in zip(scenario.estimands, ctx.slices):
        theta_ref = theta_true[e.label]
        values = rows[:, ctx.slots[("point", e.label)]]
        rb, rb_se, rs, rs_se, mean, mean_se = rb_rs(values, theta_ref)
        reports.append(
            MCReport(e.label, "point", "point", theta_ref, b, rb, rb_se, rs, rs_se,
                     mean_estimate=mean, mean_se=mean_se)
        )

        def ci_report(family: str) -> MCReport:
            lo = rows[:, ctx.slots[("ci", e.label, family, "lo")]]
            hi = rows[:, ctx.slots[("ci", e.label, family, "hi")]]
            l_pct, u_pct = coverage_stats(lo, hi, theta_ref)
            two = (l_pct + u_pct) / 100.0
            tail_se = 100.0 * math.sqrt(max(two / 2 * (1 - two / 2), 1e-12) / b)
            return MCReport(e.label, family, "ci", theta_ref, b,
                            lower_pct=l_pct, upper_pct=u_pct, tail_se=tail_se)

        for vm in scenario.variance_methods:
            key = ("var", e.label, vm)
            if key not in ctx.slots:
                continue
            ref = v_true[e.label]
            vals = rows[:, ctx.slots[key]]
            rb, rb_se, rs, rs_se, mean, mean_se = rb_rs(vals, ref)
            reports.append(
                MCReport(e.label, _FAMILY[vm], "variance", ref, b, rb, rb_se, rs, rs_se,
                         mean_estimate=mean, mean_se=mean_se)
            )
            reports.append(ci_report(f"ci_normal_{_FAMILY[vm][2:]}"))
        if scenario.bootstrap is not None:
            ref = v_true[e.label]
            vals = rows[:, ctx.slots[("bootvar", e.label)]]
            rb, rb_se, rs, rs_se, mean, mean_se = rb_rs(vals, ref)
            reports.append(
                MCReport(e.label, "boot_var", "variance", ref, b, rb, rb_se, rs, rs_se,
                         mean_estimate=mean, mean_se=mean_se)
            )
            reports.append(ci_report("ci_percentile"))
            if scenario.studentized and ("ci", e.label, "ci_studentized", "lo") in ctx.slots:
                reports.append(ci_report("ci_studentized"))
    return reports


def scaling_study(
    frame: Frame,
    cells: Sequence[tuple[dict, Scenario]],
    seed: int,
    threads: int = 1,
) -> list[dict]:
    """Run a grid of scenarios and flatten the reports into long-format rows.

    ``cells`` pairs row metadata (population, rho, n0, nI, ...) with a
    scenario; each cell runs on its own substream.  Returns dict rows with
    the metadata plus estimand/metric/value/mc_se columns.
    """
    if not cells:
        raise ValueError("empty scenario grid")
    for _, scenario in cells:
        scenario.validate(frame)  # fail before the first cell runs
    rows: list[dict] = []
    for idx, (meta, scenario) in enumerate(cells):
        reports = run_scenario(
            frame, scenario, seed, threads=threads, stream_tag=("cell", idx)
        )
        for rep in reports:
            for metric, value, mc_se in rep.metric_rows():
                row = dict(meta)
                row.update(
                    estimand=rep.estimand, metric=metric, value=value, mc_se=mc_se
                )
                rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# distributional screen
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NormalityScreen:
    statistic: float
    critical: float

    @property
    def passed(self) -> bool:
        return self.statistic < self.critical


def anderson_darling_normal(values: np.ndarray) -> float:
    """Anderson-Darling statistic against the standard normal (fully specified)."""
    x = np.sort(np.asarray(values, dtype=np.float64))
    n = x.size
    if n < 8:
        raise ValueError("need at least 8 observations")
    u = 0.5 * (1.0 + np.array([math.erf(v / math.sqrt(2.0)) for v in x]))
    u = np.clip(u, 1e-300, 1.0 - 1e-16)
    i = np.arange(1, n + 1)
    return float(-n - np.mean((2 * i - 1) * (np.log(u) + np.log1p(-u[::-1]))))


def normality_screen(values: np.ndarray, critical: float = 6.0) -> NormalityScreen:
    """Screen a pivot sample for normality.

    The default critical value 6.0 is the asymptotic upper point of the
    fully-specified-normal Anderson-Darling statistic at level 0.001.
    """
    return NormalityScreen(anderson_darling_normal(values), critical)
