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

Replicates run in fixed blocks, larger for reference samples than for MC
replicates (see ``_point_block_rows``), on one generator pool per process.

Under SYSTEMATIC subsampling a run reads one exact table of every PSU's
distinct systematic samples and their estimates
(:func:`~twostage.designs.systematic_table`), kept per live frame for the
next run of its n0 and column keys (``_TABLES``), found or built before any
worker forks, and keeps no column matrix; each replicate reads its SI draws
and then its starts from one raw-word pass over its own stream, and looks its
samples up instead of placing and gathering them.  A row of the table is the
gather path's own call at one start of its interval, so the outputs keep their
bits, and the table takes about the memory of the column matrix it replaces.

A run builds its columns, or a table it does not find kept, from the frame's
values as they are when it starts, and reads the frame's cached subtotals;
the frame shares the arrays it was built from, so a caller that writes
through its own reference to them afterwards leaves those subtotals and the
kept table stale (see :class:`~twostage.frame.Frame`).
"""
from __future__ import annotations

import math
import multiprocessing
import os
import threading
import weakref
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .bootstrap import (
    BootstrapConfig,
    ReplicateSet,
    bootstrap_variance,
    percentile_ci,
    resample_wr,
    stratified_proportion_resample,
    studentized_ci,
)
from .designs import (  # noqa: F401 - si_order stays importable here for perfbench's tracer test
    DesignSpec,
    FirstStageDraw,
    SystematicTable,
    _check_n0,
    _stratified_si_orders,
    check_second_stage,
    fresh_si_draws,
    resolve_si_orders,
    second_stage_estimates,
    si_order,
    systematic_table,
)
from .estimators import (
    ProportionEstimand,
    SmoothEstimand,
    StratifiedClusterSample,
    TotalEstimand,
    VHAT_METHODS,
    check_alpha,
    check_variables,
    check_variance_methods,
    column_layout,
    column_matrix,
    estimand_columns,
    linearized_values,
    mean_total,
    normal_ci,
    population_value,
    variance_estimate,
)
from .frame import Frame
from .rng import key_blocks, new_stream

__all__ = [
    "Scenario",
    "MCReport",
    "run_scenario",
    "approximate_true_variance",
    "coverage_stats",
    "scaling_study",
]

STRAT_WR = "STRAT_WR"

# MC replicates are drawn and estimated in fixed blocks of this many, and a
# reference-run block holds a multiple of it; no block depends on the thread
# count, and neither do the results
_BLOCK = 64
# first-stage draws (rows x n) a reference-run block holds at most, past one _BLOCK
_POINT_CELLS = 1 << 15
# the most rows of a reference-run block under an SI second stage, where each row keeps
# its own generator of the pool (about 1 KB, and 30 us to make) for its second stage
_POINT_POOL_ROWS = 2048

_SI_VARIANCE_METHODS = ("UNBIASED", "SIMPLIFIED", "WITH_REPLACEMENT")

# each variance method's two report families: its variance and its normality-based interval
_FAMILIES = {
    method: (f"v_{short}", f"ci_normal_{short}")
    for method, short in (("UNBIASED", "unb"), ("SIMPLIFIED", "simp"),
                          ("WITH_REPLACEMENT", "wr"), (STRAT_WR, "stwr"))
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

    def check(self) -> None:
        """Every rule that needs no frame; each message starts with the attribute at fault."""
        if self.replicates < 100:
            raise ValueError("replicates must be >= 100")
        if self.true_run < 1000:
            raise ValueError("true_run must be >= 1000")
        if not self.estimands:
            raise ValueError("estimands must be nonempty")
        labels = [e.label for e in self.estimands]
        if len(set(labels)) < len(labels):  # a label names its estimand's report rows
            raise ValueError(f"estimands must have distinct labels, got {labels}")
        check_alpha(self.ci_alpha, "ci_alpha")
        check_second_stage(self.second_stage, self.n0)
        kind = self.first_stage.kind
        if kind == "SI":
            check_variance_methods(self.variance_methods, self.second_stage, _SI_VARIANCE_METHODS)
            sampled = {"first_stage.n_I": self.first_stage.n_I}
        elif kind == "STRAT_SI":
            if self.second_stage != "CENSUS":
                raise ValueError("second_stage must be CENSUS under a STRAT_SI first stage")
            if len(self.estimands) != 1 or not isinstance(self.estimands[0], ProportionEstimand):
                raise ValueError("estimands must be proportions, one at a time, under STRAT_SI")
            check_variance_methods(self.variance_methods, self.second_stage, (STRAT_WR,))
            sampled = {f"first_stage.allocations[{k}]": n
                       for k, n in self.first_stage.allocations.items()}
        else:
            raise ValueError(f"first_stage must be SI or STRAT_SI, got {kind}")
        # a variance estimate or a bootstrap needs two sampled PSUs in every stratum
        if self.variance_methods or self.bootstrap is not None:
            for where, n in sampled.items():
                if n < 2:
                    raise ValueError(f"{where} must be >= 2: variance methods and the "
                                     f"bootstrap need at least 2 sampled PSUs, got {n}")
        base = "SIMPLIFIED" if kind == "SI" else STRAT_WR
        if self.studentized and self.bootstrap is None:
            raise ValueError("studentized needs a bootstrap configuration")
        if self.studentized and base not in self.variance_methods:
            raise ValueError(f"studentized needs the {base} variance as base standard error")

    def validate(self, frame: Frame) -> None:
        """``check``, then the rules that need the frame."""
        self.check()
        strata = (None if self.first_stage.kind == "SI"
                  else {k: v.size for k, v in frame.stratum_psu_indices().items()})
        self.first_stage.validate_for(frame.n_psus, strata)
        check_variables(self.estimands, frame.n_vars)
        if self.n0 is not None:
            _check_n0(frame, np.arange(frame.n_psus), self.n0)


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
    # under SI and CENSUS subsampling the (N, p_distinct) distinct columns of
    # the derived SSU matrix and their (N_I, p_distinct) exact subtotals;
    # under SYSTEMATIC only the table of every sample's estimates
    columns: np.ndarray | None
    col_subtotals: np.ndarray | None
    table: SystematicTable | None
    expand: np.ndarray  # (p_total,) index of each estimand column among the distinct ones
    slices: list[slice]  # each estimand's slice of the p_total columns
    # (estimand label, family) -> column of an MC row, in report order; a
    # ci_* family owns its column (the lower limit) and the next (the upper)
    layout: dict[tuple[str, str], int]
    width: int  # columns of an MC row
    point_rows: int  # rows of a reference-run block (see _point_block_rows)
    need_vhat: bool = False


def _build_context(frame: Frame, scenario: Scenario, seed: int, tag: tuple) -> _Context:
    scenario.validate(frame)
    est = scenario.estimands
    # variance methods (and the Studentized base) apply to totals under SI
    # and to the proportion under STRAT_SI; other estimands are bootstrap-only
    vm_kind = TotalEstimand if scenario.first_stage.kind == "SI" else ProportionEstimand
    layout: dict[tuple[str, str], int] = {}
    width = 0
    for e in est:
        families = ["point"]
        if isinstance(e, vm_kind):
            families += [f for vm in scenario.variance_methods for f in _FAMILIES[vm]]
        if scenario.bootstrap is not None:
            families += ["boot_var", "ci_percentile"]
            if scenario.studentized and isinstance(e, vm_kind):
                families.append("ci_studentized")
        for family in families:
            layout[e.label, family] = width
            width += 2 if family.startswith("ci_") else 1

    # found or built before any worker forks, so every worker shares it
    if scenario.second_stage == "SYSTEMATIC":
        keys, expand, slices = column_layout(est)
        columns = col_subtotals = None
        table = _frame_table(frame, scenario.n0, keys)
    else:
        columns, col_subtotals, expand, slices = estimand_columns(frame, est)
        table = None
    return _Context(
        frame, scenario, seed, tag, columns, col_subtotals, table, expand, slices, layout,
        width, _point_block_rows(scenario),
        need_vhat=any(m in VHAT_METHODS for m in scenario.variance_methods),
    )


# each live frame's last SYSTEMATIC table, as ((n0, column keys), table); the
# entry goes when the frame does
_TABLES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
_TABLES_LOCK = threading.Lock()


def _frame_table(frame: Frame, n0: int, keys: list) -> SystematicTable:
    """The frame's SYSTEMATIC table of the column keys at n0, kept from the last run if it fits.

    The table is a pure function of the frame, n0 and the keys, so a kept
    one has the bits of a fresh build.  The lock makes racing threads build
    a frame's table once.
    """
    key = (n0, tuple(keys))
    with _TABLES_LOCK:
        kept = _TABLES.get(frame)
        if kept is None or kept[0] != key:
            kept = key, systematic_table(frame, n0,
                                         lambda lo, hi: column_matrix(frame.values[lo:hi], keys))
            _TABLES[frame] = kept
    return kept[1]


def _point_block_rows(scenario: Scenario) -> int:
    """The largest multiple of _BLOCK rows of n first-stage draws within _POINT_CELLS, or _BLOCK.

    A reference sample carries no bootstrap, so a block's fixed numpy-call
    cost is spread over as many rows as keep its draws within 2^15; under an
    SI second stage over at most _POINT_POOL_ROWS, the generators it keeps.
    """
    design = scenario.first_stage
    n = design.n_I if design.kind == "SI" else sum(design.allocations.values())
    rows = _BLOCK * max(1, _POINT_CELLS // (n * _BLOCK))
    return min(rows, _POINT_POOL_ROWS) if scenario.second_stage == "SI" else rows


@dataclass
class _Block:
    """The two-stage draws and point estimates of a block of replicates.

    Replicate i of the block drew ``orders[i]`` and its second stage from
    ``rngs[i]``, which the replicate's variance and bootstrap work goes on
    drawing from.  Under STRAT_SI a row holds the strata's samples one
    after another, in frame stratum order.
    """

    rngs: list[np.random.Generator]
    orders: np.ndarray  # (B, n_I) first-stage draws
    # (B, n_I, p_distinct) estimated subtotals: C-contiguous, or a table lookup's
    # view (see SystematicTable.subtotal_estimates) that sums over axis 1 alike
    yhat: np.ndarray
    vhat: np.ndarray | None  # (B, n_I, p_distinct) within-PSU variance estimates
    theta: np.ndarray  # (B, n_estimands) point estimates


def _block(ctx: _Context, keys: list, rngs: list) -> _Block:
    """One block of replicates: each draws from its own substream, then one estimate for all.

    ``keys`` holds the block's Philox keys (Python ints); replicate i's stream is
    ``rngs[i]`` reset to keys[i], so it stays the replicate's own until the next block (the
    rows of a table or a census draw nothing after their starts or their first stage, so
    ``rngs`` may repeat one there).
    Each replicate makes the draws of a lone replicate in the same order (its first stage,
    then its second stage); the block reads the SI rows, and under SYSTEMATIC the starts,
    from the fresh streams' raw words at once (``fresh_si_draws``), resolves the SI orders
    at once (each stratum's under STRAT_SI) and makes one ``second_stage_estimates`` call or
    one lookup in the context's table, all elementwise per row, and every reduction runs
    over axis 1 of a C-contiguous array (or of the table's view, which numpy sums in the
    same order), so each row has the bits that the replicate computed on its own would have.
    """
    sc, design = ctx.scenario, ctx.scenario.first_stage
    N = ctx.frame.n_psus
    rngs = rngs[:len(keys)]
    # fresh_si_draws resets rngs[i] to keys[i] and reads a table's starts after the first stage
    if design.kind == "SI":
        n_population, n = N, [design.n_I]
    else:
        groups, alloc = ctx.frame.stratum_psu_indices(), design.allocations
        n_population, n = [p.size for p in groups.values()], [alloc[s] for s in groups]
    starts = None if ctx.table is None else np.empty((len(keys), sum(n)))
    draws = fresh_si_draws(n_population, n, rngs, keys, starts)
    orders = (resolve_si_orders(draws) if design.kind == "SI"
              else np.concatenate(_stratified_si_orders(groups, alloc, draws), axis=1))
    if ctx.table is not None:
        yhat, vhat = ctx.table.subtotal_estimates(orders, starts), None
    else:
        yhat, vhat = second_stage_estimates(ctx.frame, ctx.columns, ctx.col_subtotals, orders,
                                            sc.second_stage, sc.n0, rngs,
                                            with_vhat=ctx.need_vhat)
    totals = (N * yhat.mean(axis=1) if design.kind == "SI"
              else _stratified_sample(ctx, yhat).totals)[:, ctx.expand]
    theta = np.column_stack([e.evaluate(totals[:, sl])
                             for e, sl in zip(sc.estimands, ctx.slices)])
    return _Block(rngs, orders, yhat, vhat, theta)


def _stratified_sample(ctx: _Context, yhat: np.ndarray) -> StratifiedClusterSample:
    """The stratified sample of a block row's (n_I, p) estimates, cut into its strata.

    Given the whole (B, n_I, p) block, its totals are the (B, p) totals of
    the rows, each with the bits of the row's own.
    """
    alloc = ctx.scenario.first_stage.allocations
    n_population, subtotals, lo = {}, {}, 0
    for label, psus in ctx.frame.stratum_psu_indices().items():
        n_population[label] = psus.size
        subtotals[label] = yhat[..., lo:lo + alloc[label], :]
        lo += alloc[label]
    return StratifiedClusterSample(n_population, subtotals)


def _si_replicate_row(ctx: _Context, block: _Block, i: int, row: np.ndarray) -> None:
    """Variance estimates and the bootstrap of SI replicate i of the block."""
    sc = ctx.scenario
    N = ctx.frame.n_psus
    # fresh C-contiguous (n_I, p_total) arrays, as a lone replicate would have
    yhat = np.take(block.yhat[i], ctx.expand, axis=1)
    vhat = None if block.vhat is None else np.take(block.vhat[i], ctx.expand, axis=1)
    draw = FirstStageDraw(sc.first_stage, block.orders[i], N)

    for j, (e, sl) in enumerate(zip(sc.estimands, ctx.slices)):
        theta = float(block.theta[i, j])
        _store(ctx, row, e.label, "point", theta)
        if isinstance(e, TotalEstimand) and sc.variance_methods:
            total = mean_total(draw, (yhat[:, sl], None if vhat is None else vhat[:, sl]))
            for vm in sc.variance_methods:
                _write_normal(ctx, row, e.label, vm, theta, variance_estimate(total, vm))

    if sc.bootstrap is None:
        return
    # the Studentized interval is in the layout of the totals, and only they get se*
    for e, reps in zip(sc.estimands, resample_wr(yhat, N, sc.bootstrap, sc.estimands,
                                                  block.rngs[i], compute_se=sc.studentized)):
        _write_bootstrap(ctx, row, e.label, reps, None if reps.se_star is None else "SIMPLIFIED")


def _strat_replicate_row(ctx: _Context, block: _Block, i: int, row: np.ndarray) -> None:
    """v_STWR and the stratified bootstrap of STRAT_SI replicate i of the block."""
    sc = ctx.scenario
    e = sc.estimands[0]
    sample = _stratified_sample(ctx, block.yhat[i])
    p_hat = float(block.theta[i, 0])
    _store(ctx, row, e.label, "point", p_hat)
    if STRAT_WR in sc.variance_methods:
        v_stwr = float(linearized_values(sample, p_hat, sample.totals[1])[0])
        _write_normal(ctx, row, e.label, STRAT_WR, p_hat, v_stwr)

    if sc.bootstrap is None:
        return
    reps = stratified_proportion_resample(sample, e, sc.bootstrap, rng=block.rngs[i],
                                          compute_se=sc.studentized)
    _write_bootstrap(ctx, row, e.label, reps, STRAT_WR if sc.studentized else None)


def _store(ctx: _Context, row: np.ndarray, label: str, family: str, *values: float) -> None:
    """Store the family's value, or an interval's two limits, in its columns of the row."""
    col = ctx.layout[label, family]
    row[col:col + len(values)] = values


def _write_normal(
    ctx: _Context, row: np.ndarray, label: str, method: str, theta: float, v: float
) -> None:
    """Store the method's variance estimate and its normality-based interval."""
    v_family, ci_family = _FAMILIES[method]
    _store(ctx, row, label, v_family, v)
    _store(ctx, row, label, ci_family, *normal_ci(theta, v, ctx.scenario.ci_alpha))


def _write_bootstrap(
    ctx: _Context, row: np.ndarray, label: str, reps: ReplicateSet, base_method: str | None
) -> None:
    """Store the bootstrap variance and intervals; Studentized with the base_method variance."""
    alpha = ctx.scenario.bootstrap.alpha
    _store(ctx, row, label, "boot_var", bootstrap_variance(reps))
    _store(ctx, row, label, "ci_percentile", *percentile_ci(reps, alpha))
    if base_method is not None:
        base_se = math.sqrt(row[ctx.layout[label, _FAMILIES[base_method][0]]])
        _store(ctx, row, label, "ci_studentized", *studentized_ci(reps, base_se, alpha))


# each thread's generators, made as its blocks first need them and reset to each
# replicate's stream in turn: a fresh generator costs about 30 us, and a fork worker
# keeps the pool it inherits, so its spans make none again
_POOL = threading.local()


def _generators(count: int) -> list[np.random.Generator]:
    """This thread's pool of generators, grown to at least ``count``."""
    pool = _POOL.__dict__.setdefault("rngs", [])
    pool.extend(new_stream() for _ in range(count - len(pool)))
    return pool


def _replicate_rows(ctx: _Context, start: int, end: int) -> np.ndarray:
    out = np.full((end - start, ctx.width), np.nan)
    write = _si_replicate_row if ctx.scenario.first_stage.kind == "SI" else _strat_replicate_row
    rngs = _generators(min(_BLOCK, end - start))  # each replicate draws on after its block
    for lo, keys in key_blocks((ctx.seed, *ctx.tag, "mc"), start, end, _BLOCK):
        block = _block(ctx, keys, rngs)
        for i in range(len(keys)):
            write(ctx, block, i, out[lo - start + i])
    return out


def _point_rows(ctx: _Context, start: int, end: int) -> np.ndarray:
    rows = min(ctx.point_rows, end - start)
    # the rows of a table or a census draw nothing past their first stage and starts, so one
    # generator reads them all (see _block); an SI second stage draws on from each row's own
    rngs = _generators(rows) if ctx.scenario.second_stage == "SI" else _generators(1)[:1] * rows
    return np.vstack([_block(ctx, keys, rngs).theta for _, keys in
                      key_blocks((ctx.seed, *ctx.tag, "true"), start, end, ctx.point_rows)])


# module-level worker state for fork-based pools
_WORKER_CTX: _Context | None = None


def _pool_init(ctx: _Context) -> None:
    global _WORKER_CTX
    _WORKER_CTX = ctx


def _pool_rows(job: tuple) -> np.ndarray:
    fn, start, end = job
    return fn(_WORKER_CTX, start, end)


def _parallel(fn, total: int, threads: int, ctx: _Context, rows: int) -> np.ndarray:
    """Run a chunked replicate loop fn(ctx, start, end), serial or on a fork pool.

    Spans are cut at whole blocks of ``rows``, the blocks fn walks.  Every
    replicate derives its stream from its own index, and chunk results are
    reassembled in index order, so the output does not depend on the thread
    count.
    """
    if threads <= 1 or total < 32:
        return fn(ctx, 0, total)
    try:
        mp = multiprocessing.get_context("fork")
    except ValueError:
        return fn(ctx, 0, total)
    # about 8 spans per thread, each a whole number of blocks so no block is cut short
    chunk = rows * -(-total // (threads * 8 * rows))
    spans = [(fn, s, min(s + chunk, total)) for s in range(0, total, chunk)]
    # more workers than cores or spans would only add processes
    workers = min(threads, os.cpu_count() or 1, len(spans))
    with mp.Pool(processes=workers, initializer=_pool_init, initargs=(ctx,)) as pool:
        parts = pool.map(_pool_rows, spans)
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
    return _reference_run(_build_context(frame, scenario, seed, stream_tag), threads)


def _reference_run(ctx: _Context, threads: int) -> tuple[dict[str, float], dict[str, float]]:
    """``approximate_true_variance`` on a built context."""
    scenario = ctx.scenario
    theta = _parallel(_point_rows, scenario.true_run, threads, ctx, ctx.point_rows)
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
        v_true = _reference_run(ctx, threads)[0] if needs_v else {}
    theta_true = dict(theta_true) if theta_true is not None else {
        e.label: population_value(frame, e) for e in scenario.estimands
    }

    rows = _parallel(_replicate_rows, scenario.replicates, threads, ctx, _BLOCK)
    b = scenario.replicates
    reports: list[MCReport] = []
    for (label, family), col in ctx.layout.items():
        theta_ref = theta_true[label]
        if family.startswith("ci_"):
            l_pct, u_pct = coverage_stats(rows[:, col], rows[:, col + 1], theta_ref)
            two = (l_pct + u_pct) / 100.0
            tail_se = 100.0 * math.sqrt(max(two / 2 * (1 - two / 2), 1e-12) / b)
            reports.append(MCReport(label, family, "ci", theta_ref, b,
                                    lower_pct=l_pct, upper_pct=u_pct, tail_se=tail_se))
            continue
        kind, ref = ("point", theta_ref) if family == "point" else ("variance", v_true[label])
        if ref == 0:
            raise ValueError("relative bias/stability need a nonzero reference value")
        values = rows[:, col]
        mean = float(values.mean())
        mean_se = float(values.std(ddof=1)) / math.sqrt(b)
        msq = float(np.mean((values - ref) ** 2))
        msq_se = float(np.std((values - ref) ** 2, ddof=1)) / math.sqrt(b)
        rs = 100.0 * math.sqrt(msq) / abs(ref)
        rs_se = 100.0 * msq_se / (2.0 * math.sqrt(msq) * abs(ref)) if msq > 0 else 0.0
        reports.append(MCReport(label, family, kind, ref, b, 100.0 * (mean - ref) / ref,
                                100.0 * mean_se / abs(ref), rs, rs_se,
                                mean_estimate=mean, mean_se=mean_se))
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
        for rep in run_scenario(frame, scenario, seed, threads=threads, stream_tag=("cell", idx)):
            rows.extend(dict(meta, estimand=rep.estimand, metric=metric, value=value, mc_se=mc_se)
                        for metric, value, mc_se in rep.metric_rows())
    return rows
