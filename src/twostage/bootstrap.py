"""With-replacement bootstrap of PSUs and bootstrap confidence intervals.

Given the draw-sequential estimates Z_1..Z_n of an SI (or SIR) first stage,
each bootstrap replicate draws multinomial weights D ~ Mult(m; 1/n, ..)
and forms the resampled mean Zbar* = (1/m) sum_j D_j Z_j; plug-in statistics
are evaluated at the resampled totals N_I * Zbar*.  Confidence intervals:

* percentile:  [Q_alpha(theta*), Q_{1-alpha}(theta*)]
* Studentized: [theta - u*_{1-alpha} se, theta - u*_alpha se] where u* are
  quantiles of the replicate pivots t*_r = (theta*_r - theta) / se*_r and
  se is a chosen standard error of theta.  A replicate with se*_r = 0 (it
  resampled a single distinct PSU) carries no pivot and is dropped.

Within-replicate standard errors exist for totals, sqrt(N_I^2 s*_Z^2 / m),
and for the stratified proportion (its linearized variance per replicate).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .estimators import (
    ProportionEstimand,
    SmoothEstimand,
    StratifiedClusterSample,
    TotalEstimand,
    check_alpha,
    column_layout,
    linearized_values,
)
from .rng import substream

__all__ = [
    "BootstrapConfig",
    "ReplicateSet",
    "multinomial_weights",
    "resample_wr",
    "replicate_se",
    "bootstrap_variance",
    "percentile_ci",
    "studentized_ci",
    "stratified_proportion_resample",
]


@dataclass(frozen=True)
class BootstrapConfig:
    """Bootstrap settings: R replicates of m with-replacement PSU draws.

    ``m=None`` resamples one fewer PSU than were drawn (m = n - 1, floor 2),
    the classical choice that makes the bootstrap variance of a total
    conditionally unbiased for v_WR.
    """

    replicates: int = 1000
    m: int | None = None
    alpha: float = 0.025
    seed: int = 0

    def __post_init__(self):
        if self.replicates < 50:
            raise ValueError("replicates must be >= 50")
        if self.m is not None and self.m < 2:
            raise ValueError("m must be >= 2")
        check_alpha(self.alpha, "alpha")

    def resolve_m(self, n_draws: int) -> int:
        return self.m if self.m is not None else max(2, n_draws - 1)


@dataclass
class ReplicateSet:
    """Replicate plug-in values theta*_r, the base estimate, and optional se*_r."""

    theta_star: np.ndarray
    base: float
    se_star: np.ndarray | None = None

    @property
    def pivotal(self) -> np.ndarray:
        """Which replicates carry a Studentized pivot: those with se* > 0."""
        return self.se_star > 0


def multinomial_weights(rng: np.random.Generator, replicates: int, n: int, m: int) -> np.ndarray:
    """(R, n) matrix of resampling weights, one multinomial row per replicate."""
    return rng.multinomial(m, np.full(n, 1.0 / n), size=replicates).astype(np.float64)


def resample_wr(
    z_values: np.ndarray,
    n_population: int,
    cfg: BootstrapConfig,
    estimands: Sequence[SmoothEstimand] = (TotalEstimand(0),),
    rng: np.random.Generator | None = None,
    compute_se: bool = False,
) -> list[ReplicateSet]:
    """With-replacement bootstrap of the per-draw PSU estimates: one ReplicateSet per estimand.

    ``z_values`` has one row per first-stage draw and the estimands' columns
    side by side, each reading ``len(column_keys())`` of them (the slices of
    :func:`column_layout`).  One multinomial weight matrix, drawn from
    ``rng`` (by default a substream of ``cfg.seed``), resamples every
    column at once.  With ``compute_se`` the totals carry se*; the other
    estimands have none.
    """
    z = np.asarray(z_values, dtype=np.float64)
    if z.ndim == 1:
        z = z[:, None]
    n = z.shape[0]
    if n < 2:
        raise ValueError("bootstrap needs at least 2 first-stage draws")
    slices = column_layout(estimands)[2]
    if slices[-1].stop != z.shape[1]:
        raise ValueError(f"the estimands read {slices[-1].stop} columns, got {z.shape[1]}")
    m = cfg.resolve_m(n)
    rng = rng if rng is not None else substream(cfg.seed, "bootstrap")

    d_mat = multinomial_weights(rng, cfg.replicates, n, m)
    totals_star = (d_mat @ z) * (n_population / m)  # (R, p)
    base = n_population * z.mean(axis=0)
    return [
        ReplicateSet(
            np.asarray(e.evaluate(totals_star[:, sl]), dtype=np.float64),
            float(e.evaluate(base[None, sl])[0]),
            (replicate_se(d_mat, z[:, sl], totals_star[:, sl], n_population, m, e)
             if compute_se and isinstance(e, TotalEstimand) else None),
        )
        for e, sl in zip(estimands, slices)
    ]


def replicate_se(
    d_mat: np.ndarray,
    z: np.ndarray,
    totals_star: np.ndarray,
    n_population: int,
    m: int,
    estimand: SmoothEstimand,
) -> np.ndarray:
    """Within-replicate standard errors of a total: sqrt(N^2 s*_Z^2 / m).

    s*_Z^2 is the D-weighted dispersion of the z values around Zbar* (ddof
    m-1).  Raises ValueError for any estimand other than a total.
    """
    if z.shape[1] != 1 or estimand.degree != 1:
        raise ValueError("within-replicate standard errors are available for totals only")
    zbar_star = totals_star[:, 0] / n_population
    m2 = d_mat @ (z[:, 0] ** 2)
    s2 = (m2 - m * zbar_star**2) / (m - 1)
    return np.sqrt(np.maximum(n_population**2 * s2 / m, 0.0))


def bootstrap_variance(reps: ReplicateSet) -> float:
    """Sample variance of the replicate plug-in values."""
    if reps.theta_star.size < 2:
        raise ValueError("need at least 2 replicates")
    return float(np.var(reps.theta_star, ddof=1))


def percentile_ci(reps: ReplicateSet, alpha: float) -> tuple[float, float]:
    """Percentile bootstrap interval from the replicate distribution."""
    check_alpha(alpha, "alpha")
    lo, hi = np.quantile(reps.theta_star, [alpha, 1.0 - alpha])  # type-7 interpolation
    return float(lo), float(hi)


def studentized_ci(reps: ReplicateSet, base_se: float, alpha: float) -> tuple[float, float]:
    """Studentized bootstrap interval using the replicate pivots.

    The pivot quantiles replace the normal quantiles in the usual interval:
    [theta - u*_{1-alpha} base_se, theta - u*_alpha base_se].  Replicates
    with se* = 0 are dropped; raises when every replicate is degenerate.
    """
    if reps.se_star is None:
        raise ValueError("replicates carry no within-replicate standard errors")
    if not base_se >= 0:
        raise ValueError("base_se must be nonnegative")
    check_alpha(alpha, "alpha")
    theta_star, se_star = reps.theta_star, reps.se_star
    valid = reps.pivotal
    if not np.all(valid):
        if not np.any(valid):
            raise ValueError("every bootstrap replicate is degenerate")
        theta_star, se_star = theta_star[valid], se_star[valid]
    t = (theta_star - reps.base) / se_star
    u_lo, u_hi = np.quantile(t, [alpha, 1.0 - alpha])
    return float(reps.base - u_hi * base_se), float(reps.base - u_lo * base_se)


def stratified_proportion_resample(
    sample: StratifiedClusterSample,
    estimand: ProportionEstimand,
    cfg: BootstrapConfig,
    rng: np.random.Generator | None = None,
    compute_se: bool = True,
) -> ReplicateSet:
    """Stratified with-replacement bootstrap of PSUs for a proportion.

    Resamples m_l PSUs with replacement independently within every stratum
    (m_l = n_Il - 1 by default, ``cfg.m`` overrides a common value); one
    set of multinomial weights per stratum resamples the (count, size)
    subtotals together, and the replicate totals are
    sum_l (N_Il/m_l) D_l @ y_l.  ``se_star`` is the stratified
    with-replacement linearization variance on each replicate's resampled
    values (:func:`linearized_values`), which feeds the Studentized interval.
    """
    rng = rng if rng is not None else substream(cfg.seed, "bootstrap")
    weights: dict[str, np.ndarray] = {}
    totals_star = 0.0
    for label, y in sample.subtotals.items():
        n_l = y.shape[0]
        if n_l < 2:
            raise ValueError(f"stratum {label!r} has a single sampled PSU")
        m_l = cfg.resolve_m(n_l)
        weights[label] = d_l = multinomial_weights(rng, cfg.replicates, n_l, m_l)
        totals_star = totals_star + sample.n_psus_population[label] / m_l * (d_l @ y)
    theta_star = estimand.evaluate(totals_star)
    se_star = None
    if compute_se:
        se_star = np.sqrt(linearized_values(sample, theta_star, totals_star[:, 1], weights))
    return ReplicateSet(theta_star, float(estimand.evaluate(sample.totals)), se_star)
