"""Point and variance estimation for two-stage designs.

Totals are estimated by the Horvitz-Thompson estimator under SI or Bernoulli
sampling of PSUs and by the Hansen-Hurwitz estimator under with-replacement
(SIR) sampling.  The draw-sequential form ``Y_hat = N_I * mean(Z_j)`` (with
Z_j the estimated subtotal of the PSU selected at the j-th draw) carries the
sample dispersion s_Z^2 that all s^2-based variance estimators reuse.

Variance estimators:

* ``UNBIASED``           v      = (N^2/n) { (1-f) s_Z^2 + mean_S(V_hat_i) }
* ``SIMPLIFIED``         v_SIMP = (N^2/n) (1-f) s_Z^2
* ``WITH_REPLACEMENT``   v_WR   = (N^2/n) s_Z^2         (s_X^2 under SIR)
* ``BERNOULLI``          v_B    = (N^2/n) { (1-f)/n_B * sum_S Yhat_i^2
                                            + f/n_B * sum_S V_hat_i }, 0 if n_B=0

v_SIMP underestimates the design variance by exactly sum_U V_i and v_WR
overestimates it by N_I * S^2; both are attractive when no unbiased
within-PSU variance estimator exists (e.g. systematic subsampling).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from statistics import NormalDist
from typing import Mapping, Sequence

import numpy as np

from .designs import DesignSpec, FirstStageDraw, _check_n0
from .frame import Frame

__all__ = [
    "TotalEstimate",
    "VARIANCE_METHODS",
    "VHAT_METHODS",
    "check_variance_methods",
    "check_alpha",
    "check_variables",
    "mean_total",
    "ht_total_be",
    "expansion_totals",
    "variance_estimate",
    "theoretical_variance",
    "si_second_stage_variances",
    "TotalEstimand",
    "RatioEstimand",
    "CorrelationEstimand",
    "ProportionEstimand",
    "population_value",
    "column_layout",
    "column_matrix",
    "estimand_columns",
    "StratifiedClusterSample",
    "linearized_values",
    "normal_quantile",
    "normal_ci",
]

VARIANCE_METHODS = ("UNBIASED", "SIMPLIFIED", "WITH_REPLACEMENT", "BERNOULLI")
VHAT_METHODS = ("UNBIASED", "BERNOULLI")  # the methods that need the within-PSU V_hat_i


def check_variance_methods(methods: Sequence[str], second_stage: str,
                           allowed: Sequence[str] = VARIANCE_METHODS) -> None:
    """Refuse a method outside ``allowed``, and a within-PSU method under SYSTEMATIC subsampling."""
    for i, method in enumerate(methods):
        if method not in allowed:
            raise ValueError(f"variance_methods[{i}] must be one of {list(allowed)}, "
                             f"got {method!r}")
        if method in VHAT_METHODS and second_stage == "SYSTEMATIC":
            raise ValueError(f"variance_methods[{i}] {method} needs within-PSU variance "
                             "estimates, which systematic subsampling does not provide")


def check_alpha(alpha: float, name: str) -> None:
    """Refuse a one-tailed error rate ``name`` outside (0, 0.5)."""
    if not 0.0 < alpha < 0.5:
        raise ValueError(f"{name} must be in (0, 0.5)")


@dataclass
class TotalEstimate:
    """A total estimate with its draw-sequential values.

    For SI and SIR, ``z_values`` holds Z_j / X_j in draw order and
    ``y_hat == N_I * mean(z_values)``; ``s2`` is their sample dispersion
    (ddof=1; nan when only one draw).  For BE, ``z_values`` holds the
    selected PSUs' estimates in frame order and the estimator divides by the
    *expected* size, so the mean identity does not apply; ``n_realized``
    records the random sample size.
    """

    y_hat: float
    method: str
    n_I: float
    N_I: int
    f_I: float
    z_values: np.ndarray
    s2: float
    v_hats: np.ndarray | None = None
    n_realized: int | None = None


def _dispersion(values: np.ndarray) -> float:
    return float(np.var(values, ddof=1)) if values.size >= 2 else math.nan


def mean_total(draw: FirstStageDraw, est: tuple[np.ndarray, np.ndarray | None]) -> TotalEstimate:
    """Total under SI or SIR sampling of PSUs in draw-sequential form N_I * mean(Z_j).

    Under SI this is the Horvitz-Thompson estimator (N_I/n_I) sum_S Yhat_i;
    under SIR it is the Hansen-Hurwitz estimator, and ``est`` holds one
    estimate per draw occurrence aligned with ``draw.order``, so a PSU
    selected W_i times contributes W_i independent second-stage estimates.
    ``est`` is a pair of (n, p) arrays (v_hat may be None); column 0 is used.
    """
    if draw.design.kind not in ("SI", "SIR"):
        raise ValueError(f"expected an SI or SIR draw, got {draw.design.kind}")
    y, v = est
    if y.shape[0] != draw.n_drawn:
        raise ValueError("need one PSU estimate per draw")
    z = y[:, 0]
    n, N = draw.n_drawn, draw.n_population
    return TotalEstimate(
        y_hat=N * float(z.mean()),
        method=draw.design.kind,
        n_I=n,
        N_I=N,
        f_I=n / N,
        z_values=z,
        s2=_dispersion(z),
        v_hats=None if v is None else v[:, 0],
    )


def expansion_totals(
    y_hat: np.ndarray, n_population: int, n: float, axis: int = 0
) -> np.ndarray:
    """Horvitz-Thompson totals (N_I / n) * sum_S Yhat_i of the selected PSUs' estimates.

    ``n`` is the fixed first-stage size, or the expected size under
    Bernoulli sampling; the sum runs over ``axis`` (the PSUs' axis), so an
    empty sample gives 0.
    """
    return n_population / n * y_hat.sum(axis=axis)


def ht_total_be(draw: FirstStageDraw, est: tuple[np.ndarray, np.ndarray | None]) -> TotalEstimate:
    """Horvitz-Thompson total under Bernoulli sampling: divides by the expected size.

    ``est`` is as for :func:`mean_total`, with one row per selected PSU
    (zero rows for an empty sample).
    """
    if draw.design.kind != "BE":
        raise ValueError(f"expected a BE draw, got {draw.design.kind}")
    n_expected = float(draw.design.expected_n_I)
    y, v = est
    if y.shape[0] != draw.n_drawn:
        raise ValueError("need one PSU estimate per selected PSU")
    z = y[:, 0]
    N = draw.n_population
    return TotalEstimate(
        y_hat=float(expansion_totals(z, N, n_expected)),
        method="BE",
        n_I=n_expected,
        N_I=N,
        f_I=n_expected / N,
        z_values=z,
        s2=_dispersion(z),
        v_hats=None if v is None else v[:, 0],
        n_realized=draw.n_drawn,
    )


def variance_estimate(total: TotalEstimate, method: str) -> float:
    """Design-variance estimate for a total, by the requested method."""
    if method not in VARIANCE_METHODS:
        raise ValueError(f"unknown variance method: {method!r}")
    N, n, f = total.N_I, total.n_I, total.f_I

    if method == "BERNOULLI":
        if total.method != "BE":
            raise ValueError("BERNOULLI variance needs a BE total")
        n_b = total.n_realized
        if n_b == 0:
            return 0.0
        if total.v_hats is None:
            raise ValueError("BERNOULLI variance needs per-PSU v_hat estimates")
        term = (1.0 - f) / n_b * float(np.sum(total.z_values**2))
        term += f / n_b * float(np.sum(total.v_hats))
        return N**2 / n * term

    if total.method not in ("SI", "SIR"):
        raise ValueError(f"{method} variance needs an SI or SIR total")
    if total.n_I < 2:
        raise ValueError("sample dispersion undefined for n_I = 1")

    if method == "WITH_REPLACEMENT":
        return N**2 / n * total.s2
    if total.method != "SI":
        raise ValueError(f"{method} variance needs an SI total")
    if method == "SIMPLIFIED":
        return N**2 / n * (1.0 - f) * total.s2
    # UNBIASED
    if total.v_hats is None:
        raise ValueError("UNBIASED variance needs per-PSU v_hat estimates")
    return N**2 / n * ((1.0 - f) * total.s2 + float(np.mean(total.v_hats)))


def theoretical_variance(
    frame: Frame,
    design: DesignSpec,
    v_i: np.ndarray | None = None,
    var_index: int = 0,
) -> float:
    """Closed-form design variance of the total estimator.

    ``v_i`` holds the exact second-stage variances per PSU (zeros for a
    census).
    """
    sub = frame.subtotals[:, var_index]
    N = frame.n_psus
    v_i = np.zeros(N) if v_i is None else np.asarray(v_i, dtype=np.float64)
    if v_i.shape != (N,):
        raise ValueError("v_i must hold one value per PSU")
    mean_vi = float(v_i.mean())

    if design.kind == "BE":
        n = float(design.expected_n_I)
        f = n / N
        return N**2 / n * ((1.0 - f) * float(np.mean(sub**2)) + mean_vi)
    if design.kind not in ("SI", "SIR"):
        raise ValueError(f"unsupported design kind: {design.kind!r}")
    n = design.n_I
    s2 = float(np.sum((sub - float(sub.mean())) ** 2) / (N - 1))
    if design.kind == "SI":
        f = n / N
        return N**2 / n * ((1.0 - f) * s2 + mean_vi)
    return N**2 / n * ((N - 1) / N * s2 + mean_vi)


def si_second_stage_variances(frame: Frame, n0: int, var_index: int) -> np.ndarray:
    """Exact V_i of one variable for an SI second stage of size n0: (N_i^2/n0)(1 - n0/N_i) S_i^2."""
    sizes = _check_n0(frame, np.arange(frame.n_psus), n0).astype(np.float64)
    return sizes**2 / n0 * (1.0 - n0 / sizes) * frame.within_psu_variances[:, var_index]


# ---------------------------------------------------------------------------
# Smooth functions of totals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TotalEstimand:
    """theta = total of one variable (homogeneous of degree 1 in the totals)."""

    var: int

    degree = 1

    @property
    def label(self) -> str:
        return f"total[y{self.var + 1}]"

    def column_keys(self) -> tuple:
        return (("y", self.var),)

    def evaluate(self, totals: np.ndarray) -> np.ndarray:
        totals = np.asarray(totals, dtype=np.float64)
        return totals[..., 0]


@dataclass(frozen=True)
class RatioEstimand:
    """theta = total(num) / total(den), e.g. a ratio of two population means."""

    num: int
    den: int

    degree = 0

    @property
    def label(self) -> str:
        return f"ratio[y{self.num + 1}/y{self.den + 1}]"

    def column_keys(self) -> tuple:
        return (("y", self.num), ("y", self.den))

    def evaluate(self, totals: np.ndarray) -> np.ndarray:
        totals = np.asarray(totals, dtype=np.float64)
        den = totals[..., 1]
        if np.any(den == 0):
            raise ZeroDivisionError("ratio denominator total is zero")
        return totals[..., 0] / den


@dataclass(frozen=True)
class CorrelationEstimand:
    """theta = finite-population correlation of two variables.

    Substitution estimator: every total in the population formula (sums of
    y_a, y_b, y_a^2, y_b^2, y_a*y_b and the population count) is replaced by
    its estimate.
    """

    a: int
    b: int

    degree = 0

    @property
    def label(self) -> str:
        return f"corr[y{self.a + 1},y{self.b + 1}]"

    def column_keys(self) -> tuple:
        a, b = self.a, self.b
        return (("y", a), ("y", b), ("sq", a), ("sq", b), ("prod", a, b), ("one",))

    def evaluate(self, totals: np.ndarray) -> np.ndarray:
        totals = np.asarray(totals, dtype=np.float64)
        ta, tb, taa, tbb, tab, tn = (totals[..., j] for j in range(6))
        cov = tab - ta * tb / tn
        va = taa - ta**2 / tn
        vb = tbb - tb**2 / tn
        den2 = va * vb
        if np.any(den2 <= 0):
            raise ValueError("degenerate variance in correlation estimand")
        return cov / np.sqrt(den2)


@dataclass(frozen=True)
class ProportionEstimand:
    """theta = share of SSUs whose variable equals a category code."""

    var: int
    category: float

    degree = 0

    @property
    def label(self) -> str:
        return f"prop[y{self.var + 1}={self.category:g}]"

    def column_keys(self) -> tuple:
        return (("eq", self.var, self.category), ("one",))

    def evaluate(self, totals: np.ndarray) -> np.ndarray:
        totals = np.asarray(totals, dtype=np.float64)
        den = totals[..., 1]
        if np.any(den == 0):
            raise ZeroDivisionError("estimated population count is zero")
        return totals[..., 0] / den


SmoothEstimand = TotalEstimand | RatioEstimand | CorrelationEstimand | ProportionEstimand


def check_variables(estimands: Sequence[SmoothEstimand], n_vars: int, source: str = "frame"):
    """Refuse an estimand that reads a variable past the source's ``n_vars``, naming it."""
    for i, e in enumerate(estimands):
        top = max(getattr(e, name) for name in ("var", "num", "den", "a", "b") if hasattr(e, name))
        if top >= n_vars:
            raise ValueError(f"estimands[{i}] {e.label} reads y{top + 1}, past the {source}'s "
                             f"{n_vars} variables")


def column_matrix(values: np.ndarray, keys: Sequence[tuple]) -> np.ndarray:
    """The C-contiguous (N, len(keys)) matrix of the SSU columns named by ``keys``.

    ("y", a) is y_a, ("sq", a) is y_a^2, ("prod", a, b) is y_a * y_b, ("one",)
    is 1 and ("eq", v, c) is the indicator of y_v == c.
    """
    out = np.empty((values.shape[0], len(keys)))
    for col, (kind, *args) in zip(out.T, keys):
        if kind == "y":
            col[...] = values[:, args[0]]
        elif kind == "sq":
            np.square(values[:, args[0]], out=col)
        elif kind == "prod":
            np.multiply(values[:, args[0]], values[:, args[1]], out=col)
        elif kind == "one":
            col[...] = 1.0
        else:
            np.equal(values[:, args[0]], args[1], out=col)
    return out


def population_value(frame: Frame, estimand: SmoothEstimand) -> float:
    """Exact population value of the estimand (plug-in at the true totals).

    The totals of raw variables are summed one column at a time (pairwise),
    and an estimand with derived columns sums its (N, p) matrix row after
    row, the orders these values have always been summed in.
    """
    keys = estimand.column_keys()
    if all(kind == "y" for kind, *_ in keys):
        totals = np.array([frame.values[:, var].sum() for _, var in keys])
    else:
        totals = column_matrix(frame.values, keys).sum(axis=0)
    return float(estimand.evaluate(totals))


def column_layout(
    estimands: Sequence[SmoothEstimand],
) -> tuple[list[tuple], np.ndarray, list[slice]]:
    """Which distinct SSU columns the estimands read, and where each estimand reads them.

    The estimands' column keys are kept once each, in order of first
    appearance.  Returns those keys, ``index``, the (p_total,) key that each
    estimand column reads (every estimand's columns side by side), and each
    estimand's slice of ``index``.  When fewer than two distinct keys remain,
    every column is kept: the second stage sums a lone column pairwise, not
    one row after another as it sums two or more.
    """
    keys = [key for e in estimands for key in e.column_keys()]
    first = {key: j for j, key in enumerate(dict.fromkeys(keys))}
    if len(first) < 2:
        distinct, index = keys, np.arange(len(keys))
    else:
        distinct, index = list(first), np.array([first[key] for key in keys])
    starts = np.concatenate(([0], np.cumsum([len(e.column_keys()) for e in estimands])))
    slices = [slice(int(starts[i]), int(starts[i + 1])) for i in range(len(estimands))]
    return distinct, index, slices


def estimand_columns(
    frame: Frame, estimands: Sequence[SmoothEstimand]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[slice]]:
    """The distinct SSU columns of all estimands, each built once.

    Returns the C-contiguous (N, p) :func:`column_matrix` of the
    :func:`column_layout` keys, its (N_I, p) PSU subtotals, and the layout's
    ``index`` and slices.
    """
    check_variables(estimands, frame.n_vars)
    keys, index, slices = column_layout(estimands)
    columns = column_matrix(frame.values, keys)
    return columns, np.add.reduceat(columns, frame.offsets[:-1], axis=0), index, slices


# ---------------------------------------------------------------------------
# Stratified cluster sampling of PSUs: proportions and linearization
# ---------------------------------------------------------------------------


@dataclass
class StratifiedClusterSample:
    """A stratified SI cluster sample with a census inside every selected PSU.

    ``subtotals[l]`` holds the (n_l, 2) (category count Y_ic, size N_i)
    subtotals of stratum l's sampled PSUs, the rows of the
    :class:`ProportionEstimand` subtotals; ``n_psus_population[l]`` is the
    stratum's PSU count N_Il in the frame.
    """

    n_psus_population: dict[str, int]
    subtotals: dict[str, np.ndarray]

    @cached_property
    def totals(self) -> np.ndarray:
        """Stratified HT totals sum_l (N_Il / n_l) sum_S (Y_ic, N_i) of count and size.

        The sums run over the PSU axis, the second to last: (B, n_l, 2)
        subtotals, a block of B samples, give their (B, 2) totals.
        """
        return sum(
            expansion_totals(y, self.n_psus_population[label], y.shape[-2], axis=-2)
            for label, y in self.subtotals.items()
        )


def linearized_values(
    sample: StratifiedClusterSample,
    theta: float | np.ndarray,
    n_hat: float | np.ndarray,
    weights: Mapping[str, np.ndarray] | None = None,
) -> np.ndarray:
    """Stratified with-replacement variance of the linearized proportion.

    The linearized values of the sampled PSUs are E_i = (Y_ic - theta N_i) /
    N_hat, and

        v = sum_l (N_Il^2 / m_l) s_D^2(E_l),

    where s_D^2 is the dispersion of stratum l's E_i weighted by the
    resampling counts ``weights[l]`` (one (R, n_l) row per replicate, m_l =
    sum_j D_j, ddof 1, two-pass moments).  Without ``weights`` (unit
    weights, m_l = n_l) and at the point estimate (p_hat, N_hat) this is
    v_STWR, the stratified analog of v_WR; at a bootstrap replicate's
    (theta*, N_hat*) and weights it is se*^2.  Returns one value per row of
    ``theta``.  Raises when any stratum has a single sampled PSU.
    """
    theta = np.atleast_1d(theta)[:, None]
    n_hat = np.atleast_1d(n_hat)[:, None]
    v = 0.0
    for label, y in sample.subtotals.items():
        n_l = y.shape[0]
        if n_l < 2:
            raise ValueError(f"stratum {label!r} has a single sampled PSU")
        d = np.ones((1, n_l)) if weights is None else weights[label]
        m_l = d[0].sum()
        e = (y[:, 0] - theta * y[:, 1]) / n_hat
        mean = (d * e).sum(axis=1, keepdims=True) / m_l
        s2 = (d * (e - mean) ** 2).sum(axis=1) / (m_l - 1)
        v = v + sample.n_psus_population[label] ** 2 / m_l * s2
    return v


# ---------------------------------------------------------------------------
# Normal quantiles and normality-based confidence intervals
# ---------------------------------------------------------------------------

# inv_cdf is Wichura's AS241 (PPND16), with absolute error below 1e-15
_STANDARD_NORMAL = NormalDist()


def normal_quantile(p: float) -> float:
    """Standard normal quantile (inverse CDF): the standard library's AS241.

    ``inv_cdf`` returns nan for a nan ``p``, so the range is checked here.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p}")
    return _STANDARD_NORMAL.inv_cdf(p)


def normal_ci(y_hat: float, v: float, alpha: float) -> tuple[float, float]:
    """Symmetric normality-based interval with one-tailed error rate alpha in (0, 0.5)."""
    if v < 0:
        raise ValueError("variance estimate must be nonnegative")
    check_alpha(alpha, "alpha")
    half = normal_quantile(1.0 - alpha) * math.sqrt(v)
    return y_hat - half, y_hat + half
