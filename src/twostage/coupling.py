"""Coupled draws of with/without-replacement first-stage designs.

Coupling places two sampling designs on one probability space so that their
total estimators differ by a controllably small amount while keeping both
marginal designs exact:

* BE/SI coupling: draw a Bernoulli sample, then repair its random size to
  the fixed SI size by adding an SI sample of the shortfall (drawn outside)
  or removing an SI subsample of the excess.  PSUs selected by both designs
  share one second-stage sample.
* SIR/SI coupling: draw n_I PSUs with replacement, then complete the set of
  distinct PSUs with an SI sample from the rest.  Every repeat occurrence
  gets an independent second-stage sample; the without-replacement side
  reuses the first occurrence's sample.

The verification helpers estimate the coupling moments by Monte Carlo with
closed-form denominators and check them against the ratio bounds

    E(Delta_2^2) / V(sum_BE (Yhat_i - mu))  <=  sqrt(1/n_I + 1/(N_I - n_I))
    E(Yhat_WR - Yhat_SI)^2 / V(Yhat_WR)     <=  (n_I - 1)/(N_I - 1)

and tabulate the decay of n_I*E(Zbar-Xbar)^2, E|s_Z^2 - s_X^2| and
m*E(Zbar*_m - Xbar*_m)^2 along a scaling sequence of frames.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .bootstrap import multinomial_weights
from .designs import (
    DesignSpec,
    second_stage_estimates,
    si_order,
    si_order_excluding,
)
from .estimators import si_second_stage_variances, theoretical_variance
from .frame import Frame
from .rng import substream

__all__ = [
    "CoupledBeSiDraw",
    "CoupledSirSiDraw",
    "BoundReport",
    "DecayRow",
    "DecayReport",
    "coupled_be_si",
    "coupled_sir_si",
    "verify_hajek_bound",
    "verify_sir_si_bound",
    "verify_decay",
]


def _estimates(frame, psu_indices, method, n0, rng, cols) -> np.ndarray:
    """Estimated subtotals (k, len(cols)) of the listed PSUs' variables ``cols``."""
    y_hat, _ = second_stage_estimates(
        frame, frame.values, frame.subtotals, psu_indices, method, n0, rng
    )
    return y_hat[:, cols]


@dataclass
class CoupledBeSiDraw:
    """Jointly drawn Bernoulli and SI first-stage samples with shared second stage.

    ``be_values`` / ``si_values`` align with ``be_indices`` / ``si_indices``;
    PSUs in the intersection carry bitwise-identical estimates because the
    second-stage sample is drawn once.
    """

    n_psus: int
    n_I: int
    be_indices: np.ndarray
    si_indices: np.ndarray
    be_values: np.ndarray = field(repr=False)
    si_values: np.ndarray = field(repr=False)

    def delta2(self, mu: float, var: int = 0) -> float:
        """sum_SI (Yhat_i - mu) - sum_BE (Yhat_i - mu); shared PSUs cancel exactly."""
        return float(self.si_values[:, var].sum() - self.be_values[:, var].sum()) - mu * (
            self.si_indices.size - self.be_indices.size
        )


def coupled_be_si(
    frame: Frame,
    n_I: int,
    rng: np.random.Generator,
    second_stage: str = "CENSUS",
    n0: int | None = None,
    var_indices: Sequence[int] | None = None,
) -> CoupledBeSiDraw:
    """Draw a BE(f_I) sample and an SI(n_I) sample jointly.

    Marginally the Bernoulli sample has inclusion probability f_I = n_I/N_I
    and the repaired sample is an exact SI(n_I) draw; second-stage samples
    are shared on the intersection.
    """
    N = frame.n_psus
    if not 1 <= n_I < N:
        raise ValueError(f"need 1 <= n_I < N_I, got n_I={n_I}, N_I={N}")
    cols = np.arange(frame.n_vars) if var_indices is None else np.asarray(var_indices)
    f = n_I / N

    be = np.flatnonzero(rng.random(N) < f).astype(np.int64)
    n_b = be.size
    if n_b == n_I:
        si = be
    elif n_b < n_I:
        plus = si_order_excluding(N, n_I - n_b, be, rng)
        si = np.concatenate([be, plus])
    else:
        drop = si_order(n_b, n_b - n_I, rng)
        keep = np.ones(n_b, dtype=bool)
        keep[drop] = False
        si = be[keep]

    # One second-stage draw per PSU of the union; the SI side reuses the
    # Bernoulli side's draws on the intersection.
    be_vals = _estimates(frame, be, second_stage, n0, rng, cols)
    if n_b == n_I:
        si_vals = be_vals
    elif n_b < n_I:
        plus_vals = _estimates(frame, si[n_b:], second_stage, n0, rng, cols)
        si_vals = np.concatenate([be_vals, plus_vals], axis=0)
    else:
        si_vals = be_vals[keep]
    return CoupledBeSiDraw(N, n_I, be, si, be_vals, si_vals)


@dataclass
class CoupledSirSiDraw:
    """Jointly drawn SIR and SI first-stage samples with shared second stage.

    ``x_values[j]`` is the estimate of the PSU selected at the j-th
    with-replacement draw; ``z_values[j]`` equals ``x_values[j]`` at first
    occurrences and holds a complementary PSU's estimate at repeats, so the
    z-multiset is exactly the SI sample's estimates.
    """

    n_psus: int
    n_I: int
    wr_order: np.ndarray
    distinct: np.ndarray
    multiplicity: np.ndarray
    si_indices: np.ndarray
    x_values: np.ndarray = field(repr=False)
    z_values: np.ndarray = field(repr=False)

    def ht_wr(self, var: int = 0) -> float:
        """Hansen-Hurwitz total from the with-replacement draws."""
        return self.n_psus * float(self.x_values[:, var].mean())

    def ht_si(self, var: int = 0) -> float:
        return self.n_psus * float(self.z_values[:, var].mean())


def coupled_sir_si(
    frame: Frame,
    n_I: int,
    rng: np.random.Generator,
    second_stage: str = "CENSUS",
    n0: int | None = None,
    var_indices: Sequence[int] | None = None,
) -> CoupledSirSiDraw:
    """Draw an SIR(n_I) sample and an SI(n_I) sample jointly.

    The distinct PSUs of the with-replacement draw, completed by an SI draw
    from the remaining PSUs, form an exact SI(n_I) sample.  Each repeat
    occurrence gets its own second-stage sample; the SI side keeps the
    first occurrence's.
    """
    N = frame.n_psus
    if not 1 <= n_I <= N:
        raise ValueError(f"need 1 <= n_I <= N_I, got n_I={n_I}, N_I={N}")
    cols = np.arange(frame.n_vars) if var_indices is None else np.asarray(var_indices)

    wr = rng.integers(0, N, size=n_I).astype(np.int64)
    uniq, first_pos, counts = np.unique(wr, return_index=True, return_counts=True)
    by_first = np.argsort(first_pos, kind="stable")
    distinct = uniq[by_first]
    multiplicity = counts[by_first]
    first_mask = np.zeros(n_I, dtype=bool)
    first_mask[first_pos] = True

    n_d = distinct.size
    complement = si_order_excluding(N, n_I - n_d, distinct, rng) if n_d < n_I else np.empty(
        0, dtype=np.int64
    )
    si = np.concatenate([distinct, complement])

    x_vals = _estimates(frame, wr, second_stage, n0, rng, cols)
    z_vals = x_vals.copy()
    if complement.size:
        comp_vals = _estimates(frame, complement, second_stage, n0, rng, cols)
        z_vals[~first_mask] = comp_vals
    return CoupledSirSiDraw(N, n_I, wr, distinct, multiplicity, si, x_vals, z_vals)


# ---------------------------------------------------------------------------
# Monte Carlo verification of the coupling bounds
# ---------------------------------------------------------------------------


@dataclass
class BoundReport:
    """A Monte Carlo estimate of a coupling ratio against its closed-form bound."""

    check: str
    n_psus: int
    n_I: int
    replicates: int
    lhs_estimate: float
    lhs_se: float
    rhs_bound: float

    @property
    def passed(self) -> bool:
        return self.lhs_estimate <= self.rhs_bound + 3.0 * self.lhs_se

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "n_psus": self.n_psus,
            "n_I": self.n_I,
            "replicates": self.replicates,
            "lhs_estimate": self.lhs_estimate,
            "lhs_se": self.lhs_se,
            "rhs_bound": self.rhs_bound,
            "passed": self.passed,
        }


def _exact_second_stage(frame: Frame, second_stage: str, n0: int | None, var: int):
    if second_stage == "CENSUS":
        return np.zeros(frame.n_psus)
    if second_stage == "SI":
        return si_second_stage_variances(frame, n0, var)
    raise ValueError(
        "bound verification needs a second stage with known variance (CENSUS or SI)"
    )


def _bound_report(
    check: str,
    tag: str,
    frame: Frame,
    n_I: int,
    replicates: int,
    seed: int,
    denominator: Callable[[], float],
    statistic: Callable[[np.random.Generator], float],
    rhs: Callable[[], float],
) -> BoundReport:
    """Monte Carlo ratio E(statistic^2) / denominator against its bound ``rhs``.

    Replicate b draws the statistic once from substream (seed, tag, b); the
    denominator and the bound are closed forms, evaluated only when needed.
    """
    if replicates < 1000:
        raise ValueError("need at least 1000 replicates")
    denom = denominator()
    if denom == 0.0:
        raise ValueError("degenerate denominator: all subtotals equal and V_i = 0")
    d2 = np.empty(replicates)
    for b in range(replicates):
        d2[b] = statistic(substream(seed, tag, b)) ** 2
    lhs = float(d2.mean()) / denom
    se = float(d2.std(ddof=1)) / math.sqrt(replicates) / denom
    return BoundReport(check, frame.n_psus, n_I, replicates, lhs, se, rhs())


def verify_hajek_bound(
    frame: Frame,
    n_I: int,
    replicates: int,
    seed: int,
    var_index: int = 0,
    second_stage: str = "CENSUS",
    n0: int | None = None,
) -> BoundReport:
    """Check E(Delta_2^2)/V(sum_BE(Yhat_i - mu)) <= sqrt(1/n_I + 1/(N_I-n_I)).

    The denominator is computed in closed form, f*sum(V_i) +
    f(1-f)*sum((Y_i-mu)^2), to avoid ratio-of-noisy-estimates bias; the
    numerator is averaged over coupled replicates.
    """
    N = frame.n_psus
    sub = frame.subtotals[:, var_index]
    mu = float(sub.mean())

    def denominator() -> float:
        f = n_I / N
        v_i = _exact_second_stage(frame, second_stage, n0, var_index)
        return f * float(v_i.sum()) + f * (1.0 - f) * float(np.sum((sub - mu) ** 2))

    def delta2(rng: np.random.Generator) -> float:
        return coupled_be_si(frame, n_I, rng, second_stage, n0, [var_index]).delta2(mu, 0)

    return _bound_report("be_si", "be-si", frame, n_I, replicates, seed, denominator, delta2,
                         lambda: math.sqrt(1.0 / n_I + 1.0 / (N - n_I)))


def verify_sir_si_bound(
    frame: Frame,
    n_I: int,
    replicates: int,
    seed: int,
    var_index: int = 0,
    second_stage: str = "CENSUS",
    n0: int | None = None,
) -> BoundReport:
    """Check E(Yhat_WR - Yhat_SI)^2 / V(Yhat_WR) <= (n_I - 1)/(N_I - 1)."""

    def denominator() -> float:
        v_i = _exact_second_stage(frame, second_stage, n0, var_index)
        return theoretical_variance(frame, DesignSpec("SIR", n_I=n_I), v_i, var_index)

    def wr_minus_si(rng: np.random.Generator) -> float:
        draw = coupled_sir_si(frame, n_I, rng, second_stage, n0, [var_index])
        return draw.ht_wr(0) - draw.ht_si(0)

    return _bound_report("sir_si", "sir-si", frame, n_I, replicates, seed, denominator,
                         wr_minus_si, lambda: (n_I - 1.0) / (frame.n_psus - 1.0))


@dataclass
class DecayRow:
    """Per-frame coupled-moment estimates (scaled as displayed) with their MC errors."""

    n_psus: int
    n_I: int
    m: int
    mean_sq_diff: float  # n_I * E(Zbar - Xbar)^2
    mean_sq_diff_se: float
    abs_s2_diff: float  # E|s_Z^2 - s_X^2|
    abs_s2_diff_se: float
    boot_sq_diff: float  # m * E(Zbar*_m - Xbar*_m)^2
    boot_sq_diff_se: float

    def to_dict(self) -> dict:
        return self.__dict__.copy()


_DECAY_METRICS = ("mean_sq_diff", "abs_s2_diff", "boot_sq_diff")


@dataclass
class DecayReport:
    rows: list[DecayRow]

    def strictly_decreasing(self, metric: str) -> bool:
        """Monotone decay with 3-standard-error separation between neighbors."""
        if metric not in _DECAY_METRICS:
            raise ValueError(f"unknown decay metric: {metric!r}")
        vals = [getattr(r, metric) for r in self.rows]
        ses = [getattr(r, metric + "_se") for r in self.rows]
        return all(
            prev - cur > 3.0 * math.hypot(se_prev, se_cur)
            for prev, cur, se_prev, se_cur in zip(vals, vals[1:], ses, ses[1:])
        )


def verify_decay(
    frames: Sequence[Frame],
    n_I: int,
    replicates: int,
    seed: int,
    m: int | None = None,
    var_index: int = 0,
    second_stage: str = "CENSUS",
    n0: int | None = None,
) -> DecayReport:
    """Estimate the coupled-moment decay along a scaling sequence of frames.

    The frames should share the per-PSU distribution while N_I grows (so
    f_I -> 0); each row reports n_I*E(Zbar-Xbar)^2, E|s_Z^2-s_X^2| and
    m*E(Zbar*_m-Xbar*_m)^2 with the same multinomial weights applied to the
    coupled z/x vectors.
    """
    if len(frames) < 3:
        raise ValueError("need a scaling family of at least 3 frames")
    for fr in frames:
        if not n_I < fr.n_psus:
            raise ValueError("decay study needs n_I < N_I for every frame")
    m = n_I if m is None else m

    rows = []
    for fi, fr in enumerate(frames):
        stats = np.empty((replicates, 3))
        for b in range(replicates):
            rng = substream(seed, "decay", fi, b)
            draw = coupled_sir_si(fr, n_I, rng, second_stage, n0, [var_index])
            z = draw.z_values[:, 0]
            x = draw.x_values[:, 0]
            d = multinomial_weights(rng, 1, n_I, m)[0]
            stats[b, 0] = (z.mean() - x.mean()) ** 2
            stats[b, 1] = abs(np.var(z, ddof=1) - np.var(x, ddof=1))
            stats[b, 2] = ((d @ z - d @ x) / m) ** 2
        means = stats.mean(axis=0)
        ses = stats.std(axis=0, ddof=1) / math.sqrt(replicates)
        rows.append(
            DecayRow(
                fr.n_psus,
                n_I,
                m,
                n_I * means[0],
                n_I * ses[0],
                means[1],
                ses[1],
                m * means[2],
                m * ses[2],
            )
        )
    return DecayReport(rows)
