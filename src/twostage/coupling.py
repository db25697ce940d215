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
    SECOND_STAGE_METHODS,
    DesignSpec,
    check_second_stage,
    second_stage_estimates,
    si_order,
    si_order_excluding,
)
from .estimators import si_second_stage_variances, theoretical_variance
from .frame import Frame
from .rng import substreams

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
    "check_bound",
    "check_decay",
]


# The verification helpers draw their SIR/SI replicates in blocks of at
# most this many (replicates x n_I) cells, so memory never grows with the
# replicate count
_BLOCK_CELLS = 1 << 13
_MIN_REPLICATES = 1000  # per bound, and per decay frame
# a check's largest array, the decay's (replicates, 3) statistics, takes 240 MB at this ceiling
_MAX_REPLICATES = 10**7


def _check_verify(n_I: int, least_n_I: int, replicates: int, second_stage: str, n0: int | None,
                  methods: Sequence[str]) -> None:
    """The rules that bounds and decay share; each message starts with the argument at fault."""
    if n_I < least_n_I:
        raise ValueError(f"n_I must be >= {least_n_I}")
    if replicates < _MIN_REPLICATES:
        raise ValueError(f"replicates must be >= {_MIN_REPLICATES}")
    if replicates > _MAX_REPLICATES:
        raise ValueError(f"replicates must be <= {_MAX_REPLICATES}")
    check_second_stage(second_stage, n0, methods)


def check_bound(n_I: int, replicates: int, second_stage: str = "CENSUS",
                n0: int | None = None) -> None:
    """Every frame-free rule of a bound; its denominator needs exact V_i (a CENSUS or SI)."""
    _check_verify(n_I, 1, replicates, second_stage, n0, ("CENSUS", "SI"))


def check_decay(n_frames: int, n_I: int, replicates: int, m: int | None = None,
                second_stage: str = "CENSUS", n0: int | None = None) -> None:
    """Every frame-free rule of the decay: s_Z^2 needs n_I >= 2 draws, a resample m >= 2."""
    if n_frames < 3:
        raise ValueError(f"frames must be a scaling family of at least 3 frames, got {n_frames}")
    if m is not None and m < 2:
        raise ValueError("m must be >= 2")
    _check_verify(n_I, 2, replicates, second_stage, n0, SECOND_STAGE_METHODS)


def _check_n_I(n_I: int, n_psus: int, op: str = "<") -> None:
    """Refuse n_I outside 1 <= n_I < N_I, or 1 <= n_I <= N_I with op "<=" (the SIR/SI draw)."""
    if not 1 <= n_I < n_psus + (op == "<="):
        raise ValueError(f"n_I must satisfy 1 <= n_I {op} N_I, got n_I={n_I}, N_I={n_psus}")


def _second_stage(frame: Frame, method: str, n0: int | None, cols) -> Callable:
    """values(psus, rng): estimated subtotals (k, len(cols)) of the listed PSUs.

    A census gathers the exact subtotals (precomputed, since the coupled
    loops call it once or twice per replicate) and draws nothing; SI and
    SYSTEMATIC draw one second-stage sample per listed PSU from ``rng`` with
    :func:`second_stage_estimates` on every variable of the frame, before
    keeping ``cols``.
    """
    check_second_stage(method, n0)
    if method == "CENSUS":
        sub = frame.subtotals[:, cols]
        return lambda psus, rng: sub[psus]

    def values(psus: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        y_hat, _ = second_stage_estimates(frame, frame.values, frame.subtotals, psus[None],
                                          method, n0, (rng,))
        return y_hat[0][:, cols]

    return values


def _draw_be_si(n_psus: int, n_I: int, rng: np.random.Generator, values: Callable):
    """One BE/SI coupled draw, in stream order: (be, si, be_vals, si_vals)."""
    be = np.flatnonzero(rng.random(n_psus) < n_I / n_psus).astype(np.int64)
    n_b = be.size
    if n_b < n_I:
        si = np.concatenate([be, si_order_excluding(n_psus, n_I - n_b, be, rng)])
    elif n_b > n_I:
        keep = np.ones(n_b, dtype=bool)
        keep[si_order(n_b, n_b - n_I, rng)] = False
        si = be[keep]
    else:
        si = be

    # One second-stage draw per PSU of the union; the SI side reuses the
    # Bernoulli side's draws on the intersection.
    be_vals = values(be, rng)
    if n_b < n_I:
        si_vals = np.concatenate([be_vals, values(si[n_b:], rng)], axis=0)
    elif n_b > n_I:
        si_vals = be_vals[keep]
    else:
        si_vals = be_vals
    return be, si, be_vals, si_vals


def _delta2(be_vals: np.ndarray, si_vals: np.ndarray, mu: float) -> float:
    """sum_SI (Yhat_i - mu) - sum_BE (Yhat_i - mu); shared PSUs cancel exactly."""
    return float(si_vals.sum() - be_vals.sum()) - mu * (si_vals.size - be_vals.size)


def _draw_sir_si(n_psus: int, n_I: int, rng: np.random.Generator):
    """First stage of one SIR/SI coupled draw: (wr, uniq, first_pos, complement).

    ``wr`` are the with-replacement draws, ``uniq`` their distinct PSUs in
    sorted order and ``first_pos`` the draw at which each first occurs (as
    ``np.unique`` returns them), and ``complement`` is the SI completion
    from the PSUs never drawn, one per repeat draw.
    """
    wr = rng.integers(0, n_psus, size=n_I)
    order = wr.argsort(kind="stable")
    ranked = wr[order]
    starts = np.empty(n_I, dtype=bool)
    starts[0] = True
    np.not_equal(ranked[1:], ranked[:-1], out=starts[1:])
    uniq, first_pos = ranked[starts], order[starts]
    complement = (si_order_excluding(n_psus, n_I - uniq.size, uniq, rng) if uniq.size < n_I
                  else np.empty(0, dtype=np.int64))
    return wr, uniq, first_pos, complement


def _repeats(n_I: int, first_pos: np.ndarray) -> np.ndarray:
    repeat = np.ones(n_I, dtype=bool)
    repeat[first_pos] = False
    return repeat


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
        return _delta2(self.be_values[:, var], self.si_values[:, var], mu)


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
    _check_n_I(n_I, N)
    cols = np.arange(frame.n_vars) if var_indices is None else np.asarray(var_indices)
    values = _second_stage(frame, second_stage, n0, cols)
    be, si, be_vals, si_vals = _draw_be_si(N, n_I, rng, values)
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
    _check_n_I(n_I, N, "<=")
    cols = np.arange(frame.n_vars) if var_indices is None else np.asarray(var_indices)
    values = _second_stage(frame, second_stage, n0, cols)

    wr, uniq, first_pos, complement = _draw_sir_si(N, n_I, rng)
    by_first = np.argsort(first_pos, kind="stable")
    distinct = uniq[by_first]
    multiplicity = np.unique(wr, return_counts=True)[1][by_first]
    si = np.concatenate([distinct, complement])

    x_vals = values(wr, rng)
    z_vals = x_vals.copy()
    if complement.size:
        z_vals[_repeats(n_I, first_pos)] = values(complement, rng)
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
        return {**self.__dict__, "passed": self.passed}


def _exact_second_stage(frame: Frame, second_stage: str, n0: int | None, var: int):
    if second_stage == "CENSUS":
        return np.zeros(frame.n_psus)
    return si_second_stage_variances(frame, n0, var)


def _check_denominator(denom: float) -> float:
    """The closed-form denominator of a bound, refused at zero before any draw."""
    if denom == 0.0:
        raise ValueError("degenerate denominator: all subtotals equal and V_i = 0")
    return denom


def _bound_report(
    check: str, frame: Frame, n_I: int, denom: float, d2: np.ndarray, rhs: float
) -> BoundReport:
    """Monte Carlo ratio E(statistic^2) / denom of the (replicates,) squared statistics d2
    against its bound ``rhs``."""
    lhs = float(d2.mean()) / denom
    se = float(d2.std(ddof=1)) / math.sqrt(d2.size) / denom
    return BoundReport(check, frame.n_psus, n_I, d2.size, lhs, se, rhs)


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
    numerator is averaged over coupled replicates, replicate b drawn from
    substream (seed, "be-si", b).
    """
    check_bound(n_I, replicates, second_stage, n0)
    N = frame.n_psus
    _check_n_I(n_I, N)
    sub = frame.subtotals[:, var_index]
    mu = float(sub.mean())
    f = n_I / N
    v_i = _exact_second_stage(frame, second_stage, n0, var_index)
    denom = _check_denominator(
        f * float(v_i.sum()) + f * (1.0 - f) * float(np.sum((sub - mu) ** 2)))
    # the sums run over ragged samples, so each replicate sums its own
    values = _second_stage(frame, second_stage, n0, [var_index])
    d2 = np.empty(replicates)
    for b, rng in enumerate(substreams(seed, "be-si", indices=range(replicates))):
        _, _, be_vals, si_vals = _draw_be_si(N, n_I, rng, values)
        d2[b] = _delta2(be_vals[:, 0], si_vals[:, 0], mu) ** 2
    return _bound_report("be_si", frame, n_I, denom, d2,
                         math.sqrt(1.0 / n_I + 1.0 / (N - n_I)))


def _sir_si_blocks(
    frame: Frame,
    n_I: int,
    replicates: int,
    stream: tuple,
    second_stage: str,
    n0: int | None,
    var: int,
    m: int | None = None,
):
    """Coupled SIR/SI replicates of variable ``var`` in blocks: yields (lo, x, z, d).

    Replicate b draws from substream (*stream, b), in this order: the
    with-replacement PSUs, the SI completion, the second stage of the
    former and then of the latter, and with ``m`` one multinomial row of m
    resampling weights.  x[i] and z[i] are replicate lo + i's per-draw
    estimates on the WR and SI side (the z-multiset is the SI sample's) and
    d[i] its weights (None without ``m``), all (B, n_I) and C-contiguous, so
    a reduction over axis 1 gives each replicate the bits it would have on
    its own.  A census gathers the block's subtotals at once.
    """
    N = frame.n_psus
    census = second_stage == "CENSUS"
    values = None if census else _second_stage(frame, second_stage, n0, [var])
    sub = frame.subtotals[:, var]
    rows = max(1, _BLOCK_CELLS // n_I)
    for lo in range(0, replicates, rows):
        hi = min(lo + rows, replicates)
        # census: the PSU behind each estimate, gathered once per block
        x = np.empty((hi - lo, n_I), dtype=np.int64 if census else np.float64)
        z = np.empty_like(x)
        d = None if m is None else np.empty((hi - lo, n_I))
        for i, rng in enumerate(substreams(*stream, indices=range(lo, hi))):
            wr, _, first_pos, complement = _draw_sir_si(N, n_I, rng)
            repeat = _repeats(n_I, first_pos)
            if census:
                x[i] = wr
                z[i] = wr
                z[i, repeat] = complement
            else:
                x[i] = values(wr, rng)[:, 0]
                z[i] = x[i]
                if complement.size:
                    z[i, repeat] = values(complement, rng)[:, 0]
            if d is not None:
                d[i] = multinomial_weights(rng, 1, n_I, m)[0]
        if census:
            x, z = sub[x], sub[z]
        yield lo, x, z, d


def verify_sir_si_bound(
    frame: Frame,
    n_I: int,
    replicates: int,
    seed: int,
    var_index: int = 0,
    second_stage: str = "CENSUS",
    n0: int | None = None,
) -> BoundReport:
    """Check E(Yhat_WR - Yhat_SI)^2 / V(Yhat_WR) <= (n_I - 1)/(N_I - 1).

    Replicate b draws from substream (seed, "sir-si", b).
    """
    check_bound(n_I, replicates, second_stage, n0)
    N = frame.n_psus
    _check_n_I(n_I, N, "<=")
    v_i = _exact_second_stage(frame, second_stage, n0, var_index)
    denom = _check_denominator(
        theoretical_variance(frame, DesignSpec("SIR", n_I=n_I), v_i, var_index))
    d2 = np.empty(replicates)
    for lo, x, z, _ in _sir_si_blocks(frame, n_I, replicates, (seed, "sir-si"),
                                      second_stage, n0, var_index):
        # squared as Python floats, as each replicate's statistic was
        wr_minus_si = N * x.mean(axis=1) - N * z.mean(axis=1)
        d2[lo:lo + len(x)] = [v ** 2 for v in wr_minus_si.tolist()]
    return _bound_report("sir_si", frame, n_I, denom, d2, (n_I - 1.0) / (N - 1.0))


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
    check_decay(len(frames), n_I, replicates, m, second_stage, n0)
    for fr in frames:
        _check_n_I(n_I, fr.n_psus)
    m = n_I if m is None else m

    rows = []
    for fi, fr in enumerate(frames):
        stats = np.empty((replicates, 3))
        for lo, x, z, d in _sir_si_blocks(fr, n_I, replicates, (seed, "decay", fi),
                                          second_stage, n0, var_index, m):
            hi = lo + len(x)
            # numpy scalars squared and one dot product per replicate, as a
            # lone replicate computed them
            stats[lo:hi, 0] = [v ** 2 for v in z.mean(axis=1) - x.mean(axis=1)]
            stats[lo:hi, 1] = np.abs(np.var(z, axis=1, ddof=1) - np.var(x, axis=1, ddof=1))
            stats[lo:hi, 2] = [((di @ zi - di @ xi) / m) ** 2 for di, zi, xi in zip(d, z, x)]
        means = stats.mean(axis=0)
        ses = stats.std(axis=0, ddof=1) / math.sqrt(replicates)
        rows.append(DecayRow(fr.n_psus, n_I, m, n_I * means[0], n_I * ses[0], means[1], ses[1],
                             m * means[2], m * ses[2]))
    return DecayReport(rows)
