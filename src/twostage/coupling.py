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

A block of verification replicates is decoded from their raw Philox words:
a BE/SI row's Bernoulli draw reads words 0..N-1 and its repair the 32-bit
halves after them, low half first; an SIR/SI row's n_I draws read the first
halves and its completion the next ones.  A row that the block cannot decode
is drawn again, alone, by :func:`coupled_be_si` or :func:`coupled_sir_si`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .designs import (
    SECOND_STAGE_METHODS,
    DesignSpec,
    _from_candidates,
    check_second_stage,
    resolve_si_orders,
    second_stage_estimates,
    si_order,
    si_order_excluding,
)
from .estimators import si_second_stage_variances, theoretical_variance
from .frame import Frame
from .rng import (_bounded_draws, _raw_words, _seek, _uniform_below, key_blocks, new_stream,
                  reset_stream)

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


# The verification helpers draw their replicates in blocks of at most this
# many (replicates x raw words) cells, so memory never grows with the
# replicate count
_BLOCK_CELLS = 1 << 13
# a row draws n_I + _SPARE_WORDS raw words for its 32-bit draws (past its
# Bernoulli draw): 2 n_I + 16 halves, which all but the rarest rows fit in
_SPARE_WORDS = 8
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


def _estimates(frame: Frame, psus: np.ndarray, rng: np.random.Generator, method: str,
               n0: int | None) -> np.ndarray:
    """The listed PSUs' estimated subtotals (k, q) of every variable, from one
    :func:`second_stage_estimates` sample drawn from ``rng`` (a census draws nothing)."""
    return second_stage_estimates(frame, frame.values, frame.subtotals, psus[None], method, n0,
                                  (rng,))[0][0]


def _sir_si_values(frame: Frame, wr: np.ndarray, repeat: np.ndarray, complement: np.ndarray,
                   rng: np.random.Generator, method: str, n0: int | None):
    """Second stage of one SIR/SI coupled draw: (x, z), drawn from ``rng`` in this order.

    x holds the with-replacement draws' estimates; z is x with the
    complement's estimates in the ``repeat`` draws' slots, so the z-multiset
    is the SI sample's.
    """
    x = _estimates(frame, wr, rng, method, n0)
    z = x.copy()
    if complement.size:  # an empty one draws nothing, but the call costs 5 % of an SI decay
        z[repeat] = _estimates(frame, complement, rng, method, n0)
    return x, z


@dataclass
class CoupledBeSiDraw:
    """Jointly drawn Bernoulli and SI first-stage samples with shared second stage.

    ``be_values`` / ``si_values`` hold every variable's estimates, one row per
    PSU of ``be_indices`` / ``si_indices``; PSUs in the intersection carry
    bitwise-identical estimates because the second-stage sample is drawn once.
    """

    n_psus: int
    n_I: int
    be_indices: np.ndarray
    si_indices: np.ndarray
    be_values: np.ndarray = field(repr=False)
    si_values: np.ndarray = field(repr=False)

    def delta2(self, mu: float, var: int = 0) -> float:
        """sum_SI (Yhat_i - mu) - sum_BE (Yhat_i - mu); shared PSUs cancel exactly."""
        si, be = self.si_values[:, var], self.be_values[:, var]
        return float(si.sum() - be.sum()) - mu * (si.size - be.size)


def coupled_be_si(
    frame: Frame,
    n_I: int,
    rng: np.random.Generator,
    second_stage: str = "CENSUS",
    n0: int | None = None,
) -> CoupledBeSiDraw:
    """Draw a BE(f_I) sample and an SI(n_I) sample jointly.

    Marginally the Bernoulli sample has inclusion probability f_I = n_I/N_I
    and the repaired sample is an exact SI(n_I) draw; second-stage samples
    are shared on the intersection.
    """
    N = frame.n_psus
    _check_n_I(n_I, N)
    check_second_stage(second_stage, n0)
    be = np.flatnonzero(rng.random(N) < n_I / N).astype(np.int64)
    n_b = be.size
    if n_b < n_I:
        si = np.concatenate([be, si_order_excluding(N, n_I - n_b, be, rng)])
    elif n_b > n_I:
        keep = np.ones(n_b, dtype=bool)
        keep[si_order(n_b, n_b - n_I, rng)] = False
        si = be[keep]
    else:
        si = be

    # One second-stage draw per PSU of the union; the SI side reuses the
    # Bernoulli side's draws on the intersection.
    be_vals = _estimates(frame, be, rng, second_stage, n0)
    if n_b < n_I:
        si_vals = np.concatenate([be_vals, _estimates(frame, si[n_b:], rng, second_stage, n0)])
    elif n_b > n_I:
        si_vals = be_vals[keep]
    else:
        si_vals = be_vals
    return CoupledBeSiDraw(N, n_I, be, si, be_vals, si_vals)


@dataclass
class CoupledSirSiDraw:
    """Jointly drawn SIR and SI first-stage samples with shared second stage.

    ``x_values[j]`` holds every variable's estimate of the PSU selected at the
    j-th with-replacement draw; ``z_values[j]`` equals ``x_values[j]`` at first
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
) -> CoupledSirSiDraw:
    """Draw an SIR(n_I) sample and an SI(n_I) sample jointly.

    The distinct PSUs of the with-replacement draw, completed by an SI draw
    from the remaining PSUs, form an exact SI(n_I) sample.  Each repeat
    occurrence gets its own second-stage sample; the SI side keeps the
    first occurrence's.
    """
    N = frame.n_psus
    _check_n_I(n_I, N, "<=")
    check_second_stage(second_stage, n0)

    wr = rng.integers(0, N, size=n_I)
    uniq, first_pos, counts = np.unique(wr, return_index=True, return_counts=True)
    complement = si_order_excluding(N, n_I - uniq.size, uniq, rng)  # one unit per repeat
    repeat = np.ones(n_I, dtype=bool)
    repeat[first_pos] = False
    distinct, multiplicity = wr[~repeat], counts[np.argsort(first_pos)]  # by first occurrence
    si = np.concatenate([distinct, complement])

    x_vals, z_vals = _sir_si_values(frame, wr, repeat, complement, rng, second_stage, n0)
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


def _runs(a: np.ndarray):
    """(order, ranked, starts): a (B, L) array's rows sorted stably, and where each value starts."""
    order = np.argsort(a, axis=1, kind="stable")
    ranked = np.take_along_axis(a, order, axis=1)
    starts = np.ones(a.shape, dtype=bool)
    np.not_equal(ranked[:, 1:], ranked[:, :-1], out=starts[:, 1:])
    return order, ranked, starts


def _bernoulli_words(rng: np.random.Generator, keys: list, N: int, f: float, w: int):
    """(rows, units) of each key's ``rng.random(N) < f``, and its raw words N..w-1."""
    hits, tails = [], []
    step = max(1, _BLOCK_CELLS // w)
    for lo in range(0, len(keys), step):
        words = _raw_words([rng] * step, keys[lo:lo + step], w)
        hits.append(np.flatnonzero(_uniform_below(words[:, :N], f)) + lo * N)  # not a 2-D nonzero
        tails.append(words[:, N:].copy())  # not a view that keeps all the words
    return (*np.divmod(np.concatenate(hits), N), np.concatenate(tails))


def _fisher_yates_block(pop, k, words, start):
    """Row b's ``si_order(pop[b], k[b])`` from halves ``start`` on: (samples, used, scalar);
    self-draws r_j = j (one-unit ranges) pad the (B, max k) samples."""
    j = np.arange(k.max(initial=0))
    ranges = np.where(j < k[:, None], pop[:, None] - j, 1)
    draws, used, scalar = _bounded_draws(words, ranges, start)
    return resolve_si_orders(draws + j), used, scalar


def _excluding_block(N, n_I, units, row, k, words, start):
    """Row b's ``si_order_excluding(N, k[b], units of the row, rng)``, as above.

    The c-th candidate is c + #{i: s_i - i <= c} over the row's sorted
    excluded units s_i; a row that needs a second rejection round is scalar.
    """
    key = (N + 1) * np.arange(k.size)[:, None]  # row-major keys (N + 1) b + unit
    if _from_candidates(N, n_I):  # the row's excluded and drawn units are n_I in all
        size = np.bincount(row, minlength=k.size)
        pos, used, scalar = _fisher_yates_block(N - size, k, words, start)
        first = np.cumsum(size) - size
        below = key[row, 0] + units - (np.arange(units.size) - first[row])
        return pos + np.searchsorted(below, key + pos, side="right") - first[:, None], used, scalar
    fill = np.where(k > 0, np.maximum(16, 2 * k), 0)  # the one round of draws
    live = np.arange(fill.max(initial=0)) < fill[:, None]
    cand, used, scalar = _bounded_draws(words, np.where(live, N, 1), start)
    cand += key  # the padding draws 0s after the row's own draws, and is never accepted
    taken = key[row, 0] + units  # sorted
    hit = np.searchsorted(taken, cand).clip(max=max(taken.size - 1, 0))
    order, _, starts = _runs(cand)
    accept = np.zeros(cand.shape, dtype=bool)
    accept[np.nonzero(starts)[0], order[starts]] = True  # first in its row
    accept &= live & (taken[hit] != cand if taken.size else True)
    rank = np.cumsum(accept, axis=1)
    scalar |= (rank[:, -1] if rank.size else 0) < k
    take = accept & (rank <= k[:, None])
    out = np.zeros((k.size, k.max(initial=0)), dtype=np.int64)
    out[np.arange(out.shape[1]) < take.sum(axis=1)[:, None]] = (cand - key)[take]
    return out, used, scalar


def _be_si_block(N: int, n_I: int, row: np.ndarray, be: np.ndarray, words: np.ndarray):
    """(n_b, si, scalar): BE/SI repairs of Bernoulli samples, in :func:`coupled_be_si`'s order."""
    n_b = np.bincount(row, minlength=len(words))
    short, extra = np.maximum(n_I - n_b, 0), np.maximum(n_b - n_I, 0)
    plus, _, scalar = _excluding_block(N, n_I, be, row, short, words, 0)
    drop, _, redraw = _fisher_yates_block(n_b, extra, words, 0)
    drop += (np.cumsum(n_b) - n_b)[:, None]  # positions in ``be``
    keep = np.ones(be.size, dtype=bool)
    keep[drop[np.arange(drop.shape[1]) < extra[:, None]]] = False
    live = np.arange(plus.shape[1]) < short[:, None]
    # each row's kept units, then its shortfall: n_I units per row, stably sorted by row
    order = np.argsort(np.concatenate([row[keep], np.nonzero(live)[0]]), kind="stable")
    return n_b, np.concatenate([be[keep], plus[live]])[order].reshape(-1, n_I), scalar | redraw


def _sir_si_block(N: int, n_I: int, words: np.ndarray):
    """(wr, si, repeat, halves, scalar): ``si`` holds the completion in the repeats' slots."""
    wr, used, scalar = _bounded_draws(words, np.full(n_I, N))
    order, ranked, starts = _runs(wr)
    row = np.nonzero(starts)[0]
    repeat = np.ones(wr.shape, dtype=bool)
    repeat[row, order[starts]] = False
    k = n_I - np.bincount(row, minlength=len(wr))
    # the completion's halves follow the n_I draws' (N = 1 draws none, and completes nothing)
    plus, more, failed = _excluding_block(N, n_I, ranked[starts], row, k, words, n_I)
    si = wr.copy()
    si[repeat] = plus[np.arange(plus.shape[1]) < k[:, None]]  # a scalar row's are not read
    return wr, si, repeat, used + more, scalar | failed


def _row_sums(values: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Sums of consecutive rows of these sizes; numpy's pairwise sum depends on a row's length."""
    sums, first = np.empty(sizes.size), np.cumsum(sizes) - sizes
    for size in np.flatnonzero(np.bincount(sizes)).tolist():
        rows = np.flatnonzero(sizes == size)
        sums[rows] = values[first[rows, None] + np.arange(size)].sum(axis=1)
    return sums


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
    substream (seed, "be-si", b).  A census draws and sums a block of
    replicates at once (:func:`_row_sums`); under an SI second stage, which
    draws over two ragged samples, each replicate is a :func:`coupled_be_si`.
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
    census = second_stage == "CENSUS"
    rows = max(1, _BLOCK_CELLS // (n_I + _SPARE_WORDS))
    rng, d2 = new_stream(), np.empty(replicates)
    for lo, keys in key_blocks((seed, "be-si"), 0, replicates, rows):
        if census:
            row, be, words = _bernoulli_words(rng, keys, N, f, N + n_I + _SPARE_WORDS)
            n_b, si, scalar = _be_si_block(N, n_I, row, be, words)
            delta = sub[si].sum(axis=1) - _row_sums(sub[be], n_b) - mu * (n_I - n_b)
        else:
            delta, scalar = np.empty(len(keys)), np.ones(len(keys), dtype=bool)
        for b in np.flatnonzero(scalar).tolist():
            draw = coupled_be_si(frame, n_I, reset_stream(rng, keys[b]), second_stage, n0)
            delta[b] = draw.delta2(mu, var_index)
        d2[lo:lo + len(keys)] = np.float_power(delta, 2)
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
    its own.

    A census gathers the block's estimates at once; a second stage and the
    weights are drawn row by row, each stream moved past its first stage.
    """
    N = frame.n_psus
    census = second_stage == "CENSUS"
    sub = frame.subtotals[:, var]
    w = n_I + _SPARE_WORDS
    rng, p = new_stream(), np.full(n_I, 1.0 / n_I)
    for lo, keys in key_blocks(stream, 0, replicates, max(1, _BLOCK_CELLS // w)):
        words = _raw_words([rng] * len(keys), keys, w)
        wr, si, repeat, halves, scalar = _sir_si_block(N, n_I, words)
        # a flagged row's decoded units are in range, and its replay overwrites their estimates
        x, z = (sub[wr], sub[si]) if census else (np.empty(wr.shape), np.empty(wr.shape))
        d = None if m is None else np.empty(wr.shape)
        scalar, halves = scalar.tolist(), halves.tolist()
        for b in (np.flatnonzero(scalar).tolist() if census and m is None else range(len(keys))):
            if scalar[b]:
                draw = coupled_sir_si(frame, n_I, reset_stream(rng, keys[b]), second_stage, n0)
                x[b], z[b] = draw.x_values[:, var], draw.z_values[:, var]
            else:
                _seek(rng, keys[b], halves[b])
                if not census:
                    x_vals, z_vals = _sir_si_values(frame, wr[b], repeat[b], si[b, repeat[b]],
                                                    rng, second_stage, n0)
                    x[b], z[b] = x_vals[:, var], z_vals[:, var]
            if d is not None:  # the one row of multinomial_weights(rng, 1, n_I, m)
                d[b] = rng.multinomial(m, p)
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
        # squared by libm's pow, as a lone replicate's statistic is
        d2[lo:lo + len(x)] = np.float_power(N * x.mean(axis=1) - N * z.mean(axis=1), 2)
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
            # libm's pow and a dot product per row, as a lone replicate computes them
            stats[lo:hi, 0] = np.float_power(z.mean(axis=1) - x.mean(axis=1), 2)
            stats[lo:hi, 1] = np.abs(np.var(z, axis=1, ddof=1) - np.var(x, axis=1, ddof=1))
            dz, dx = (np.matmul(d[:, None], v[:, :, None])[:, 0, 0] for v in (z, x))
            stats[lo:hi, 2] = np.float_power((dz - dx) / m, 2)
        means = stats.mean(axis=0)
        ses = stats.std(axis=0, ddof=1) / math.sqrt(replicates)
        rows.append(DecayRow(fr.n_psus, n_I, m, n_I * means[0], n_I * ses[0], means[1], ses[1],
                             m * means[2], m * ses[2]))
    return DecayReport(rows)
