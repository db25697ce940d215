"""First- and second-stage sampling engines.

All engines are pure functions of their inputs and an explicit generator:
re-running with the same stream state reproduces the draw.  Simple random
sampling without replacement (SI) is drawn sequentially (sparse Fisher-Yates
prefix) so that the draw order is well defined; the j-th entry of ``order``
is the unit selected at the j-th draw.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .frame import Frame

__all__ = [
    "DesignSpec",
    "FirstStageDraw",
    "draw_si",
    "draw_sir",
    "draw_be",
    "draw_stratified_si",
    "si_order",
    "si_order_excluding",
    "second_stage_positions",
    "psu_subtotal_estimates",
    "second_stage_estimates",
]

FIRST_STAGE_KINDS = ("SI", "SIR", "BE", "STRAT_SI")
_GATHER_ROWS = 2048  # second-stage samples summed at a time by psu_subtotal_estimates
SECOND_STAGE_METHODS = ("SI", "SYSTEMATIC", "CENSUS")


@dataclass
class DesignSpec:
    """First-stage design descriptor.

    ``kind`` is one of SI (without replacement, fixed size ``n_I``), SIR
    (with replacement, ``n_I`` draws), BE (Bernoulli with expected size
    ``expected_n_I``) or STRAT_SI (independent SI draws per stratum with
    ``allocations`` mapping stratum label to sample size).
    """

    kind: str
    n_I: int | None = None
    expected_n_I: float | None = None
    allocations: dict[str, int] | None = None

    def __post_init__(self):
        if self.kind not in FIRST_STAGE_KINDS:
            raise ValueError(f"unknown first-stage design kind: {self.kind!r}")
        if self.kind in ("SI", "SIR") and (self.n_I is None or self.n_I < 1):
            raise ValueError(f"{self.kind} design needs n_I >= 1")
        if self.kind == "BE" and (self.expected_n_I is None or self.expected_n_I <= 0):
            raise ValueError("BE design needs expected_n_I > 0")
        if self.kind == "STRAT_SI" and not self.allocations:
            raise ValueError("STRAT_SI design needs per-stratum allocations")

    def validate_for(self, n_population: int, stratum_sizes: Mapping[str, int] | None = None):
        if self.kind == "SI" and self.n_I > n_population:
            raise ValueError(f"SI size n_I={self.n_I} exceeds N_I={n_population}")
        if self.kind == "BE" and not self.expected_n_I < n_population:
            raise ValueError("BE expected size must be < N_I")
        if self.kind == "STRAT_SI":
            if stratum_sizes is None:
                raise ValueError("stratified design on a frame without strata")
            missing = set(self.allocations) - set(stratum_sizes)
            if missing:
                raise ValueError(f"allocations for unknown strata: {sorted(missing)}")
            for label, n in self.allocations.items():
                if not 1 <= n <= stratum_sizes[label]:
                    raise ValueError(
                        f"allocation {n} invalid for stratum {label!r} "
                        f"of size {stratum_sizes[label]}"
                    )


@dataclass
class FirstStageDraw:
    """Record of one first-stage draw.

    ``order`` holds PSU indices in draw order for SI/SIR and in frame order
    for BE (Bernoulli membership has no draw-sequential meaning).  For SIR,
    ``distinct`` lists the distinct PSUs in first-occurrence order and
    ``multiplicity`` the matching selection counts W_i (sum = n_I).
    """

    design: DesignSpec
    order: np.ndarray
    n_population: int
    distinct: np.ndarray | None = None
    multiplicity: np.ndarray | None = None

    @property
    def n_drawn(self) -> int:
        return int(self.order.size)

    def to_dict(self) -> dict:
        out = {
            "kind": self.design.kind,
            "n_population": self.n_population,
            "order": [int(i) for i in self.order],
        }
        if self.design.kind == "BE":
            out["expected_n_I"] = float(self.design.expected_n_I)
        else:
            out["n_I"] = int(self.design.n_I)
        if self.distinct is not None:
            out["distinct"] = [int(i) for i in self.distinct]
            out["multiplicity"] = [int(w) for w in self.multiplicity]
        return out


# ---------------------------------------------------------------------------
# core SI machinery
# ---------------------------------------------------------------------------


def si_order(n_population: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw-sequential SI sample: n distinct indices from range(n_population).

    Sparse Fisher-Yates prefix: O(n) time and memory, equivalent in law to
    drawing n times without replacement one unit at a time.
    """
    if not 1 <= n <= n_population:
        raise ValueError(f"need 1 <= n <= N, got n={n}, N={n_population}")
    picks = rng.integers(np.arange(n, dtype=np.int64), n_population)
    displaced: dict[int, int] = {}
    get = displaced.get
    out = []
    for j, r in enumerate(picks.tolist()):
        out.append(get(r, r))
        displaced[r] = get(j, j)
    return np.array(out, dtype=np.int64)


def si_order_excluding(
    n_population: int,
    n: int,
    exclude: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw-sequential SI sample of n units from range(n_population) minus ``exclude``."""
    excluded = set(np.asarray(exclude, dtype=np.int64).ravel().tolist())
    available = n_population - len(excluded)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    if not 1 <= n <= available:
        raise ValueError(f"need 1 <= n <= {available} available units, got n={n}")
    # Rejection is O(n) when the excluded fraction is small; otherwise
    # materialize the candidate list once.
    if n_population < 2048 or 2 * (len(excluded) + n) > n_population:
        mask = np.ones(n_population, dtype=bool)
        if excluded:
            mask[np.fromiter(excluded, dtype=np.int64)] = False
        candidates = np.flatnonzero(mask)
        return candidates[si_order(candidates.size, n, rng)]
    taken = set(excluded)
    out: list[int] = []
    while len(out) < n:
        for c in rng.integers(0, n_population, size=max(16, 2 * (n - len(out)))).tolist():
            if c in taken:
                continue
            taken.add(c)
            out.append(c)
            if len(out) == n:
                break
    return np.array(out, dtype=np.int64)


# ---------------------------------------------------------------------------
# first-stage draws
# ---------------------------------------------------------------------------


def draw_si(n_population: int, n: int, rng: np.random.Generator) -> FirstStageDraw:
    """SI sample of fixed size n; every unit has inclusion probability n/N."""
    design = DesignSpec("SI", n_I=n)
    design.validate_for(n_population)
    return FirstStageDraw(design, si_order(n_population, n, rng), n_population)


def draw_sir(n_population: int, n: int, rng: np.random.Generator) -> FirstStageDraw:
    """SIR sample: n i.i.d. uniform draws with replacement, E(W_i) = n/N."""
    if n < 1 or n_population < 1:
        raise ValueError("need n >= 1 and N >= 1")
    order = rng.integers(0, n_population, size=n).astype(np.int64)
    uniq, first_pos, counts = np.unique(order, return_index=True, return_counts=True)
    by_first = np.argsort(first_pos, kind="stable")
    return FirstStageDraw(
        DesignSpec("SIR", n_I=n),
        order,
        n_population,
        distinct=uniq[by_first],
        multiplicity=counts[by_first],
    )


def draw_be(n_population: int, f: float, rng: np.random.Generator) -> FirstStageDraw:
    """Bernoulli sample: independent inclusion with probability f, frame order."""
    if not 0.0 < f < 1.0:
        raise ValueError(f"inclusion probability must be in (0, 1), got {f}")
    mask = rng.random(n_population) < f
    order = np.flatnonzero(mask).astype(np.int64)
    design = DesignSpec("BE", expected_n_I=f * n_population)
    return FirstStageDraw(design, order, n_population)


def draw_stratified_si(
    frame: Frame,
    allocations: Mapping[str, int],
    rng: np.random.Generator,
) -> dict[str, FirstStageDraw]:
    """Independent SI draws per stratum; orders hold global PSU indices."""
    groups = frame.stratum_psu_indices()
    design = DesignSpec("STRAT_SI", allocations=dict(allocations))
    design.validate_for(frame.n_psus, {k: v.size for k, v in groups.items()})
    out: dict[str, FirstStageDraw] = {}
    for label, psu_idx in groups.items():
        if label not in allocations:
            raise ValueError(f"missing allocation for stratum {label!r}")
        n_l = allocations[label]
        local = si_order(psu_idx.size, n_l, rng)
        out[label] = FirstStageDraw(
            DesignSpec("SI", n_I=n_l), psu_idx[local], psu_idx.size
        )
    return out


def second_stage_positions(
    frame: Frame,
    psu_indices: np.ndarray,
    method: str,
    n0: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """SSU rows of one size-n0 second-stage sample (SI or SYSTEMATIC) in every listed PSU.

    Returns a (k, n0) array of row indices into the frame's SSU arrays, one
    row per entry of ``psu_indices`` (repeats get independent samples).  All
    PSUs are drawn from the one supplied stream in batch order, which keeps
    the draws independent across PSUs and of the first stage.
    """
    psu_indices = np.asarray(psu_indices, dtype=np.int64)
    k = psu_indices.size
    if k == 0:
        return np.empty((0, n0), dtype=np.int64)
    sizes_int = frame.sizes[psu_indices]
    if sizes_int.min() < n0:
        raise ValueError("n0 exceeds the size of a selected PSU")
    sizes = sizes_int.astype(np.float64)
    if method == "SI":
        # n0 smallest of N_i i.i.d. uniform keys = uniform subset of size n0
        max_size = int(sizes_int.max())
        keys = rng.random((k, max_size))
        keys[np.arange(max_size)[None, :] >= sizes[:, None]] = np.inf
        pos = np.argpartition(keys, n0 - 1, axis=1)[:, :n0]
    elif method == "SYSTEMATIC":
        # real interval a = N_i/n0 and start u ~ U(0, a): positions floor(u + j*a)
        # include every SSU with probability exactly n0/N_i, also for fractional a
        a = sizes / n0
        u = rng.random(k) * a
        pos = np.floor(u[:, None] + a[:, None] * np.arange(n0)).astype(np.int64)
        np.minimum(pos, sizes_int[:, None] - 1, out=pos)
    else:
        raise ValueError(f"unknown second-stage method: {method!r}")
    return frame.offsets[psu_indices][:, None] + pos


def psu_subtotal_estimates(
    frame: Frame,
    columns: np.ndarray,
    psu_indices: np.ndarray,
    rows: np.ndarray,
    n0: int,
    with_vhat: bool = False,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Expansion estimates of the PSU subtotals from drawn second-stage samples.

    ``rows`` (k, n0) holds the SSU rows of one size-n0 sample inside each PSU
    of ``psu_indices``, as :func:`second_stage_positions` draws them; the
    samples of many first-stage draws may be stacked along k.  Returns the
    estimates ``(N_i/n0) * sum`` of the ``(N, p)`` SSU matrix ``columns``,
    shape (k, p).  With ``with_vhat`` also returns the unbiased within-PSU
    variance estimates ``(N_i^2/n0)(1 - n0/N_i) s_i^2`` of SI subsampling.
    """
    psu_indices = np.asarray(psu_indices, dtype=np.int64)
    k, p = psu_indices.size, columns.shape[1]
    if rows.shape != (k, n0):
        raise ValueError(f"rows must have shape ({k}, {n0}), got {rows.shape}")
    if k == 0:
        return np.empty((0, p)), (np.empty((0, p)) if with_vhat else None)
    sizes = frame.sizes[psu_indices].astype(np.float64)
    scale = (sizes / n0)[:, None]
    if with_vhat or p == 1:
        sel = np.take(columns, rows, axis=0)  # (k, n0, p)
        y_hat = scale * sel.sum(axis=1)
    else:
        # numpy sums (k, n0, p) over axis 1 one j after another when p > 1 (a
        # contiguous p == 1 row is summed pairwise), so this running sum has
        # the same bits; it runs on _GATHER_ROWS samples at a time, so that
        # neither the (k, n0, p) gather nor a (k, p) temporary is held
        y_hat = np.empty((k, p))
        for lo in range(0, k, _GATHER_ROWS):
            acc, sub = y_hat[lo:lo + _GATHER_ROWS], rows[lo:lo + _GATHER_ROWS]
            np.take(columns, sub[:, 0], axis=0, out=acc)
            for j in range(1, n0):
                acc += np.take(columns, sub[:, j], axis=0)
        y_hat *= scale
    if not with_vhat:
        return y_hat, None
    if n0 < 2:
        raise ValueError("within-PSU variance estimation needs n0 >= 2")
    s2 = sel.var(axis=1, ddof=1)
    v_hat = (sizes**2 / n0 * (1.0 - n0 / sizes))[:, None] * s2
    return y_hat, v_hat


def second_stage_estimates(
    frame: Frame,
    columns: np.ndarray,
    subtotals: np.ndarray,
    psu_indices: np.ndarray,
    method: str,
    n0: int | None,
    rng: np.random.Generator,
    with_vhat: bool = False,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Estimated subtotals of the selected PSUs under any second-stage method.

    ``columns`` is an (N, p) SSU matrix and ``subtotals`` its (N_I, p) PSU
    subtotals.  A CENSUS gathers the exact subtotals (zero within-PSU
    variance estimates with ``with_vhat``) and draws no random numbers; SI
    and SYSTEMATIC draw with :func:`second_stage_positions` and estimate
    with :func:`psu_subtotal_estimates`.
    """
    if method == "CENSUS":
        y_hat = subtotals[psu_indices]
        return y_hat, (np.zeros_like(y_hat) if with_vhat else None)
    if with_vhat and method == "SYSTEMATIC":
        raise ValueError("no unbiased within-PSU variance under systematic sampling")
    rows = second_stage_positions(frame, psu_indices, method, n0, rng)
    return psu_subtotal_estimates(frame, columns, psu_indices, rows, n0, with_vhat=with_vhat)
