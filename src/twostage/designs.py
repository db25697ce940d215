"""First- and second-stage sampling engines.

All engines are pure functions of their inputs and an explicit generator:
re-running with the same stream state reproduces the draw.  Simple random
sampling without replacement (SI) is drawn sequentially (sparse Fisher-Yates
prefix) so that the draw order is well defined; the j-th entry of ``order``
is the unit selected at the j-th draw.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .frame import Frame

__all__ = [
    "DesignSpec",
    "FirstStageDraw",
    "draw_si",
    "draw_sir",
    "draw_be",
    "draw_stratified_si",
    "si_draws",
    "si_order",
    "resolve_si_orders",
    "si_order_excluding",
    "systematic_positions",
    "psu_subtotal_estimates",
    "second_stage_estimates",
]

FIRST_STAGE_KINDS = ("SI", "SIR", "BE", "STRAT_SI")
_GATHER_ROWS = 2048  # second-stage samples summed at a time by psu_subtotal_estimates
_KEY_CELLS = 1 << 20  # SI subsampling keys drawn and partitioned at a time
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
            raise ValueError(f"kind must be one of {list(FIRST_STAGE_KINDS)}, got {self.kind!r}")
        if self.kind in ("SI", "SIR") and (self.n_I is None or self.n_I < 1):
            raise ValueError(f"n_I must be >= 1, got {self.n_I}")
        if self.kind == "BE" and (self.expected_n_I is None or not self.expected_n_I > 0):
            raise ValueError(f"expected_n_I must be > 0, got {self.expected_n_I}")
        if self.kind == "STRAT_SI" and not self.allocations:
            raise ValueError("allocations must be nonempty")
        for label, n in (self.allocations or {}).items():
            if n < 1:
                raise ValueError(f"allocations[{label}] must be >= 1")

    def validate_for(self, n_population: int, stratum_sizes: Mapping[str, int] | None = None):
        if self.kind == "SI" and self.n_I > n_population:
            raise ValueError(f"SI size n_I={self.n_I} exceeds N_I={n_population}")
        if self.kind == "BE" and not self.expected_n_I < n_population:
            raise ValueError("BE expected size must be < N_I")
        if self.kind == "STRAT_SI":
            if stratum_sizes is None:
                raise ValueError("stratified design on a frame without strata")
            unknown = set(self.allocations) - set(stratum_sizes)
            if unknown:
                raise ValueError(f"allocations for unknown strata: {sorted(unknown)}")
            for label, n in self.allocations.items():
                if n > stratum_sizes[label]:
                    raise ValueError(
                        f"allocation {n} invalid for stratum {label!r} "
                        f"of size {stratum_sizes[label]}"
                    )
            for label in stratum_sizes:
                if label not in self.allocations:
                    raise ValueError(f"missing allocation for stratum {label!r}")


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


def si_draws(n_population: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """The n Fisher-Yates draws of an SI sample: draw j is uniform on j..n_population-1.

    :func:`si_order` resolves one row of them and :func:`resolve_si_orders`
    a block of rows, into the same draw-sequential sample.
    """
    if not 1 <= n <= n_population:
        raise ValueError(f"need 1 <= n <= N, got n={n}, N={n_population}")
    return rng.integers(np.arange(n, dtype=np.int64), n_population)


def si_order(n_population: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw-sequential SI sample: n distinct indices from range(n_population).

    Sparse Fisher-Yates prefix: O(n) time and memory, equivalent in law to
    drawing n times without replacement one unit at a time.
    """
    displaced: dict[int, int] = {}
    get = displaced.get
    out = []
    for j, r in enumerate(si_draws(n_population, n, rng).tolist()):
        out.append(get(r, r))
        displaced[r] = get(j, j)
    return np.array(out, dtype=np.int64)


def resolve_si_orders(draws: np.ndarray) -> np.ndarray:
    """The SI samples of a (B, n) block of :func:`si_draws` rows, as :func:`si_order` resolves each.

    Step j of the sparse Fisher-Yates loop swaps positions j and r_j, the
    row's j-th draw.  Let W(j) be the unit at position j when step j starts:
    W(j) = W(hit(j)) for the last earlier step hit(j) with r = j, or j if
    there is none.  Step j selects W(prev(j)) for the last earlier step
    prev(j) that drew r_j too, or r_j if there is none.  One sort of the
    (unit, step) keys of every row finds prev and hit, and W follows the
    strictly decreasing hit chains by pointer jumping, in at most
    ceil(log2 n) rounds.  Memory is O(B n).
    """
    draws = np.asarray(draws, dtype=np.int64)
    n_rows, n = draws.shape
    if draws.size == 0:
        return draws.copy()
    # flat step index row * n + j of every entry, and the rows' (unit, step)
    # keys sorted within each row (the steps make every key distinct)
    base = np.arange(0, n_rows * n, n, dtype=np.int64)[:, None]
    keys = draws * n + np.arange(n, dtype=np.int64)
    keys.sort(axis=1)
    unit, step = np.divmod(keys, n)
    step += base
    repeat = unit[:, 1:] == unit[:, :-1]  # the entry draws the unit its predecessor drew
    prev = np.full(n_rows * n, -1, dtype=np.int64)
    prev[step[:, 1:][repeat]] = step[:, :-1][repeat]
    # ptr[j] = hit(j), the last step that drew unit j < n (the last entry of
    # the unit, picked out first: numpy does not order repeated scatter
    # targets).  That is j itself only after a self-draw r_j = j, and then
    # W(j) is never read, since no later step can draw j
    last = unit < n
    last[:, :-1] &= ~repeat
    ptr = np.arange(n_rows * n, dtype=np.int64)
    ptr[(unit + base)[last]] = step[last]
    moving = np.flatnonzero(ptr != np.arange(n_rows * n))
    while moving.size:
        target = ptr[moving]
        jump = ptr[target]
        ptr[moving] = jump
        moving = moving[jump != target]
    out = draws.copy()
    flat = out.reshape(-1)
    has = np.flatnonzero(prev >= 0)
    flat[has] = ptr[prev[has]] % n  # W(prev(j))
    return out


def si_order_excluding(
    n_population: int,
    n: int,
    exclude: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw-sequential SI sample of n units from range(n_population) minus ``exclude``."""
    exclude = np.asarray(exclude, dtype=np.int64).ravel()
    if n == 0:
        return np.empty(0, dtype=np.int64)
    # Rejection is O(n) when the excluded fraction is small; otherwise draw
    # from the candidate list.  ``exclude`` may repeat units, so where its
    # size alone does not settle the choice the mask's count of them does.
    if n_population < 2048 or 2 * (exclude.size + n) > n_population:
        mask = np.ones(n_population, dtype=bool)
        mask[exclude] = False
        candidates = np.flatnonzero(mask)
        excluded = n_population - candidates.size
        if n_population < 2048 or 2 * (excluded + n) > n_population:
            _check_available(n, candidates.size)
            return candidates[si_order(candidates.size, n, rng)]
    taken = set(exclude.tolist())
    _check_available(n, n_population - len(taken))
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


def _check_available(n: int, available: int) -> None:
    if not 1 <= n <= available:
        raise ValueError(f"need 1 <= n <= {available} available units, got n={n}")


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
        n_l = allocations[label]
        local = si_order(psu_idx.size, n_l, rng)
        out[label] = FirstStageDraw(
            DesignSpec("SI", n_I=n_l), psu_idx[local], psu_idx.size
        )
    return out


def _si_positions(
    frame: Frame, psu_indices: np.ndarray, n0: int, rng: np.random.Generator
) -> np.ndarray:
    """SSU rows (k, n0) of one SI subsample of size n0 in every listed PSU, drawn from ``rng``.

    The n0 smallest of N_i i.i.d. uniform keys are a uniform subset of size
    n0.  The (k, max N_i) keys are drawn and partitioned about _KEY_CELLS at
    a time: consecutive draws fill the rows in order and every row is
    partitioned on its own, so the chunks change no bit.
    """
    sizes = _check_n0(frame, psu_indices, n0)
    k = psu_indices.size
    max_size = int(sizes.max())
    chunk = max(1, _KEY_CELLS // max_size)
    units = np.arange(max_size)[None, :]
    pos = np.empty((k, n0), dtype=np.int64)
    for lo in range(0, k, chunk):
        keys = rng.random((min(chunk, k - lo), max_size))
        keys[units >= sizes[lo:lo + chunk, None]] = np.inf
        pos[lo:lo + chunk] = np.argpartition(keys, n0 - 1, axis=1)[:, :n0]
    return frame.offsets[psu_indices][:, None] + pos


def _check_n0(frame: Frame, psu_indices: np.ndarray, n0: int) -> np.ndarray:
    """The sizes of the listed PSUs; raises if one is smaller than n0."""
    sizes = frame.sizes[psu_indices]
    if sizes.size and sizes.min() < n0:
        raise ValueError("n0 exceeds the size of a selected PSU")
    return sizes


def systematic_positions(
    frame: Frame, psu_indices: np.ndarray, starts: np.ndarray, n0: int
) -> np.ndarray:
    """SSU rows of the systematic samples of size n0 with the given U(0, 1) starts.

    ``psu_indices`` and ``starts`` share a shape S; returns the rows, shape
    (*S, n0).  The real interval a = N_i/n0 and start u = start * a give
    positions floor(u + j*a), which include every SSU with probability
    exactly n0/N_i, also for fractional a.  Every step is elementwise, so a
    block of samples has the bits of each sample placed on its own.
    """
    psu_indices = np.asarray(psu_indices, dtype=np.int64)
    sizes = _check_n0(frame, psu_indices, n0)[..., None]
    a = sizes / n0
    pos = a * np.arange(n0)
    pos += starts[..., None] * a  # floating-point addition commutes exactly
    np.floor(pos, out=pos)
    np.minimum(pos, sizes - 1, out=pos)
    rows = pos.astype(np.int64)
    rows += frame.offsets[psu_indices][..., None]
    return rows


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
    of ``psu_indices``, as :func:`second_stage_estimates` draws them; the
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
    rngs: Sequence[np.random.Generator],
    with_vhat: bool = False,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Estimated subtotals of a (B, k) block of selected PSUs under any second-stage method.

    ``columns`` is an (N, p) SSU matrix and ``subtotals`` its (N_I, p) PSU
    subtotals.  Row b of ``psu_indices`` lists one first-stage sample's PSUs
    (repeats get independent subsamples), and its second stage is drawn
    from ``rngs[b]`` alone, so every row has the bits it would have on its
    own.  Returns the (B, k, p) estimates and, with ``with_vhat``, the
    within-PSU variance estimates of SI subsampling.  A CENSUS gathers the
    exact subtotals (zero variance estimates) and, like k = 0, draws
    nothing.
    """
    psu_indices = np.asarray(psu_indices, dtype=np.int64)
    n_rows, k = psu_indices.shape
    if method not in SECOND_STAGE_METHODS:
        raise ValueError(f"unknown second-stage method: {method!r}")
    if with_vhat and method == "SYSTEMATIC":
        raise ValueError("no unbiased within-PSU variance under systematic sampling")
    if method == "CENSUS" or k == 0:
        y_hat = subtotals[psu_indices]
        return y_hat, (np.zeros_like(y_hat) if with_vhat else None)
    if method == "SYSTEMATIC":
        starts = np.empty((n_rows, k))
        for b, rng in enumerate(rngs):
            starts[b] = rng.random(k)
        rows = systematic_positions(frame, psu_indices, starts, n0)
    else:
        rows = np.empty((n_rows, k, n0), dtype=np.int64)
        for b, rng in enumerate(rngs):
            rows[b] = _si_positions(frame, psu_indices[b], n0, rng)
    y_hat, v_hat = psu_subtotal_estimates(frame, columns, psu_indices.ravel(),
                                          rows.reshape(-1, n0), n0, with_vhat=with_vhat)
    shape = (n_rows, k, columns.shape[1])
    return y_hat.reshape(shape), (None if v_hat is None else v_hat.reshape(shape))
