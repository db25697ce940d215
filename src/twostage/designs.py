"""First- and second-stage sampling engines.

All engines are pure functions of their inputs and an explicit generator:
re-running with the same stream state reproduces the draw.  Simple random
sampling without replacement (SI) is drawn sequentially (sparse Fisher-Yates
prefix) so that the draw order is well defined; the j-th entry of ``order``
is the unit selected at the j-th draw.

:class:`SystematicTable` is an exact memo of the SYSTEMATIC second stage:
``Generator.random`` draws starts on the grid k * 2^-53, each distinct
systematic sample of a PSU size owns one interval of that grid, and a row
per interval of each PSU holds :func:`psu_subtotal_estimates` of its
sample, so a lookup gives the bits of placing and gathering the sample at
any start.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .frame import Frame
from .rng import _fresh_integers

__all__ = [
    "DesignSpec",
    "FirstStageDraw",
    "draw_si",
    "draw_sir",
    "draw_be",
    "draw_stratified_si",
    "si_draws",
    "fresh_si_draws",
    "si_order",
    "resolve_si_orders",
    "si_order_excluding",
    "systematic_positions",
    "SystematicTable",
    "systematic_table",
    "check_second_stage",
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


def check_second_stage(method: str, n0: int | None,
                       methods: Sequence[str] = SECOND_STAGE_METHODS) -> None:
    """Refuse a method outside ``methods``, an n0 with a census and, without one, an n0
    that is not an integer >= 1 (a bool is not an integer here)."""
    if method not in methods:
        raise ValueError(f"second_stage must be one of {list(methods)}, got {method!r}")
    if method == "CENSUS":
        if n0 is not None:
            raise ValueError("n0 must not be given for a census second stage")
    elif isinstance(n0, bool) or not isinstance(n0, (int, np.integer, type(None))):
        raise ValueError(f"n0 must be an integer under {method} subsampling, got {n0!r}")
    elif n0 is None or n0 < 1:
        raise ValueError(f"n0 must be >= 1 under {method} subsampling, got {n0}")


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


def fresh_si_draws(n_population, n, rngs: Sequence[np.random.Generator],
                   keys: Sequence, starts: np.ndarray | None = None) -> np.ndarray:
    """The (B, n) :func:`si_draws` rows of the streams ``rngs[b]`` reset to ``keys[b]``, at once.

    Each stream is left where ``si_draws`` leaves it.  Sequences ``n_population``
    and ``n`` give a row one ``si_draws`` per pair (a stratified draw), as one
    ``integers`` call on the pairs' concatenated bounds does.  A (B, n) ``starts``
    gets each stream's next ``random(n)``, from the same read (``rng._fresh_integers``).
    """
    pairs = list(zip(np.atleast_1d(n_population).tolist(), np.atleast_1d(n).tolist()))
    for N, k in pairs:
        if not 1 <= k <= N:
            raise ValueError(f"need 1 <= n <= N, got n={k}, N={N}")
    low = np.concatenate([np.arange(k, dtype=np.int64) for _, k in pairs])
    high = np.repeat(np.array([N for N, _ in pairs], dtype=np.int64), [k for _, k in pairs])
    return _fresh_integers(rngs, keys, low, high, starts)


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
    # ``exclude`` may repeat units: where its size does not settle the branch, the mask does
    if _from_candidates(n_population, exclude.size + n):
        mask = np.ones(n_population, dtype=bool)
        mask[exclude] = False
        candidates = np.flatnonzero(mask)
        if _from_candidates(n_population, n_population - candidates.size + n):
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


def _from_candidates(n_population: int, taken: int) -> bool:
    """Whether :func:`si_order_excluding` draws from the candidate list: rejection is O(n) when
    the excluded and drawn units, ``taken`` in all, are at most half of 2,048 or more units."""
    return n_population < 2048 or 2 * taken > n_population


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
    orders = _stratified_si_orders(groups, allocations, np.concatenate(
        [si_draws(psus.size, allocations[label], rng) for label, psus in groups.items()])[None])
    return {label: FirstStageDraw(DesignSpec("SI", n_I=allocations[label]), order[0], psus.size)
            for (label, psus), order in zip(groups.items(), orders)}


def _stratified_si_orders(groups: Mapping[str, np.ndarray], allocations: Mapping[str, int],
                          draws: np.ndarray) -> list[np.ndarray]:
    """Each stratum's (B, n_l) SI samples (global PSU indices), resolved at once.

    Row b of ``draws`` holds every stratum's Fisher-Yates draws, in the order of ``groups``.
    """
    cuts = np.cumsum([allocations[label] for label in groups])[:-1]
    return [psus[resolve_si_orders(part)]
            for psus, part in zip(groups.values(), np.split(draws, cuts, axis=1))]


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


def _systematic_offsets(a, j, u, top):
    """Within-PSU positions min(floor(fl(a*j) + fl(u*a)), top) of systematic coordinates j.

    ``a`` is the interval N_i/n0 and ``u`` the U(0, 1) start; the arguments
    broadcast.  Each step is elementwise and monotone in ``u``.
    """
    pos = a * j
    pos += u * a  # floating-point addition and multiplication commute exactly
    np.floor(pos, out=pos)
    np.minimum(pos, top, out=pos)
    return pos


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
    pos = _systematic_offsets(sizes / n0, np.arange(n0), starts[..., None], sizes - 1)
    rows = pos.astype(np.int64)
    rows += frame.offsets[psu_indices][..., None]
    return rows


# rng.random draws a start k * 2^-53 for an integer 0 <= k < 2^53: the grid
_GRID = 2.0 ** -53
_GRID_POINTS = 1 << 53
_CHANGE_POINTS = 1 << 15  # change points found at a time
_KEY_SIZES = 1 << 10  # PSU sizes whose change points are sorted at a time, as (size << 53) | k keys
_TABLE_SSUS = 2048  # SSUs of the PSUs whose table rows are filled at a time
_TABLE_CELLS = 1 << 15  # sample positions placed at a time while the table is filled


@dataclass(frozen=True)
class SystematicTable:
    """Every distinct systematic sample of size n0 of every PSU, with its subtotal estimates.

    A start drawn by ``Generator.random`` is u = k * 2^-53 for an integer
    0 <= k < 2^53.  Each coordinate of :func:`systematic_positions` is a
    monotone step function of k, so each distinct sample of PSU i owns one
    interval of k; the intervals partition [0, 2^53).  The intervals, and
    the within-PSU positions each one places, depend on N_i and n0 alone, so
    they are kept once per size class (the PSUs of one size), and placed once
    where all (R_C, n0) fit _TABLE_CELLS: class row c is one interval, in
    class order and then in order of k, and ``ends[c]`` is the first grid
    point past it (2^53 for a class's last row).  PSU i's rows are its
    class's rows, at ``psu_rows[i]`` on; ``estimates[r]`` is
    :func:`psu_subtotal_estimates` of row r's class-row positions plus the
    PSU's offset, the gather path's own call at the interval's first grid
    point, so it has that path's bits at any start in the interval.

    In exact arithmetic a class of size N has N / gcd(N, n0) equal
    intervals; rounding moves their ends by a few grid points or adds
    intervals of a few points.  So the lookup cuts each class's grid into
    that many equal buckets, and ``first`` holds the class row from which a
    start in a bucket is found after a step or two.  The (R, p)
    ``estimates``, with R about the PSUs' total size, take about the room of
    the (N, p) column matrix they replace; ``ends`` and ``first`` hold at
    most R_C integers each, R_C the rows of the distinct sizes (643 rows for
    the 18 sizes of pop3, seed 3, at n0 = 10, against R = 72,593).
    """

    psu_rows: np.ndarray  # (N_I + 1,) each PSU's first row of ``estimates``
    psu_class: np.ndarray  # (N_I,) each PSU's size class
    class_rows: np.ndarray  # (C + 1,) each class's first row of ``ends``
    ends: np.ndarray  # (R_C,) first grid point past each class row's interval
    estimates: np.ndarray  # (R, p) subtotal estimates of each PSU row's sample
    buckets: np.ndarray  # (C,) float bucket count N / gcd(N, n0) of each class
    bucket_base: np.ndarray  # (C,) offset of class c's buckets in ``first``
    first: np.ndarray  # (sum of bucket counts,) int32 class row each bucket's search starts at

    def rows_at(self, psu_indices: np.ndarray, starts: np.ndarray) -> np.ndarray:
        """The row of the sample that each start draws in its PSU (``psu_indices``'s shape).

        Raises for a start that is not a grid point of [0, 1).
        """
        psu_indices = np.asarray(psu_indices, dtype=np.int64)
        k = starts * _GRID_POINTS  # exact: a power-of-two scaling
        grid = k.astype(np.int64)
        if not (np.all(grid == k) and np.all((0 <= grid) & (grid < _GRID_POINTS))):
            raise ValueError("starts must be k * 2**-53 for integers 0 <= k < 2**53")
        cls = self.psu_class[psu_indices]
        row = self.first[self.bucket_base[cls]
                         + _bucket(starts, self.buckets[cls])].astype(np.int64)
        while True:
            step = self.ends[row] <= grid
            if not step.any():
                break
            row += step
        row += self.psu_rows[psu_indices]
        row -= self.class_rows[cls]
        return row

    def subtotal_estimates(self, psu_indices: np.ndarray, starts: np.ndarray) -> np.ndarray:
        """The estimates (*S, p) of the samples that the starts (shape S) draw in their PSUs.

        The same bits as :func:`psu_subtotal_estimates` of
        :func:`systematic_positions` at those starts.  With p > 1 columns
        the result is a view of a C-contiguous (*reversed S, p) array: for a
        (B, k) block numpy adds a row's k estimates one after another in
        either layout, and a sum over axis 1 of this one adds whole (B, p)
        slices at a time.  A lone column stays C-contiguous, since numpy
        sums a contiguous row pairwise.
        """
        rows = self.rows_at(psu_indices, starts)
        if self.estimates.shape[1] == 1:
            return np.take(self.estimates, rows, axis=0)
        return np.take(self.estimates, rows.T, axis=0).transpose(*range(rows.ndim)[::-1], rows.ndim)


def _bucket(starts: np.ndarray, buckets: np.ndarray) -> np.ndarray:
    """The bucket min(floor(u * L), L - 1) of each start u among its PSU's L equal ones.

    Monotone in u; the table's index and its lookups compute it alike.
    """
    t = starts * buckets
    np.floor(t, out=t)
    np.minimum(t, buckets - 1, out=t)
    return t.astype(np.int64)


def _first_reaching(a, j, top, target, lo, hi) -> np.ndarray:
    """The first grid point k in (lo, hi] at which coordinate j reaches ``target``.

    Bisects elementwise where offset(lo) < target <= offset(hi).  Where that
    bracket fails it bisects the whole grid instead, and where even the
    whole grid fails it raises: it never places a change point that it has
    not bracketed.  Writes into ``lo`` and ``hi``.

    The coordinate sits at min(floor(x), top) for x = fl(fl(a j) + fl(u a)),
    so it reaches an integer target exactly where x >= target <= top; each
    step compares x itself (an unreachable target with infinity).
    """
    base = a * j
    goal = np.where(target <= top, target, np.inf)

    def reached(k):
        x = k * _GRID
        x *= a  # the products and the sum commute exactly, as in _systematic_offsets
        x += base
        return x >= goal

    miss = np.flatnonzero(reached(lo) | ~reached(hi))
    if miss.size:
        if np.any(hi[miss] - lo[miss] == _GRID_POINTS - 1):
            raise ValueError("a systematic change point lies outside the grid")
        whole = np.full(miss.size, _GRID_POINTS - 1)
        hi[miss] = _first_reaching(a[miss], j[miss], top[miss], target[miss],
                                   np.zeros_like(whole), whole)
        lo[miss] = hi[miss] - 1
    for _ in range(int(np.max(hi - lo, initial=1) - 1).bit_length()):
        mid = lo + hi
        mid >>= 1
        up = reached(mid)
        np.copyto(hi, mid, where=up)
        np.copyto(lo, mid, where=~up)
    return hi


def _interval_starts(sizes: np.ndarray, n0: int) -> tuple[np.ndarray, np.ndarray]:
    """The first grid point of every distinct systematic sample of up to _KEY_SIZES PSU sizes.

    Returns the points (in size order, increasing within each size, 0 first)
    and each size's count of them.  Coordinate j of size N moves from its
    position at k = 0 to its position at k = 2^53 - 1, once per integer m in
    between, at the first k with fl(fl(a j) + fl(k 2^-53 a)) >= m, a = N/n0.
    Let X = (m - fl(a j)) 2^53 / a.  Rounding the sum up to m moves that k
    below X by at most ulp(m) 2^52 / a < n0 grid points and never above it;
    the product moves it by at most one point and the guess g = ceil(fl(X))
    is within about 5 points of X.  So k lies in (g - n0 - 8, g + 8], which
    :func:`_first_reaching` bisects, _CHANGE_POINTS moves at a time.
    """
    n_sizes = sizes.size
    a = sizes / n0
    top = sizes - 1
    j = np.arange(n0)
    at_zero = _systematic_offsets(a[:, None], j, 0.0, top[:, None]).astype(np.int64).ravel()
    at_last = _systematic_offsets(a[:, None], j, (_GRID_POINTS - 1) * _GRID,
                                  top[:, None]).astype(np.int64).ravel()
    moved = np.cumsum(at_last - at_zero)  # the moves of the (size, coordinate) cells so far
    # (size, k) keys, k = 0 for every size first
    keys = [np.arange(n_sizes, dtype=np.int64) << 53]
    for lo in range(0, int(moved[-1]), _CHANGE_POINTS):
        move = np.arange(lo, min(lo + _CHANGE_POINTS, int(moved[-1])))
        cell = np.searchsorted(moved, move, side="right")
        target = move - moved[cell] + at_last[cell] + 1
        size, coord = np.divmod(cell, n0)
        a_t = a[size]
        guess = np.ceil((target - a_t * coord) * _GRID_POINTS / a_t)
        np.clip(guess, 0, _GRID_POINTS - 1, out=guess)
        guess = guess.astype(np.int64)
        points = _first_reaching(a_t, coord, top[size], target, np.maximum(guess - (n0 + 8), 0),
                                 np.minimum(guess + 8, _GRID_POINTS - 1))
        keys.append((size << 53) | points)
    keys = np.concatenate(keys)
    keys.sort()
    keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    return keys & (_GRID_POINTS - 1), np.bincount(keys >> 53, minlength=n_sizes)


def _psu_spans(frame: Frame, ssus: int):
    """Consecutive spans [lo, hi) of PSUs holding about ``ssus`` SSUs each (at least one PSU)."""
    cuts = np.searchsorted(frame.offsets, np.arange(ssus, frame.n_ssus, ssus), side="right") - 1
    cuts = np.unique(np.concatenate(([0], cuts, [frame.n_psus])))
    return list(zip(cuts[:-1].tolist(), cuts[1:].tolist()))


def systematic_table(frame: Frame, n0: int, column_block) -> SystematicTable:
    """The :class:`SystematicTable` of every PSU of the frame.

    ``column_block(lo, hi)`` returns the (hi - lo, p) SSU columns of frame
    rows lo..hi-1, with the bits of those rows of the full column matrix.
    First every interval of every distinct PSU size is found, _KEY_SIZES
    sizes at a time; then the PSUs' rows are filled into the preallocated
    (R, p) table from the columns of about _TABLE_SSUS SSUs at a time, so no
    column matrix of the whole frame is built.
    """
    sizes, first_psu, psu_class = np.unique(_check_n0(frame, np.arange(frame.n_psus), n0),
                                            return_index=True, return_inverse=True)
    points, counts = zip(*(_interval_starts(sizes[lo:lo + _KEY_SIZES], n0)
                           for lo in range(0, sizes.size, _KEY_SIZES)))
    lower = np.concatenate(points)
    del points
    counts = np.concatenate(counts)
    placed = None  # every class row's within-PSU positions at its first grid point, once
    if lower.size * n0 <= _TABLE_CELLS:  # where they fit a batch's room
        at = np.repeat(first_psu, counts)  # a PSU of each class row's class
        placed = systematic_positions(frame, at, lower * _GRID, n0) - frame.offsets[at][:, None]
    class_rows = np.concatenate(([0], np.cumsum(counts)))
    buckets = sizes // np.gcd(sizes, n0)
    bucket_base = np.cumsum(buckets) - buckets
    keyed = _bucket(lower * _GRID, np.repeat(buckets.astype(np.float64), counts))
    keyed += np.repeat(bucket_base, counts)
    # the last row below each bucket (the rows keyed below it, less one), or
    # the class's first row for its bucket 0
    first = np.bincount(keyed, minlength=int(buckets.sum()))
    del keyed
    np.cumsum(first, out=first)
    first = np.roll(first, 1)
    first[0] = 0
    first -= 1
    np.maximum(first, np.repeat(class_rows[:-1], buckets), out=first)
    if lower.size > np.iinfo(np.int32).max:
        raise ValueError(f"the table's {lower.size} class rows overflow its int32 bucket index")
    first = first.astype(np.int32)  # half the room of the index, which fits the build's bound
    ends = np.roll(lower, -1)
    del lower
    ends[class_rows[1:] - 1] = _GRID_POINTS

    psu_rows = np.concatenate(([0], np.cumsum(counts[psu_class])))
    shift = class_rows[psu_class] - psu_rows[:-1]  # class row less PSU row, per PSU
    estimates = None
    for lo, hi in _psu_spans(frame, _TABLE_SSUS):
        columns = column_block(frame.offsets[lo], frame.offsets[hi])
        if estimates is None:
            estimates = np.empty((psu_rows[-1], columns.shape[1]))
        _fill_span(frame, n0, lo, psu_rows[lo:hi + 1], shift, ends, placed, columns, estimates)
        del columns  # so that two spans' columns are never held at once
    return SystematicTable(psu_rows, psu_class, class_rows, ends, estimates,
                           buckets.astype(np.float64), bucket_base, first)


def _fill_span(frame: Frame, n0: int, lo: int, span_rows: np.ndarray, shift: np.ndarray,
               ends: np.ndarray, placed: np.ndarray | None, columns: np.ndarray,
               estimates: np.ndarray) -> None:
    """Fill the table rows of the PSUs from ``lo`` on whose row bounds are ``span_rows``.

    ``columns`` holds the span's SSU columns.  Row r of PSU i is class row
    c = r + shift[i]; its sample is c's within-PSU positions at c's first grid
    point (row c of ``placed``, or placed here at the previous class row's end,
    2^53 and so 0 before a class's first row) plus the PSU's offset.  Rows go
    _TABLE_CELLS // n0 at a time, and their estimates straight into the table.
    """
    batch = max(1, _TABLE_CELLS // n0)
    for r0 in range(span_rows[0], span_rows[-1], batch):
        r1 = min(r0 + batch, span_rows[-1])
        psus = np.searchsorted(span_rows, np.arange(r0, r1), side="right") + (lo - 1)
        cls = np.arange(r0, r1) + shift[psus]
        rows = (placed[cls] + frame.offsets[psus][:, None] if placed is not None else
                systematic_positions(frame, psus, (ends[cls - 1] & (_GRID_POINTS - 1)) * _GRID, n0))
        rows -= frame.offsets[lo]
        psu_subtotal_estimates(frame, columns, psus, rows, n0, out=estimates[r0:r1])


def psu_subtotal_estimates(
    frame: Frame,
    columns: np.ndarray,
    psu_indices: np.ndarray,
    rows: np.ndarray,
    n0: int,
    with_vhat: bool = False,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Expansion estimates of the PSU subtotals from drawn second-stage samples.

    ``rows`` (k, n0) holds the SSU rows of one size-n0 sample inside each PSU
    of ``psu_indices``, as :func:`second_stage_estimates` draws them; the
    samples of many first-stage draws may be stacked along k.  Returns the
    estimates ``(N_i/n0) * sum`` of the ``(N, p)`` SSU matrix ``columns``,
    shape (k, p), written into ``out`` (a C-contiguous (k, p) array) when it
    is given.  With ``with_vhat`` also returns the unbiased within-PSU
    variance estimates ``(N_i^2/n0)(1 - n0/N_i) s_i^2`` of SI subsampling.
    """
    psu_indices = np.asarray(psu_indices, dtype=np.int64)
    k, p = psu_indices.size, columns.shape[1]
    if rows.shape != (k, n0):
        raise ValueError(f"rows must have shape ({k}, {n0}), got {rows.shape}")
    if out is not None and (out.shape != (k, p) or not out.flags.c_contiguous):
        raise ValueError(f"out must be a C-contiguous ({k}, {p}) array")
    if k == 0:
        return (np.empty((0, p)) if out is None else out), (np.empty((0, p)) if with_vhat else None)
    sizes = frame.sizes[psu_indices].astype(np.float64)
    scale = (sizes / n0)[:, None]
    if with_vhat or p == 1:
        sel = np.take(columns, rows, axis=0)  # (k, n0, p)
        y_hat = np.multiply(scale, sel.sum(axis=1), out=out)
    else:
        # numpy sums (k, n0, p) over axis 1 one j after another when p > 1 (a
        # contiguous p == 1 row is summed pairwise), so this running sum has
        # the same bits; it runs on _GATHER_ROWS samples at a time, so that
        # neither the (k, n0, p) gather nor a (k, p) temporary is held
        y_hat = np.empty((k, p)) if out is None else out
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
    check_second_stage(method, n0)
    psu_indices = np.asarray(psu_indices, dtype=np.int64)
    n_rows, k = psu_indices.shape
    if with_vhat and method == "SYSTEMATIC":
        raise ValueError("no unbiased within-PSU variance under systematic sampling")
    if method == "CENSUS" or k == 0:
        y_hat = subtotals[psu_indices]
        return y_hat, (np.zeros_like(y_hat) if with_vhat else None)
    if method == "SYSTEMATIC":
        starts = np.array([rng.random(k) for rng in rngs]).reshape(n_rows, k)
        rows = systematic_positions(frame, psu_indices, starts, n0)
    else:
        rows = np.empty((n_rows, k, n0), dtype=np.int64)
        for b, rng in enumerate(rngs):
            rows[b] = _si_positions(frame, psu_indices[b], n0, rng)
    y_hat, v_hat = psu_subtotal_estimates(frame, columns, psu_indices.ravel(),
                                          rows.reshape(-1, n0), n0, with_vhat=with_vhat)
    shape = (n_rows, k, columns.shape[1])
    return y_hat.reshape(shape), (None if v_hat is None else v_hat.reshape(shape))
