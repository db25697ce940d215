"""Exact tests of the table of systematic samples.

``designs.systematic_table`` lists every distinct systematic sample of every
PSU: the grid of starts k * 2^-53 that ``Generator.random`` draws falls into
one interval of k per sample.  A row must hold the bits that positions +
gather give at every start of its interval, and the intervals must carry the
design's law: each SSU of PSU i is drawn with probability n0/N_i, up to the
rounding of the grid.
"""
import tracemalloc

import numpy as np
import pytest

import twostage.designs as designs
from twostage import Frame, SyntheticConfig, generate_population
from twostage.designs import (
    fresh_si_draws,
    psu_subtotal_estimates,
    resolve_si_orders,
    second_stage_estimates,
    si_order,
    systematic_positions,
    systematic_table,
)
from twostage.rng import new_stream, reset_stream, substream_keys

GRID = 2.0 ** -53
GRID_POINTS = 1 << 53


def _frame(sizes, p: int) -> Frame:
    sizes = np.asarray(sizes, dtype=np.int64)
    values = np.random.default_rng(int(sizes.sum()) + p).normal(50.0, 10.0, (int(sizes.sum()), p))
    return Frame(values, sizes)


def _table(frame: Frame, n0: int):
    return systematic_table(frame, n0, lambda lo, hi: frame.values[lo:hi])


def _gathered(frame: Frame, psus: np.ndarray, starts: np.ndarray, n0: int) -> np.ndarray:
    """Positions + gather on the whole (N, p) matrix: the path the table stands in for."""
    rows = systematic_positions(frame, psus, starts, n0)
    return psu_subtotal_estimates(frame, frame.values, psus, rows, n0)[0]


def _same(a: np.ndarray, b: np.ndarray) -> None:
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


def _row_psus(table) -> np.ndarray:
    return np.repeat(np.arange(table.psu_rows.size - 1), np.diff(table.psu_rows))


def _class_rows(table) -> np.ndarray:
    """The size-class row of each PSU row: a PSU's rows are its class's rows, in order."""
    psus = _row_psus(table)
    return np.arange(psus.size) - table.psu_rows[psus] + table.class_rows[table.psu_class[psus]]


def _ends(table) -> np.ndarray:
    """The first grid point past each PSU row's interval."""
    return table.ends[_class_rows(table)]


def _lows(table) -> np.ndarray:
    """The first grid point of each PSU row's interval: the previous class row's end, or 0."""
    lows = np.roll(table.ends, 1)
    lows[table.class_rows[:-1]] = 0
    return lows[_class_rows(table)]


def _same_at_every_interval(frame: Frame, table, n0: int) -> None:
    """Every row's estimates equal the gather's at its interval's first grid point and below."""
    lows, psus = _lows(table), _row_psus(table)
    for lo in range(0, lows.size, 1 << 18):
        at = slice(lo, lo + (1 << 18))
        _same(table.subtotal_estimates(psus[at], lows[at] * GRID),
              _gathered(frame, psus[at], lows[at] * GRID, n0))
        inner = lows[at] > 0
        below = (lows[at][inner] - 1) * GRID
        _same(table.subtotal_estimates(psus[at][inner], below),
              _gathered(frame, psus[at][inner], below, n0))


# (sizes, n0): N_i/n0 integer and fractional, n0 = 1 and n0 = N_i
CASES = {
    "n0=1": ([1, 2, 5, 17, 40], 1),
    "n0=3": ([3, 6, 9, 4, 5, 7, 10, 11, 41], 3),
    "n0=10": ([10, 20, 40, 11, 13, 25, 37, 44], 10),
    "n0=N_i": ([7, 7, 8, 50], 7),
    "n0=N_i-everywhere": ([12, 12, 12], 12),
    # repeated sizes in PSUs that are not adjacent, between sizes seen once
    "n0=4-mixed": ([13, 40, 7, 13, 29, 40, 11, 13, 8, 40], 4),
}


@pytest.mark.parametrize("p", [1, 4])
@pytest.mark.parametrize("case", sorted(CASES))
def test_rows_match_the_gather_at_every_change_point_and_below(case, p):
    sizes, n0 = CASES[case]
    frame = _frame(sizes, p)
    table = _table(frame, n0)
    lows, psus = _lows(table), _row_psus(table)
    rows = np.arange(lows.size)
    # each row is found at the first grid point of its interval, and the
    # point below belongs to the previous row of the PSU
    starts = lows * GRID
    _same(table.rows_at(psus, starts), rows)
    _same(table.subtotal_estimates(psus, starts), _gathered(frame, psus, starts, n0))
    inner = lows > 0
    below = (lows[inner] - 1) * GRID
    _same(table.rows_at(psus[inner], below), rows[inner] - 1)
    _same(table.subtotal_estimates(psus[inner], below),
          _gathered(frame, psus[inner], below, n0))
    # a change point is a change: the samples on either side of it differ
    assert (systematic_positions(frame, psus[inner], starts[inner], n0)
            != systematic_positions(frame, psus[inner], below, n0)).any(axis=1).all()


@pytest.mark.parametrize("p", [1, 4])
@pytest.mark.parametrize("case", sorted(CASES))
def test_rows_match_the_gather_at_random_starts(case, p):
    sizes, n0 = CASES[case]
    frame = _frame(sizes, p)
    table = _table(frame, n0)
    rng = np.random.default_rng(len(sizes) * 100 + n0)
    psus = rng.integers(0, frame.n_psus, size=(400, 250))
    starts = rng.random((400, 250))
    got = table.subtotal_estimates(psus, starts)
    assert got.shape == (400, 250, p)
    _same(got.reshape(-1, p), _gathered(frame, psus.ravel(), starts.ravel(), n0))


@pytest.mark.parametrize("n0", [3, 10])
def test_one_psu_of_a_million_ssus(n0):
    frame = _frame([10**6, 37], 2)
    table = _table(frame, n0)
    # about N_i / gcd(N_i, n0) samples of the large PSU
    assert table.psu_rows[1] >= 10**6 // np.gcd(10**6, n0)
    _same_at_every_interval(frame, table, n0)
    rng = np.random.default_rng(n0)
    psus = rng.integers(0, 2, size=10**5)
    starts = rng.random(10**5)
    _same(table.subtotal_estimates(psus, starts), _gathered(frame, psus, starts, n0))


@pytest.mark.parametrize("n0", [1, 3, 10])
def test_intervals_carry_the_systematic_law(n0):
    """Per PSU the intervals partition [0, 2^53), and each SSU's mass is n0 2^53 / N_i.

    The mass of an SSU is the summed length of the intervals whose sample
    holds it, counted in grid points; it must lie within 4 n0 points of
    n0 2^53 / N_i.  A missing change point would move about 2^53 / N_i.
    """
    frame = generate_population(SyntheticConfig(2000, 40, 0.06, 20.0, 2.0, (0.1,), 0.6, seed=3))
    table = systematic_table(frame, n0, lambda lo, hi: frame.values[lo:hi, :1])
    lows, ends, psus = _lows(table), _ends(table), _row_psus(table)
    first, last = table.psu_rows[:-1], table.psu_rows[1:] - 1
    assert (lows[first] == 0).all() and (ends[last] == GRID_POINTS).all()
    assert (lows[1:][np.diff(psus) == 0] == ends[:-1][np.diff(psus) == 0]).all()
    length = ends - lows
    assert (length > 0).all()
    assert (np.add.reduceat(length, first) == GRID_POINTS).all()

    # mass * N_i fits in an int64 for PSUs under 2^10 SSUs
    assert frame.sizes.max() < 1 << 10
    mass = np.zeros(frame.n_ssus, dtype=np.int64)
    rows = np.sort(systematic_positions(frame, psus, lows * GRID, n0), axis=1)
    once = np.ones(rows.shape, dtype=bool)
    once[:, 1:] = rows[:, 1:] != rows[:, :-1]  # an SSU placed twice is drawn once
    np.add.at(mass, rows[once], np.broadcast_to(length[:, None], rows.shape)[once])
    sizes = np.repeat(frame.sizes, frame.sizes)
    off = mass * sizes - (n0 << 53)
    assert (np.abs(off) <= 4 * n0 * sizes).all()


@pytest.mark.parametrize("n0", [3, 10])
def test_a_frame_of_distinct_sizes(n0):
    """With no size shared every PSU is a class of its own, and the build stays in bounds.

    The rows keep the gather's bits, and the build's peak stays within the
    (N, p) column matrix and four (N,) int64 arrays: 24.6 MB for this
    frame, where a per-PSU layout of the intervals peaked at 23.5 MB
    (n0 = 3) and 22.2 MB (n0 = 10).
    """
    frame = _frame(np.arange(12, 1012), 2)
    _table(frame, n0)
    tracemalloc.start()
    try:
        table = _table(frame, n0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= frame.n_ssus * (2 + 4) * 8
    assert table.class_rows.size == frame.n_psus + 1
    _same_at_every_interval(frame, table, n0)
    rng = np.random.default_rng(n0)
    psus = rng.integers(0, frame.n_psus, size=10**5)
    starts = rng.random(10**5)
    _same(table.subtotal_estimates(psus, starts), _gathered(frame, psus, starts, n0))


def test_change_points_are_searched_once_per_size(monkeypatch):
    """The build bisects the change points of the distinct sizes only, not of every PSU.

    Coordinate j of a size moves once per integer between its positions at
    the first and the last grid point, and each move is one bisected change
    point; 60 PSUs of 5 sizes must bisect the 5 sizes' moves.
    """
    frame = _frame(np.resize([9, 14, 23, 40, 5], 60), 2)
    searched = []
    real = designs._first_reaching

    def counting(a, j, top, target, lo, hi):
        searched.append(target.size)
        return real(a, j, top, target, lo, hi)

    monkeypatch.setattr(designs, "_first_reaching", counting)
    table = _table(frame, 5)
    once = np.unique(frame.sizes, return_index=True)[1]
    moves = (systematic_positions(frame, once, np.full(once.size, 1.0 - GRID), 5)
             - systematic_positions(frame, once, np.zeros(once.size), 5)).sum()
    assert sum(searched) == moves
    # and each class keeps its rows once
    assert table.class_rows.size == once.size + 1
    assert (np.diff(table.psu_rows) == np.diff(table.class_rows)[table.psu_class]).all()


class TestBrackets:
    def _moves(self, sizes, n0):
        """(a, j, top, target, first k) of every coordinate move of PSUs of these sizes."""
        sizes = np.asarray(sizes, dtype=np.int64)
        a, top = sizes / n0, sizes - 1
        psu, coord = np.divmod(np.arange(sizes.size * n0), n0)
        target = designs._systematic_offsets(a[psu], coord, 0.0, top[psu]).astype(np.int64) + 1
        keep = target <= top[psu]
        psu, coord, target = psu[keep], coord[keep], target[keep]
        whole = np.full(target.size, GRID_POINTS - 1)
        k = designs._first_reaching(a[psu], coord, top[psu], target, np.zeros_like(whole),
                                    whole.copy())
        return a[psu], coord, top[psu], target, k

    def test_a_failed_bracket_falls_back_to_the_whole_grid(self):
        a, j, top, target, k = self._moves([13, 29, 40, 41], 3)
        for shift in (-50, 50, 1 << 40):
            lo = np.clip(k + shift - 3, 0, GRID_POINTS - 2)
            _same(designs._first_reaching(a, j, top, target, lo, lo + 2), k)

    def test_a_change_point_off_the_grid_raises(self):
        a, j, top, target, k = self._moves([13, 29], 3)
        whole = np.full(target.size, GRID_POINTS - 1)
        with pytest.raises(ValueError, match="outside the grid"):
            designs._first_reaching(a, j, top, target - 1, np.zeros_like(whole), whole)

    def test_a_start_off_the_grid_is_refused(self):
        table = _table(_frame([5, 8], 1), 2)
        for start in (2.0 ** -60, 1.0, -GRID):
            with pytest.raises(ValueError, match="starts must be k"):
                table.rows_at(np.array([1]), np.array([start]))


@pytest.mark.parametrize("p", [1, 3])
def test_draw_matches_the_second_stage_engine(p):
    """A block's lookups at the starts read with its SI draws (``fresh_si_draws``) equal
    ``second_stage_estimates`` drawing each row's starts after its ``si_order``."""
    frame = _frame(np.resize([9, 14, 23, 40, 5], 60), p)
    table = _table(frame, 5)
    keys = substream_keys(3, "table", indices=range(7)).tolist()
    block = [reset_stream(new_stream(), key) for key in keys]
    alone = [reset_stream(new_stream(), key) for key in keys]
    starts = np.full((7, 30), np.nan)
    psus = resolve_si_orders(fresh_si_draws(frame.n_psus, 30, block, keys, starts))
    _same(psus, np.stack([si_order(frame.n_psus, 30, rng) for rng in alone]))
    want, _ = second_stage_estimates(frame, frame.values, None, psus, "SYSTEMATIC", 5, alone)
    _same(table.subtotal_estimates(psus, starts), want)
    assert [r.random(3).tolist() for r in block] == [r.random(3).tolist() for r in alone]


@pytest.mark.parametrize("p, with_vhat", [(1, False), (3, False), (3, True)])
def test_estimates_written_into_out_keep_their_bits(p, with_vhat):
    """``out`` receives what a fresh array would hold; a wrong shape or layout is refused."""
    frame = _frame([9, 14, 23, 40, 5], p)
    psus = np.array([0, 3, 3, 1, 4, 2])
    rows = systematic_positions(frame, psus, np.linspace(0.0, 0.9, psus.size), 5)
    want, want_v = psu_subtotal_estimates(frame, frame.values, psus, rows, 5, with_vhat)
    out = np.full((psus.size, p), np.nan)
    got, got_v = psu_subtotal_estimates(frame, frame.values, psus, rows, 5, with_vhat, out=out)
    assert got is out
    _same(out, want)
    if with_vhat:
        _same(got_v, want_v)
    for bad in (np.empty((psus.size + 1, p)), np.empty((psus.size, p + 1))[:, :p]):
        with pytest.raises(ValueError, match="out must be a C-contiguous"):
            psu_subtotal_estimates(frame, frame.values, psus, rows, 5, out=bad)
