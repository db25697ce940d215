"""Differential tests of the block draw kernels against the scalar loops.

``rng._bounded_draws`` and ``rng._uniform_below`` decode numpy's bounded
integers and its doubles' comparisons from raw Philox words; they are
checked against numpy itself, so a numpy that changes either rule fails
here (``tests/test_rng.py`` checks the rest of the decoder).
``designs.fresh_si_draws`` draws a block of Fisher-Yates rows from the raw
words of fresh streams, ``designs.resolve_si_orders`` resolves such rows at
once and ``designs.systematic_positions`` places a block of systematic
samples; both must give every row the bits that ``si_order`` and the
one-sample placement of ``oracles.second_stage_rows`` give it on its own.
The chunked SI key matrix and the mask of ``si_order_excluding`` must not
move a bit either.
"""
import math
import re
import tracemalloc

import numpy as np
import pytest

import twostage.designs as designs
from twostage import Frame, substream
import twostage.rng as rng_module
from twostage.rng import _bounded_draws, _uniform_below, new_stream, reset_stream, substream_keys
from twostage.designs import (
    fresh_si_draws,
    resolve_si_orders,
    second_stage_estimates,
    si_draws,
    si_order,
    si_order_excluding,
    systematic_positions,
)

import oracles


def _block(n_population: int, n: int, rows: int, tag) -> tuple[np.ndarray, np.ndarray]:
    """(draws, si_order's samples) of ``rows`` streams, each drawn on its own."""
    draws = np.array([si_draws(n_population, n, substream(11, *tag, b)) for b in range(rows)])
    loop = np.array([si_order(n_population, n, substream(11, *tag, b)) for b in range(rows)])
    return draws.reshape(rows, n), loop.reshape(rows, n)


def _same(a: np.ndarray, b: np.ndarray) -> None:
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


def _live_state(rng: np.random.Generator) -> str:
    """The stream's state, less the 32-bit half that a cleared flag leaves unread."""
    state = rng.bit_generator.state
    if not state["has_uint32"]:
        state["uinteger"] = 0
    return repr(state)


class TestFreshSiDraws:
    """Rows drawn from raw words at once equal si_draws row by row, and leave each stream alike."""

    @pytest.mark.parametrize("n_population, n", [
        (2000, 200), (2000, 199), (7, 7), (8, 8), (2, 1), (2, 2), (1, 1), (50, 49),
        # ranges near 2^31 reject about half their words, so rows redraw
        ((1 << 31) + 1, 6), ((1 << 31) + 3, 7), (1 << 32, 5), ((1 << 32) + 1, 4),
    ])
    def test_matches_si_draws_row_by_row(self, n_population, n):
        keys = substream_keys(12, "fresh", n_population, indices=range(40)).tolist()
        block = [reset_stream(new_stream(), key) for key in keys]
        alone = [reset_stream(new_stream(), key) for key in keys]
        got = fresh_si_draws(n_population, n, block, keys)
        _same(got, np.stack([si_draws(n_population, n, rng) for rng in alone]))
        assert [_live_state(r) for r in block] == [_live_state(r) for r in alone]
        # a 32-bit draw and a double next read the same words
        for a, b in zip(block, alone):
            assert a.integers(0, 1000, size=3).tolist() == b.integers(0, 1000, size=3).tolist()
            assert a.random() == b.random()

    @pytest.mark.parametrize("n_population, n", [
        (2000, 200), (2000, 199), (7, 7), (8, 8), (2, 1), (1, 1),
        # about half the rows redraw: they and the odd counts are drawn by numpy
        ((1 << 31) + 1, 6), ((1 << 31) + 3, 7), ((1 << 32) + 1, 4),
    ])
    def test_starts_come_from_the_same_read(self, n_population, n):
        """The starts are each stream's next random(n), and each stream is left where it is
        then, also when one generator reads every row."""
        keys = substream_keys(16, "starts", n_population, indices=range(40)).tolist()
        block = [reset_stream(new_stream(), key) for key in keys]
        alone = [reset_stream(new_stream(), key) for key in keys]
        want = np.stack([si_draws(n_population, n, rng) for rng in alone])
        want_starts = np.stack([rng.random(n) for rng in alone])
        for rngs in (block, [new_stream()] * len(keys)):
            starts = np.full((len(keys), n), np.nan)
            _same(fresh_si_draws(n_population, n, rngs, keys, starts), want)
            _same(starts, want_starts)
        assert [_live_state(r) for r in block] == [_live_state(r) for r in alone]
        for a, b in zip(block, alone):
            assert a.integers(0, 1000, size=3).tolist() == b.integers(0, 1000, size=3).tolist()

    @pytest.mark.parametrize("pairs", [
        [(5, 5), (7, 3), (2000, 199)],  # a one-unit range in the middle, an odd total
        [(3, 1), (3, 3), (1, 1), (4, 2)],
        [(1500, 20)] * 11,  # criterion 7's strata
    ])
    def test_pairs_match_consecutive_si_draws(self, pairs):
        keys = substream_keys(15, "pairs", len(pairs), indices=range(40)).tolist()
        block = [reset_stream(new_stream(), key) for key in keys]
        alone = [reset_stream(new_stream(), key) for key in keys]
        got = fresh_si_draws([N for N, _ in pairs], [n for _, n in pairs], block, keys)
        _same(got, np.stack([np.concatenate([si_draws(N, n, rng) for N, n in pairs])
                             for rng in alone]))
        assert [_live_state(r) for r in block] == [_live_state(r) for r in alone]

    def test_rows_that_redraw_are_replayed(self, monkeypatch):
        n_population = (1 << 31) + 1  # 2^32 mod r is about r: half the words are rejected
        keys = substream_keys(13, "fresh", indices=range(16)).tolist()
        rngs = [reset_stream(new_stream(), key) for key in keys]
        flagged, replayed = [], []  # rows the decode hands back, and the streams restarted

        def decode(*args):
            draws, used, scalar = _bounded_draws(*args)
            flagged.extend(np.flatnonzero(scalar).tolist())
            return draws, used, scalar

        monkeypatch.setattr(rng_module, "_bounded_draws", decode)
        monkeypatch.setattr(rng_module, "reset_stream",
                            lambda rng, key: replayed.append(key) or reset_stream(rng, key))
        got = fresh_si_draws(n_population, 3, rngs, keys)
        assert 0 < len(replayed) < len(keys)
        assert replayed == [keys[b] for b in flagged]
        want = np.stack([si_draws(n_population, 3, reset_stream(new_stream(), key))
                         for key in keys])
        _same(got, want)

    def test_refuses_what_si_draws_refuses(self):
        keys = substream_keys(14, "fresh", indices=range(2)).tolist()
        rngs = [reset_stream(new_stream(), key) for key in keys]
        for n_population, n in ((5, 6), (5, 0)):
            with pytest.raises(ValueError, match="need 1 <= n <= N"):
                fresh_si_draws(n_population, n, rngs, keys)


def _fresh(key) -> np.random.Generator:
    return reset_stream(new_stream(), key)


def _reading(words) -> np.random.Generator:
    """A generator whose next raw words are ``words`` (at most 4): its Philox buffer."""
    rng = new_stream()
    state = rng.bit_generator.state
    state["buffer"][4 - len(words):] = words
    state["buffer_pos"] = 4 - len(words)
    rng.bit_generator.state = state
    return rng


class TestBoundedDraws:
    """The raw-word decode against numpy's own draws from the same streams."""

    KEYS = substream_keys(21, "decode", indices=range(64)).tolist()

    def _words(self, halves: int) -> np.ndarray:
        return np.stack([_fresh(key).bit_generator.random_raw(-(-halves // 2))
                         for key in self.KEYS])

    @pytest.mark.parametrize("N, n", [(2, 7), (5, 2), (500, 50), (2000, 20), (50000, 50),
                                      (1 << 32, 9)])
    def test_a_fixed_range_fill(self, N, n):
        draws, used, scalar = _bounded_draws(self._words(n), np.full(n, N))
        assert not scalar.any() and (used == n).all()
        _same(draws, np.stack([_fresh(key).integers(0, N, size=n) for key in self.KEYS]))

    @pytest.mark.parametrize("N, n", [(3, 2), (7, 6), (2000, 199), (50000, 50)])
    def test_the_array_low_path(self, N, n):
        draws, _, scalar = _bounded_draws(self._words(n), N - np.arange(n))
        assert not scalar.any()
        _same(draws + np.arange(n),
              np.stack([_fresh(key).integers(np.arange(n), N) for key in self.KEYS]))

    def test_an_odd_count_leaves_its_other_half_for_the_next_draw(self):
        for key in self.KEYS[:16]:
            rng = _fresh(key)
            first = rng.integers(0, 500, size=3)
            assert rng.bit_generator.state["has_uint32"] == 1
            following = rng.integers(np.arange(2), 700)
            words = _fresh(key).bit_generator.random_raw(3)[None]
            draws, _, _ = _bounded_draws(words, [500, 500, 500, 700, 699])
            _same(draws[0], np.concatenate([first, following - np.arange(2)]))
            # a read that starts at the cached half gives the same draws
            _same(_bounded_draws(words, [700, 699], 3)[0][0], following - [0, 1])

    @pytest.mark.parametrize("n_I, N", [(10, 100), (100, 1000), (20, 2000), (50, 500), (5, 6),
                                        (1, 3), (50, 50000)])
    def test_the_bernoulli_threshold_at_its_boundary_words(self, n_I, N):
        f = n_I / N
        t = math.ceil(f * 2.0**53) << 11
        words = np.array([t - 1, t, t - 2048, t + 2047], dtype=np.uint64)
        assert _uniform_below(words, f).tolist() == [True, False, True, False]
        _same(_uniform_below(words, f), _reading(words).random(4) < f)

    def test_a_row_that_numpy_redraws(self):
        r = (1 << 31) + 1  # 2^32 mod r = 2^31 - 1: a low half x redraws when x r mod 2^32 is below
        words = np.array([[0 | 5 << 32], [1 | 5 << 32]], dtype=np.uint64)  # x = 0, then x = 1
        draws, _, scalar = _bounded_draws(words, [r])
        assert scalar.tolist() == [True, False]
        # numpy reads the next half where the decode flags a redraw, and agrees elsewhere
        assert _reading(words[0]).integers(0, r) == _bounded_draws(words[:1], [r], 1)[0][0, 0]
        assert _reading(words[1]).integers(0, r) == draws[1, 0]
        assert draws[0, 0] != _reading(words[0]).integers(0, r)


class TestResolveSiOrders:
    @pytest.mark.parametrize("n_population, n", [
        (1, 1), (2, 1), (2, 2), (7, 1), (7, 7), (59, 59), (59, 30),
        (2049, 1), (2049, 2049), (5000, 200),
    ])
    @pytest.mark.parametrize("rows", [1, 2, 7, 63, 64])
    def test_matches_the_scalar_loop(self, n_population, n, rows):
        draws, loop = _block(n_population, n, rows, ("fixed", n_population, n))
        _same(resolve_si_orders(draws), loop)

    def test_dense_random_cases(self):
        """Frames under 60 PSUs, where repeat draws and displacement chains are common."""
        rng = np.random.default_rng(20261018)
        for case in range(300):
            n_population = int(rng.integers(1, 60))
            n = n_population if case % 4 == 0 else int(rng.integers(1, n_population + 1))
            rows = int(rng.integers(1, 65))
            draws, loop = _block(n_population, n, rows, ("dense", case))
            _same(resolve_si_orders(draws), loop)

    def test_every_row_is_a_set_of_distinct_units(self):
        draws, _ = _block(40, 40, 64, ("perm",))
        orders = resolve_si_orders(draws)
        assert (np.sort(orders, axis=1) == np.arange(40)).all()

    def test_the_input_is_not_written(self):
        draws, _ = _block(30, 20, 5, ("ro",))
        before = draws.copy()
        resolve_si_orders(draws)
        _same(draws, before)


def _sized_frame(sizes) -> Frame:
    sizes = np.asarray(sizes, dtype=np.int64)
    values = np.random.default_rng(4).normal(size=(int(sizes.sum()), 2))
    return Frame(values, sizes)


class TestSystematicPositions:
    FRAME = _sized_frame([3, 10, 7, 25, 4, 4, 13, 6])

    @pytest.mark.parametrize("n0", [1, 3, 4])
    def test_one_row_matches_the_oracle(self, n0):
        psus = np.array([3, 4, 6, 6, 1, 7])
        for rep in range(5):
            ref = oracles.second_stage_rows(self.FRAME, psus, "SYSTEMATIC", n0,
                                            substream(12, n0, rep))
            starts = substream(12, n0, rep).random(psus.size)
            _same(systematic_positions(self.FRAME, psus, starts, n0), ref)

    @pytest.mark.parametrize("rows", [1, 5, 64])
    def test_a_block_matches_every_row_placed_on_its_own(self, rows):
        psus = np.random.default_rng(rows).integers(0, self.FRAME.n_psus, size=(rows, 6))
        starts = np.array([substream(17, rows, b).random(6) for b in range(rows)])
        block = systematic_positions(self.FRAME, psus, starts, 3)
        assert block.shape == (rows, 6, 3)
        for b in range(rows):
            _same(block[b], oracles.second_stage_rows(self.FRAME, psus[b], "SYSTEMATIC", 3,
                                                      substream(17, rows, b)))

    def test_a_psu_smaller_than_n0_raises_the_same_error(self):
        psus = np.array([[1, 4], [3, 0]])
        for method in ("SI", "SYSTEMATIC"):
            with pytest.raises(ValueError, match="^n0 exceeds the size of a selected PSU$"):
                second_stage_estimates(self.FRAME, self.FRAME.values, self.FRAME.subtotals,
                                       psus, method, 4, (substream(1), substream(2)))
        with pytest.raises(ValueError, match="^n0 exceeds the size of a selected PSU$"):
            systematic_positions(self.FRAME, psus, np.full((2, 2), 0.5), 4)


class TestChunkedSiKeys:
    @pytest.mark.parametrize("cells", [1, 20, 64, 1000])
    @pytest.mark.parametrize("with_vhat", [False, True])
    def test_any_chunk_size_gives_the_one_matrix_bits(self, monkeypatch, cells, with_vhat):
        frame = _sized_frame([3, 10, 7, 25, 4, 4, 13, 6])
        psus = np.resize([3, 0, 6, 6, 1, 7, 2], 23)
        monkeypatch.setattr(designs, "_KEY_CELLS", cells)
        new = second_stage_estimates(frame, frame.values, frame.subtotals, psus[None], "SI", 3,
                                     (substream(13, cells),), with_vhat=with_vhat)
        old = oracles.subsample_estimates(frame, frame.values, psus, "SI", 3,
                                          substream(13, cells), with_vhat=with_vhat)
        for a, b in zip(new, old):
            if b is None:
                assert a is None
            else:
                _same(a[0], b)

    def test_one_huge_psu_does_not_grow_the_key_matrix(self):
        """64 sampled PSUs with one of 2**17 SSUs: one (64, 2**17) matrix would need 64 MiB."""
        sizes = np.full(64, 4, dtype=np.int64)
        sizes[17] = 1 << 17
        frame = Frame(np.zeros((int(sizes.sum()), 1)), sizes)
        psus = np.arange(64)
        tracemalloc.start()
        try:
            y_hat, _ = second_stage_estimates(frame, frame.values, frame.subtotals, psus[None],
                                              "SI", 2, (substream(14),))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert y_hat.shape == (1, 64, 1)
        assert peak < 24 << 20


class TestSiOrderExcluding:
    CASES = [
        (10, 4, [0, 1, 2]),
        (10, 4, [2, 2, 2, 5]),  # repeats count once
        (10, 0, [1, 1]),
        (10, 8, [3, 3, 8]),  # every available unit
        (2047, 30, np.arange(0, 2047, 3)),
        (2048, 500, np.arange(500)),  # rejection branch
        (2048, 900, np.arange(200)),  # 2 * (200 + 900) > 2048: the mask branch
        (4096, 1000, np.repeat(np.arange(600), 2)),  # the repeats leave it to rejection
        (4096, 1500, np.repeat(np.arange(600), 2)),  # still the mask branch
        (100000, 5, [7]),
    ]

    @pytest.mark.parametrize("n_population, n, exclude", CASES)
    def test_matches_the_set_version(self, n_population, n, exclude):
        exclude = np.asarray(exclude, dtype=np.int64)
        for rep in range(3):
            out = si_order_excluding(n_population, n, exclude, substream(15, n_population, rep))
            ref = oracles.si_order_excluding_sets(n_population, n, exclude,
                                                  substream(15, n_population, rep))
            _same(out, ref)
            assert not set(out.tolist()) & set(exclude.tolist())

    @pytest.mark.parametrize("n_population, n, exclude", [
        (10, 8, [0, 1, 1, 2]), (10, -1, []), (3000, 2999, [5, 5]), (3000, 0, [])])
    def test_raises_as_the_set_version(self, n_population, n, exclude):
        exclude = np.asarray(exclude, dtype=np.int64)
        try:
            ref = oracles.si_order_excluding_sets(n_population, n, exclude, substream(16))
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                si_order_excluding(n_population, n, exclude, substream(16))
        else:
            _same(si_order_excluding(n_population, n, exclude, substream(16)), ref)
