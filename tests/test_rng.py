"""Block-derived replicate streams equal numpy's SeedSequence-seeded substreams, and the
raw-word replay of numpy's draws equals numpy's own draws from the same streams."""
import numpy as np
import pytest

import twostage.rng as rng_module
from twostage.rng import (
    _U32,
    _bounded_draws,
    _fresh_integers,
    _raw_words,
    _seek,
    _tag_word,
    key_blocks,
    new_stream,
    reset_stream,
    substream,
    substream_keys,
)

SEEDS = (0, 2**32 - 1, 2**32, 2**64 - 1, 20261018)
# indices about a power of two and at the edges of the uint32 range
EDGES = (0, 1, 1023, 1024, 1025, 2048, 2**31, 2**32 - 1)


def _reference_key(seed, path, b):
    entropy = [_tag_word(seed)] + [_tag_word(p) for p in path] + [b]
    return np.random.SeedSequence(entropy).generate_state(2, np.uint64)


def _random_path(rng):
    """0-5 tags: strings, small ints, ints of one and two uint32 words, zero."""
    path = []
    for _ in range(int(rng.integers(0, 6))):
        kind = int(rng.integers(0, 5))
        if kind == 0:
            path.append(f"tag-{int(rng.integers(0, 10**6))}")
        elif kind == 1:
            path.append(int(rng.integers(0, 100)))
        elif kind == 2:
            path.append(int(rng.integers(2**32, 2**63)))
        elif kind == 3:
            path.append(0)
        else:
            path.append(2**64 - 1)
    return path


@pytest.mark.parametrize("seed", SEEDS)
def test_keys_equal_seed_sequence(seed):
    rng = np.random.default_rng(seed % 1000)
    for _ in range(40):
        path = _random_path(rng)
        indices = np.concatenate([EDGES, rng.integers(0, 2**32, size=20)])
        keys = substream_keys(seed, *path, indices=indices)
        assert keys.shape == (indices.size, 2) and keys.dtype == np.uint64
        for b, key in zip(indices.tolist(), keys):
            assert np.array_equal(key, _reference_key(seed, path, b)), (seed, path, b)


def test_keys_of_a_range_and_of_no_index():
    keys = substream_keys(7, "mc", indices=range(1021, 1027))
    for b, key in zip(range(1021, 1027), keys):
        assert np.array_equal(key, _reference_key(7, ["mc"], b))
    assert substream_keys(7, "mc", indices=[]).shape == (0, 2)


@pytest.mark.parametrize("bad", [[-1], [2**32], [0, 2**64], [0.5]])
def test_indices_outside_one_word_rejected(bad):
    with pytest.raises(ValueError, match="2\\*\\*32"):
        substream_keys(1, "x", indices=bad)


@pytest.mark.parametrize("rows", [1, 7, 64])
@pytest.mark.parametrize("start", [0, 5, 63, 64])
@pytest.mark.parametrize("chunk", [3, 4096])
def test_key_blocks_tile_the_span_with_its_keys(monkeypatch, chunk, start, rows):
    """Blocks tile [start, end), each cut only at a multiple of ``rows`` or at the end, and hold
    the span's keys row for row as Python ints, whether a block spans key chunks or a chunk
    spans blocks."""
    monkeypatch.setattr(rng_module, "_KEY_CHUNK", chunk)
    end = start + 4096 + 37  # past one default chunk
    blocks = list(key_blocks((8, "kb", 2), start, end, rows))
    los = [lo for lo, _ in blocks]
    his = [lo + len(keys) for lo, keys in blocks]
    assert los == [start, *his[:-1]] and his[-1] == end
    assert all(lo < hi and (hi - 1) // rows == lo // rows for lo, hi in zip(los, his))
    assert all(hi % rows == 0 for hi in his[:-1])
    keys = [key for _, block in blocks for key in block]
    assert keys == substream_keys(8, "kb", 2, indices=range(start, end)).tolist()
    assert type(keys[0][0]) is int
    assert list(key_blocks((8, "kb", 2), start, start, rows)) == []


def _draws(rng):
    """One of each draw the library makes, with an odd count of 32-bit halves.

    The first draw takes 32-bit halves over a power-of-two range, which
    rejects none, so a half left over from an earlier stream would show.
    """
    return [
        rng.integers(0, 2**31, size=3, dtype=np.uint32),
        rng.integers(0, 1000, size=5),
        rng.integers(np.arange(7, dtype=np.int64), 50),
        rng.random(3),
        rng.multinomial(9, np.full(4, 0.25), size=2),
        rng.standard_normal(5),
        rng.integers(0, 2**31, size=3, dtype=np.uint32),
    ]


def test_streams_draw_what_substream_draws():
    # the one reused generator must forget its buffered 32-bit half and
    # binomial set-up between replicates
    indices = range(524, 1524)
    rng = new_stream()
    for b, key in zip(indices, substream_keys(91, "decay", 2, indices=indices).tolist()):
        for got, want in zip(_draws(reset_stream(rng, key)), _draws(substream(91, "decay", 2, b))):
            assert np.array_equal(got, want), b


def test_reset_stream_restarts_a_used_generator():
    rng = new_stream()
    rng.random(11)
    rng.integers(0, 2**31, dtype=np.uint32)
    key = substream_keys(5, "x", indices=[3]).tolist()[0]
    for got, want in zip(_draws(reset_stream(rng, key)), _draws(substream(5, "x", 3))):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("w", [0, 1, 5, 8])
def test_raw_words_read_each_stream_from_its_start(w):
    """Generators left mid-buffer with a cached 32-bit half, and one generator reused for
    every row (each row leaves it mid-buffer for the next), read each key's words from its
    stream's start and are left where that stream is after them."""
    keys = substream_keys(24, "raw", indices=range(6)).tolist()
    used = []
    for b in range(len(keys)):
        rng = substream(99, "used", b)
        rng.bit_generator.random_raw(b % 2 + 1)
        rng.integers(_U32)  # one half of a word, the other half cached
        assert rng.bit_generator.state["buffer_pos"] < 4 and rng.bit_generator.state["has_uint32"]
        used.append(rng)
    for rngs in (used, [new_stream()] * len(keys)):
        words = _raw_words(rngs, keys, w)
        assert words.shape == (len(keys), w) and words.dtype == np.uint64
        for b, (rng, key) in enumerate(zip(rngs, keys)):
            alone = substream(24, "raw", b)
            assert words[b].tolist() == alone.bit_generator.random_raw(w).tolist(), b
            if rng is not rngs[-1] or b == len(keys) - 1:  # a reused generator is the last row's
                for got, want in zip(_draws(rng), _draws(alone)):
                    assert np.array_equal(got, want), b


def _fresh(key) -> np.random.Generator:
    return reset_stream(new_stream(), key)


def _halves_read(rng: np.random.Generator) -> int:
    """The 32-bit halves a stream read since its reset: its counter, buffer and cached half."""
    state = rng.bit_generator.state
    words = 4 * (int(state["state"]["counter"][0]) - 1) + state["buffer_pos"]
    return 2 * words - state["has_uint32"]


def _live_state(rng: np.random.Generator) -> str:
    """The stream's state, less the 32-bit half that a cleared flag leaves unread."""
    state = rng.bit_generator.state
    if not state["has_uint32"]:
        state["uinteger"] = 0
    return repr(state)


def _fisher_yates_bounds(pairs) -> tuple[np.ndarray, np.ndarray]:
    """(low, high) of one ``integers`` call that draws each (N, n) pair's si_draws in turn."""
    low = np.concatenate([np.arange(n, dtype=np.int64) for _, n in pairs])
    return low, np.repeat(np.array([N for N, _ in pairs], dtype=np.int64), [n for _, n in pairs])


class TestDecoder:
    """What the decoder settles for its callers, each against numpy's draws from the same words."""

    KEYS = substream_keys(22, "decoder", indices=range(32)).tolist()

    def _words(self, w: int) -> np.ndarray:
        return np.stack([_fresh(key).bit_generator.random_raw(w) for key in self.KEYS])

    @pytest.mark.parametrize("pairs", [
        [(5, 5), (7, 3)],  # a stratum with n_l = N_l: a one-unit range in the middle of the row
        [(1, 1), (3, 3), (1, 1)],
        [(2, 2), (2000, 199)],
        [(1, 1)],
    ])
    @pytest.mark.parametrize("per_row", [False, True])
    def test_draws_and_halves_read_equal_numpys(self, pairs, per_row):
        low, high = _fisher_yates_bounds(pairs)
        ranges = np.tile(high - low, (len(self.KEYS), 1)) if per_row else high - low
        draws, used, scalar = _bounded_draws(self._words(low.size), ranges)
        assert not scalar.any()
        for b, key in enumerate(self.KEYS):
            rng = _fresh(key)
            assert (draws[b] + low).tolist() == rng.integers(low, high).tolist()
            assert used[b] == _halves_read(rng)

    @pytest.mark.parametrize("r, flagged", [(1 << 32, False), ((1 << 32) + 1, True)])
    def test_a_range_past_2_32_is_flagged(self, r, flagged):
        ranges = np.array([3, r, 5], dtype=np.uint64)
        draws, used, scalar = _bounded_draws(self._words(2), ranges)
        assert scalar.tolist() == [flagged] * len(self.KEYS)
        for b, key in enumerate(self.KEYS):
            rng = _fresh(key)
            want = [rng.integers(0, int(v)) for v in ranges]
            # numpy draws a range past 2^32 from a whole word, not from one half
            assert (_halves_read(rng) == used[b] == 3) != flagged
            if not flagged:
                assert draws[b].tolist() == want

    def test_a_row_short_of_halves_is_flagged(self):
        ranges = np.array([[1000] * 6 + [1], [1000] * 7])  # 6 and 7 halves
        keys = self.KEYS[:2]
        words = self._words(3)[:2]
        draws, used, scalar = _bounded_draws(words, ranges)
        assert used.tolist() == [6, 7] and scalar.tolist() == [False, True]
        assert draws[0].tolist() == _fresh(keys[0]).integers(0, 1000, size=6).tolist() + [0]
        # from half 1 on, the first row is short too
        assert _bounded_draws(words, ranges, 1)[2].tolist() == [True, True]


@pytest.mark.parametrize("pairs", [
    [(5, 5), (7, 3), (2000, 199)],  # a one-unit range in the middle, an odd total
    [(1500, 20)] * 11,  # criterion 7's strata
    [((1 << 31) + 1, 3), (9, 2)],  # half the first stratum's words are redrawn
    [((1 << 32) + 1, 2), (6, 3)],  # a 64-bit draw
    [(3, 3)],
    [(1, 1), (4, 1)],  # one half, after a one-unit range: no whole word is read
    [(1, 1)],
])
def test_fresh_integers_equal_per_stratum_si_draws(pairs):
    """One integers(low, high) call on the concatenated strata is the strata's si_draws in turn."""
    keys = substream_keys(23, "fresh", len(pairs), indices=range(300)).tolist()
    rngs = [new_stream() for _ in keys]
    got = _fresh_integers(rngs, keys, *_fisher_yates_bounds(pairs))
    for b, key in enumerate(keys):
        alone = _fresh(key)
        want = np.concatenate([alone.integers(np.arange(n), N) for N, n in pairs])
        assert got[b].tolist() == want.tolist(), b
        assert _live_state(rngs[b]) == _live_state(alone), b


def test_seek_leaves_the_stream_where_its_draws_do():
    """An odd count of 32-bit draws leaves the last word's other half cached."""
    rng, ref = new_stream(), new_stream()
    for key in substream_keys(6, "seek", indices=range(4)).tolist():
        for halves in range(1, 40):
            reset_stream(ref, key).integers(0, 1000, size=halves)
            _seek(rng, key, halves)
            for draw in (lambda g: g.integers(0, 2**31, size=3, dtype=np.uint32),
                         lambda g: g.random(2), lambda g: g.integers(0, 7, size=5)):
                assert draw(rng).tolist() == draw(ref).tolist(), halves
