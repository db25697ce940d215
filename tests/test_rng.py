"""Block-derived replicate streams equal numpy's SeedSequence-seeded substreams."""
import numpy as np
import pytest

from twostage.rng import (
    _tag_word,
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

