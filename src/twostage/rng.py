"""Deterministic random-number streams for reproducible (parallel) simulation.

All randomness in this package flows through named substreams of a single
counter-based generator (Philox 4x64).  A substream is addressed by a master
seed plus a path of tags, e.g. ``substream(seed, "mc", 1234)`` for Monte Carlo
replicate 1234.  Substreams with distinct paths are statistically independent,
and a replicate's stream does not depend on which worker executes it, so
results are identical for any thread count or scheduling order.

Replicate loops walk their replicates in blocks (:func:`key_blocks`), which
derives a run of replicates' Philox keys at once (:func:`substream_keys`),
and reset one reused generator to each key (:func:`reset_stream`), which
gives the streams :func:`substream` gives.

It is also the one module that replays numpy's draws from raw Philox words,
so that a block of replicates is drawn at once with the bits each has alone.
"""
from __future__ import annotations

import hashlib
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "GENERATOR_ID",
    "substream",
    "substream_keys",
    "key_blocks",
    "new_stream",
    "reset_stream",
]

# Algorithm identifier recorded in output manifests/sidecars.
GENERATOR_ID = "philox4x64"

_U64 = 2**64
_U32 = 2**32
_M32 = 0xFFFFFFFF

# numpy.random.SeedSequence's hash constants (pool of 4 words)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
# key_blocks derives this many replicates' keys at a time: a derivation's fixed
# cost is spread over a few blocks, and a chunk of keys takes 64 KB
_KEY_CHUNK = 1 << 12


def _tag_word(tag: int | str) -> int:
    """Map a path component to a 64-bit entropy word (stable across runs)."""
    if isinstance(tag, (int, np.integer)):
        value = int(tag)
        if not 0 <= value < _U64:
            raise ValueError(f"integer tag out of uint64 range: {tag}")
        return value
    if isinstance(tag, str):
        digest = hashlib.blake2b(tag.encode("utf-8"), digest_size=8).digest()
        return int.from_bytes(digest, "little")
    raise TypeError(f"substream tag must be int or str, got {type(tag).__name__}")


def substream(seed: int, *path: int | str) -> np.random.Generator:
    """Return an independent generator for (seed, *path).

    Same inputs give the same stream; distinct paths give independent
    streams.  String tags are hashed with BLAKE2b so the derivation does not
    depend on the interpreter's hash randomization.
    """
    entropy = [_tag_word(seed)] + [_tag_word(p) for p in path]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


# ---------------------------------------------------------------------------
# runs of replicate streams
# ---------------------------------------------------------------------------
# The words below are Python ints where every index shares them and uint32
# arrays (one entry per index) where they depend on the index; numpy wraps
# the array arithmetic mod 2**32 and _wrap does it for the ints.


def _wrap(word):
    return word & _M32 if isinstance(word, int) else word


def _words(value: int) -> list[int]:
    """The little-endian uint32 words SeedSequence reads from one integer (0 gives [0])."""
    words = [value & _M32]
    while value := value >> 32:
        words.append(value & _M32)
    return words


class _Hash:
    """SeedSequence's hashmix, whose multiplier advances with every call."""

    def __init__(self, init: int, mult: int):
        self.const, self.mult = init, mult

    def __call__(self, word):
        word = word ^ self.const
        self.const = self.const * self.mult & _M32
        word = _wrap(word * self.const)
        return word ^ (word >> 16)


def _mix(x, y):
    word = _wrap(_wrap(_MIX_L * x) - _wrap(_MIX_R * y))
    return word ^ (word >> 16)


def substream_keys(seed: int, *path: int | str, indices: Iterable[int]) -> np.ndarray:
    """Philox keys (len(indices), 2) of ``substream(seed, *path, b)`` for every b.

    Row j equals ``SeedSequence([seed, *path, b]).generate_state(2, np.uint64)``
    for b = indices[j]: the entropy pool is mixed and read out as numpy does,
    with one uint32 array op per step for all indices.  Each index must be
    below 2**32, so that it is one entropy word.
    """
    idx = np.asarray(indices if isinstance(indices, np.ndarray) else list(indices)).ravel()
    if idx.size and (idx.dtype.kind not in "iu" or idx.min() < 0 or idx.max() >= _U32):
        raise ValueError("replicate indices must be integers in [0, 2**32)")
    entropy = [w for tag in (seed, *path) for w in _words(_tag_word(tag))]
    entropy.append(idx.astype(np.uint32))

    hashmix = _Hash(_INIT_A, _MULT_A)
    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], hashmix(word))

    # generate_state(2, uint64): the four pool words hashed once more, as
    # little-endian uint32 halves of two uint64 words
    readout = _Hash(_INIT_B, _MULT_B)
    state = np.empty((idx.size, _POOL), dtype="<u4")
    for j, word in enumerate(pool):
        state[:, j] = readout(word)
    return state.view("<u8").astype(np.uint64)


def key_blocks(stream: tuple, start: int, end: int, rows: int):
    """Yields (lo, keys) per block of replicates [start, end) cut at multiples of ``rows``: the
    keys (Python ints) of substreams (*stream, b) for b = lo, lo + 1, ..., derived
    :data:`_KEY_CHUNK` at a time."""
    keys = np.empty((0, 2), dtype=np.uint64)  # those of replicates lo.. derived so far
    lo = start
    while lo < end:
        size = min(end, (lo // rows + 1) * rows) - lo
        while len(keys) < size:  # a block may span chunks
            at = lo + len(keys)
            chunk = substream_keys(*stream, indices=range(at, min(at + _KEY_CHUNK, end)))
            keys = np.concatenate([keys, chunk])
        yield lo, keys[:size].tolist()
        keys, lo = keys[size:], lo + size


def new_stream() -> np.random.Generator:
    """A Philox generator for :func:`reset_stream` to point at a substream."""
    return np.random.Generator(np.random.Philox(0))


def _fresh_state(key: Sequence[int]) -> dict:
    """The state of a freshly seeded Philox with this key, which is all a stream's start holds."""
    return {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": key},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


def reset_stream(rng: np.random.Generator, key: Sequence[int]) -> np.random.Generator:
    """Point ``rng`` at the start of the Philox stream with this key; returns ``rng``.

    ``key`` is a row of :func:`substream_keys` as Python ints.  The state is
    the one a freshly seeded Philox has: counter 0, an empty buffer, no
    cached 32-bit half, so the draws equal ``substream``'s.
    """
    rng.bit_generator.state = _fresh_state(key)
    return rng


# ---------------------------------------------------------------------------
# numpy's draws, replayed from raw Philox words
# ---------------------------------------------------------------------------


def _raw_words(rngs: Sequence[np.random.Generator], keys: Sequence, w: int,
               then=None) -> np.ndarray:
    """(len(keys), w) raw words from the start of each key's stream, ``rngs[b]`` reset to keys[b]
    as row b is read (``rngs`` may repeat one generator: far cheaper than one per row); a given
    ``then(b, rngs[b])`` is called right after row b is read, to draw on from there.

    One fresh-stream state serves every row, only its key rewritten: a Philox stream's start
    differs in nothing else.  The state is this call's own, so concurrent calls share none."""
    state = _fresh_state(None)
    counter_and_key = state["state"]
    words = []
    for rng, key in zip(rngs, keys):
        counter_and_key["key"] = key
        rng.bit_generator.state = state
        words.append(rng.bit_generator.random_raw(w))
        if then is not None:
            then(len(words) - 1, rng)
    return np.array(words, dtype=np.uint64).reshape(len(keys), w)


def _seek(rng: np.random.Generator, key: Sequence[int], halves: int) -> None:
    """Move ``rng`` to key's stream after ``halves`` 32-bit draws, the last word's half cached."""
    reset_stream(rng, key).bit_generator.random_raw(halves // 2)
    if halves % 2:
        rng.integers(_U32)  # reads one half of a word as a range of 2^32 does


def _uniform_below(words: np.ndarray, f: float) -> np.ndarray:
    """``rng.random() < f`` of each raw word: numpy's double is (word >> 11) 2^-53."""
    return words < int(np.ceil(f * 2.0**53)) << 11


def _bounded_draws(words: np.ndarray, ranges, start: int = 0):
    """numpy's draws uniform on 0..r-1 from rows of raw Philox words: (draws, used, scalar).

    numpy draws one (2 <= r <= 2^32) as (x r) >> 32 from the stream's next
    32-bit half x (low half first), again while x r mod 2^32 < 2^32 mod r
    (Lemire, ACM TOMACS 2019); r = 1 reads no half and draws 0.  Row b draws
    ``ranges`` ((k,) or (B, k), each >= 1) from half ``start`` on, reading
    ``used[b]`` halves; ``scalar`` flags a row that redraws or runs out of
    halves, and every row if a range is past 2^32 (a 64-bit draw).
    """
    halves = np.ascontiguousarray(words, dtype="<u8").view("<u4")
    ranges = np.asarray(ranges, dtype=np.uint64)
    worded, k = ranges > 1, ranges.shape[-1]
    used = worded.sum(axis=-1) + np.zeros(len(halves), dtype=np.int64)  # per row, for (k,) too
    if start + k <= halves.shape[1] and (worded[..., 1:] <= worded[..., :-1]).all():
        x = halves[:, start:start + k].astype(np.uint64)  # the worded entries come first: a slice
    else:  # entry j reads the half after those of the worded entries before it, within the row
        at = np.minimum(start + np.cumsum(worded, axis=-1) - worded, halves.shape[1] - 1)
        x = np.take_along_axis(halves, np.broadcast_to(at, (len(halves), k)), 1).astype(np.uint64)
    x *= ranges  # exact up to 2^32: both factors are at most 2^32
    low = x & (_U32 - 1)  # numpy redraws where low < 2^32 mod r, so only where low < r
    redraw = (low < _U32 % ranges).any(axis=1) if (low < ranges).any() else False
    x >>= 32
    scalar = redraw | (start + used > halves.shape[1]) | (ranges.max(initial=0) > _U32)
    return x.view(np.int64), used, scalar


def _fresh_integers(rngs: Sequence[np.random.Generator], keys: Sequence, low, high,
                    doubles: np.ndarray | None = None) -> np.ndarray:
    """Each ``rngs[b].integers(low, high)`` ((k,) int64 bounds), reset to keys[b], drawn at once:
    whole words are decoded at once, numpy draws an odd last half and redraws a row that it would
    draw another way, so each generator is left where numpy leaves it.  A (B, d) ``doubles`` gets
    each one's next ``random(d)``: (word >> 11) 2^-53 of the next d words, or numpy's after an odd
    count of halves, drawn as each row is read, so ``rngs`` may repeat a generator."""
    ranges = high - low
    worded = np.flatnonzero(ranges > 1)
    odd = worded.size % 2
    paired = worded[:worded.size - odd]
    cut = paired[-1] + 1 if paired.size else 0  # the entries decoded from whole words
    d = 0 if doubles is None else doubles.shape[1]
    out = np.tile(low, (len(keys), 1))

    def odd_tail(b, rng):  # numpy draws the last half, caching its other half, then the doubles
        out[b, worded[-1]] += rng.integers(ranges[worded[-1]])
        if d:
            doubles[b] = rng.random(d)
    words = _raw_words(rngs, keys, paired.size // 2 + d * (1 - odd), odd_tail if odd else None)
    draws, _, scalar = _bounded_draws(words, ranges[:cut])
    out[:, :cut] += draws
    if d and not odd:
        np.multiply(words[:, paired.size // 2:] >> 11, 2.0 ** -53, out=doubles)
    for b in np.flatnonzero(scalar).tolist():
        out[b] = reset_stream(rngs[b], keys[b]).integers(low, high)
        if d:
            doubles[b] = rngs[b].random(d)
    return out
