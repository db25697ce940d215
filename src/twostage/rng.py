"""Deterministic random-number streams for reproducible (parallel) simulation.

All randomness in this package flows through named substreams of a single
counter-based generator (Philox 4x64).  A substream is addressed by a master
seed plus a path of tags, e.g. ``substream(seed, "mc", 1234)`` for Monte Carlo
replicate 1234.  Substreams with distinct paths are statistically independent,
and a replicate's stream does not depend on which worker executes it, so
results are identical for any thread count or scheduling order.

Replicate loops derive a run of replicates' Philox keys at once
(:func:`substream_keys`) and reset one reused generator to each
(:func:`reset_stream`), which gives the streams :func:`substream` gives.
"""
from __future__ import annotations

import hashlib
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "GENERATOR_ID",
    "substream",
    "substream_keys",
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


def new_stream() -> np.random.Generator:
    """A Philox generator for :func:`reset_stream` to point at a substream."""
    return np.random.Generator(np.random.Philox(0))


def reset_stream(rng: np.random.Generator, key: Sequence[int]) -> np.random.Generator:
    """Point ``rng`` at the start of the Philox stream with this key; returns ``rng``.

    ``key`` is a row of :func:`substream_keys` as Python ints.  The state is
    the one a freshly seeded Philox has: counter 0, an empty buffer, no
    cached 32-bit half, so the draws equal ``substream``'s.
    """
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": key},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng

