"""Deterministic xorshift64* pseudo-random numbers.

A tiny self-contained generator so that sampled verification points are
bit-for-bit reproducible across platforms and numpy versions.  The
recurrence is the classic xorshift64* of Vigna:

    state ^= state >> 12
    state ^= state << 25   (mod 2^64)
    state ^= state >> 27
    output = (state * 0x2545F4914F6CDD1D) mod 2^64

Doubles in [0, 1) take the top 53 bits of the output: (output >> 11) * 2^-53.

The state update is a linear map M over GF(2)^64, so a block of draws
jumps ahead instead of stepping (Haramoto et al., INFORMS J. Computing
2008).  One core, ``_states``, draws the states of several streams, the
lanes, at once.  It gets every lane's s_1 as M applied to its seed state,
and given the states s_1..s_L of every lane it gets s_{L+1}..s_{2L} as M^L
applied to all the lanes' states in one call, L = 1, 2, 4, ...  M^(2^j)
is applied as 8 tables of 256 images, one per byte of the state, XORed
together.  The tables are built lazily, once per process, from M's 64
basis images by repeated squaring.  All of this is exact integer
arithmetic, so every draw, and the state a call leaves behind, is bit for
bit that of sequential draws.  ``XorShift64Star.uniform_vector`` is the
one-lane call of that core, and ``uniform_streams`` draws a block from
each of several seeds' streams in one call.
"""

from __future__ import annotations

import functools
import math

import numpy as np

_MASK = (1 << 64) - 1
_MULT = 0x2545F4914F6CDD1D
# splitmix64's golden-ratio increment; used when seed 0 would freeze the state
_SEED0_FALLBACK = 0x9E3779B97F4A7C15


def _step(s: int) -> int:
    s ^= s >> 12
    s = (s ^ (s << 25)) & _MASK
    return s ^ (s >> 27)


def _apply(tables: np.ndarray, states: np.ndarray) -> np.ndarray:
    """The linear map whose byte tables are ``tables``, on uint64 ``states``
    of any shape."""
    # the states' bytes, least significant first on any host
    octets = np.ascontiguousarray(states, dtype="<u8").view(np.uint8).reshape(-1, 8)
    out = tables[0][octets[:, 0]]
    for b in range(1, 8):
        out ^= tables[b][octets[:, b]]
    return out.reshape(states.shape)


@functools.cache
def _jump_tables(j: int) -> np.ndarray:
    """(8, 256) byte tables of M^(2^j): entry [b, v] is M^(2^j) (v << 8b).
    The basis image of bit 8b + k is entry [b, 2^k]."""
    if j == 0:
        images = np.array([_step(1 << i) for i in range(64)], dtype=np.uint64)
    else:
        half = _jump_tables(j - 1)
        images = _apply(half, half[:, 1 << np.arange(8)].ravel())
    images = images.reshape(8, 8)
    tables = np.zeros((8, 256), dtype=np.uint64)
    for k in range(8):  # the bytes with top bit k: those below, XOR bit k's image
        tables[:, 1 << k:2 << k] = tables[:, :1 << k] ^ images[:, k:k + 1]
    tables.flags.writeable = False
    return tables


def _seed_state(seed: int) -> int:
    """A stream's initial state: the seed mod 2^64, 0 remapped to a fixed
    nonzero state."""
    return (seed & _MASK) or _SEED0_FALLBACK


def _states(lanes, count: int) -> np.ndarray:
    """The ``count`` states that follow each of the states ``lanes``, as a
    (len(lanes), count) uint64 array: row i is s_1..s_count of the stream at
    ``lanes[i]``."""
    states = np.empty((len(lanes), count), dtype=np.uint64)
    s0 = np.array(lanes, dtype=np.uint64).reshape(-1, 1)
    states[:, :1] = _apply(_jump_tables(0), s0[:, :count])  # s_1 = M s_0
    done = 1
    while done < count:  # M^done carries s_1..s_k to s_{done+1}..s_{done+k}
        k = min(done, count - done)
        states[:, done:done + k] = _apply(_jump_tables(done.bit_length() - 1), states[:, :k])
        done *= 2
    return states


def _uniform(states: np.ndarray, lo: np.ndarray, hi: np.ndarray, shape: tuple) -> np.ndarray:
    """The draws of ``states`` mapped to [lo, hi), in an array of ``shape``."""
    draws = ((states * np.uint64(_MULT)) >> np.uint64(11)) * 2.0**-53
    out = lo + (hi - lo) * draws.reshape(shape)
    if out.shape != shape:
        raise ValueError(f"bounds of shape {lo.shape} and {hi.shape} "
                         f"do not give draws of shape {shape}")
    return out


def uniform_streams(seeds, lo, hi, n) -> np.ndarray:
    """A block of draws from each seed's stream, in one call: lane i of the
    result is bit for bit ``XorShift64Star(seeds[i]).uniform_vector(lo[i],
    hi[i], n)``.  The bounds' first axis runs over the lanes, and each
    lane's bounds broadcast over the last axes of its draws."""
    shape = tuple(map(int, np.atleast_1d(n)))
    # each lane's bounds, with axes inserted between the lane axis and theirs
    lo, hi = (b.reshape(b.shape[:1] + (1,) * (len(shape) + 1 - b.ndim) + b.shape[1:])
              for b in (np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)))
    states = _states([_seed_state(seed) for seed in seeds], math.prod(shape))
    return _uniform(states, lo, hi, (len(seeds), *shape))


class XorShift64Star:
    """xorshift64* stream.  seed=0 is remapped to a fixed nonzero state."""

    def __init__(self, seed: int):
        self._state = _seed_state(seed)

    def next_u64(self) -> int:
        self._state = s = _step(self._state)
        return (s * _MULT) & _MASK

    def next_double(self) -> float:
        # top 53 bits -> [0, 1)
        return (self.next_u64() >> 11) * 2.0**-53

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.next_double()

    def uniform_vector(self, lo, hi, n) -> np.ndarray:
        """Draws uniform on [lo_i, hi_i) componentwise, the bounds broadcast
        over the last axis.  ``n`` is a count, or a shape ``(num, n)`` whose
        rows are bit for bit num sequential calls with count n.  The one-lane
        call of ``_states``, from this stream's state."""
        shape = tuple(map(int, np.atleast_1d(n)))
        lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
        [states] = _states([self._state], math.prod(shape))
        if len(states):
            self._state = int(states[-1])
        return _uniform(states, lo, hi, shape)
