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
2008).  ``uniform_vector`` steps only the first 64 states of a call in
Python; given the states s_1..s_L it gets s_{L+1}..s_{2L} as M^L applied
to the whole array, L = 64, 128, ...  M^(2^j) is applied as 8 tables of
256 images, one per byte of the state, XORed together.  The tables are
built lazily, once per process, from M's 64 basis images by repeated
squaring.  All of this is exact integer arithmetic, so every draw, and the
state a call leaves behind, is bit for bit that of sequential draws.
"""

from __future__ import annotations

import functools
import math

import numpy as np

_MASK = (1 << 64) - 1
_MULT = 0x2545F4914F6CDD1D
# splitmix64's golden-ratio increment; used when seed 0 would freeze the state
_SEED0_FALLBACK = 0x9E3779B97F4A7C15
_HEAD = 64  # states a uniform_vector call steps in Python


def _step(s: int) -> int:
    s ^= s >> 12
    s = (s ^ (s << 25)) & _MASK
    return s ^ (s >> 27)


def _apply(tables: np.ndarray, states: np.ndarray) -> np.ndarray:
    """The linear map whose byte tables are ``tables``, on uint64 ``states``."""
    # the states' bytes, least significant first on any host
    octets = states.astype("<u8", copy=False).view(np.uint8).reshape(-1, 8)
    out = tables[0][octets[:, 0]]
    for b in range(1, 8):
        out ^= tables[b][octets[:, b]]
    return out


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


class XorShift64Star:
    """xorshift64* stream.  seed=0 is remapped to a fixed nonzero state."""

    def __init__(self, seed: int = 1):
        state = seed & _MASK
        if state == 0:
            state = _SEED0_FALLBACK
        self._state = state

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
        rows are bit for bit num sequential calls with count n."""
        shape = tuple(map(int, np.atleast_1d(n)))
        lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
        count = math.prod(shape)
        states = np.empty(count, dtype=np.uint64)
        s = self._state
        for i in range(min(count, _HEAD)):
            states[i] = s = _step(s)
        done = _HEAD
        while done < count:  # M^done carries s_1..s_k to s_{done+1}..s_{done+k}
            k = min(done, count - done)
            states[done:done + k] = _apply(_jump_tables(done.bit_length() - 1), states[:k])
            done *= 2
        if count:
            self._state = int(states[-1])
        draws = ((states * np.uint64(_MULT)) >> np.uint64(11)) * 2.0**-53
        out = lo + (hi - lo) * draws.reshape(shape)
        if out.shape != shape:
            raise ValueError(f"bounds of shape {lo.shape} and {hi.shape} "
                             f"do not give draws of shape {shape}")
        return out
