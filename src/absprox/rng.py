"""Deterministic xorshift64* pseudo-random numbers.

A tiny self-contained generator so that sampled verification points are
bit-for-bit reproducible across platforms and numpy versions.  The
recurrence is the classic xorshift64* of Vigna:

    state ^= state >> 12
    state ^= state << 25   (mod 2^64)
    state ^= state >> 27
    output = (state * 0x2545F4914F6CDD1D) mod 2^64

Doubles in [0, 1) take the top 53 bits of the output: (output >> 11) * 2^-53.
"""

from __future__ import annotations

import math

import numpy as np

_MASK = (1 << 64) - 1
_MULT = 0x2545F4914F6CDD1D
# splitmix64's golden-ratio increment; used when seed 0 would freeze the state
_SEED0_FALLBACK = 0x9E3779B97F4A7C15


class XorShift64Star:
    """xorshift64* stream.  seed=0 is remapped to a fixed nonzero state."""

    def __init__(self, seed: int = 1):
        state = seed & _MASK
        if state == 0:
            state = _SEED0_FALLBACK
        self._state = state

    def next_u64(self) -> int:
        s = self._state
        s ^= s >> 12
        s = (s ^ (s << 25)) & _MASK
        s ^= s >> 27
        self._state = s
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
        draws = [self.next_double() for _ in range(math.prod(shape))]
        out = lo + (hi - lo) * np.reshape(draws, shape)
        if out.shape != shape:
            raise ValueError(f"bounds of shape {lo.shape} and {hi.shape} "
                             f"do not give draws of shape {shape}")
        return out
