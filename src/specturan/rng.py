"""Deterministic pseudo-random numbers for reproducible experiments.

All randomized code in this package draws from SplitMix64 (Steele, Lea &
Flood 2014; the constants below are the published ones used in
``java.util.SplittableRandom`` and the xoshiro reference seeders).  The
point of hand-rolling a 20-line generator instead of using a platform RNG
is that any reimplementation of this tool, in any language, can reproduce
our experiment reports bit for bit from the seed alone.

`SplitMix64.below_many` draws a whole vector of bounded integers at once
with numpy.  It is the same stream as calling `below` once per bound:
the i-th word after state s is mix(s + i * GAMMA) in wrapping 64-bit
arithmetic, so the words are computed side by side, and the scalar
`below` takes over at the first word its rejection test refuses.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """SplitMix64 stream seeded by a 64-bit integer."""

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        """Next 64-bit output word."""
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound) by rejection (no modulo bias)."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            w = self.next_u64()
            if w < limit:
                return w % bound

    def below_many(self, bounds) -> np.ndarray:
        """`[self.below(b) for b in bounds]` as a uint64 array, leaving the
        generator in the state those calls would; each bound must lie in
        [1, 2^64)."""
        bounds = np.asarray(bounds, dtype=np.uint64)
        if (bounds == 0).any():
            raise ValueError("bound must be positive")
        out = np.empty(len(bounds), dtype=np.uint64)
        start = 0
        while start < len(bounds):
            b = bounds[start:]
            words = _mix(
                np.uint64(self._state)
                + np.arange(1, len(b) + 1, dtype=np.uint64) * np.uint64(_GAMMA)
            )
            # `below` accepts w < 2^64 - (2^64 mod b); 2^64 mod b is (-b) mod b.
            rem = (np.uint64(0) - b) % b
            rejected = (rem != 0) & (words >= np.uint64(0) - rem)
            take = int(rejected.argmax()) if rejected.any() else len(b)
            out[start : start + take] = words[:take] % b[:take]
            self._state = (self._state + take * _GAMMA) & _MASK64
            start += take
            if start < len(bounds):
                out[start] = self.below(int(bounds[start]))
                start += 1
        return out


def _mix(z: np.ndarray) -> np.ndarray:
    """The SplitMix64 output function on an array of states."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))
