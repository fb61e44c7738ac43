"""Portable deterministic random numbers (SplitMix64).

Every randomized routine in the package draws from this generator so that
identical seeds reproduce identical results on any platform and Python
version.  Stream splitting rule: substream k of master seed s is a SplitMix64
stream whose initial state is mix64(s XOR k*GOLDEN).  Monte Carlo drivers give
trial k its own substream, so results do not depend on scheduling order.
Because substreams are independent, `substream_uniforms` draws a whole block
of them at once in numpy uint64 arithmetic, bit for bit equal to the scalar
generator.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def mix64(z: int) -> int:
    """Finalizer of SplitMix64; a 64-bit bijective scramble."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """64-bit generator with constant-time jump-free substreams."""

    def __init__(self, seed: int):
        self.state = mix64(seed & MASK64)

    @classmethod
    def substream(cls, seed: int, stream: int) -> "SplitMix64":
        return cls((seed ^ (stream * GOLDEN)) & MASK64)

    def next_u64(self) -> int:
        self.state = (self.state + GOLDEN) & MASK64
        return mix64(self.state)

    def uniform(self) -> float:
        """Float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n) (rejection-free modulo bias is fine
        at n << 2^64, but use rejection to keep it exactly uniform)."""
        if n <= 0:
            raise ValueError("n must be positive")
        limit = MASK64 - (MASK64 % n) - 1
        while True:
            u = self.next_u64()
            if u <= limit:
                return u % n

    def shuffle(self, items: list) -> list:
        """In-place Fisher-Yates; returns the list."""
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]
        return items


def _mix64_array(z: np.ndarray) -> np.ndarray:
    """`mix64` in place on a uint64 array (numpy products wrap mod 2^64)."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def substream_uniforms(seed: int, lo: int, hi: int, k: int) -> np.ndarray:
    """The first k `uniform()` draws of substreams lo..hi-1 of `seed`, as a
    float64 array of shape (hi - lo, k): row i equals the draws of
    `SplitMix64.substream(seed, lo + i)` bit for bit."""
    streams = np.arange(hi - lo, dtype=np.uint64)
    streams += np.uint64(lo & MASK64)
    streams *= np.uint64(GOLDEN)
    state = _mix64_array(streams ^ np.uint64(seed & MASK64))
    steps = np.arange(1, k + 1, dtype=np.uint64)
    steps *= np.uint64(GOLDEN)
    z = _mix64_array(state[:, None] + steps)
    return (z >> np.uint64(11)) * 2.0 ** -53
