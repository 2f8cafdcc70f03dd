"""Deterministic random number generation.

The codec's seed block must be reproducible across runs and platforms
from a 64-bit seed alone, so we pin a specific, well-known generator
(SplitMix64) rather than deferring to numpy's default bit generator,
whose stream identity we would otherwise have to freeze by version.
"""

from __future__ import annotations

import numpy as np

from .bits import as_int
from .errors import ConfigError

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """SplitMix64: a tiny, fast, well-mixed 64-bit generator.

    Reference constants from Steele, Lea & Flood's SplittableRandom.
    """

    def __init__(self, seed: int):
        self._state = as_int(seed, None, None, ConfigError, "seed") & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def fill_u64(self, count: int) -> np.ndarray:
        """Vectorized stream of `count` outputs (advances state by `count`)."""
        count = as_int(count, 0, None, ConfigError, "count")
        gamma = 0x9E3779B97F4A7C15
        idx = np.arange(1, count + 1, dtype=np.uint64)
        with np.errstate(over="ignore"):
            z = np.uint64(self._state) + idx * np.uint64(gamma)
            self._state = int(z[-1]) if count else self._state
            z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
            z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
            z = z ^ (z >> np.uint64(31))
        return z

