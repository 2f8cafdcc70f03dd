"""Scalar SplitMix64 (reference implementation).

This is the test oracle for ``ffsc.rng.SplitMix64.fill_u64``, the
package's one copy of the generator, which steps it a whole array at a
time: nothing in the package imports this module.  One call of
``next_u64`` is one step of Steele, Lea & Flood's SplittableRandom
generator, in Python integers masked to 64 bits.
"""

from __future__ import annotations

__all__ = ["SplitMix64Reference"]

MASK64 = (1 << 64) - 1


class SplitMix64Reference:
    """SplitMix64 one output at a time, from a 64-bit seed."""

    def __init__(self, seed: int):
        self._state = seed & MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)
