"""Carry-correct byte-wise range coder (reference implementation).

This is the test oracle for ``ffsc._kernels``, the package's one range
coder: nothing in the package imports it.  The two properties that
both implement, prefix duality and the deterministic flush, are stated
in ``_kernels``'s module docstring.

The per-symbol update gives the last nonzero-frequency symbol the full
remainder of the range (``range - r*start`` instead of ``r*freq``) so
no probability mass is wasted on the truncation residue.

The hot loops live in ``_kernels`` (numba-compiled when available);
this module is the readable reference that the kernels are tested
against, byte for byte.  ``_kernels.encode_kernel`` reports its settled
prefix by ``RangeEncoder.settled_count``'s rule.
"""

from __future__ import annotations

from ffsc.bits import as_int
from ffsc.errors import CodingError

__all__ = ["RangeEncoder", "RangeDecoder", "TOP", "BOTTOM_BITS"]

MASK32 = 0xFFFFFFFF
TOP = 1 << 24          # renormalize while range < TOP
BOTTOM_BITS = 23       # flush rounds low up to a multiple of 2^23
RANGE_INIT = 1 << 32   # full initial interval; keeps code < range strict


class RangeEncoder:
    """Streaming encoder over cumulative-frequency tables with total 2^q."""

    def __init__(self, precision: int):
        self.precision = as_int(precision, 2, 24, CodingError, "precision")
        self.low = 0
        self.range = RANGE_INIT
        self.buf = bytearray()
        self.shifts = 0

    def _propagate_carry(self):
        i = len(self.buf) - 1
        while self.buf[i] == 0xFF:
            self.buf[i] = 0
            i -= 1
        self.buf[i] += 1

    def encode(self, start: int, freq: int):
        """Narrow the interval to [start, start+freq) / 2^precision."""
        total = 1 << self.precision
        r = self.range >> self.precision
        self.low += r * start
        if self.low > MASK32:
            self._propagate_carry()
            self.low &= MASK32
        if start + freq == total:
            self.range -= r * start
        else:
            self.range = r * freq
        while self.range < TOP:
            self.buf.append((self.low >> 24) & 0xFF)
            self.shifts += 1
            self.low = (self.low << 8) & MASK32
            self.range <<= 8

    def settled_count(self) -> int:
        """Number of leading buffer bytes no future carry can change.

        A byte is final once some later byte differs from 0xFF: carries
        propagate backward only through a trailing 0xFF run and stop at
        (by incrementing) the byte just before it.
        """
        i = len(self.buf) - 1
        while i >= 0 and self.buf[i] == 0xFF:
            i -= 1
        return max(i, 0)

    def finish(self) -> bytes:
        """Flush: emit the 2-byte terminator and return the payload."""
        z = ((self.low + (1 << BOTTOM_BITS) - 1) >> BOTTOM_BITS) << BOTTOM_BITS
        if z > MASK32:
            self._propagate_carry()
            z &= MASK32
        self.buf.append((z >> 24) & 0xFF)
        self.buf.append((z >> 16) & 0xFF)
        return bytes(self.buf)


class RangeDecoder:
    """Mirror of RangeEncoder; reads past-the-end bytes as zero."""

    def __init__(self, data: bytes, precision: int):
        self.precision = as_int(precision, 2, 24, CodingError, "precision")
        self.data = data
        self.pos = 0
        self.range = RANGE_INIT
        self.code = 0
        self.shifts = 0
        for _ in range(4):
            self.code = (self.code << 8) | self._next_byte()

    def _next_byte(self) -> int:
        b = self.data[self.pos] if self.pos < len(self.data) else 0
        self.pos += 1
        return b

    def decode_value(self) -> int:
        """Return the current scaled cumulative value in [0, 2^precision)."""
        r = self.range >> self.precision
        v = self.code // r
        total = 1 << self.precision
        return total - 1 if v >= total else v

    def consume(self, start: int, freq: int):
        """Remove the decoded symbol's interval; mirrors encode()."""
        total = 1 << self.precision
        r = self.range >> self.precision
        self.code -= r * start
        if start + freq == total:
            self.range -= r * start
        else:
            self.range = r * freq
        while self.range < TOP:
            self.code = ((self.code << 8) | self._next_byte()) & MASK32
            self.shifts += 1
            self.range <<= 8
