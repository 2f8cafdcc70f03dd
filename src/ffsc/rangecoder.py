"""Carry-correct byte-wise range coder (reference implementation).

This is the package's single entropy-coding engine.  Two properties are
load-bearing and worth stating up front:

* **Prefix duality.**  The encoder's output buffer, at any point during
  encoding, already equals a prefix of the final byte stream except for
  a short *unsettled* suffix (a trailing run of 0xFF bytes plus the one
  byte before it) that a future carry could still increment.  A decoder
  fed the final stream therefore walks the exact same (low, range)
  trajectory, so after each shift of the decoder an encoder of the same
  symbols has written one byte more.  That is what lets the shaping
  module run the decoder alone and tell from its shift count which
  output bytes are final.

* **Deterministic flush.**  Termination emits exactly two bytes: the
  top 16 bits of the smallest multiple of 2^23 inside the final
  interval.  The payload length is therefore always
  ``renormalization_shift_count + 2`` bytes, so a decoder can recompute
  the payload length from the symbol count alone, and up to two bytes
  read past the payload's end cannot change any decoded symbol (the
  2^23 rounding leaves a margin larger than the 16 bits of slack the
  decoder may consume).

The per-symbol update gives the last nonzero-frequency symbol the full
remainder of the range (``range - r*start`` instead of ``r*freq``) so
no probability mass is wasted on the truncation residue.

The hot loops live in ``_kernels`` (numba-compiled when available);
this module is the readable reference that the kernels are tested
against, byte for byte.  ``_kernels.encode_kernel`` reports its settled
prefix by ``RangeEncoder.settled_count``'s rule.
"""

from __future__ import annotations

from .errors import CodingError

__all__ = ["RangeEncoder", "RangeDecoder", "TOP", "BOTTOM_BITS"]

MASK32 = 0xFFFFFFFF
TOP = 1 << 24          # renormalize while range < TOP
BOTTOM_BITS = 23       # flush rounds low up to a multiple of 2^23
RANGE_INIT = 1 << 32   # full initial interval; keeps code < range strict


class RangeEncoder:
    """Streaming encoder over cumulative-frequency tables with total 2^q."""

    def __init__(self, precision: int):
        if not 2 <= precision <= 24:
            raise CodingError(f"precision {precision} outside [2, 24]")
        self.precision = precision
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
        if not 2 <= precision <= 24:
            raise CodingError(f"precision {precision} outside [2, 24]")
        self.precision = precision
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
