"""Bit-exact containers and low-level byte helpers.

A ``BitString`` is an immutable sequence of bits with an exact length,
packed MSB-first into bytes.  Exactness matters here: frames and shaped
blocks are defined down to the bit, and a stray pad bit flipping from 0
to 1 must be detectable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import StreamFormatError

__all__ = [
    "BitString",
    "write_uvarint",
    "read_uvarint",
    "fnv1a64",
]


@dataclass(frozen=True)
class BitString:
    """Immutable bit sequence: packed bytes plus an exact bit count.

    Bits are stored MSB-first, so bit ``i`` lives at byte ``i // 8``,
    mask ``0x80 >> (i % 8)``.  Any pad bits in the final byte are forced
    to zero, which makes equality on (data, length) well defined.
    """

    data: bytes
    length: int

    def __post_init__(self):
        if self.length < 0:
            raise ValueError("negative bit length")
        need = (self.length + 7) // 8
        if len(self.data) != need:
            raise ValueError(
                f"byte buffer has {len(self.data)} bytes, expected {need} "
                f"for {self.length} bits"
            )
        # Canonicalize: zero the unused low bits of the last byte.
        rem = self.length % 8
        if rem and self.data:
            mask = (0xFF << (8 - rem)) & 0xFF
            last = self.data[-1] & mask
            if last != self.data[-1]:
                object.__setattr__(self, "data", self.data[:-1] + bytes([last]))

    # -- constructors ------------------------------------------------

    @classmethod
    def from_bits(cls, bits) -> "BitString":
        arr = np.asarray(bits, dtype=np.uint8)
        if arr.ndim != 1:
            arr = arr.ravel()
        if arr.size and (arr.max() > 1):
            raise ValueError("bits must be 0 or 1")
        return cls(np.packbits(arr).tobytes(), int(arr.size))

    @classmethod
    def from_bytes(cls, data: bytes) -> "BitString":
        return cls(bytes(data), 8 * len(data))

    # -- accessors ---------------------------------------------------

    def __len__(self) -> int:
        return self.length

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.length:
            raise IndexError(i)
        return (self.data[i >> 3] >> (7 - (i & 7))) & 1

    def to_array(self) -> np.ndarray:
        """Return the bits as a uint8 array of exactly `length` entries."""
        return np.unpackbits(np.frombuffer(self.data, dtype=np.uint8),
                             count=self.length)

    def __repr__(self) -> str:
        head = "".join(str(self[i]) for i in range(min(self.length, 24)))
        tail = "..." if self.length > 24 else ""
        return f"BitString({self.length} bits: {head}{tail})"


# -- varints ---------------------------------------------------------

def write_uvarint(value: int) -> bytes:
    """LEB128-encode a non-negative integer (7 bits per byte, LSB group first)."""
    if value < 0:
        raise ValueError("uvarint must be non-negative")
    out = bytearray()
    while True:
        b = value & 0x7F
        value >>= 7
        if value:
            out.append(b | 0x80)
        else:
            out.append(b)
            return bytes(out)


def read_uvarint(data: bytes) -> tuple[int, int]:
    """Decode the LEB128 varint at the start of `data`; returns (value,
    its length in bytes)."""
    value = 0
    shift = 0
    pos = 0
    while True:
        if pos >= len(data):
            raise StreamFormatError("truncated varint")
        b = data[pos]
        pos += 1
        value |= (b & 0x7F) << shift
        if not (b & 0x80):
            return value, pos
        shift += 7
        if shift > 63:
            raise StreamFormatError("varint too long")


# -- hashing ---------------------------------------------------------

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def fnv1a64(data: bytes) -> int:
    """FNV-1a 64-bit hash, used to fingerprint quantized model tables."""
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return h
