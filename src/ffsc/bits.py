"""Low-level byte helpers: LEB128 varints for the frame and header
fields, and the FNV-1a hash that fingerprints model tables.

Bits themselves need no container.  Where the codec passes bits from
one stage to the next (a frame into the shaper, a message through the
erasure pair) they are a 1-D numpy array of 0s and 1s, and bytes hold
them MSB-first, as ``np.packbits`` and ``np.unpackbits`` lay them out.
"""

from __future__ import annotations

from .errors import StreamFormatError

__all__ = [
    "write_uvarint",
    "read_uvarint",
    "fnv1a64",
]


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
