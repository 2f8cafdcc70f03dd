"""Low-level helpers: the one symbol-array check, LEB128 varints for
the frame and header fields, and the FNV-1a hash of model tables.

Symbols and bits are 1-D integer arrays below a size: the alphabet's,
or 2 for bits, which need no container.  ``as_symbols`` is the one
check, and each entry point calls it with its own error type.  Bytes
hold bits MSB-first, as ``np.packbits`` and ``np.unpackbits`` do.
"""

from __future__ import annotations

import numpy as np

from .errors import StreamFormatError

__all__ = [
    "as_symbols",
    "write_uvarint",
    "read_uvarint",
    "fnv1a64",
]


def as_symbols(arr, size: int | None, error: type[Exception],
               name: str) -> np.ndarray:
    """`arr` as a contiguous 1-D int64 array of symbols in [0, size), or
    raise `error` about argument `name`: for any other shape, a dtype
    not integer or bool (a float would be truncated), or a value out of
    range.  Empty 1-D input of any dtype passes; size None skips range."""
    stem = f"{name} must be 1-D integers" + (
        "" if size is None else f" in [0, {size})")
    try:
        a = np.asarray(arr)
    except (TypeError, ValueError):  # a ragged nested sequence
        raise error(f"{stem}, not a ragged sequence") from None
    if a.ndim != 1 or (a.size and a.dtype.kind not in "biu"):
        raise error(f"{stem}, not a {a.ndim}-D {a.dtype} array")
    if size is not None and a.size:
        lo, hi = a.min(), a.max()
        if lo < 0 or hi >= size:
            raise error(f"{stem}; {lo if lo < 0 else hi} is outside alphabet")
    return np.ascontiguousarray(a, dtype=np.int64)


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
