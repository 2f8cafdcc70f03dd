"""Low-level helpers: the four boundary checks, LEB128 varints for
the frame and header fields, and the FNV-1a hash of model tables.

Every argument from outside the package passes one check for its kind,
called with the entry point's own error type: ``as_symbols`` for symbol
and bit arrays, ``as_int`` for integers, ``as_real`` for real numbers
and ``as_bytes`` for byte streams.  Symbols and bits are 1-D integer
arrays below a size: the alphabet's, or 2 for bits, which need no
container.  A checked symbol array keeps an unsigned dtype up to
uint32, so an array held at its alphabet's width (uint8 up to 256
symbols, uint16 above) is never widened; any other integer or bool
array comes back as int64.  Bytes hold bits MSB-first, as
``np.packbits`` and ``np.unpackbits`` do.
"""

from __future__ import annotations

import numbers

import numpy as np

from .errors import StreamFormatError

__all__ = [
    "as_symbols",
    "as_int",
    "as_real",
    "as_bytes",
    "write_uvarint",
    "read_uvarint",
    "fnv1a64",
]


def as_symbols(arr, size: int | None, error: type[Exception],
               name: str) -> np.ndarray:
    """`arr` as a contiguous 1-D array of symbols in [0, size), or raise
    `error` about argument `name`: for any other shape, a dtype not
    integer or bool (a float would be truncated), or a value out of
    range.  Empty 1-D input of any dtype passes; size None skips range.
    An unsigned array of uint8 to uint32 keeps its dtype, and is `arr`
    itself when contiguous; anything else comes back as int64, uint64
    too, which numpy would promote with int64 to float64."""
    stem = f"{name} must be 1-D integers" + (
        "" if size is None else f" in [0, {size})")
    try:
        a = np.asarray(arr)
    except (TypeError, ValueError):  # a ragged nested sequence
        raise error(f"{stem}, not a ragged sequence") from None
    if a.ndim != 1 or (a.size and a.dtype.kind not in "biu"):
        raise error(f"{stem}, not a {a.ndim}-D {a.dtype} array")
    if a.dtype.kind == "u" and a.itemsize < 8:
        out = top = np.ascontiguousarray(a)
    else:
        out = np.ascontiguousarray(a, dtype=np.int64)
        top = out.view(np.uint64)  # a negative reads as >= 2^63
    # One reduction checks both ends.
    if size is not None and a.size and int(top.max()) >= size:
        lo, hi = a.min(), a.max()
        raise error(f"{stem}; {lo if lo < 0 else hi} is outside alphabet")
    return out


def as_int(value, lo: int | None, hi: int | None, error: type[Exception],
           name: str) -> int:
    """`value` as a Python int in [lo, hi], or raise `error` about
    argument `name`: for a bool, a float, a string or any other
    non-integer, or a value out of range.  A None bound is open."""
    if (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and (lo is None or lo <= value) and (hi is None or value <= hi)):
        return int(value)
    span = f"[{'-inf' if lo is None else lo}, {'inf' if hi is None else hi}]"
    raise error(f"{name} {value!r} is not an integer in {span}")


def as_real(value, lo: float, hi: float, error: type[Exception],
            name: str) -> float:
    """`value` as a Python float in [lo, hi], or raise `error` about
    argument `name`: for a bool, a string, NaN (which fails both
    comparisons) or any other non-real, or a value out of range."""
    if (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and lo <= value <= hi):
        return float(value)
    raise error(f"{name} {value!r} is not a real number, or is outside "
                f"[{lo}, {hi}]")


def as_bytes(data, error: type[Exception], name: str) -> bytes:
    """`data`, a 1-D buffer of single bytes (bytes, bytearray,
    memoryview or a 1-D uint8 array), as bytes, or raise `error` about
    argument `name`: for a str, an int, a list or any other object.  A
    bytes input is returned as the same object, not copied."""
    stem = f"{name} must be a 1-D buffer of bytes, not {type(data).__name__}"
    try:
        view = memoryview(data)
    except TypeError:  # no buffer: a str, an int, None, a list
        raise error(stem) from None
    if view.ndim != 1 or view.format != "B":
        raise error(f"{stem} of {view.ndim}-D {view.format!r} items")
    return bytes(data)


# -- varints ---------------------------------------------------------

def write_uvarint(value: int) -> bytes:
    """LEB128-encode a non-negative integer (7 bits per byte, LSB group first)."""
    value = as_int(value, 0, None, StreamFormatError, "varint")
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
    data = as_bytes(data, StreamFormatError, "varint data")
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
    data = as_bytes(data, StreamFormatError, "hashed data")
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return h
