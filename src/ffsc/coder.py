"""Lossless entropy coding for i.i.d. models with exact framing.

A ``Frame`` is a varint symbol count followed by a byte-aligned
payload.  Thanks to the coder's deterministic flush (see
``rangecoder``), the payload length in bytes always equals the number
of renormalization shifts plus two, so the decoder can recompute it —
frames are self-delimiting without a separate length field, and both
truncation and trailing garbage are detectable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .bits import as_symbols, fnv1a64, read_uvarint, write_uvarint
from .errors import (
    CodingError,
    QuantizationError,
    TruncatedFrameError,
)
from .model import Pmf, TestChannel

__all__ = [
    "QuantizedModel",
    "ConditionalModel",
    "Frame",
    "quantize",
    "quantize_channel",
    "compress",
    "decode_frame_prefix",
    "model_digest",
]


@dataclass(frozen=True, eq=False)
class QuantizedModel:
    """Integer frequency table with total 2^precision.

    Symbols whose true probability is positive always get frequency
    >= 1 (so they stay codable); true zeros stay zero (so impossible
    symbols are detected instead of silently coded).  ``cum`` is the
    cumulative table and ``slots`` the decoder's slot table
    (``_kernels.slot_table``), both built once and read-only.
    """

    freq: np.ndarray
    precision: int
    cum: np.ndarray = field(init=False)
    slots: np.ndarray = field(init=False)

    def __post_init__(self):
        if not 2 <= self.precision <= 24:
            raise QuantizationError(f"precision {self.precision} outside [2, 24]")
        total = 1 << self.precision
        f = as_symbols(self.freq, total + 1, QuantizationError, "freq").copy()
        if f.sum() != total:
            raise QuantizationError(
                f"frequencies sum to {f.sum()}, expected {total}"
            )
        f.setflags(write=False)  # the copy: the caller's array stays writable
        cum = np.zeros(f.size + 1, dtype=np.int64)
        np.cumsum(f, out=cum[1:])
        cum.setflags(write=False)
        slots = _kernels.slot_table(cum, self.precision)
        slots.setflags(write=False)
        object.__setattr__(self, "freq", f)
        object.__setattr__(self, "cum", cum)
        object.__setattr__(self, "slots", slots)

    @property
    def size(self) -> int:
        return int(self.freq.size)


@dataclass(frozen=True, eq=False)
class ConditionalModel:
    """One quantized row per conditioning symbol.  ``cum`` and ``slots``
    stack the rows' tables, built once and read-only."""

    rows: tuple[QuantizedModel, ...]
    cum: np.ndarray = field(init=False)
    slots: np.ndarray = field(init=False)

    def __post_init__(self):
        if not self.rows:
            raise QuantizationError("conditional model needs at least one row")
        precisions = {r.precision for r in self.rows}
        sizes = {r.size for r in self.rows}
        if len(precisions) != 1 or len(sizes) != 1:
            raise QuantizationError("conditional rows must share shape/precision")
        for name in ("cum", "slots"):
            table = np.stack([getattr(r, name) for r in self.rows])
            table.setflags(write=False)
            object.__setattr__(self, name, table)

    @property
    def precision(self) -> int:
        return self.rows[0].precision


def quantize(p: Pmf, precision: int) -> QuantizedModel:
    """Largest-remainder rounding of a pmf to integer frequencies.

    Positive-probability symbols are guaranteed frequency >= 1, taking
    units from the largest entries if rounding starved any of them.
    """
    if not 2 <= precision <= 24:
        raise QuantizationError(f"precision {precision} outside [2, 24]")
    total = 1 << precision
    probs = p.probs
    support = probs > 0
    if int(support.sum()) > total:
        raise QuantizationError(
            f"alphabet support {int(support.sum())} exceeds total {total}"
        )
    raw = probs * total
    freq = np.floor(raw).astype(np.int64)
    # Remainders that agree to 1e-9 are ties, and ties go to the lowest
    # index, so an ulp of solver noise cannot move a unit between symbols.
    remainder = np.round(raw - freq, 9)
    deficit = total - int(freq.sum())
    if deficit:
        order = np.argsort(-remainder, kind="stable")
        freq[order[:deficit]] += 1
    starved = np.flatnonzero(support & (freq == 0))
    for idx in starved:
        donor = int(np.argmax(freq))
        if freq[donor] <= 1:
            raise QuantizationError("cannot give every symbol a nonzero slot")
        freq[donor] -= 1
        freq[idx] += 1
    freq[~support] = 0
    if freq.sum() != total:  # pragma: no cover - accounting is exact above
        raise QuantizationError("internal rounding error")
    return QuantizedModel(freq, precision)


def quantize_channel(ch: TestChannel, precision: int) -> ConditionalModel:
    rows = tuple(
        quantize(Pmf(ch.output_alphabet, row), precision) for row in ch.rows
    )
    return ConditionalModel(rows)


def model_digest(marginal: QuantizedModel, cond: ConditionalModel) -> int:
    """64-bit fingerprint of the quantized tables (FNV-1a)."""
    parts = [
        marginal.precision.to_bytes(1, "little"),
        marginal.size.to_bytes(2, "little"),
        marginal.freq.astype("<u4").tobytes(),
        len(cond.rows).to_bytes(2, "little"),
    ]
    parts.extend(r.freq.astype("<u4").tobytes() for r in cond.rows)
    return fnv1a64(b"".join(parts))


@dataclass(frozen=True, eq=False)
class Frame:
    """Self-delimiting coded block: varint symbol count + payload bytes."""

    symbol_count: int
    payload: bytes

    def __post_init__(self):
        if self.symbol_count < 0:
            raise CodingError("negative symbol count")

    def to_bytes(self) -> bytes:
        return write_uvarint(self.symbol_count) + self.payload


def compress(symbols, model: QuantizedModel) -> Frame:
    """Entropy-code an i.i.d. symbol sequence into a frame."""
    sym = as_symbols(symbols, model.size, CodingError, "symbols")
    buf = np.empty(_kernels.encoded_bytes_bound(sym.size, model.precision),
                   dtype=np.uint8)
    nbytes, _, status = _kernels.encode_kernel(sym, model.cum,
                                               model.precision, buf)
    if status == _kernels.OK:
        return Frame(int(sym.size), buf[:nbytes].tobytes())
    if status == _kernels.ERR_RANGE:
        raise CodingError(
            f"symbol out of range for model of size {model.size}")
    if status == _kernels.ERR_ZERO_FREQ:
        raise CodingError("symbol with zero model frequency")
    raise CodingError(f"encoder failed with status {status}")


def decode_frame_prefix(data, model: QuantizedModel,
                        limit: int) -> tuple[np.ndarray, int]:
    """Decode a frame embedded at the start of `data`.

    Returns (symbols, total frame length in bytes).  Bytes after the
    frame are ignored, which is exactly what the feedforward decoder
    needs: a deshaped bit buffer contains one frame followed by pad
    bits.  Raises CodingError if the frame declares more than `limit`
    symbols, before reserving room for them: on a skewed model a few
    bytes can validly hold millions of symbols, so only the caller
    knows how many it can accept.  Raises TruncatedFrameError if
    `data` cannot even hold the frame it declares, and CodingError if
    the frame's last byte is not one the flush can write.
    """
    raw = bytes(data)
    count, off = read_uvarint(raw)
    if count > limit:
        raise CodingError(
            f"frame declares {count} symbols, more than the {limit} "
            f"expected; refusing to decode"
        )
    out = np.empty(count, dtype=np.int64)
    shifts, status = _kernels.decode_kernel(
        np.frombuffer(raw, dtype=np.uint8)[off:], count, model.cum,
        model.slots, model.precision, out,
    )
    nbytes = off + int(shifts) + 2
    if status == _kernels.TRUNCATED:
        raise TruncatedFrameError(
            f"embedded frame needs at least {nbytes} bytes, buffer has "
            f"{len(raw)}"
        )
    if status != _kernels.OK:
        raise CodingError(f"decoder failed with status {status}")
    if raw[nbytes - 1] & 0x7F:
        # the flush ends every frame with bits 16-23 of a multiple of 2^23
        raise CodingError("frame does not end in a range-coder terminator")
    return out, nbytes
