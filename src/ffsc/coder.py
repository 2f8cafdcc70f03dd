"""Lossless entropy coding for i.i.d. models with exact framing.

A ``QuantizedModel`` is rows of integer frequencies over one alphabet:
the reconstruction's marginal is one row, and the test channel
p(xhat|x) one row per source symbol x.

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
from .bits import as_int, as_symbols, fnv1a64, read_uvarint, write_uvarint
from .errors import CodingError, QuantizationError, TruncatedFrameError
from .model import Pmf, TestChannel

__all__ = [
    "QuantizedModel",
    "Frame",
    "quantize",
    "quantize_channel",
    "compress",
    "decode_frame_prefix",
    "model_digest",
]


@dataclass(frozen=True, eq=False)
class QuantizedModel:
    """Rows of integer frequencies, each with total 2^precision; a 1-D
    ``freq`` is one row.

    Symbols whose true probability is positive always get frequency
    >= 1 (so they stay codable); true zeros stay zero (so impossible
    symbols are detected instead of silently coded).  ``freq`` (a copy
    of the caller's), ``cum`` and ``slots`` (``_kernels.slot_table``)
    are 2-D, one row per model row, built once and read-only.
    """

    freq: np.ndarray
    precision: int
    cum: np.ndarray = field(init=False)
    slots: np.ndarray = field(init=False)

    def __post_init__(self):
        q = as_int(self.precision, 2, 24, QuantizationError, "precision")
        object.__setattr__(self, "precision", q)
        total = 1 << q
        try:
            f = np.array(self.freq)  # the copy
        except (TypeError, ValueError):  # a ragged nested sequence
            raise QuantizationError("freq rows differ in length") from None
        if f.ndim == 1:
            f = f[None]
        if f.ndim != 2 or not len(f):
            raise QuantizationError(
                f"freq must be one or more rows, not shape {f.shape}")
        f = as_symbols(f.ravel(), total + 1, QuantizationError,
                       "freq").reshape(f.shape)
        sums = f.sum(axis=1)
        if (sums != total).any():
            raise QuantizationError(f"rows sum to {sums}, expected {total}")
        cum = np.zeros((len(f), f.shape[1] + 1), dtype=np.int64)
        np.cumsum(f, axis=1, out=cum[:, 1:])
        slots = np.stack([_kernels.slot_table(row, q) for row in cum])
        for name, table in (("freq", f), ("cum", cum), ("slots", slots)):
            table.setflags(write=False)
            object.__setattr__(self, name, table)

    @property
    def size(self) -> int:
        return self.freq.shape[1]


def quantize(p: Pmf, precision: int) -> QuantizedModel:
    """Largest-remainder rounding of a pmf to integer frequencies.

    Positive-probability symbols are guaranteed frequency >= 1, taking
    units from the largest entries if rounding starved any of them.
    """
    total = 1 << as_int(precision, 2, 24, QuantizationError, "precision")
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


def quantize_channel(ch: TestChannel, precision: int) -> QuantizedModel:
    """One ``quantize``d row per input symbol of the channel."""
    return QuantizedModel(np.concatenate([
        quantize(Pmf(row), precision).freq
        for row in ch.rows
    ]), precision)


def model_digest(marginal: QuantizedModel, channel: QuantizedModel) -> int:
    """64-bit fingerprint of the quantized tables (FNV-1a)."""
    return fnv1a64(b"".join([
        marginal.precision.to_bytes(1, "little"),
        marginal.size.to_bytes(2, "little"),
        marginal.freq.astype("<u4").tobytes(),
        len(channel.freq).to_bytes(2, "little"),
        channel.freq.astype("<u4").tobytes(),
    ]))


@dataclass(frozen=True, eq=False)
class Frame:
    """Self-delimiting coded block: varint symbol count + payload bytes."""

    symbol_count: int
    payload: bytes

    def __post_init__(self):
        object.__setattr__(self, "symbol_count", as_int(
            self.symbol_count, 0, None, CodingError, "symbol count"))

    def to_bytes(self) -> bytes:
        return write_uvarint(self.symbol_count) + self.payload


def range_encode(symbols: np.ndarray, rows, model: QuantizedModel,
                 error: type[Exception]) -> tuple[bytes, int]:
    """Range-code each symbol s against the model's row x (`rows` holds
    the x, or is one x for all) as the flat index x * (size + 1) + s.
    The caller checks s and x, which a flat index cannot see.  Returns
    (all flushed bytes, settled bytes before the flush); raises `error`."""
    bound = _kernels.encoded_bytes_bound(symbols.size, model.precision)
    buf = np.empty(bound, dtype=np.uint8)
    nbytes, settled, status = _kernels.encode_kernel(
        rows * (model.size + 1) + symbols, model.cum.ravel(),
        model.precision, buf)
    if status == _kernels.OK:
        return buf[:nbytes].tobytes(), int(settled)
    if status == _kernels.ERR_ZERO_FREQ:
        raise error("symbol with zero model frequency")
    raise error(f"range encoder failed with status {status}")


def compress(symbols, model: QuantizedModel) -> Frame:
    """Entropy-code an i.i.d. symbol sequence into a frame against the
    model's row 0."""
    sym = as_symbols(symbols, model.size, CodingError, "symbols")
    return Frame(int(sym.size), range_encode(sym, 0, model, CodingError)[0])


def decode_frame_prefix(data, model: QuantizedModel,
                        limit: int) -> tuple[np.ndarray, int]:
    """Decode a frame, coded with row 0, at the start of `data`.

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
    limit = as_int(limit, 0, None, CodingError, "limit")
    raw = bytes(data)
    count, off = read_uvarint(raw)
    if count > limit:
        raise CodingError(
            f"frame declares {count} symbols, more than the {limit} "
            f"expected; refusing to decode"
        )
    out = np.empty(count, dtype=np.int64)
    shifts, status = _kernels.decode_kernel(
        np.frombuffer(raw, dtype=np.uint8)[off:], count, model.cum[0],
        model.slots[0], model.precision, out,
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
