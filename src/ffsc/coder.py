"""Lossless entropy coding for i.i.d. models with exact framing.

A ``QuantizedModel`` is rows of integer frequencies over one alphabet:
the reconstruction's marginal is one row, and the test channel
p(xhat|x) one row per source symbol x.

Both the frames and the shaper (see ``shaping``) code samples k at a
time, as symbols of the model's k-th extension: the memoryless source
of k-sample tuples, whose rows are the products of the model's rows.
A model builds its extension once, in its kernel form
(``QuantizedModel.kernel_form``), the one coded view of its rows: the
extension's table, its rows as the kernels take them, and the place
values and digits that turn samples into tuple indices and back.  One
rule gives k for every table: the largest value with (rows * size)^k
<= 4096 cells, size^k <= min(256, 2^(precision - 8)) symbols per row
and fmin^k >= (2^precision)^(k - 1), fmin the least nonzero frequency
of any row.  The last bound gives every nonzero tuple an exact product
of at least one unit, so rounding, which must give each tuple a unit,
moves almost no mass onto rare tuples (Moffat, Neal & Witten,
"Arithmetic coding revisited", 1998); it is integer arithmetic on the
quantized rows, so a decoder derives the same k on any platform.  The
256 keeps a row within the decoder's slot buckets, and 2^(precision -
8) keeps the units a row's tuples must get within 1/256 of its total.
At precision 16, uniform frames keep k = 8, 5 and 4 on 2, 3 and 4
symbols; the BSC(0.11) gets k = 5, the solver's ternary and 4-ary
D = 0.15 channels k = 3, and skewed tables less: BSC(0.001) and a
(0.999, 0.001) frame code sample by sample.  A tuple is indexed in base
size (base rows for a tuple of row indices), its first sample the most
significant digit, as coding the samples one by one would order them.

A ``Frame`` is a varint sample count n followed by a byte-aligned
payload, which codes the samples as ceil(n/k) symbols of row 0 of the
extension; the last tuple is padded with the form's ``pad``, the row's
most frequent symbol (the lowest such index), which the decoder
requires.  By the coder's deterministic flush (see ``_kernels``), the
decoder recomputes the payload length from the sample count, so frames
are self-delimiting without a separate length field, and both
truncation and trailing garbage are detectable.

Where row 0 of the extension holds 2^b equal frequencies, as a uniform
source's marginal on 2^a symbols gives with b = a * k, the range coder
only copies bits, and the frames skip its loops (the form's ``bits``
is b, or 0 for any other row).  Each tuple's frequency is 2^(q - b),
so with range a power of two 2^R >= 2^24, r = 2^(R - q) leaves no
remainder and the tuple's interval is [low + c * 2^(R - b), + 2^(R -
b)): low stays a multiple of the range, never carries, and each byte
shifted out is the next eight bits of the tuple indices' b-bit string,
first tuple first.  low, a multiple of the range, is its own least
multiple of 2^23, so the flush writes the next 16 bits.  N tuples
shift s = max(0, ceil((N * b - 8) / 8)) times, so the payload is the
string padded to whole bytes and then one zero byte, or two zero bytes
for no tuples.  On any input the decoder's code stays below its range
2^R: it starts so, each tuple takes its top b bits, c = code >> (R -
b), and leaves the rest below 2^(R - b), and a shift scales both by
2^8.  So the code is always the next R bits of the payload, and each
decoded tuple the next b bits.  ``_pack_tuples`` and ``_unpack_tuples``
write and read that string with numpy, and a payload shorter than
s + 2 bytes is refused from its length before anything is allocated,
with the shift count the loops would stop at.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import _kernels
from .bits import (as_bytes, as_int, as_symbols, fnv1a64, read_uvarint,
                   write_uvarint)
from .errors import CodingError, QuantizationError, TruncatedFrameError
from .model import MAX_SYMBOLS, Pmf, TestChannel

__all__ = [
    "MIN_PRECISION",
    "MAX_PRECISION",
    "QuantizedModel",
    "Frame",
    "quantize",
    "quantize_channel",
    "compress",
    "decode_frame_prefix",
    "model_digest",
]

# Bounds of a table's precision q: at q = 2 a binary row can first be skewed
# (1 and 3 of 4), and the kernels' range stays >= 2^24, so range >> q >= 1.
MIN_PRECISION, MAX_PRECISION = 2, 24
# An extension has at most this many cells, rows times symbols, and a row
# at most as many symbols as the decoder has slot buckets.
_MAX_CELLS = 4096
_MAX_ROW = 1 << _kernels._SLOT_BITS
# A model's extension as the kernels and tuple indices take it.
KernelForm = namedtuple(
    "KernelForm", "k pad table cum flat slots place row_place digits bits")


@dataclass(frozen=True, eq=False)
class QuantizedModel:
    """Rows of integer frequencies, each with total 2^precision; a 1-D
    ``freq`` is one row.

    Symbols whose true probability is positive always get frequency
    >= 1 (so they stay codable); true zeros stay zero (so impossible
    symbols are detected instead of silently coded).  ``freq`` (a copy
    of the caller's) and ``cum`` are 2-D, one row per model row, built
    once and read-only, and so is the kernel form of the model's k-th
    extension (``kernel_form``), where every coded view of them lives.
    """

    freq: np.ndarray
    precision: int
    cum: np.ndarray = field(init=False)

    def __post_init__(self):
        q = as_int(self.precision, MIN_PRECISION, MAX_PRECISION,
                   QuantizationError, "precision")
        object.__setattr__(self, "precision", q)
        total = 1 << q
        try:
            f = np.array(self.freq)  # the copy
        except (TypeError, ValueError):  # a ragged nested sequence
            raise QuantizationError("freq rows differ in length") from None
        if f.ndim == 1:
            f = f[None]
        if f.ndim != 2 or not len(f) or max(f.shape) > MAX_SYMBOLS:
            raise QuantizationError(
                f"freq must be 1 to {MAX_SYMBOLS} rows of at most "
                f"{MAX_SYMBOLS} symbols, not shape {f.shape}")
        f = as_symbols(f.ravel(), total + 1, QuantizationError,
                       "freq").astype(np.int64, copy=False).reshape(f.shape)
        sums = f.sum(axis=1)
        if (sums != total).any():
            raise QuantizationError(f"rows sum to {sums}, expected {total}")
        cum = np.zeros((len(f), f.shape[1] + 1), dtype=np.int64)
        np.cumsum(f, axis=1, out=cum[:, 1:])
        for name, table in (("freq", f), ("cum", cum)):
            table.setflags(write=False)
            object.__setattr__(self, name, table)

    @property
    def size(self) -> int:
        return self.freq.shape[1]

    def kernel_form(self) -> KernelForm:
        """How these rows are coded: (k, pad, table, cum, flat, slots,
        place, row_place, digits, bits), built on the first call and shared
        by every later one.  Samples are coded k at a time as symbols of
        `table`, the k-th extension (see the module docstring), whose
        rows are the products of the quantized rows, so ``model_digest``
        covers them, each rounded back to 2^precision by ``quantize``'s
        rule.  `cum`, `flat` (its rows end to end) and `slots` (the
        decoder's slot rows) are the table's in the kernels' input form
        (``_kernels.kernel_form``).  ``to_tuples`` indexes sample tuples
        with `place` and row tuples with `row_place`, each in the
        narrowest dtype that holds its largest tuple index; digits[c]
        are the samples of tuple c at the alphabet's width,
        ``np.min_scalar_type(size - 1)``, so the blocks built from them
        are too.  Frames code row 0 of `table` and pad their last tuple
        with `pad`, row 0's most frequent symbol (the lowest such
        index); `bits` is b if row 0 holds 2^b equal frequencies, whose
        frames skip the coder loops (see the module docstring), else 0.
        """
        form = self.__dict__.get("_form")
        if form is None:
            rows, size = self.freq.shape
            total = 1 << self.precision
            fmin = int(self.freq[self.freq > 0].min())
            k = 1
            while (1 < (rows * size) ** (k + 1) <= _MAX_CELLS
                   and size ** (k + 1) <= min(_MAX_ROW, total >> 8)
                   and fmin ** (k + 1) >= total ** k):
                k += 1
            p = self.freq / total  # exact: dyadic rationals
            probs = p
            for _ in range(k - 1):  # each later sample is a lower digit
                probs = np.kron(probs, p)
            ext = _quantize_rows(probs, self.precision)
            place = size ** np.arange(k - 1, -1, -1)
            row = ext.freq[0]
            form = KernelForm(
                k, int(np.argmax(self.freq[0])), ext,
                *_kernels.kernel_form(ext.cum, self.precision),
                place.astype(np.min_scalar_type(size ** k - 1)),
                (rows ** np.arange(k - 1, -1, -1)).astype(
                    np.min_scalar_type(rows ** k - 1)),
                (np.arange(size ** k)[:, None] // place % size).astype(
                    np.min_scalar_type(size - 1)),
                (ext.size.bit_length() - 1 if ext.size > 1
                 and (row == row[0]).all() else 0))
            # setdefault is atomic, so racing threads still share one form
            form = self.__dict__.setdefault("_form", form)
        return form


def to_tuples(samples: np.ndarray, place: np.ndarray) -> np.ndarray:
    """Each k consecutive samples as one int64 tuple index, with the
    place values `place` of its k digits (``QuantizedModel.kernel_form``),
    the first sample the most significant; the sample count is a
    multiple of k.  The product is taken in the wider of the two dtypes,
    and `place`'s holds every tuple index, so narrow samples are not
    widened to int64: only the tuple indices are, for the kernels."""
    return (samples.reshape(-1, place.size) @ place).astype(np.int64,
                                                             copy=False)


def quantize(p: Pmf, precision: int) -> QuantizedModel:
    """Largest-remainder rounding of a pmf to integer frequencies.

    Positive-probability symbols are guaranteed frequency >= 1, taking
    units from the largest entries if rounding starved any of them.
    """
    return _quantize_rows([p.probs], precision)


def _quantize_rows(rows, precision) -> QuantizedModel:
    """A model of the pmfs `rows`, each rounded by ``_round``: the one
    way every table, a prior's, a channel's or an extension's, is
    built from probabilities."""
    total = 1 << as_int(precision, MIN_PRECISION, MAX_PRECISION,
                        QuantizationError, "precision")
    return QuantizedModel([_round(row, total) for row in rows], precision)


def _round(probs: np.ndarray, total: int) -> np.ndarray:
    """``quantize``'s rounding of the pmf `probs` to integers summing
    to `total`."""
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
    return freq


def quantize_channel(ch: TestChannel, precision: int) -> QuantizedModel:
    """One ``quantize``d row per input symbol of the channel."""
    return _quantize_rows(ch.rows, precision)


@lru_cache(maxsize=8)
def model_digest(marginal: QuantizedModel, channel: QuantizedModel) -> int:
    """64-bit fingerprint of the quantized tables (FNV-1a).  The symbol
    and row counts take 2 bytes each, which ``model.MAX_SYMBOLS`` bounds.
    Cached by the read-only tables' identities, as ``codec._quantized``."""
    return fnv1a64(b"".join([
        marginal.precision.to_bytes(1, "little"),
        marginal.size.to_bytes(2, "little"),
        marginal.freq.astype("<u4").tobytes(),
        len(channel.freq).to_bytes(2, "little"),
        channel.freq.astype("<u4").tobytes(),
    ]))


@dataclass(frozen=True, eq=False)
class Frame:
    """Self-delimiting coded block: varint sample count + payload bytes."""

    symbol_count: int
    payload: bytes

    def __post_init__(self):
        object.__setattr__(self, "symbol_count", as_int(
            self.symbol_count, 0, None, CodingError, "symbol count"))
        object.__setattr__(self, "payload", as_bytes(
            self.payload, CodingError, "payload"))

    def to_bytes(self) -> bytes:
        return write_uvarint(self.symbol_count) + self.payload


def range_encode(codes: np.ndarray, rows, form: KernelForm,
                 error: type[Exception]) -> tuple[bytes, int]:
    """Range-code each tuple c against row x of the form's table (`rows`
    holds the x, or is None for row 0 throughout) as the flat index
    x * (size + 1) + c.  The caller checks c and x, which a flat index
    cannot see.  Returns (all flushed bytes, settled bytes before the
    flush); raises `error`."""
    table = form.table
    codes = codes if rows is None else rows * (table.size + 1) + codes
    buf = np.empty(_kernels.encoded_bytes_bound(codes.size, table.precision),
                   dtype=np.uint8)
    nbytes, settled, status = _kernels.encode_kernel(
        codes, form.flat, table.precision, buf)
    if status == _kernels.OK:
        return buf[:nbytes].tobytes(), int(settled)
    if status == _kernels.ERR_ZERO_FREQ:
        raise error("symbol with zero model frequency")
    raise error(f"range encoder failed with status {status}")


def _pack_tuples(codes: np.ndarray, bits: int) -> bytes:
    """What the range encoder writes for `codes` on a row of 2^bits
    equal frequencies, in closed form (see the module docstring): each
    code as `bits` bits, most significant first and the first code
    first, padded to a whole byte, then one zero byte, or two if there
    are no codes."""
    if not codes.size:
        return bytes(2)
    if bits == 8:  # uniform binary and 4-ary frames from q = 16: bytes
        return codes.astype(np.uint8).tobytes() + b"\0"
    width = -(-bits // 8)  # bytes per code, big-endian
    code_bits = np.unpackbits(
        codes.astype(f">u{width}").view(np.uint8).reshape(-1, width), axis=1)
    return np.packbits(code_bits[:, 8 * width - bits:]).tobytes() + b"\0"


def _unpack_tuples(data: np.ndarray, count: int, bits: int):
    """``decode_kernel`` on a row of 2^bits equal frequencies, in closed
    form (see the module docstring): (shifts, status, codes), the codes
    being the first `count` groups of `bits` bits of the uint8 payload
    `data`, or None unless the status is OK.  A payload too short for
    the frame is refused before anything is allocated, with the shift
    count at which the decoder stops: its first shift past len(data) - 2,
    or its last."""
    shifts = max(0, -(-(count * bits - 8) // 8))
    if shifts + 2 > data.size:
        return min(shifts, max(1, data.size - 1)), _kernels.TRUNCATED, None
    if bits == 8:
        return shifts, _kernels.OK, data[:count]
    width = -(-bits // 8)
    code_bits = np.unpackbits(data, count=count * bits).reshape(count, bits)
    codes = np.packbits(code_bits, axis=1).view(f">u{width}").ravel()
    return shifts, _kernels.OK, codes >> (8 * width - bits)


def compress(symbols, model: QuantizedModel) -> Frame:
    """Entropy-code an i.i.d. symbol sequence into a frame against the
    model's row 0, k samples per coded tuple (``kernel_form``).  A row
    of 2^b equal frequencies (the form's `bits` b) is coded in closed
    form, by ``_pack_tuples``, and any other by the range encoder; the
    bytes are the same either way."""
    sym = as_symbols(symbols, model.size, CodingError, "symbols")
    form = model.kernel_form()
    whole = sym.size - sym.size % form.k
    codes = to_tuples(sym[:whole], form.place)
    if whole < sym.size:  # only the last tuple is built padded
        last = np.full(form.k, form.pad)
        last[:sym.size - whole] = sym[whole:]
        codes = np.append(codes, last @ form.place)
    return Frame(sym.size, _pack_tuples(codes, form.bits) if form.bits
                 else range_encode(codes, None, form, CodingError)[0])


def decode_frame_prefix(data, model: QuantizedModel,
                        limit: int) -> tuple[np.ndarray, int]:
    """Decode a frame, coded with row 0, at the start of `data`.

    Returns (symbols, total frame length in bytes), the symbols at the
    model's alphabet width: uint8 up to 256 symbols, else uint16.  Bytes
    after the frame are ignored, which is exactly what the feedforward
    decoder needs: a deshaped bit buffer contains one frame followed by
    pad bits.  `limit` counts samples, as the frame's varint does, not
    coded tuples.  Raises CodingError if the frame declares more than
    `limit` samples, before reserving room for them: on a skewed model
    a few bytes can validly hold millions of samples, so only the
    caller knows how many it can accept.  Raises TruncatedFrameError if
    `data` cannot even hold the frame it declares, and CodingError if
    the frame's last byte is not one the flush can write or its last
    tuple is not padded with the kernel form's pad.  Frames of a dyadic
    row (``compress``) are read in closed form, by ``_unpack_tuples``,
    and any other by the range decoder, with the same results.
    """
    limit = as_int(limit, 0, None, CodingError, "limit")
    raw = as_bytes(data, CodingError, "data")
    count, off = read_uvarint(raw)
    if count > limit:
        raise CodingError(
            f"frame declares {count} samples, more than the {limit} "
            f"expected; refusing to decode"
        )
    form = model.kernel_form()
    tuples = -(-count // form.k)
    payload = np.frombuffer(raw, dtype=np.uint8)[off:]
    if form.bits:
        shifts, status, out = _unpack_tuples(payload, tuples, form.bits)
    else:
        out = np.empty(tuples, dtype=np.int64)
        shifts, status = _kernels.decode_kernel(
            payload, tuples, form.cum, form.slots, model.precision, out)
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
    samples = form.digits.take(out, axis=0).ravel()
    if (samples[count:] != form.pad).any():
        raise CodingError(f"frame's last tuple is not padded with {form.pad}")
    return samples[:count], nbytes
