"""Bit shaping: embed bits, a 1-D array of 0s and 1s, into a
conditionally-distributed symbol sequence, exactly invertibly.

``shape`` runs the range *decoder* over the input bits against the
model row that the side sequence picks at each position — the same
trick as bits-back coding: uniform bits in, model-distributed symbols
out.  It works k samples at a time, on the channel's k-th extension
(``coder.QuantizedModel.kernel_form``): each k side samples are one
side tuple, which picks a row of the extension, and each decoded
symbol is a tuple of k samples, so a shaped block is a whole number
of tuples.  Unshaping is a plain re-encode of the tuples keyed by the
same side tuples: ``deshape_raw`` returns the re-encoded bytes and
their settled bit count, and ``check_unshaped`` checks them against
the payload length ``m``, whose bits are the first ``m`` of those
bytes.

Shaping stops at the first tuple after which all ``m`` payload bits
are settled, and the decoder's shift count alone tells when that is.
By prefix duality (see ``_kernels``), re-encoding the symbols decoded
so far writes one byte per shift, and the payload's bytes are final
once a later byte that is not 0xFF is written.  The first byte wholly
past the payload, byte ceil(m/8) counting from 0, is a window of the
pad, and no 8-bit window of the pad is 0x00 or 0xFF, so that byte is
not 0xFF whether or not a carry is pending.  The payload is therefore
settled exactly when the shift count first exceeds ceil(m/8).

The input is padded with a fixed repeating 64-bit pattern rather than
zeros.  The pad serves two jobs: it gives the decoder bits to chew on
past the payload, and its known values make corruption detectable —
``check_unshaped`` verifies that every settled bit beyond position
``m`` matches the pad.
"""

from __future__ import annotations

import numpy as np

from . import _kernels
from .bits import as_bytes, as_int, as_symbols
from .coder import QuantizedModel, range_encode, to_tuples
from .errors import ShapingError

__all__ = ["PAD_PATTERN", "shape", "deshape_raw", "check_unshaped"]

PAD_PATTERN = b"\xb4\x5a\x1c\xe3\x8f\x26\xd9\x71"
_PAD_BITS = np.unpackbits(np.frombuffer(PAD_PATTERN, dtype=np.uint8))


def shape(bits, side, cm: QuantizedModel) -> tuple[np.ndarray, int]:
    """Turn bits, a 1-D array of 0s and 1s, into symbols distributed per
    cm's rows, keyed by side, k samples at a time (``cm.kernel_form``),
    into one tuple buffer that each ``shape_kernel`` call fills a span of.

    Returns (symbols, consumed_side_count), the symbols at cm's
    alphabet width (uint8 up to 256 symbols, else uint16); the counts
    are equal — each emitted tuple of k symbols consumes one side tuple
    of k samples, so both are k times the tuples shaped.  Raises
    ShapingError on bits that are not 1-D 0s and 1s, on a side that is
    not cm's row indices, or if the side's whole tuples run out before
    the bits settle.
    """
    # packbits would read any nonzero value as a 1, without a word.
    bits = as_symbols(bits, 2, ShapingError, "bits")
    side_arr = as_symbols(side, len(cm.freq), ShapingError, "side")
    m = bits.size
    form = cm.kernel_form()
    k = form.k

    # The shaper reads four stream bytes, then one per shift, and stops
    # after the tuple whose renormalisation takes the shift count past
    # ceil(m/8); that renormalisation shifts at most ceil(q/8) <= 3
    # bytes, so it reads at most 4 + ceil(m/8) + 3 <= m//8 + 8 bytes: the
    # bits and the pad's first 64 - m % 8 bits.
    stream = np.packbits(np.concatenate(
        [bits.astype(np.uint8, copy=False), _PAD_BITS[:64 - m % 8]]))
    # The buffer holds a tuple per whole side tuple, zeroed, so only the
    # pages that tuples land in are touched.  The first call gets its
    # first max(256, 2m + 64) samples, k to a tuple.  Each NEED_MORE_SYM
    # with side to spare resumes the kernel from its returned state on
    # the next side tuples and span, doubling the total, so no tuple is
    # decoded twice and only the side tuples the kernel reaches are built.
    cap = -(-max(256, 2 * m + 64) // k)
    side_tuples = side_arr.size // k
    out = np.zeros(side_tuples, dtype=np.int64)
    state = _kernels.start_state(stream)
    done = 0
    while True:
        end = min(cap, side_tuples)
        given = to_tuples(side_arr[k * done:k * end], form.row_place)
        ntup, state, status = _kernels.shape_kernel(
            stream, m, given, form.cum, form.slots, cm.precision,
            out[done:end], state)
        done += int(ntup)
        if status == _kernels.OK:
            return form.digits.take(out[:done], axis=0).ravel(), k * done
        if status == _kernels.NEED_MORE_SYM and end < side_tuples:
            cap *= 2
            continue
        if status == _kernels.NEED_MORE_SYM:
            raise ShapingError(
                f"side provider exhausted after {k * done} symbols "
                f"({side_arr.size} available)"
            )
        if status == _kernels.ERR_RANGE:
            raise ShapingError("side symbol outside the model's rows")
        raise ShapingError(f"shaper failed with status {status}")


def deshape_raw(xhat, x, cm: QuantizedModel) -> tuple[bytes, int]:
    """Re-encode (xhat, x), k samples at a time as ``shape`` made them,
    and return (all flushed bytes, settled bit count).

    The first `settled` bits are exactly the bits shape() consumed.  The
    caller learns the payload length m from those bytes (the codec parses
    a frame out of them), checks it with ``check_unshaped``, and takes
    the payload as their first m bits.  Raises ShapingError unless xhat
    and x are one length, a whole number of cm's k-sample tuples.
    """
    sym = as_symbols(xhat, cm.size, ShapingError, "xhat")
    rows = as_symbols(x, len(cm.freq), ShapingError, "x")
    if sym.size != rows.size:
        raise ShapingError("xhat and x must be of equal length")
    form = cm.kernel_form()
    if sym.size % form.k:
        raise ShapingError(
            f"shaped blocks are whole {form.k}-sample tuples, and {sym.size} "
            f"samples are not")
    data, settled = range_encode(to_tuples(sym, form.place),
                                 to_tuples(rows, form.row_place), form,
                                 ShapingError)
    return data, 8 * settled


def check_unshaped(data: bytes, settled: int, m: int):
    """Check that the first m bits of `data`, a ``deshape_raw`` output
    with `settled` settled bits, are a payload that shape() consumed
    whole: all m bits are settled, and the settled bits past them are
    the pad.  Raises ShapingError otherwise, or unless `data` is a byte
    buffer, m a count and `settled` an integer up to 8 * len(data)."""
    data = as_bytes(data, ShapingError, "data")
    m = as_int(m, 0, None, ShapingError, "m")
    settled = as_int(settled, None, 8 * len(data), ShapingError, "settled")
    if settled < m:
        raise ShapingError(
            f"re-encoded sequence settles only {settled} bits, fewer than "
            f"the {m} of its payload: inconsistent inputs"
        )
    tail = np.unpackbits(np.frombuffer(data, dtype=np.uint8)[m // 8:],
                         count=settled - m // 8 * 8)[m % 8:]
    bad = np.flatnonzero(tail != np.resize(_PAD_BITS, tail.size))
    if bad.size:
        raise ShapingError(
            f"pad mismatch at bit {m + int(bad[0])}: (xhat, x) does not "
            f"deshape to an m={m} bit string"
        )
