"""Hot loops for the range coder and the shaper.

Two loops: ``encode_kernel``, the range encoder, and ``_decode_loop``,
the range decoder.  The encoder has one mode: code c is the interval
[cum[c], cum[c+1]) of one flat table, symbol s of row x being
x * (size + 1) + s of a model's rows laid end to end (row 0 of a
frame's tuple table, or for deshaping the row of the channel's tuple
table that the side tuple picks; see ``coder.range_encode``).  The
kernel guards the table index; the caller guards the alphabet, which a
flat index cannot see (row x's symbol -1 is row x - 1's last).
Shaping is the decoder run over payload bits, so the decoder's one
symbol step has two entry points: ``decode_kernel`` decodes a frame's
k-sample tuples against row 0 of a tuple table (see ``coder``), and
``shape_kernel`` decodes k-sample tuples against the rows of the
channel's k-th extension, keyed by side tuples, until the payload is
settled (see ``shaping``).  Frames over a table whose row 0 holds 2^b
equal frequencies, as a uniform source's marginal on 2^a symbols gives,
never reach either loop: there the coder only copies bits, and
``coder`` writes and reads those bits with numpy, byte for byte what
the loops would (see ``coder``).

The decoder's step finds the symbol whose interval holds the scaled
value v by table lookup, the decode table of rANS (Duda,
arXiv:1311.2540) cut down to a few bits: ``slot_table`` splits the
2^q values into 2^min(q, 8) equal buckets and records the symbol at
each bucket's start, and the step reads that entry for v's bucket and
scans forward while the next symbol starts at or below v.  Each scan
step passes a symbol boundary inside v's bucket, so a symbol's work is
bounded by the table's symbol count, up to 256 on a one-row tuple
table, and only the buckets that hold a boundary scan at all.  A table
whose every symbol spans a bucket, as the near-uniform tuple tables of
a uniform source's marginal do, takes at most one scan step per
symbol.  ``kernel_form`` builds a table's slot rows from its cum rows,
once per table (see ``coder.QuantizedModel.kernel_form``), and the
decoder takes them beside the cum rows.

Each loop is written once, in a form numba can compile: plain-int
literals, ``len()`` rather than ``.shape``, indexing and nothing else.
Only the loops (and ``_carry``) are compiled; the two decoder entry
points are plain Python on both backends.  Without numba each loop
runs its own source as plain Python on Python ints
(``python_encode_kernel``, ``python_decode_loop``): a table goes in as
the nested lists that ``kernel_form`` builds once per table (see
``coder.KernelForm``), each call's own inputs as lists or ``bytes``,
and outputs are written through ``memoryview``s straight into the
caller's numpy buffers, so nothing is copied back and a large output
buffer is touched only where symbols land.  Arithmetic on numpy scalars
and element writes into numpy arrays cost 2-4x more per step.  The
fallback is bit-identical to the compiled loops, and the tests check
both byte for byte against a readable reference coder,
``tests/rangecoder.py``.  On 2 cores one trial of the binary benchmark
(n ~ 128k, encode and decode) takes about 0.02 s.

Kernels never raise: they return a status code so the compiled loops
stay allocation-free and exception-free.  Buffers are caller-allocated.
The encoder's output never exceeds ``encoded_bytes_bound``, which it
checks its buffer against once, on entry, and the shaper's stream has a
closed-form size too (see ``shaping.shape``), so their callers allocate
once and treat NEED_MORE_BUF and TRUNCATED as errors; ``shape``
allocates one symbol buffer and hands each call the next span of it.
The decoder's whole state is (range, code, shifts), having read
shifts + 4 bytes, so the loop takes that state and returns it:
``start_state`` reads the first four bytes for a fresh start, and on
NEED_MORE_SYM ``shape`` resumes from the returned state on the next
side tuples and span, doubling the total until the spans cover every
whole side tuple.  No symbol is decoded twice.  The decoder returns TRUNCATED as
soon as it has shifted in more bytes than its input holds; between
shifts its work is bounded by the symbol count it is given, which its
caller caps.  All arithmetic is int64: the largest intermediate,
low + r*start < 2^33, is far below overflow.

**Prefix duality.**  At any point, the encoder's buffer equals a prefix
of the final stream except for an *unsettled* suffix, a trailing run of
0xFF bytes and the byte before it, that a later carry could still
increment.  A decoder fed the final stream walks the same (low, range)
trajectory, so after each decoder shift an encoder of the same symbols
has written one byte more: the shaper runs the decoder alone and tells
from its shift count which output bytes are final.

**Deterministic flush.**  Termination emits exactly two bytes, the top
16 bits of the smallest multiple of 2^23 in the final interval.  A
payload is therefore always shifts + 2 bytes long, so a decoder
recomputes its length from the symbol count alone, and up to two bytes
read past its end change no decoded symbol: the 2^23 rounding leaves
more margin than the 16 bits of slack the decoder consumes.
"""

from __future__ import annotations

import numpy as np

OK = 0
ERR_ZERO_FREQ = 1
ERR_CARRY = 2
NEED_MORE_BUF = 3
NEED_MORE_SYM = 4
ERR_RANGE = 7
TRUNCATED = 8

_MASK32 = 0xFFFFFFFF
_TOP = 1 << 24
# The decoder's slot table has one entry per 2^(q - _SLOT_BITS) values
# of a q-bit total, or one per value when q <= _SLOT_BITS.
_SLOT_BITS = 8

try:
    from numba import njit

    _jit = njit(cache=True, nogil=True)
    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    def _jit(fn):
        return fn

    HAVE_NUMBA = False


@_jit
def _carry(buf, nbuf):
    """Add one to the big-endian number buf[:nbuf], rippling through
    trailing 0xFF bytes (``RangeEncoder._propagate_carry`` in
    ``tests/rangecoder.py``).

    Returns OK, or ERR_CARRY if the carry ran off the front, which a
    correct coder never does.
    """
    i = nbuf - 1
    while i >= 0 and buf[i] == 0xFF:
        buf[i] = 0
        i -= 1
    if i < 0:
        return ERR_CARRY
    buf[i] += 1
    return OK


@_jit
def encoded_bytes_bound(count, precision):
    """Most bytes encode_kernel can write for `count` symbols.

    Before each symbol the range is at least 2^24, and a symbol of
    frequency >= 1 leaves at least range >> precision >= 2^(24 -
    precision), so renormalising shifts out at most ceil(precision/8)
    bytes per symbol; the flush adds two.  The encoder checks its
    buffer against this bound once, on entry.
    """
    return count * -(-precision // 8) + 2


@_jit
def encode_kernel(codes, cum, precision, buf):
    """Range-encode each code c of `codes` as the interval [cum[c],
    cum[c+1]) of a 2^precision total: ERR_RANGE guards the index,
    0 <= c < len(cum) - 1, and ERR_ZERO_FREQ an empty interval.
    Returns (nbytes, settled_pre_flush, status), and NEED_MORE_BUF
    before any write if buf is shorter than ``encoded_bytes_bound``.

    nbytes includes the 2-byte terminator; settled_pre_flush, which the
    shaper's deshape direction needs, is the count of buffer bytes
    already immune to carries after the last symbol, by the rule of
    ``RangeEncoder.settled_count`` in ``tests/rangecoder.py``.  It is 0
    on any status but OK.
    """
    if len(buf) < encoded_bytes_bound(len(codes), precision):
        return 0, 0, NEED_MORE_BUF
    total = 1 << precision
    mask, top = _MASK32, _TOP
    low = 0
    rng = 1 << 32
    nbuf = 0
    last = len(cum) - 1
    for c in codes:
        if c < 0 or c >= last:
            return nbuf, 0, ERR_RANGE
        start = cum[c]
        end = cum[c + 1]
        if end <= start:
            return nbuf, 0, ERR_ZERO_FREQ
        r = rng >> precision
        low += r * start
        if low > mask:
            if _carry(buf, nbuf) != OK:
                return nbuf, 0, ERR_CARRY
            low &= mask
        if end == total:
            rng -= r * start
        else:
            rng = r * (end - start)
        while rng < top:
            buf[nbuf] = low >> 24
            nbuf += 1
            low = (low << 8) & mask
            rng <<= 8

    # By prefix duality, every byte before the last non-0xFF one is final.
    settled = max(nbuf - 1, 0)
    while settled > 0 and buf[settled] == 0xFF:
        settled -= 1

    # Deterministic flush; z stays in [low, low + range) as range >= 2^24.
    z = ((low + (1 << 23) - 1) >> 23) << 23
    if z > _MASK32:
        if _carry(buf, nbuf) != OK:
            return nbuf, 0, ERR_CARRY
        z &= _MASK32
    buf[nbuf] = z >> 24
    buf[nbuf + 1] = (z >> 16) & 0xFF
    return nbuf + 2, settled, OK


def slot_table(cum, precision):
    """The decoder's slot table for the cumulative table `cum` of total
    2^precision: entry k is the symbol whose interval holds k * 2^sh,
    sh = precision - min(precision, _SLOT_BITS), the first value of the
    k-th equal bucket.  A symbol of frequency 0 is never an entry.

    The entries are of the smallest signed type that holds a symbol
    index of `cum` (signed, so that the compiled ``s + 1`` stays an
    integer)."""
    sh = precision - min(precision, _SLOT_BITS)
    starts = np.arange(1 << (precision - sh), dtype=np.int64) << sh
    slots = np.searchsorted(cum, starts, "right") - 1
    return slots.astype(np.min_scalar_type(-len(cum)))


def start_state(data):
    """The decoder's state before its first symbol of `data`, a uint8
    array: (range, code, shifts), the code being data's first four
    bytes, with bytes past its end read as 0."""
    head = data[:4].tobytes().ljust(4, b"\0")
    return 1 << 32, int.from_bytes(head, "big"), 0


@_jit
def _decode_loop(data, count, side, cum_rows, slot_rows, precision, out,
                 stop, rng, code, shifts):
    """Range-decode up to `count` symbols of `data` into `out`, symbol t
    against cum_rows[side[t]] and its slot table slot_rows[side[t]]
    (row 0 for every symbol if side is empty), from the coder state
    (rng, code, shifts): ``start_state`` for a fresh start, or the
    state a NEED_MORE_SYM return left.  The loop has read shifts + 4
    bytes of `data`, so the state needs no read position; bytes past
    the end of `data` read as 0.

    Returns (symbols, rng, code, shifts, status).  The status is OK once
    the shift count passes `stop`, counting the symbol whose
    renormalisation passed it; TRUNCATED as soon as shifts+2 exceeds
    len(data), leaving the symbol being renormalised written but not
    counted; ERR_RANGE at a side value with no row; and NEED_MORE_SYM
    after `count` symbols with neither, the only return whose state
    lies between two symbols and so resumes.
    """
    total = 1 << precision
    sh = precision - min(precision, _SLOT_BITS)
    mask, top = _MASK32, _TOP
    dlen = len(data)
    tail, tlen = data[4:], dlen - 4  # data[shifts + 4] is tail[shifts]
    # One test per shift serves both exits; it tells them apart only
    # when it fires.
    limit = min(stop, dlen - 2)

    fixed_row = len(side) == 0
    n_rows = len(cum_rows)
    cum = cum_rows[0]
    slots = slot_rows[0]
    for t in range(count):
        if not fixed_row:
            x = side[t]
            if x < 0 or x >= n_rows:
                return t, rng, code, shifts, ERR_RANGE
            cum = cum_rows[x]
            slots = slot_rows[x]
        r = rng >> precision
        v = code // r
        if v >= total:
            v = total - 1
        # The slot's bucket names the last symbol starting at or below
        # the bucket's first value; v lies in it or in a later one.
        s = slots[v >> sh]
        end = cum[s + 1]
        while end <= v:
            s += 1
            end = cum[s + 1]
        start = cum[s]
        out[t] = s
        code -= r * start
        if end == total:
            rng -= r * start
        else:
            rng = r * (end - start)
        while rng < top:
            b = tail[shifts] if shifts < tlen else 0
            code = ((code << 8) | b) & mask
            shifts += 1
            if shifts > limit:
                if shifts + 2 > dlen:
                    return t, rng, code, shifts, TRUNCATED
                return t + 1, rng, code, shifts, OK
            rng <<= 8
    return count, rng, code, shifts, NEED_MORE_SYM


# decode_kernel's side: empty, so every symbol reads row 0.  Every call
# shares it, so it is read-only (np.frombuffer of immutable bytes).
_NO_SIDE = np.frombuffer(b"", dtype=np.int64)


def decode_kernel(data, count, cum_rows, slot_rows, precision, out):
    """Decode up to `count` symbols against row 0 of a table's cum rows
    and slot rows, as ``kernel_form`` gives them; bytes past the end of
    `data` read as 0.

    Returns (shifts, status).  A frame's payload is exactly shifts+2
    bytes, so the decoder stops with TRUNCATED as soon as shifts+2
    exceeds len(data), and ends with it if the payload lacks room for
    the terminator; the caller compares shifts+2 with the payload
    length to detect oversized frames.
    """
    # A stop at len(data) never fires, as TRUNCATED comes first.
    shifts = _decode_loop(data, count, _NO_SIDE, cum_rows, slot_rows,
                          precision, out, len(data), *start_state(data))[3]
    return shifts, TRUNCATED if shifts + 2 > len(data) else OK


def shape_kernel(stream, m_bits, side, cum_rows, slot_rows, precision,
                 out_sym, state):
    """Decode symbols from `stream` against per-position rows keyed by
    `side` (cum_rows and their slot tables, slot_rows), from the coder
    `state`, until the first `m_bits` bits of the stream are settled.

    Returns (nsym, state, status): ``_decode_loop``'s symbol count, its
    (rng, code, shifts) state and its status, NEED_MORE_SYM once the
    output buffer or the side runs out.  A call given that state, the
    side that follows and the next output span resumes this one.
    The bits are settled once the shift count passes ceil(m_bits/8)
    (see ``shaping``).
    """
    if m_bits <= 0:
        return 0, state, OK
    nsym, rng, code, shifts, status = _decode_loop(
        stream, min(len(out_sym), len(side)), side, cum_rows, slot_rows,
        precision, out_sym, (m_bits + 7) >> 3, *state)
    return nsym, (rng, code, shifts), status


def kernel_form(cum, precision):
    """The table of read-only cum rows `cum` as the loops take it: (cum
    rows, cum rows end to end, slot rows, one ``slot_table`` per row).
    The compiled loops take the arrays, the slot rows read-only too; the
    plain-Python ones take nested lists (and numpy tables, at numpy
    speed)."""
    slots = np.stack([slot_table(row, precision) for row in cum])
    if HAVE_NUMBA:
        slots.setflags(write=False)
        return cum, cum.ravel(), slots
    return cum.tolist(), cum.ravel().tolist(), slots.tolist()


# The loops' sources as plain Python, whether or not numba compiled them.
_py_encode = getattr(encode_kernel, "py_func", encode_kernel)
_py_loop = getattr(_decode_loop, "py_func", _decode_loop)


def python_encode_kernel(codes, cum, precision, buf):
    """encode_kernel run as plain Python on the table `cum` as given."""
    return _py_encode(codes.tolist(), cum, int(precision), memoryview(buf))


def python_decode_loop(data, count, side, cum_rows, slot_rows, precision, out,
                       stop, rng, code, shifts):
    """_decode_loop run as plain Python on the tables as given."""
    return _py_loop(data.tobytes(), int(count), side.tolist(), cum_rows,
                    slot_rows, int(precision), memoryview(out), int(stop),
                    int(rng), int(code), int(shifts))


if not HAVE_NUMBA:  # pragma: no cover - exercised only without numba
    encode_kernel = python_encode_kernel
    _decode_loop = python_decode_loop
