"""Core coder engine: reference classes, jitted kernels, and the
settled-prefix property that the shaping layer depends on."""

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from ffsc import _kernels
from ffsc.coder import QuantizedModel, quantize
from ffsc.model import Pmf
from ffsc.rangecoder import RANGE_INIT, TOP, RangeDecoder, RangeEncoder
from ffsc.shaping import PAD_PATTERN, shape


def encode_reference_rows(symbols, side, cum_rows, precision):
    """RangeEncoder over `symbols`, symbol t against cum_rows[side[t]].
    Returns (bytes, settled count taken before the flush)."""
    enc = RangeEncoder(precision)
    for s, x in zip(symbols, side):
        cum = cum_rows[x]
        enc.encode(int(cum[s]), int(cum[s + 1] - cum[s]))
    settled = enc.settled_count()
    return bytes(enc.finish()), settled


def encode_reference(symbols, freq, precision):
    cum = np.concatenate(([0], np.cumsum(freq)))
    assert cum[-1] == 1 << precision
    return encode_reference_rows(symbols, [0] * len(symbols), [cum],
                                 precision)[0]


def decode_reference_rows(data, side, cum_rows, precision):
    """RangeDecoder over `data`, symbol t against cum_rows[side[t]]."""
    dec = RangeDecoder(bytes(data), precision)
    out = []
    for x in side:
        cum = cum_rows[x]
        s = int(np.searchsorted(cum, dec.decode_value(), side="right")) - 1
        out.append(s)
        dec.consume(int(cum[s]), int(cum[s + 1] - cum[s]))
    return out


def decode_reference(data, count, freq, precision):
    cum = np.concatenate(([0], np.cumsum(freq)))
    return decode_reference_rows(data, [0] * count, [cum], precision)


def flat_codes(symbols, side, cum_rows):
    """encode_kernel's codes and table for symbol t against
    cum_rows[side[t]]: x * (size + 1) + s into the rows laid end to end."""
    cum_rows = np.asarray(cum_rows, dtype=np.int64)
    codes = np.asarray(side, dtype=np.int64) * cum_rows.shape[1]
    return codes + np.asarray(symbols, dtype=np.int64), cum_rows.ravel()


def kernel_encode(symbols, freq, precision):
    sym = np.asarray(symbols, dtype=np.int64)
    cum = np.concatenate(([0], np.cumsum(freq))).astype(np.int64)
    buf = np.empty(sym.size * 4 + 64, dtype=np.uint8)
    nbytes, settled, status = _kernels.encode_kernel(sym, cum, precision, buf)
    assert status == _kernels.OK
    return bytes(buf[:nbytes].tobytes()), settled


def kernel_decode(data, count, freq, precision):
    cum = np.concatenate(([0], np.cumsum(freq))).astype(np.int64)
    arr = np.frombuffer(data, dtype=np.uint8)
    out = np.empty(count, dtype=np.int64)
    shifts, status = _kernels.decode_kernel(
        arr, count, cum, _kernels.slot_table(cum, precision), precision, out)
    assert status == _kernels.OK
    return out.tolist(), shifts


FREQ_CASES = [
    [32768, 32768],
    [58327, 7209],
    [7209, 58327],
    [65535, 1],
    [1, 65535],
    [21845, 21846, 21845],
    [60000, 2768, 1536, 1232],
]


@pytest.mark.parametrize("freq", FREQ_CASES)
def test_reference_roundtrip(freq):
    rng = np.random.default_rng(hash(tuple(freq)) % 2**32)
    p = np.array(freq) / sum(freq)
    symbols = rng.choice(len(freq), size=2000, p=p).tolist()
    data = encode_reference(symbols, freq, 16)
    assert decode_reference(data, len(symbols), freq, 16) == symbols


@pytest.mark.parametrize("freq", FREQ_CASES)
def test_kernel_matches_reference_bytes(freq):
    "The jitted encoder and the reference class must emit identical bytes."
    rng = np.random.default_rng(len(freq))
    p = np.array(freq) / sum(freq)
    for trial in range(5):
        symbols = rng.choice(len(freq), size=1500, p=p).tolist()
        ref = encode_reference(symbols, freq, 16)
        got, _ = kernel_encode(symbols, freq, 16)
        assert got == ref


@pytest.mark.parametrize("freq", FREQ_CASES)
def test_kernel_roundtrip(freq):
    rng = np.random.default_rng(99 + len(freq))
    p = np.array(freq) / sum(freq)
    symbols = rng.choice(len(freq), size=3000, p=p).tolist()
    data, _ = kernel_encode(symbols, freq, 16)
    back, shifts = kernel_decode(data, len(symbols), freq, 16)
    assert back == symbols
    assert len(data) == shifts + 2  # deterministic two-byte flush


def test_flush_is_exactly_two_bytes_beyond_shifts():
    for count in (0, 1, 7, 100):
        symbols = [0] * count
        data, _ = kernel_encode(symbols, [32768, 32768], 16)
        _, shifts = kernel_decode(data, count, [32768, 32768], 16)
        assert len(data) == shifts + 2


def test_carry_propagation_stress():
    # skew model, long runs of the most likely symbol drive `low` toward
    # the carry boundary; decode must still be exact
    freq = [65535, 1]
    symbols = ([0] * 5000) + [1] + ([0] * 5000) + [1, 1] + [0] * 100
    data = encode_reference(symbols, freq, 16)
    assert decode_reference(data, len(symbols), freq, 16) == symbols
    got, _ = kernel_encode(symbols, freq, 16)
    assert got == data


@settings(deadline=None, max_examples=200)
@given(
    st.lists(st.integers(0, 3), min_size=0, max_size=400),
    st.integers(0, 2**32 - 1),
)
def test_roundtrip_property_any_symbols(symbols, salt):
    rng = np.random.default_rng(salt)
    raw = rng.integers(1, 1000, size=4)
    freq = quantize(Pmf(raw / raw.sum()), 12).freq.tolist()
    data, _ = kernel_encode(symbols, freq, 12)
    back, _ = kernel_decode(data, len(symbols), freq, 12)
    assert back == symbols


def test_settled_prefix_is_stable_under_extension():
    """Bytes before the last non-0xFF byte never change when more
    symbols are appended -- the invariant the shaper's stop rule uses."""
    freq = [58327, 7209]
    rng = np.random.default_rng(7)
    symbols = rng.choice(2, size=4000, p=[0.89, 0.11]).tolist()
    cum = np.zeros((1, 3), dtype=np.int64)
    cum[0, 1:] = np.cumsum(freq)
    enc = RangeEncoder(16)
    snapshots = []
    for s in symbols:
        enc.encode(int(cum[0, s]), freq[s])
        settled = enc.settled_count()
        snapshots.append((settled, bytes(enc.buf[:settled])))
    final = bytes(enc.finish())
    for settled, prefix in snapshots:
        assert final[:settled] == prefix


def test_kernel_settled_matches_reference_settled_count():
    """encode_kernel's settled count is RangeEncoder.settled_count()
    taken before finish(), on carry-heavy inputs: skewed tables, runs of
    the top symbol, precisions 2-24, against one row's table and against
    rows through flat codes."""
    rng = np.random.default_rng(2024)
    scanned = 0
    for case in range(400):
        q = int(rng.integers(2, 25))
        size = int(rng.integers(2, 5))
        n_rows = int(rng.integers(1, 4))
        freqs = []
        for _ in range(n_rows):
            # every symbol keeps at least one slot; the top one takes
            # most of the rest, so runs of it push low toward a carry
            f = np.ones(size, dtype=np.int64)
            f[-1] += (1 << q) - size
            spare = int(rng.integers(0, f[-1]))
            f[:-1] += rng.multinomial(spare, np.ones(size - 1) / (size - 1))
            f[-1] -= spare
            freqs.append(f)
        cum_rows = np.stack([np.concatenate(([0], np.cumsum(f)))
                             for f in freqs]).astype(np.int64)
        n = int(rng.integers(0, 300))
        symbols = rng.integers(0, size, n)
        symbols[rng.random(n) < 0.7] = size - 1
        with_rows = case % 2 == 1
        rows = (rng.integers(0, n_rows, n) if with_rows
                else np.zeros(n, dtype=np.int64))
        want, expected = encode_reference_rows(symbols, rows, cum_rows, q)
        scanned += expected < len(want) - 3
        codes, table = (flat_codes(symbols, rows, cum_rows) if with_rows
                        else (symbols.astype(np.int64), cum_rows[0]))
        buf = np.empty(_kernels.encoded_bytes_bound(n, q), dtype=np.uint8)
        nbytes, settled, status = _kernels.encode_kernel(codes, table, q, buf)
        assert status == _kernels.OK
        assert settled == expected, case
        assert buf[:nbytes].tobytes() == want
    assert scanned >= 20  # enough buffers end in a 0xFF run


def test_encode_kernel_guards_the_flat_index():
    """The kernel's two checks on a code c: ERR_RANGE outside
    0 <= c < len(cum) - 1, and ERR_ZERO_FREQ on an empty interval, which
    includes a code at a row's last entry of a model's rows laid flat."""
    cum_rows = np.array([[0, 40, 40, 64], [0, 10, 30, 64]], dtype=np.int64)
    table = cum_rows.ravel()
    buf = np.empty(64, dtype=np.uint8)
    for code, want in ((-1, _kernels.ERR_RANGE), (7, _kernels.ERR_RANGE),
                       (1, _kernels.ERR_ZERO_FREQ),
                       (3, _kernels.ERR_ZERO_FREQ),
                       (6, _kernels.OK)):
        codes = np.array([0, 5, code], dtype=np.int64)
        assert _kernels.encode_kernel(codes, table, 6, buf)[2] == want, code


def test_decoder_reads_exactly_payload_plus_nothing():
    """Appending arbitrary garbage after the payload cannot change the
    decoded symbols (the flush leaves a safety margin)."""
    freq = [58327, 7209]
    rng = np.random.default_rng(21)
    symbols = rng.choice(2, size=2000, p=[0.89, 0.11]).tolist()
    data, _ = kernel_encode(symbols, freq, 16)
    for junk in (b"", b"\x00\x00\x00", b"\xff\xff\xff\xff", bytes(range(64))):
        back, shifts = kernel_decode(data + junk, len(symbols), freq, 16)
        assert back == symbols
        assert shifts + 2 == len(data)


@pytest.mark.parametrize("precision", [2, 8, 12, 16, 24])
def test_encoded_bytes_bound_holds_at_minimum_frequency(precision):
    """Symbols of frequency 1 shift out the most bytes per symbol; a
    buffer of exactly encoded_bytes_bound still holds their frame."""
    cum = np.array([0, 1, 1 << precision], dtype=np.int64)
    for count in (0, 1, 2, 7, 300):
        cap = _kernels.encoded_bytes_bound(count, precision)
        buf = np.empty(cap, dtype=np.uint8)
        nbytes, _, status = _kernels.encode_kernel(
            np.zeros(count, dtype=np.int64), cum, precision, buf
        )
        assert status == _kernels.OK and nbytes <= cap


def test_constants_are_consistent():
    assert RANGE_INIT == 1 << 32
    assert TOP == 1 << 24


def test_shape_kernel_status_contract():
    """Each way shape_kernel can stop, called directly: what shape()'s
    retry and error mapping rely on."""
    cm_cum = np.array([[0, 58327, 65536], [0, 7209, 65536]], dtype=np.int64)
    cm_slots = np.stack([_kernels.slot_table(c, 16) for c in cm_cum])
    m = 2000
    rng = np.random.default_rng(12)
    stream = rng.integers(0, 256, m // 8 + 8).astype(np.uint8)
    side = rng.integers(0, 2, 3 * m).astype(np.int64)

    def run(stream, m_bits, side, cap):
        return _kernels.shape_kernel(stream, m_bits, side, cm_cum, cm_slots,
                                     16, np.empty(cap, dtype=np.int64))

    assert run(stream, 0, side, 8) == (0, _kernels.OK)
    # A 3-byte stream is shifted past its end long before 2000 bits settle.
    status = run(stream[:3], m, side, 3 * m)[1]
    assert status == _kernels.TRUNCATED
    # About 4000 symbols carry 2000 bits at H(0.11) = 0.5 bit/symbol, so
    # a short buffer and a short side both run out first.
    assert run(stream, m, side[:100], 100) == (100, _kernels.NEED_MORE_SYM)
    assert run(stream, m, side[:50], 100) == (50, _kernels.NEED_MORE_SYM)
    for bad in (-1, 2):
        side_bad = side.copy()
        side_bad[37] = bad
        assert run(stream, m, side_bad, 3 * m) == (37, _kernels.ERR_RANGE)
    nsym, status = run(stream, m, side, 3 * m)
    assert status == _kernels.OK and 100 < nsym < 3 * m


@pytest.mark.parametrize("freq", [[32768, 32768], [58327, 7209],
                                  [21845, 21846, 21845]])
@pytest.mark.parametrize("m", [1, 7, 8, 9, 64, 65, 1000, 8000])
def test_shaping_one_row_is_a_frame_decode_prefix(freq, m):
    """Shaping against a single row is the frame decoder run over the
    padded bits: its symbols are decode_kernel's first symbols on the
    same stream."""
    model = quantize(Pmf(np.array(freq) / sum(freq)), 16)
    rng = np.random.default_rng(m)
    bits = rng.integers(0, 2, m).astype(np.uint8)
    side = np.zeros(16 * m + 64, dtype=np.int64)
    symbols, nsym = shape(bits, side, model)
    pad = np.unpackbits(np.frombuffer(PAD_PATTERN, dtype=np.uint8))
    nbytes = m // 8 + 8
    stream = np.packbits(np.concatenate([bits,
                                         np.resize(pad, 8 * nbytes - m)]))
    out = np.empty(nsym, dtype=np.int64)
    _, status = _kernels.decode_kernel(stream, nsym, model.cum[0],
                                       model.slots[0], 16, out)
    assert status == _kernels.OK
    assert np.array_equal(out, symbols)


SLOT_PRECISIONS = [2, 7, 8, 9, 12, 16, 24]


def random_freq(rng, size, precision, zeros):
    """A table of `size` symbols and total 2^precision whose symbols at
    `zeros` have frequency 0 and all others at least 1, skewed at random."""
    live = np.setdiff1d(np.arange(size), zeros)
    if live.size > 1 << precision:  # keep only as many as fit
        live = np.sort(rng.choice(live, 1 << precision, replace=False))
    freq = np.zeros(size, dtype=np.int64)
    freq[live] = 1 + rng.multinomial((1 << precision) - live.size,
                                     rng.dirichlet(np.full(live.size, 0.5)))
    return freq


def slot_cases(precision):
    """Tables at one precision: a 4-symbol table with a zero frequency at
    its start, middle or end (one alphabet, so they also serve as the
    rows of one model), and a 300-symbol table with zeros."""
    rng = np.random.default_rng(precision)
    rows = [random_freq(rng, 4, precision, zeros) for zeros in ([0], [1, 2], [3])]
    return rows, random_freq(rng, 300, precision, [0, 1, 150, 298, 299])


@pytest.mark.parametrize("precision", SLOT_PRECISIONS)
def test_slot_table_and_scan_find_every_symbol(precision):
    """The decoder's step, slots[v >> sh] and then a forward scan while
    cum[s + 1] <= v, lands on searchsorted(cum, v, "right") - 1 for every
    value v (sampled at q = 24), never on a zero-frequency symbol."""
    rows, wide = slot_cases(precision)
    total = 1 << precision
    rng = np.random.default_rng(precision)
    for freq in rows + [wide]:
        model = QuantizedModel(freq, precision)
        slots, cum = model.slots[0], model.cum[0]
        assert not slots.flags.writeable
        assert slots.size <= total and total % slots.size == 0
        sh = precision - (slots.size.bit_length() - 1)
        if precision <= 16:
            v = np.arange(total)
        else:
            edges = np.concatenate([np.arange(slots.size) << sh, cum])
            v = np.concatenate([edges - 1, edges, edges + 1,
                                rng.integers(0, total, 50_000)])
            v = v[(v >= 0) & (v < total)]
        s = slots[v >> sh]
        for _ in range(freq.size):
            behind = cum[s + 1] <= v
            if not behind.any():
                break
            s[behind] += 1
        assert not (cum[s + 1] <= v).any()
        assert np.array_equal(s, np.searchsorted(cum, v, "right") - 1)
        assert (freq[s] > 0).all()


@pytest.mark.parametrize("precision", SLOT_PRECISIONS)
def test_decode_kernel_matches_reference_with_zero_frequencies(precision):
    """decode_kernel with the model's tables decodes what RangeDecoder
    decodes, on coded symbols and on random bytes (values anywhere in
    the table), including zero-frequency symbols and 300 symbols."""
    rows, wide = slot_cases(precision)
    rng = np.random.default_rng(100 + precision)
    for freq in rows + [wide]:
        model = QuantizedModel(freq, precision)
        symbols = rng.choice(freq.size, size=600, p=freq / freq.sum())
        coded = encode_reference(symbols.tolist(), freq, precision)
        noise = rng.integers(0, 256, 3 * 600 + 16).astype(np.uint8).tobytes()
        for data, want in ((coded, symbols.tolist()), (noise, None)):
            ref = decode_reference(data, 600, freq, precision)
            out = np.empty(600, dtype=np.int64)
            _, status = _kernels.decode_kernel(
                np.frombuffer(data, dtype=np.uint8), 600, model.cum[0],
                model.slots[0], precision, out)
            assert status == _kernels.OK
            assert out.tolist() == ref
            assert want is None or ref == want


@pytest.mark.parametrize("precision", SLOT_PRECISIONS)
def test_shape_kernel_matches_reference_over_rows(precision):
    """shape_kernel with a model's slot tables
    decodes what RangeDecoder decodes row by row: three 4-symbol rows
    with zero frequencies in different places, and two 300-symbol rows."""
    rows, wide = slot_cases(precision)
    rng = np.random.default_rng(200 + precision)
    wide_rows = [wide, wide[::-1].copy()]
    for freqs in (rows, wide_rows):
        cm = QuantizedModel(freqs, precision)
        side = rng.integers(0, len(freqs), 4000)
        stream = rng.integers(0, 256, 8 + 600 // 8).astype(np.uint8)
        out = np.empty(side.size, dtype=np.int64)
        nsym, status = _kernels.shape_kernel(
            stream, 600, side, cm.cum, cm.slots, precision,
            out)
        assert status == _kernels.OK and nsym > 0
        ref = decode_reference_rows(stream.tobytes(), side[:nsym],
                                    cm.cum, precision)
        assert out[:nsym].tolist() == ref


def on_python_loop(monkeypatch, kernel, *args):
    """`kernel`(*args) with ``_decode_loop`` swapped for the list-form
    ``python_decode_loop`` that runs without numba."""
    with monkeypatch.context() as mp:
        mp.setattr(_kernels, "_decode_loop", _kernels.python_decode_loop)
        return getattr(_kernels, kernel)(*args)


@pytest.mark.skipif(not _kernels.HAVE_NUMBA, reason="fallback already in use")
def test_pure_python_fallback_matches_jit(monkeypatch):
    """The compiled loops and the list-form loops that run without numba
    agree on every return value and every byte written, with
    decode_kernel and shape_kernel run over each decode loop: a binary
    channel at q = 16, and a ternary one with zero frequencies at a q
    below the slot table's bits (one slot per value)."""
    cases = (([[58327, 7209], [7209, 58327]], 16),
             ([[40, 0, 24], [8, 50, 6], [0, 20, 44]], 6))
    rng = np.random.default_rng(3)
    for freqs, q in cases:
        cm = QuantizedModel(np.array(freqs), q)
        cum0, slots0 = cm.cum[0], cm.slots[0]
        side = rng.integers(0, len(freqs), 4000).astype(np.int64)
        # symbols drawn from their own row, so the flat codes encode them
        probs = np.array(freqs) / (1 << q)
        sym = np.array([rng.choice(len(freqs[0]), p=probs[x])
                        for x in side[:800]], dtype=np.int64)
        fixed = rng.choice(len(freqs[0]), size=800, p=probs[0]).astype(np.int64)

        for symbols, rows in ((fixed, np.zeros(800, dtype=np.int64)),
                              (sym, side[:sym.size])):
            codes, table = ((symbols, cum0) if symbols is fixed
                            else flat_codes(symbols, rows, cm.cum))
            buf_a = np.zeros(8192, dtype=np.uint8)
            buf_b = np.zeros(8192, dtype=np.uint8)
            res_a = _kernels.encode_kernel(codes, table, q, buf_a)
            res_b = _kernels.python_encode_kernel(codes, table, q, buf_b)
            assert res_a == res_b and res_a[2] == _kernels.OK
            assert np.array_equal(buf_a, buf_b)
            want, settled = encode_reference_rows(symbols, rows, cm.cum, q)
            assert buf_a[:res_a[0]].tobytes() == want and res_a[1] == settled
            if symbols is fixed:
                payload = buf_a[:res_a[0]]

        # The decoder reads one table; a payload cut in half ends in TRUNCATED.
        for data, want in ((payload, _kernels.OK),
                           (payload[:payload.size // 2], _kernels.TRUNCATED)):
            out_a = np.zeros(fixed.size, dtype=np.int64)
            out_b = np.zeros(fixed.size, dtype=np.int64)
            res_a = _kernels.decode_kernel(data, fixed.size, cum0, slots0, q,
                                           out_a)
            res_b = on_python_loop(monkeypatch, "decode_kernel", data,
                                   fixed.size, cum0, slots0, q, out_b)
            assert res_a == res_b and res_a[1] == want
            assert np.array_equal(out_a, out_b)

        stream = rng.integers(0, 256, 600).astype(np.uint8)
        for sym_cap, want in ((64, _kernels.NEED_MORE_SYM),
                              (4000, _kernels.OK)):
            out_a = np.zeros(sym_cap, dtype=np.int64)
            out_b = np.zeros(sym_cap, dtype=np.int64)
            res_a = _kernels.shape_kernel(stream, 2000, side, cm.cum,
                                          cm.slots, q, out_a)
            res_b = on_python_loop(monkeypatch, "shape_kernel", stream, 2000,
                                   side, cm.cum, cm.slots, q, out_b)
            assert res_a == res_b and res_a[1] == want
            assert np.array_equal(out_a, out_b)


def test_python_decode_kernel_writes_only_where_symbols_land(monkeypatch):
    """decode_kernel over the pure-Python decode loop fills the caller's
    own buffer in place, so a large output buffer is touched only up to
    `count`."""
    freq = [58327, 7209]
    rng = np.random.default_rng(4)
    symbols = rng.choice(2, size=500, p=[0.89, 0.11]).tolist()
    data, _ = kernel_encode(symbols, freq, 16)
    cum = np.concatenate(([0], np.cumsum(freq))).astype(np.int64)
    out = np.full(len(symbols) + 8, -1, dtype=np.int64)
    shifts, status = on_python_loop(
        monkeypatch, "decode_kernel", np.frombuffer(data, dtype=np.uint8),
        len(symbols), cum, _kernels.slot_table(cum, 16), 16, out
    )
    assert status == _kernels.OK and shifts + 2 == len(data)
    assert out[:len(symbols)].tolist() == symbols
    assert (out[len(symbols):] == -1).all()
