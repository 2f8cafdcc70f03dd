import time

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from ffsc import _kernels
from ffsc.bits import write_uvarint
from ffsc.coder import (
    Frame,
    QuantizedModel,
    compress,
    decode_frame_prefix,
    model_digest,
    quantize,
    quantize_channel,
)
from ffsc.errors import (
    CodingError,
    QuantizationError,
    TruncatedFrameError,
)
from ffsc.model import Pmf, TestChannel


# ---------------------------------------------------------------------------
# quantization


def test_quantize_benchmark_row():
    q = quantize(Pmf([0.89, 0.11]), 16)
    assert q.freq[0].tolist() == [58327, 7209]
    assert q.freq[0].sum() == 1 << 16


@pytest.mark.parametrize("index", [0, 1, 2])
def test_quantize_ties_go_to_the_lowest_index(index):
    # the spare unit of a uniform ternary pmf must not follow an ulp of
    # solver noise to whichever entry carries it
    probs = np.full(3, 1 / 3)
    probs[index] = np.nextafter(probs[index], 1.0)
    q = quantize(Pmf(probs), 16)
    assert q.freq[0].tolist() == [21846, 21845, 21845]


def test_quantize_point_mass():
    q = quantize(Pmf([1.0, 0.0]), 16)
    assert q.freq[0].tolist() == [65536, 0]


def test_quantize_preserves_true_zeros():
    q = quantize(Pmf([0.6, 0.0, 0.4]), 10)
    assert q.freq[0][1] == 0
    assert q.freq[0].sum() == 1 << 10


def test_quantize_gives_every_support_symbol_a_slot():
    # probability 1e-9 would round to zero slots; it must get one anyway
    q = quantize(Pmf([1 - 1e-9, 1e-9]), 8)
    assert q.freq[0].tolist() == [255, 1]


def test_quantize_rejects_overfull_support():
    probs = np.full(8, 1 / 8)
    with pytest.raises(QuantizationError):
        quantize(Pmf(probs), 2)  # 8 symbols, 4 slots


@settings(deadline=None, max_examples=60)
@given(st.integers(2, 12), st.integers(2, 20), st.integers(0, 2**31))
def test_quantize_total_always_exact(precision, size, salt):
    rng = np.random.default_rng(salt)
    w = rng.random(size) + 1e-3
    p = Pmf(w / w.sum())
    if size > (1 << precision):
        with pytest.raises(QuantizationError):
            quantize(p, precision)
        return
    q = quantize(p, precision)
    assert q.freq.sum() == 1 << precision
    assert np.all(q.freq > 0)


def test_quantized_model_validates_total():
    for freq, precision in (
        (np.array([100, 100], dtype=np.int64), 16),
        (np.array([[32768, 32768], [32768, 32767]]), 16),  # a row off by one
        (np.full((1, 1, 2), 32768), 16),                    # 3-D
        (np.zeros((0, 2), dtype=np.int64), 16),             # no rows
        ([[32768, 32768], [65536]], 16),                    # ragged
        (np.array([32768, 32768]), 16.5),                   # a fraction
    ):
        with pytest.raises(QuantizationError):
            QuantizedModel(freq, precision)
    with pytest.raises(QuantizationError):
        quantize(Pmf.uniform(2), 16.5)


def test_model_digest_changes_with_tables():
    m1 = quantize(Pmf([0.89, 0.11]), 16)
    m2 = quantize(Pmf([0.5, 0.5]), 16)
    c = quantize_channel(TestChannel.bsc(0.11), 16)
    assert model_digest(m1, c) != model_digest(m2, c)
    assert model_digest(m1, c) == model_digest(m1, c)


# ---------------------------------------------------------------------------
# frames


def test_empty_sequence_frame_is_tiny():
    m = quantize(Pmf([0.5, 0.5]), 16)
    f = compress(np.array([], dtype=np.int64), m)
    assert f.symbol_count == 0
    assert 8 * len(f.to_bytes()) <= 64
    out, used = decode_frame_prefix(f.to_bytes(), m, 0)
    assert out.size == 0
    assert used == len(f.to_bytes())


# ---------------------------------------------------------------------------
# round trips

models = [
    [0.5, 0.5],
    [0.89, 0.11],
    [0.97, 0.03],
    [0.4, 0.3, 0.2, 0.1],
    [1 / 16] * 16,
]


@settings(deadline=None, max_examples=250)
@given(
    st.integers(0, len(models) - 1),
    st.lists(st.integers(0, 15), min_size=0, max_size=500),
    st.integers(0, 2**31),
)
def test_roundtrip_property(model_idx, raw_symbols, salt):
    probs = models[model_idx]
    m = quantize(Pmf(probs), 14)
    symbols = np.array([s % len(probs) for s in raw_symbols], dtype=np.int64)
    f = compress(symbols, m)
    assert f.symbol_count == symbols.size
    raw = f.to_bytes()
    out, used = decode_frame_prefix(raw, m, symbols.size)
    assert np.array_equal(out, symbols)
    assert used == len(raw)


def test_roundtrip_large_block():
    m = quantize(Pmf([0.89, 0.11]), 16)
    rng = np.random.default_rng(5)
    symbols = rng.choice(2, size=100_000, p=[0.89, 0.11]).astype(np.int64)
    f = compress(symbols, m)
    raw = f.to_bytes()
    out, used = decode_frame_prefix(raw, m, symbols.size)
    assert np.array_equal(out, symbols)
    assert used == len(raw)


def test_compress_rejects_zero_frequency_symbol():
    m = quantize(Pmf([0.6, 0.0, 0.4]), 10)
    with pytest.raises(CodingError):
        compress(np.array([0, 1, 2], dtype=np.int64), m)


def test_compress_rejects_out_of_range():
    m = quantize(Pmf([0.5, 0.5]), 16)
    with pytest.raises(CodingError):
        compress(np.array([0, 2], dtype=np.int64), m)


# ---------------------------------------------------------------------------
# rate bound: payload within entropy + quantization gap + flush slack


@pytest.mark.parametrize("n", [1_000, 10_000, 100_000])
def test_rate_tracks_entropy_on_typical_input(n):
    p = 0.11
    h = -(p * np.log2(p) + (1 - p) * np.log2(1 - p))
    m = quantize(Pmf([1 - p, p]), 16)
    rng = np.random.default_rng(n)  # fixed seeds, statistically comfortable
    symbols = rng.choice(2, size=n, p=[1 - p, p]).astype(np.int64)
    f = compress(symbols, m)
    # empirical entropy of the drawn sequence, not the ensemble average
    k = symbols.sum() / n
    h_emp = -(k * np.log2(k) + (1 - k) * np.log2(1 - k))
    assert 8 * len(f.payload) <= n * h_emp + 0.01 * n + 64
    assert 8 * len(f.payload) >= n * h_emp - 0.01 * n


# ---------------------------------------------------------------------------
# framing errors and prefix decoding


def make_frame(n=2000, seed=0):
    m = quantize(Pmf([0.89, 0.11]), 16)
    rng = np.random.default_rng(seed)
    symbols = rng.choice(2, size=n, p=[0.89, 0.11]).astype(np.int64)
    return symbols, compress(symbols, m), m


def test_truncated_payload_detected():
    symbols, f, m = make_frame()
    cut = Frame(f.symbol_count, f.payload[:-3])
    with pytest.raises(TruncatedFrameError):
        decode_frame_prefix(cut.to_bytes(), m, symbols.size)


def test_oversized_payload_detected():
    symbols, f, m = make_frame()
    fat = Frame(f.symbol_count, f.payload + b"\x00\x00").to_bytes()
    _, used = decode_frame_prefix(fat, m, symbols.size)
    assert used == len(f.to_bytes()) < len(fat)


def test_absurd_symbol_count_refused():
    _, f, m = make_frame()
    huge = Frame(2**40, f.payload)
    with pytest.raises(CodingError):
        decode_frame_prefix(huge.to_bytes(), m, f.symbol_count)


def test_prefix_decode_ignores_trailing_bytes():
    symbols, f, m = make_frame()
    blob = f.to_bytes() + b"\xa5" * 37
    got, used = decode_frame_prefix(blob, m, symbols.size)
    assert np.array_equal(got, symbols)
    assert used == len(f.to_bytes())


def test_prefix_decode_truncated_raises():
    symbols, f, m = make_frame()
    with pytest.raises(TruncatedFrameError):
        decode_frame_prefix(f.to_bytes()[:-4], m, symbols.size)


@pytest.mark.parametrize("count, header", [(2**20, 3), (2**24, 4)])
def test_decode_work_is_bounded_by_frame_length(count, header):
    """A short frame declaring many symbols stops at the first byte it
    lacks instead of decoding every declared symbol."""
    m = quantize(Pmf([0.5, 0.5]), 16)
    frame = write_uvarint(count) + bytes(range(1, 11))
    assert len(frame) == header + 10
    t0 = time.perf_counter()
    with pytest.raises(TruncatedFrameError):
        decode_frame_prefix(frame, m, count)
    assert time.perf_counter() - t0 < 0.25
    out = np.empty(count, dtype=np.int64)
    shifts, status = _kernels.decode_kernel(
        np.frombuffer(frame[header:], dtype=np.uint8), count, m.cum[0],
        m.slots[0], 16, out
    )
    assert (shifts, status) == (9, _kernels.TRUNCATED)


def test_frame_that_never_renormalises_needs_its_terminator():
    """The kernel shifts no byte in on these, so only its length check
    after the decode loop catches the missing two-byte terminator."""
    with pytest.raises(TruncatedFrameError):
        decode_frame_prefix(write_uvarint(0), quantize(Pmf.uniform(2), 16), 0)
    skew = QuantizedModel(np.array([65535, 1]), 16)
    with pytest.raises(TruncatedFrameError):
        decode_frame_prefix(write_uvarint(3) + b"\x00", skew, 3)


@pytest.mark.parametrize("count", [2**20, 2**24])
def test_frame_over_the_callers_limit_is_refused_at_once(count):
    """On a skewed model ten bytes can validly hold millions of
    symbols, so only the caller's limit stops a frame that declares
    more than the caller can take, and it does so before decoding."""
    skew = QuantizedModel(np.array([65535, 1]), 16)
    frame = write_uvarint(count) + bytes(10)
    t0 = time.perf_counter()
    with pytest.raises(CodingError, match="declares"):
        decode_frame_prefix(frame, skew, limit=count - 1)
    assert time.perf_counter() - t0 < 0.05


def test_conditional_model_row_access():
    c = quantize_channel(TestChannel.bsc(0.11), 16)
    assert c.freq[0].tolist() == [58327, 7209]
    assert c.freq[1].tolist() == [7209, 58327]
    assert c.cum.shape == (2, 3)
