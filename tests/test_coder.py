import hashlib
import itertools
import math
import time
import tracemalloc

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
    to_tuples,
)
from ffsc.errors import (
    CodingError,
    QuantizationError,
    TruncatedFrameError,
)
from ffsc.model import Pmf, TestChannel
from testlib import extension_cost


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


@pytest.mark.parametrize("size, dtype, ext_dtype", [
    (2, np.int8, np.int16),  # the frames' table has 256 tuples
    (127, np.int8, np.int8),
    (128, np.int16, np.int16),
    (300, np.int16, np.int16),
])
def test_slot_tables_are_the_smallest_signed_type(size, dtype, ext_dtype):
    """A slot holds a symbol index, in the smallest signed type that
    holds every index of its table; the compiled loops take the kernel
    form's slot rows as read-only arrays of that type."""
    m = quantize(Pmf.uniform(size), 16)
    form = m.kernel_form()
    slots = _kernels.slot_table(form.table.cum[0], 16)
    assert (_kernels.slot_table(m.cum[0], 16).dtype, slots.dtype) == (
        dtype, ext_dtype)
    if _kernels.HAVE_NUMBA:
        assert form.slots.dtype == ext_dtype
        assert not form.slots.flags.writeable
    else:
        assert form.slots == [slots.tolist()]


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
# frames code k-sample tuples


def extension_k(m):
    """The rule: the largest k with (rows * size)^k <= 4096 cells,
    size^k <= min(256, 2^(q-8)) and fmin^k >= 2^(q(k-1)), fmin the
    least nonzero frequency (every nonzero tuple's exact product is at
    least one unit), or 1 if there is none."""
    rows, size = m.freq.shape
    q = m.precision
    fmin = int(m.freq[m.freq > 0].min())
    return max([1] + [k for k in range(2, 9)
                      if (rows * size) ** k <= 4096
                      and size ** k <= min(256, 2 ** (q - 8))
                      and fmin ** k >= 2 ** (q * (k - 1))])


@pytest.mark.parametrize("probs, precision, k", [
    ([0.75, 0.25], 16, 8),     # 2^14 units: the one-unit bound's edge
    ([0.89, 0.11], 11, 3),
    ([0.89, 0.11], 10, 2),
    ([0.89, 0.11], 8, 1),
    ([0.5, 0.3, 0.2], 16, 5),
    ([0.4, 0.3, 0.2, 0.1], 24, 4),
    ([0.3, 0.3, 0.2, 0.1, 0.1], 16, 3),
    ([0.89, 0.11], 16, 5),     # the one-unit bound
])
def test_tuple_frames_round_trip_every_remainder(probs, precision, k):
    m = quantize(Pmf(probs), precision)
    assert m.kernel_form().k == k
    rng = np.random.default_rng([k, precision])
    for n in range(3 * k + 1):
        symbols = rng.choice(len(probs), size=n, p=probs)
        raw = compress(symbols, m).to_bytes()
        out, used = decode_frame_prefix(raw, m, n)
        assert np.array_equal(out, symbols)
        assert used == len(raw)


@pytest.mark.parametrize("precision", [2, 4, 8, 16, 24])
@pytest.mark.parametrize("size", range(2, 18))
def test_tuple_table_exists_for_every_alphabet_and_precision(size, precision):
    """A marginal with as many symbols as the precision allows gets a
    tuple table of the rule's k, and its frames round-trip."""
    total = 1 << precision
    rng = np.random.default_rng([size, precision])
    support = min(size, total)
    freq = np.zeros(size, dtype=np.int64)
    freq[:support] = 1 + rng.multinomial(total - support,
                                         np.full(support, 1 / support))
    m = QuantizedModel(freq, precision)
    k, pad, table = m.kernel_form()[:3]
    assert k == extension_k(m)
    assert table.size == size ** k and m.freq[0][pad] == freq.max()
    symbols = rng.integers(0, support, 2 * k + 1)
    raw = compress(symbols, m).to_bytes()
    out, used = decode_frame_prefix(raw, m, symbols.size)
    assert np.array_equal(out, symbols) and used == len(raw)


@pytest.mark.parametrize("freq, precision", [
    ([15, 1], 4), ([63, 1], 6), ([248, 8], 8), ([14, 1, 1], 4)])
def test_low_precision_frames_code_near_the_entropy(freq, precision):
    """At a precision too low to round the tuples finely, frames code
    sample by sample: with k = 4 at q = 4, (15/16, 1/16) would cost a
    bit per sample, as every tuple would get one unit of the 16."""
    m = QuantizedModel(np.array(freq), precision)
    assert m.kernel_form().k == 1
    p = np.array(freq) / sum(freq)
    symbols = np.random.default_rng(precision).choice(len(freq), 20_000, p=p)
    bits = 8 * len(compress(symbols, m).payload) / symbols.size
    assert bits <= -(p * np.log2(p)).sum() + 0.01


def test_uniform_binary_tuples_code_to_the_bytes_of_single_samples():
    """First sample most significant, a tuple's interval of a uniform
    binary row is the one its samples narrow to one by one."""
    m = quantize(Pmf.uniform(2), 16)
    rng = np.random.default_rng(8)
    for n in range(65):  # every remainder at every phase of a byte
        symbols = rng.integers(0, 2, n)
        buf = np.empty(_kernels.encoded_bytes_bound(n, 16), dtype=np.uint8)
        nbytes, _, status = _kernels.encode_kernel(symbols, m.cum[0], 16, buf)
        assert status == _kernels.OK
        assert compress(symbols, m).payload == buf[:nbytes].tobytes()


@pytest.mark.parametrize("probs, k, bound", [
    ([0.75, 0.25], 8, 1e-3),   # 0: the product rows are exact
    ([0.7, 0.3], 8, 1e-3),     # 7.5e-7 bit/sample
    ([0.6, 0.4], 8, 1e-3),     # 2.1e-7
    ([1 / 3] * 3, 5, 2e-6),    # 4.0e-7
    ([1 / 4] * 4, 4, 2e-6),    # 0: the product rows are exact
    (np.arange(1, 17) / 136, 2, 2e-6),  # 1.6e-6
    # skewed marginals take the k at which no tuple rounds up to a unit;
    # in brackets the cost of stream v5's k = 8
    ([0.89, 0.11], 5, 1e-6),   # 3.0e-7 (8.2e-5)
    ([0.97, 0.03], 3, 1e-6),   # 1.1e-7 (4.2e-4)
    ([0.99, 0.01], 2, 1e-6),   # 1.7e-7 (5.7e-4, 0.70% of the entropy)
    ([0.999, 0.001], 1, 1e-6),     # 0 (6.6e-4, 5.8%)
    ([0.9999, 0.0001], 1, 1e-6),   # 0 (6.8e-4, 46%)
])
def test_frame_rounding_costs_little_at_q16(probs, k, bound):
    """What rounding the frames' tuple table costs over the exact
    products of the marginal, in bits per sample."""
    m = quantize(Pmf(probs), 16)
    assert m.kernel_form().k == k
    assert extension_cost(m) < bound


@pytest.mark.parametrize("freq, k", [([65280, 256], 2), ([65281, 255], 1)])
def test_one_unit_bound_is_exact(freq, k):
    """256^2 is one unit of 2^16 exactly, and 255^2 is less."""
    assert QuantizedModel(freq, 16).kernel_form().k == k


def test_tuple_frames_skip_a_zero_frequency_symbol_0():
    m = QuantizedModel(np.array([0, 40000, 25536]), 16)
    k, pad, table = m.kernel_form()[:3]
    assert (k, pad) == (5, 1)
    digits = np.arange(3 ** 5)[:, None] // 3 ** np.arange(5) % 3
    assert (table.freq[0] == 0).tolist() == (digits == 0).any(1).tolist()
    symbols = np.array([2, 1, 1, 2, 2])
    raw = compress(symbols, m).to_bytes()
    assert np.array_equal(decode_frame_prefix(raw, m, 5)[0], symbols)
    with pytest.raises(CodingError, match="zero model frequency"):
        compress(np.array([1, 0, 2]), m)


def test_frame_whose_pad_is_not_the_pad_symbol_is_refused():
    m = quantize(Pmf([0.5, 0.5]), 16)
    assert m.kernel_form()[:2] == (8, 0)
    f = compress(np.array([0, 1, 1, 1, 0, 0, 0, 1]), m)
    out, _ = decode_frame_prefix(f.to_bytes(), m, 8)
    assert out.tolist() == [0, 1, 1, 1, 0, 0, 0, 1]
    # the same payload declared as 7 samples pads its tuple with a 1
    with pytest.raises(CodingError, match="padded"):
        decode_frame_prefix(Frame(7, f.payload).to_bytes(), m, 7)


# ---------------------------------------------------------------------------
# one k-th extension builder for every model


def random_rows(rows, size, precision, salt=0, alpha=1.0):
    """A model of `rows` random rows, each with as many nonzero
    frequencies as the precision allows, at random places; a large
    Dirichlet `alpha` makes the rows near uniform."""
    total = 1 << precision
    rng = np.random.default_rng([rows, size, precision, salt])
    support = min(size, total)
    freq = np.zeros((rows, size), dtype=np.int64)
    for row in freq:
        row[:support] = 1 + rng.multinomial(
            total - support, rng.dirichlet(np.full(support, alpha)))
        rng.shuffle(row)
    return QuantizedModel(freq, precision)


def extension_by_loop(m, k):
    """The k-th extension tuple by tuple: each row the product of the
    model's quantized rows, rounded by ``quantize``."""
    n_rows, size = m.freq.shape
    total = 1 << m.precision
    table = []
    for xs in itertools.product(range(n_rows), repeat=k):
        probs = [math.prod(m.freq[x, s] / total for x, s in zip(xs, ss))
                 for ss in itertools.product(range(size), repeat=k)]
        table.append(quantize(Pmf(probs), m.precision).freq[0])
    return np.array(table)


@pytest.mark.parametrize("precision", [4, 8, 10, 11, 12, 16, 24])
@pytest.mark.parametrize("size", [2, 3, 4, 5, 16, 17])
@pytest.mark.parametrize("rows", [1, 2, 3, 4, 5, 16, 17])
def test_extension_follows_the_rule(rows, size, precision):
    m = random_rows(rows, size, precision)
    k, pad, ext = m.kernel_form()[:3]
    assert k == extension_k(m)
    assert ext.freq.shape == (rows ** k, size ** k)
    assert ext.precision == precision
    assert np.array_equal(ext.freq, extension_by_loop(m, k))
    assert m.kernel_form().table is ext
    assert pad == int(np.argmax(m.freq[0]))


@pytest.mark.parametrize("rows, size", [(1, 3), (2, 2), (4, 4)])
def test_kernel_form_is_built_once_in_the_kernels_input_form(rows, size):
    m = random_rows(rows, size, 16)
    form = m.kernel_form()
    assert m.kernel_form() is form
    table = form.table
    slots = np.stack([_kernels.slot_table(row, 16) for row in table.cum])
    if _kernels.HAVE_NUMBA:
        assert form.cum is table.cum
        assert np.array_equal(form.slots, slots)
    else:
        assert form.cum == table.cum.tolist()
        assert form.slots == slots.tolist()
    assert list(form.flat) == table.cum.ravel().tolist()
    # digits and place values invert each other over every tuple
    codes = np.arange(size ** form.k)
    assert np.array_equal(to_tuples(form.digits[codes].ravel(), form.place),
                          codes)


def test_one_row_extension_is_the_stream_v5_frame_table():
    """For one row the cell cap and the row bound are stream v5's 256
    cells, so where every tuple keeps its unit, as on the near-uniform
    rows below, k and the table are those that v5's frames code,
    recorded as a digest of v5's tables."""
    h = hashlib.sha256()
    for size in range(2, 18):
        for precision in (4, 8, 10, 11, 12, 16, 24):
            model = random_rows(1, size, precision, salt=1, alpha=1000)
            k, _, ext = model.kernel_form()[:3]
            h.update(bytes([k]) + ext.freq.astype("<u4").tobytes())
    assert h.hexdigest() == (
        "9060e14e129471af10488089dbf046b1c6911065e99951be8ed83e8a625e9da2")


def test_square_tables_keep_the_stream_v4_k():
    """Up to q = 12 the precision bound, size^k <= 2^(q-8) <= 16, is
    stream v4's cap, and the cells never bind before it: (rows * size)^k
    <= 4096 is size^k <= 64.  So a square table whose every tuple keeps
    its unit, as on the near-uniform rows below, keeps v4's k."""
    for size in range(2, 18):
        for precision in (4, 8, 10, 11, 12):
            v4 = max([1] + [k for k in range(2, 5) if size ** k <= 16
                            and size ** k <= 2 ** (precision - 8)])
            m = random_rows(size, size, precision, alpha=1000)
            assert m.kernel_form().k == v4, (size, precision)


def test_near_uniform_square_tables_take_the_cell_cap():
    """From q = 14 the cell cap, size^k <= 64 on a square table, sets
    the k of near-uniform rows: 6 on the BSC, 3 on 3 x 3 and 4 x 4."""
    for size in range(2, 18):
        for precision in (16, 24):
            cap = max([1] + [k for k in range(2, 7) if size ** k <= 64])
            m = random_rows(size, size, precision, alpha=1000)
            assert m.kernel_form().k == cap, (size, precision)


def kernel_steps(monkeypatch, probs, precision, n):
    """The kernel calls, with their symbol counts, that a binary frame
    of n samples drawn from `probs` at `precision` makes to encode and
    then to decode."""
    m = quantize(Pmf(probs), precision)
    seen = []
    encode_kernel = _kernels.encode_kernel
    decode_kernel = _kernels.decode_kernel

    def encode_spy(codes, *args):
        seen.append(("encode", len(codes)))
        return encode_kernel(codes, *args)

    def decode_spy(data, count, *args):
        seen.append(("decode", count))
        return decode_kernel(data, count, *args)

    monkeypatch.setattr(_kernels, "encode_kernel", encode_spy)
    monkeypatch.setattr(_kernels, "decode_kernel", decode_spy)
    symbols = np.random.default_rng(n).choice(2, size=n, p=probs)
    raw = compress(symbols, m).to_bytes()
    out, _ = decode_frame_prefix(raw, m, n)
    assert np.array_equal(out, symbols)
    return seen


@pytest.mark.parametrize("n", [0, 1, 4, 7, 1001])
def test_binary_frames_take_one_kernel_step_per_four_samples(monkeypatch, n):
    """At q = 12 the precision bound, 2^k <= 2^(12 - 8), holds k at 4
    on a uniform marginal.  Its 16 tuples of equal frequency are coded
    in closed form, so the loops never run."""
    assert quantize(Pmf([0.5, 0.5]), 12).kernel_form().k == 4
    assert kernel_steps(monkeypatch, [0.5, 0.5], 12, n) == []


@pytest.mark.parametrize("n", [0, 1, 8, 15, 1001])
def test_binary_frames_take_one_kernel_step_per_eight_samples(monkeypatch, n):
    """At q = 16 the row bound, 2^k <= 256 symbols, sets k to 8 on a
    uniform marginal.  Its 256 tuples of equal frequency are coded in
    closed form, so the loops never run."""
    assert quantize(Pmf([0.5, 0.5]), 16).kernel_form().k == 8
    assert kernel_steps(monkeypatch, [0.5, 0.5], 16, n) == []


@pytest.mark.parametrize("n", [0, 1, 5, 9, 1001])
def test_binary_frames_take_one_kernel_step_per_five_samples(monkeypatch, n):
    """At q = 16 the one-unit bound holds (0.89, 0.11) at k = 5: its
    least frequency, 7209, has 7209^5 >= (2^16)^4 but 7209^6 < (2^16)^5."""
    steps = -(-n // 5)
    assert kernel_steps(monkeypatch, [0.89, 0.11], 16, n) == [
        ("encode", steps), ("decode", steps)]


# ---------------------------------------------------------------------------
# frames of a dyadic table: the loops in closed form

# Every table of 2^a equal symbols (a = 1..8) at every precision that
# quantizes it: 163 tables, whose tuples take b = a * k = 1..8 bits.  Past
# a = 8, k = 1 and b = a, up to 15 as model.MAX_SYMBOLS < 2^16.
DYADIC = ([(a, q) for a in range(1, 9) for q in range(max(a, 2), 25)]
          + [(9, 9), (9, 24), (12, 16), (15, 15)])


def loop_twin(m):
    """A model of m's rows whose frames run the coder loops."""
    twin = QuantizedModel(m.freq, m.precision)
    twin.__dict__["_form"] = m.kernel_form()._replace(bits=0)
    return twin


def decode_outcome(data, m, limit):
    """decode_frame_prefix's result, or its exception's type and message."""
    try:
        out, used = decode_frame_prefix(data, m, limit)
    except Exception as e:
        return type(e), str(e)
    return out.tolist(), used


def test_dyadic_tables_cover_every_tuple_width():
    widths = {quantize(Pmf.uniform(2 ** a), q).kernel_form().bits
              for a, q in DYADIC}
    assert widths == set(range(1, 10)) | {12, 15}
    assert len(DYADIC) == 163 + 4
    assert quantize(Pmf.uniform(3), 16).kernel_form().bits == 0
    assert quantize(Pmf([0.89, 0.11]), 16).kernel_form().bits == 0


@pytest.mark.parametrize("a, q", DYADIC)
def test_dyadic_frames_are_the_loops_in_closed_form(a, q):
    """On 2^b equal frequencies the range coder copies bits: its frames,
    and its decodes of any bytes, valid or hostile, are those of the
    closed form, exceptions and their messages included."""
    m = quantize(Pmf.uniform(2 ** a), q)
    k, bits = m.kernel_form().k, m.kernel_form().bits
    assert bits == a * k
    twin = loop_twin(m)
    rng = np.random.default_rng([a, q])
    lengths = list(range(3 * k + 1)) + [int(n) for n in (
        rng.integers(1, 300), *rng.integers(1, 4000, 2))]
    frames = []
    for n in lengths:
        symbols = rng.integers(0, 2 ** a, n)
        frame = compress(symbols, m)
        assert frame.payload == compress(symbols, twin).payload
        raw = frame.to_bytes()
        junk = rng.bytes(3)
        out, used = decode_frame_prefix(raw + junk, m, n)
        assert np.array_equal(out, symbols) and used == len(raw)
        assert decode_outcome(raw + junk, twin, n) == (symbols.tolist(),
                                                       used)
        frames.append((n, raw))
    hostile = []
    for n, raw in frames[3 * k - 1:3 * k + 2]:  # two short, one medium
        header = len(write_uvarint(n))
        cuts = range(len(raw)) if len(raw) < 64 else rng.integers(
            0, len(raw), 32)
        hostile += [(raw[:c], n) for c in cuts]
        for bit in rng.integers(0, 8 * len(raw), 12):
            flipped = bytearray(raw)
            flipped[bit // 8] ^= 1 << bit % 8
            hostile.append((bytes(flipped), 10 ** 6))
        hostile += [(raw[:header] + rng.bytes(int(size)), n)
                    for size in rng.integers(0, len(raw) + 4, 4)]
        hostile += [(raw, max(n - 1, 0)), (raw + rng.bytes(5), n)]
    hostile += [(write_uvarint(int(count)) + rng.bytes(int(size)), 10 ** 6)
                for count, size in zip(rng.integers(0, 2000, 24),
                                       rng.integers(0, 40, 24))]
    hostile += [(rng.bytes(int(size)), 10 ** 6)
                for size in rng.integers(0, 12, 12)]
    for data, limit in hostile:
        assert decode_outcome(data, m, limit) == decode_outcome(
            data, twin, limit), (data, limit)


def test_hostile_dyadic_frame_reserves_no_memory():
    """A dyadic frame declaring 10^8 samples in three bytes is refused
    from its length alone, before room for its tuples is reserved."""
    m = quantize(Pmf.uniform(2), 16)
    frame = write_uvarint(10 ** 8) + bytes(3)
    tracemalloc.start()
    try:
        with pytest.raises(TruncatedFrameError,
                           match="needs at least 8 bytes, buffer has 7$"):
            decode_frame_prefix(frame, m, 10 ** 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


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
    cum_rows, _, slot_rows = _kernels.kernel_form(m.cum, 16)
    shifts, status = _kernels.decode_kernel(
        np.frombuffer(frame[header:], dtype=np.uint8), count, cum_rows,
        slot_rows, 16, out
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
