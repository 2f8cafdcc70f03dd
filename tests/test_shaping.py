import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from ffsc import _kernels
from ffsc.coder import QuantizedModel, quantize_channel, to_tuples
from ffsc.errors import ShapingError
from ffsc.model import (
    Pmf, TestChannel, conditional_entropy, is_strongly_typical,
)
from ffsc.shaping import PAD_PATTERN, check_unshaped, deshape_raw, shape
from testlib import extension_cost, unshape

BSC11 = quantize_channel(TestChannel.bsc(0.11), 16)
UNIFORM_ROWS = quantize_channel(
    TestChannel([[0.5, 0.5], [0.5, 0.5]]), 16
)


def random_case(rng, m, side_factor=3.0):
    bits = rng.integers(0, 2, size=m).astype(np.uint8)
    side = rng.integers(0, 2, size=int(m * side_factor) + 512).astype(np.int64)
    return bits, side


# ---------------------------------------------------------------------------
# round trip


@settings(deadline=None, max_examples=300)
@given(st.integers(0, 2000), st.integers(0, 2**31))
def test_roundtrip_property(m, salt):
    rng = np.random.default_rng(salt)
    bits, side = random_case(rng, m)
    xhat, used = shape(bits, side, BSC11)
    assert xhat.size == used
    assert np.array_equal(unshape(xhat, side[:used], BSC11, m), bits)


def test_roundtrip_bulk_seeded():
    rng = np.random.default_rng(2024)
    for _ in range(300):
        m = int(rng.integers(1, 4000))
        bits, side = random_case(rng, m)
        xhat, used = shape(bits, side, BSC11)
        assert np.array_equal(unshape(xhat, side[:used], BSC11, m), bits)


def test_roundtrip_long_input():
    rng = np.random.default_rng(77)
    bits, side = random_case(rng, 100_000, side_factor=2.5)
    xhat, used = shape(bits, side, BSC11)
    assert np.array_equal(unshape(xhat, side[:used], BSC11, len(bits)), bits)


def test_m_zero_is_empty():
    side = np.zeros(10, dtype=np.int64)
    empty = np.zeros(0, dtype=np.uint8)
    xhat, used = shape(empty, side, BSC11)
    assert used == 0 and xhat.size == 0
    assert np.array_equal(unshape(xhat, side[:0], BSC11, 0), empty)


# ---------------------------------------------------------------------------
# length accounting


def test_sample_count_near_prediction():
    rng = np.random.default_rng(11)
    m = 5000
    predicted = m / conditional_entropy(TestChannel.bsc(0.11),
                                        Pmf([0.5, 0.5]))
    assert predicted == pytest.approx(10001.68, abs=0.02)
    for _ in range(10):
        bits, side = random_case(rng, m)
        _, used = shape(bits, side, BSC11)
        assert 9500 <= used <= 10500


def test_uniform_rows_pass_bits_through():
    """Independent fair rows make the shaper a bit-identity with a small
    settling tail, the degenerate case where one sample carries one bit."""
    rng = np.random.default_rng(4)
    for m in (1, 8, 233, 4096):
        bits, side = random_case(rng, m)
        xhat, used = shape(bits, side, UNIFORM_ROWS)
        assert m <= used <= m + 96
        assert np.array_equal(xhat[:m], bits)
        assert np.array_equal(unshape(xhat, side[:used], UNIFORM_ROWS, m), bits)


def test_all_ones_input_still_settles():
    # trailing 0xFF bytes postpone settling; the pad pattern breaks the
    # run, so even this worst case terminates promptly
    m = 1024
    bits = np.ones(m, dtype=np.uint8)
    side = np.zeros(4 * m, dtype=np.int64)
    xhat, used = shape(bits, side, UNIFORM_ROWS)
    assert used <= m + 96
    assert np.array_equal(unshape(xhat, side[:used], UNIFORM_ROWS, m), bits)


# ---------------------------------------------------------------------------
# distributional behaviour


def test_crossover_fraction_matches_channel():
    rng = np.random.default_rng(15)
    bits, side = random_case(rng, 50_000, side_factor=2.5)
    xhat, used = shape(bits, side, BSC11)
    assert used >= 100_000 * 0.95
    crossover = float(np.mean(xhat != side[:used]))
    assert abs(crossover - 0.11) < 0.01


def test_joint_typicality_of_output():
    # strong typicality of the pair sequence under p(x) p(xhat | x)
    joint = Pmf((0.5 * TestChannel.bsc(0.11).rows).ravel())
    delta = 0.02
    rng = np.random.default_rng(31)
    passes = 0
    for _ in range(20):
        bits, side = random_case(rng, 10_000)
        xhat, used = shape(bits, side, BSC11)
        passes += is_strongly_typical(2 * side[:used] + xhat, joint, delta)
    assert passes >= 18


def test_shape_is_deterministic():
    rng = np.random.default_rng(9)
    bits, side = random_case(rng, 3000)
    a = shape(bits, side, BSC11)
    b = shape(bits, side.copy(), BSC11)
    assert np.array_equal(a[0], b[0]) and a[1] == b[1]


def test_shape_accepts_reversed_view():
    # the codec hands in reversed slices; no copies, same answer
    rng = np.random.default_rng(13)
    bits, side = random_case(rng, 2000)
    rev = side[::-1]
    a = shape(bits, rev, BSC11)
    b = shape(bits, rev.copy(), BSC11)
    assert np.array_equal(a[0], b[0]) and a[1] == b[1]


# ---------------------------------------------------------------------------
# error paths


def test_side_exhaustion_raises():
    rng = np.random.default_rng(2)
    bits = rng.integers(0, 2, size=4000).astype(np.uint8)
    short_side = rng.integers(0, 2, size=100).astype(np.int64)
    with pytest.raises(ShapingError):
        shape(bits, short_side, BSC11)


def test_side_that_ends_at_the_needed_count_is_enough():
    """shape() hands the kernel at most its symbol buffer's worth of
    side samples; a side exactly as long as the symbols it needs still
    shapes, across buffer doublings, and one sample fewer is exhausted."""
    rng = np.random.default_rng(15)
    retried = 0
    for _ in range(8):
        m = int(rng.integers(100, 3000))
        bits, side = random_case(rng, m)
        xhat, used = shape(bits, side, BSC11)
        retried += used > 2 * m + 64
        got, got_used = shape(bits, side[:used], BSC11)
        assert got_used == used and np.array_equal(got, xhat)
        with pytest.raises(ShapingError):
            shape(bits, side[:used - 1], BSC11)
    assert retried >= 2


def test_side_symbol_out_of_range_raises():
    rng = np.random.default_rng(2)
    bits = rng.integers(0, 2, size=64).astype(np.uint8)
    side = np.full(1000, 7, dtype=np.int64)  # only rows 0 and 1 exist
    with pytest.raises(ShapingError):
        shape(bits, side, BSC11)


def test_deshape_never_silently_returns_wrong_input_as_right():
    """Tampering with x-hat violates the unshape precondition; the promise
    is only that it cannot reproduce the original bits as if nothing
    happened -- it either raises (pad-tail mismatch, inconsistent
    length) or returns visibly different bits."""
    rng = np.random.default_rng(6)
    for trial in range(20):
        bits, side = random_case(rng, 4000)
        xhat, used = shape(bits, side, BSC11)
        bad = xhat.copy()
        bad[int(rng.integers(0, used // 2))] ^= 1
        try:
            got = unshape(bad, side[:used], BSC11, len(bits))
        except ShapingError:
            continue
        assert not np.array_equal(got, bits)


def test_deshape_rejects_impossible_pair():
    asym = quantize_channel(
        TestChannel([[1.0, 0.0], [0.5, 0.5]]), 16
    )
    xhat = np.array([1], dtype=np.int64)  # impossible under row 0
    x = np.array([0], dtype=np.int64)
    with pytest.raises(ShapingError):
        deshape_raw(xhat, x, asym)


def test_deshape_rejects_symbols_outside_the_model():
    """deshape_raw refuses an xhat or x outside the alphabet, including
    pairs whose flat index x * (size + 1) + xhat lands inside the table
    (x = 1, xhat = -2 is row 0's symbol 1 under BSC(0.11))."""
    n_rows, size = BSC11.freq.shape
    xhat = np.array([0, 1, 1, 0, 1], dtype=np.int64)  # one 5-sample tuple
    x = np.array([0, 1, 0, 1, 1], dtype=np.int64)
    deshape_raw(xhat, x, BSC11)
    for bad_xhat in (-1, -2, size):
        for t in range(xhat.size):
            with pytest.raises(ShapingError, match="outside"):
                deshape_raw(np.where(np.arange(5) == t, bad_xhat, xhat), x,
                            BSC11)
    for bad_x in (-1, n_rows):
        for t in range(x.size):
            with pytest.raises(ShapingError, match="outside"):
                deshape_raw(xhat, np.where(np.arange(5) == t, bad_x, x),
                            BSC11)
    with pytest.raises(ShapingError, match="outside"):
        deshape_raw([-2], [1], BSC11)
    assert deshape_raw([], [], BSC11) == (b"\x00\x00", 0)


def test_shape_refuses_a_two_dimensional_side():
    rng = np.random.default_rng(16)
    bits, side = random_case(rng, 200)
    for b in (bits, np.zeros(0, dtype=np.uint8)):
        with pytest.raises(ShapingError, match="1-D"):
            shape(b, side[:600].reshape(2, -1), BSC11)


@pytest.mark.parametrize("bad", [
    np.array([0, 1, 2, 1], dtype=np.uint8),  # packbits would read a 1
    np.array([1, -1, 0]),
    np.array([0.0, 0.5]),
    np.array(["0", "1"]),
    np.zeros((2, 3), dtype=np.uint8),
    np.zeros((0, 2), dtype=np.uint8),  # refused before the m == 0 return
    np.uint8(1),
])
def test_shape_refuses_bits_that_are_not_1d_zeros_and_ones(bad):
    side = np.zeros(512, dtype=np.int64)
    with pytest.raises(ShapingError,
                       match=r"bits must be 1-D integers in \[0, 2\)"):
        shape(bad, side, BSC11)


def test_deshape_refuses_two_dimensional_input():
    rng = np.random.default_rng(16)
    bits, side = random_case(rng, 200)
    xhat, used = shape(bits, side, BSC11)
    for a, b in ((xhat[None], side[None, :used]), ([[0, 1]], [[0, 1]])):
        with pytest.raises(ShapingError, match="1-D"):
            deshape_raw(a, b, BSC11)


def test_deshape_refuses_unequal_lengths():
    rng = np.random.default_rng(16)
    bits, side = random_case(rng, 200)
    xhat, used = shape(bits, side, BSC11)
    for a, b in ((xhat[:-1], side[:used]), (xhat, side[:used + 1])):
        with pytest.raises(ShapingError, match="equal length"):
            deshape_raw(a, b, BSC11)


def test_deshape_rejects_m_beyond_settled():
    rng = np.random.default_rng(14)
    bits, side = random_case(rng, 1000)
    xhat, used = shape(bits, side, BSC11)
    with pytest.raises(ShapingError):
        unshape(xhat, side[:used], BSC11, len(bits) + 5000)


def test_pad_pattern_shape():
    assert len(PAD_PATTERN) == 8
    assert PAD_PATTERN != b"\x00" * 8 and PAD_PATTERN != b"\xff" * 8


def test_no_byte_window_of_the_pad_is_constant():
    """shape()'s stop rule rests on this: the first byte wholly past
    the payload is never 0x00 or 0xFF, so neither it nor it less a
    pending carry is 0xFF, and the payload is settled as soon as the
    decoder has shifted that byte in."""
    bits = np.unpackbits(np.frombuffer(PAD_PATTERN * 2, dtype=np.uint8))
    windows = {int(np.packbits(bits[i:i + 8])[0]) for i in range(64)}
    assert not windows & {0x00, 0xFF}


@pytest.mark.parametrize("precision", [4, 16, 24])
@pytest.mark.parametrize("m", [1, 7, 8, 9, 64, 65, 1000, 1003, 8000, 8001])
def test_constant_payloads_round_trip(m, precision):
    """All-ones and all-zeros payloads, whose trailing bytes are 0xFF or
    0x00, settle within the stream shape() allocates once."""
    rng = np.random.default_rng(m)
    for rows in ([[0.89, 0.11], [0.11, 0.89]],
                 [[0.7, 0.2, 0.1], [0.1, 0.8, 0.1], [0.3, 0.3, 0.4]]):
        cm = quantize_channel(TestChannel(rows), precision)
        side = rng.integers(0, len(rows), 4 * m + 512).astype(np.int64)
        for fill in (0, 1):
            bits = np.full(m, fill, dtype=np.uint8)
            xhat, used = shape(bits, side, cm)
            assert np.array_equal(unshape(xhat, side[:used], cm, m), bits)


@pytest.mark.parametrize("precision", [4, 16, 24])
def test_shape_stops_at_the_shortest_settling_prefix(precision):
    """The symbols shape() returns settle all m bits when re-encoded,
    and the same symbols less the last k-sample tuple do not.  Round
    trips cannot see a shaper that stops late, since the extra tuples
    carry pad, which unshaping accepts."""
    rng = np.random.default_rng(precision)
    for rows in ([[0.89, 0.11], [0.11, 0.89]],
                 [[0.99, 0.01], [0.01, 0.99]],
                 rng.dirichlet(np.ones(3), size=3).tolist()):
        cm = quantize_channel(TestChannel(rows), precision)
        k = cm.kernel_form().k
        for m in [*range(1, 40), 64, 65, 1000, 1003, 8001]:
            side = rng.integers(0, len(rows), 40 * m + 512).astype(np.int64)
            for bits in (rng.integers(0, 2, size=m), [0] * m, [1] * m):
                xhat, used = shape(np.asarray(bits, np.uint8), side, cm)
                _, settled = deshape_raw(xhat, side[:used], cm)
                assert settled >= m
                _, settled = deshape_raw(xhat[:-k], side[:used - k], cm)
                assert settled < m


# ---------------------------------------------------------------------------
# k-sample tuples


def rotations(row):
    return [row[-i:] + row[:-i] for i in range(len(row))]


# (channel rows, precision, the k of its extension); at q = 16 the cell
# cap sets the last three's k and the one-unit bound the others'.
TUPLE_CHANNELS = [
    ([[0.92, 0.08], [0.08, 0.92]], 16, 4),
    ([[0.89, 0.11], [0.11, 0.89]], 11, 3),
    ([[0.89, 0.11], [0.11, 0.89]], 10, 2),
    ([[0.89, 0.11], [0.11, 0.89]], 8, 1),
    (rotations([0.8, 0.18, 0.02]), 16, 2),
    (rotations([0.7, 0.15, 0.13, 0.02]), 16, 2),
    (rotations([0.6, 0.2, 0.1, 0.097, 0.003]), 16, 1),
    ([[0.8, 0.05, 0.15], [0.05, 0.8, 0.15]], 16, 3),  # erasure output
    ([[0.89, 0.11], [0.11, 0.89]], 16, 5),
    (rotations([0.8, 0.15, 0.05]), 16, 3),
    (rotations([0.7, 0.15, 0.1, 0.05]), 16, 3),
    (rotations([0.6, 0.2, 0.1, 0.06, 0.04]), 16, 2),
]


@pytest.mark.parametrize("rows, precision, k", TUPLE_CHANNELS)
def test_tuple_shaping_round_trips_every_remainder(rows, precision, k):
    """Every m mod 8k, short and long, on a side that ends mid-tuple:
    the block is whole tuples, and it unshapes to the bits."""
    cm = quantize_channel(TestChannel(rows), precision)
    assert cm.kernel_form().k == k
    rng = np.random.default_rng([precision, len(rows), k])
    for m in [*range(1, 8 * k + 1), *range(1000, 1000 + 8 * k)]:
        bits = rng.integers(0, 2, m).astype(np.uint8)
        side = rng.integers(0, len(rows), 8 * m + 513).astype(np.int64)
        xhat, used = shape(bits, side, cm)
        assert xhat.size == used and used % k == 0
        assert np.array_equal(unshape(xhat, side[:used], cm, m), bits)


@pytest.mark.parametrize("rows, precision, k", TUPLE_CHANNELS)
def test_deshape_refuses_a_block_of_part_tuples(rows, precision, k):
    cm = quantize_channel(TestChannel(rows), precision)
    rng = np.random.default_rng(k)
    side = rng.integers(0, len(rows), 4000).astype(np.int64)
    xhat, used = shape(rng.integers(0, 2, 500), side, cm)
    for cut in range(1, k):
        with pytest.raises(ShapingError, match=f"whole {k}-sample tuples"):
            deshape_raw(xhat[:-cut], side[:used - cut], cm)
    with pytest.raises(ShapingError, match="exhausted"):
        shape(rng.integers(0, 2, 500), side[:k - 1], cm)


def test_deshape_rejects_an_impossible_pair_in_a_tuple():
    asym = quantize_channel(TestChannel([[1.0, 0.0], [0.5, 0.5]]), 16)
    k = asym.kernel_form().k
    x = np.zeros(k, dtype=np.int64)
    deshape_raw(np.zeros(k, dtype=np.int64), x, asym)
    with pytest.raises(ShapingError, match="zero model frequency"):
        deshape_raw(np.eye(1, k, k - 1, dtype=np.int64)[0], x, asym)


def spy_on_shape_kernel(monkeypatch, seen):
    """Record each shape_kernel call as ("shape", tuples, status)."""
    shape_kernel = _kernels.shape_kernel

    def shape_spy(*args):
        nsym, state, status = shape_kernel(*args)
        seen.append(("shape", nsym, status))
        return nsym, state, status

    monkeypatch.setattr(_kernels, "shape_kernel", shape_spy)


def test_binary_shaping_takes_one_kernel_step_per_four_samples(monkeypatch):
    """On BSC(0.08), whose k the one-unit bound holds at 4, shape_kernel
    decodes used/4 tuples over its calls, and the deshape re-encode
    codes used/4 tuples."""
    cm = quantize_channel(TestChannel.bsc(0.08), 16)
    seen = []
    encode_kernel = _kernels.encode_kernel

    def encode_spy(codes, *args):
        seen.append(("encode", len(codes)))
        return encode_kernel(codes, *args)

    spy_on_shape_kernel(monkeypatch, seen)
    monkeypatch.setattr(_kernels, "encode_kernel", encode_spy)
    rng = np.random.default_rng(44)
    for m in (1, 100, 3000):
        bits, side = random_case(rng, m)
        seen.clear()
        xhat, used = shape(bits, side, cm)
        assert sum(nsym for _, nsym, _ in seen) == used // 4
        assert [status for _, _, status in seen] == (
            [_kernels.NEED_MORE_SYM] * (len(seen) - 1) + [_kernels.OK])
        seen.clear()
        assert np.array_equal(unshape(xhat, side[:used], cm, m), bits)
        assert seen == [("encode", used // 4)]


def test_shape_decodes_no_tuple_twice(monkeypatch):
    """On BSC(0.005) (k = 2), 2000 bits take about 44,000 samples, past
    four doublings of shape's first 4064-sample chunk.  shape's calls
    resume one another: their tuple counts sum to used / k, and the
    symbols and count are those of one shape_kernel call whose buffer
    holds every side tuple."""
    cm = quantize_channel(TestChannel.bsc(0.005), 16)
    form = cm.kernel_form()
    assert (form.k, cm.precision) == (2, 16)
    rng = np.random.default_rng(51)
    bits, side = random_case(rng, 2000, side_factor=40.0)
    seen = []
    spy_on_shape_kernel(monkeypatch, seen)
    xhat, used = shape(bits, side, cm)
    monkeypatch.undo()
    assert len(seen) >= 4
    assert sum(nsym for _, nsym, _ in seen) == used // form.k

    pad = np.unpackbits(np.frombuffer(PAD_PATTERN, dtype=np.uint8))
    nbytes = bits.size // 8 + 8
    stream = np.packbits(np.concatenate(
        [bits, np.resize(pad, 8 * nbytes - bits.size)]))
    tuples = to_tuples(side[:side.size // form.k * form.k], form.row_place)
    out = np.zeros(tuples.size, dtype=np.int64)
    ntup, _, status = _kernels.shape_kernel(
        stream, bits.size, tuples, form.cum, form.slots, 16, out,
        _kernels.start_state(stream))
    assert status == _kernels.OK
    assert used == form.k * ntup
    assert np.array_equal(xhat, form.digits[out[:ntup]].ravel())


def test_shape_decodes_into_consecutive_spans_of_one_buffer(monkeypatch):
    """Each shape_kernel call of a shape that resumes several times
    writes a view of one base array, each view starting where the last
    one ended, so no tuple is copied between chunks."""
    cm = quantize_channel(TestChannel.bsc(0.005), 16)
    bits, side = random_case(np.random.default_rng(51), 2000,
                             side_factor=40.0)
    outs = []
    shape_kernel = _kernels.shape_kernel

    def out_spy(*args):
        outs.append(args[6])
        return shape_kernel(*args)

    monkeypatch.setattr(_kernels, "shape_kernel", out_spy)
    shape(bits, side, cm)
    assert len(outs) >= 4
    base = outs[0].base
    assert base is not None and all(out.base is base for out in outs)
    start = base.__array_interface__["data"][0]
    offsets = [(out.__array_interface__["data"][0] - start) // out.itemsize
               for out in outs]
    assert offsets == [0, *np.cumsum([out.size for out in outs[:-1]])]


def test_extension_rounding_costs_under_a_millionth_of_a_bit():
    """The one-unit bound holds BSC(0.11) at k = 5 (3.0e-7 bit/sample);
    the cell cap alone would allow k = 6, at 3.1e-6."""
    cm = quantize_channel(TestChannel.bsc(0.11), 16)
    assert cm.kernel_form().k == 5
    assert 0 < extension_cost(cm) < 1e-6


def hamming_shift(cm):
    """Each row's expected Hamming distortion under a binary square
    table's extension, over that of the exact products of its quantized
    rows, less 1."""
    form = cm.kernel_form()
    total = 1 << cm.precision
    # a square binary table's row tuples have the symbol tuples' digits
    dist = (form.digits[:, None] != form.digits[None]).mean(axis=2)
    coded = (form.table.freq / total * dist).sum(axis=1)
    crossover = cm.freq[[0, 1], [1, 0]] / total
    exact = crossover[form.digits].mean(axis=1)
    return coded / exact - 1


@pytest.mark.parametrize("p", [0.001, 0.005, 0.02])
def test_skewed_bsc_extension_keeps_its_rate_and_distortion(p):
    """A skewed BSC takes the k at which no tuple rounds up to a unit
    (k = 4 at stream v5 shifted D by +10.6%, +1.22% and +0.15%)."""
    cm = quantize_channel(TestChannel.bsc(p), 16)
    assert extension_cost(cm) < 1e-6
    assert np.abs(hamming_shift(cm)).max() < 1e-3


@pytest.mark.parametrize("freq, precision", [
    ([15, 1], 4), ([63, 1], 6), ([248, 8], 8)])
def test_low_precision_shaping_keeps_single_samples(freq, precision):
    """At a precision too low to round the tuples finely, shaping runs
    sample by sample, so each sample still carries only its row's
    entropy: with k = 4 at q = 4 every tuple would get at least one
    unit of 16, and the samples would carry far more."""
    cm = QuantizedModel([freq, freq[::-1]], precision)
    assert cm.kernel_form().k == 1
    p = np.array(freq) / sum(freq)
    entropy = -(p * np.log2(p)).sum()
    bits, side = random_case(np.random.default_rng(precision), 4000, 40)
    _, used = shape(bits, side, cm)
    assert used >= 0.95 * bits.size / entropy


def first_pad_mismatch_by_loop(data, m_bits, settled_bits):
    """Bit-by-bit reference for the bit at which check_unshaped finds
    the pad broken."""
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
    pad = np.unpackbits(np.frombuffer(PAD_PATTERN, dtype=np.uint8))
    for i in range(m_bits, settled_bits):
        if bits[i] != pad[(i - m_bits) % 64]:
            return i
    return None


@settings(deadline=None, max_examples=300)
@given(st.integers(0, 300), st.integers(0, 300), st.integers(-1, 299),
       st.integers(0, 2**31))
def test_pad_mismatch_matches_bitwise_reference(m, tail, flip, salt):
    """m payload bits, then `tail` pad bits, with bit `flip` of the tail
    inverted (none when flip is -1 or past the tail): check_unshaped
    raises at the reference's bit, or passes when it finds none."""
    rng = np.random.default_rng(salt)
    pad = np.tile(np.unpackbits(np.frombuffer(PAD_PATTERN, dtype=np.uint8)),
                  tail // 64 + 1)[:tail]
    bits = np.concatenate([rng.integers(0, 2, size=m), pad]).astype(np.uint8)
    if 0 <= flip < tail:
        bits[m + flip] ^= 1
    data = np.packbits(bits).tobytes()
    want = first_pad_mismatch_by_loop(data, m, m + tail)
    assert want == (m + flip if 0 <= flip < tail else None)
    if want is None:
        check_unshaped(data, m + tail, m)
    else:
        with pytest.raises(ShapingError, match=f"pad mismatch at bit {want}:"):
            check_unshaped(data, m + tail, m)
