import hashlib
import pickle
from dataclasses import replace

import numpy as np
import pytest

from ffsc import _kernels
from ffsc.codec import (
    HEADER_LEN,
    MAGIC,
    CodecConfig,
    FeedforwardOracle,
    _pack_header,
    decode,
    encode,
    estimate_total_samples,
    measure,
    plan_passes,
    read_header,
)
from ffsc.errors import (
    CausalityError,
    CodingError,
    ConfigError,
    FfscError,
    StreamFormatError,
)
from ffsc.experiments import uniform_source
from ffsc.model import (
    DistortionMatrix,
    Pmf,
    TestChannel,
    blahut_arimoto,
    growth_factor,
)
from testlib import h2

RHO_011 = 2.000336223856


def bsc_config(**kw):
    base = dict(
        prior=Pmf([0.5, 0.5]),
        channel=TestChannel.bsc(0.11),
        distortion=DistortionMatrix.hamming(2),
        min_block=4096,
        passes=5,
        seed=1,
    )
    base.update(kw)
    return CodecConfig(**base)


def run_pair(cfg, src):
    res = encode(src, cfg)
    oracle = FeedforwardOracle(src[src.size - res.n:])
    dec = decode(res.bitstream, oracle, cfg)
    return res, dec, oracle


def table_arrays(tables):
    """Every array of a quantized() pair: each model's freq/cum/slots."""
    return [getattr(m, name) for m in tables
            for name in ("freq", "cum", "slots")]


# ---------------------------------------------------------------------------
# coding tables, built once per config


def test_quantized_returns_the_same_tables_on_every_call():
    cfg = bsc_config()
    marg, cond = cfg.quantized()
    for _ in range(3):
        again = cfg.quantized()
        assert again[0] is marg and again[1] is cond


def test_quantized_tables_are_read_only():
    for array in table_arrays(bsc_config().quantized()):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0


def test_replaced_config_gets_its_own_tables():
    cfg = bsc_config()
    marg, cond = cfg.quantized()
    other = replace(cfg, precision=12)
    marg12, cond12 = other.quantized()
    assert marg12 is not marg and cond12 is not cond
    assert marg12.precision == cond12.precision == 12
    assert marg12.cum[0][-1] == 1 << 12
    assert marg.precision == 16  # the original's tables are untouched


def test_pickled_config_carries_no_tables():
    cfg = bsc_config()
    tables = cfg.quantized()
    blob = pickle.dumps(cfg)
    clone = pickle.loads(blob)
    assert "_tables" not in vars(clone)
    assert clone.precision == cfg.precision and clone.seed == cfg.seed
    rebuilt = clone.quantized()
    assert rebuilt[0] is not tables[0]
    for a, b in zip(table_arrays(rebuilt), table_arrays(tables)):
        assert not a.flags.writeable
        assert np.array_equal(a, b)
    # the pickle is the same size as one taken before any tables existed
    assert len(blob) == len(pickle.dumps(bsc_config()))


# ---------------------------------------------------------------------------
# oracle discipline


def test_oracle_rejects_reading_ahead():
    oracle = FeedforwardOracle(np.array([0, 1, 0, 1], dtype=np.int64))
    oracle.emit(1)
    oracle.reveal_range(0, 1)
    with pytest.raises(CausalityError):
        oracle.reveal_range(1, 2)  # sample 1 not emitted yet


def test_oracle_range_reveal():
    oracle = FeedforwardOracle(np.array([1, 1, 0], dtype=np.int64))
    oracle.emit(3)
    got = oracle.reveal_range(0, 3)
    assert got.tolist() == [1, 1, 0]
    assert oracle.audit_clean()


def test_oracle_audit_records_violation_free_log():
    oracle = FeedforwardOracle(np.arange(5, dtype=np.int64))
    for i in range(5):
        oracle.emit(1)
        oracle.reveal_range(i, i + 1)
    assert oracle.audit_clean()
    # one (emitted, start, stop) record per reveal
    assert len(oracle.audit_log) == 5
    assert oracle.audit_log[2] == (3, 2, 3)


# ---------------------------------------------------------------------------
# transport identity: decoder output == encoder-internal reconstruction


@pytest.mark.parametrize("seed", range(6))
def test_transport_identity_binary(seed):
    cfg = bsc_config(seed=seed + 100, passes=4)
    src = uniform_source(seed, 120_000, 2)
    res, dec, oracle = run_pair(cfg, src)
    assert np.array_equal(dec.xhat, res.xhat)
    assert oracle.audit_clean()
    assert dec.pass_lengths == res.pass_lengths
    assert dec.n == res.n == sum(res.pass_lengths)


@pytest.mark.parametrize("size,target_d", [(3, 0.15), (4, 0.2)])
def test_transport_identity_larger_alphabets(size, target_d):
    prior = Pmf.uniform(size)
    d = DistortionMatrix.hamming(size)
    channel, _, _ = blahut_arimoto(prior, d, target_d)
    cfg = CodecConfig(prior=prior, channel=channel, distortion=d,
                      min_block=1024, passes=4, seed=5)
    src = uniform_source(42, 200_000, size)
    res, dec, oracle = run_pair(cfg, src)
    assert np.array_equal(dec.xhat, res.xhat)
    assert oracle.audit_clean()


def test_transport_identity_skewed_prior():
    # non-uniform source: sample it from the prior itself
    prior = Pmf([0.7, 0.3])
    d = DistortionMatrix.hamming(2)
    channel, _, _ = blahut_arimoto(prior, d, 0.12)
    cfg = CodecConfig(prior=prior, channel=channel, distortion=d,
                      min_block=2048, passes=4, seed=9)
    rng = np.random.default_rng(17)
    src = rng.choice(2, size=150_000, p=prior.probs).astype(np.int64)
    res, dec, oracle = run_pair(cfg, src)
    assert np.array_equal(dec.xhat, res.xhat)
    assert oracle.audit_clean()


def test_single_pass_is_seed_block_only():
    cfg = bsc_config(passes=1, min_block=4096)
    src = uniform_source(3, 10_000, 2)
    res, dec, _ = run_pair(cfg, src)
    assert res.n == 4096
    assert res.pass_lengths == [4096]
    assert np.array_equal(dec.xhat, res.xhat)


def test_encode_rejects_short_source():
    cfg = bsc_config()
    with pytest.raises(CodingError):
        encode(uniform_source(1, 2000, 2), cfg)


def test_encode_rejects_out_of_range_symbols():
    cfg = bsc_config()
    src = uniform_source(1, 150_000, 2).copy()
    src[500] = 9
    with pytest.raises(CodingError):
        encode(src, cfg)


def test_encode_refuses_source_that_is_not_1d_integers():
    cfg = bsc_config()
    src = uniform_source(1, 150_000, 2)
    # a float source would otherwise be truncated: 0.7s encode as zeros
    for bad in (np.zeros((400, 400), dtype=np.int64), src[:, None],
                np.full(150_000, 0.7), src.astype(np.float64)):
        with pytest.raises(CodingError, match="1-D integer"):
            encode(bad, cfg)


# ---------------------------------------------------------------------------
# rate accounting and block growth


def test_rate_accounting_is_exact():
    cfg = bsc_config(seed=12)
    src = uniform_source(23, 200_000, 2)
    res, dec, _ = run_pair(cfg, src)
    assert res.total_bits == 8 * len(res.bitstream)
    assert res.rate == pytest.approx(res.total_bits / res.n)
    assert dec.total_bits == res.total_bits
    assert dec.rate == pytest.approx(res.rate)


def test_block_growth_tracks_rho():
    cfg = bsc_config(seed=77)
    src = uniform_source(31, 250_000, 2)
    res = encode(src, cfg)
    ratios = [b / a for a, b in zip(res.pass_lengths, res.pass_lengths[1:])]
    for r in ratios:
        assert 1.8 <= r <= 2.2


def test_total_samples_near_planned_mean():
    # single runs fluctuate a few percent (stopping-time variance of the
    # shaper); the mean over seeds must sit near the geometric-series value
    ideal = 4096 * (RHO_011**5 - 1) / (RHO_011 - 1)
    ns = []
    for seed in range(8):
        cfg = bsc_config(seed=seed)
        src = uniform_source(900 + seed, 220_000, 2)
        ns.append(encode(src, cfg).n)
        assert abs(ns[-1] / ideal - 1) < 0.10
    mean = float(np.mean(ns))
    assert abs(mean / ideal - 1) < 0.04


# ---------------------------------------------------------------------------
# pass planning


def test_plan_passes_benchmark():
    cfg = bsc_config()
    assert plan_passes(cfg, 126_000) == 5
    assert plan_passes(cfg, 4096) == 1
    assert plan_passes(cfg, 4097) == 2


def test_plan_passes_growth_factor_three_halves():
    # crossover chosen so H(out|in) = 2/3 exactly, hence rho = 1.5:
    # blocks 1000, 1500, 2250, 3375, 5062 cover 10^4 at the fifth pass
    lo, hi = 0.1, 0.3
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if h2(mid) < 2 / 3:
            lo = mid
        else:
            hi = mid
    ch = TestChannel.bsc(0.5 * (lo + hi))
    prior = Pmf([0.5, 0.5])
    assert growth_factor(prior, ch) == pytest.approx(1.5, abs=1e-9)
    cfg = CodecConfig(prior=prior, channel=ch,
                      distortion=DistortionMatrix.hamming(2),
                      min_block=1000, passes=5)
    assert plan_passes(cfg, 10_000) == 5


def test_plan_passes_rejects_tiny_target():
    cfg = bsc_config()
    with pytest.raises(ConfigError):
        plan_passes(cfg, 100)


# ---------------------------------------------------------------------------
# stream format


def corrupt(stream: bytes, at: int, value: int) -> bytes:
    b = bytearray(stream)
    b[at] = value
    return bytes(b)


def test_header_magic_and_version_checked():
    cfg = bsc_config(seed=2)
    src = uniform_source(2, 180_000, 2)
    res = encode(src, cfg)
    oracle = FeedforwardOracle(src[src.size - res.n:])
    with pytest.raises(StreamFormatError):
        decode(corrupt(res.bitstream, 0, 0x00), oracle, cfg)
    for version in (99, 1):  # v1 carried the seed and is refused too
        with pytest.raises(StreamFormatError,
                           match=f"unsupported stream version {version}"):
            decode(corrupt(res.bitstream, 4, version), oracle, cfg)


def test_read_header_round_trips_the_packed_header():
    cfg = bsc_config(passes=7, min_block=1000, precision=12)
    header = _pack_header(cfg, 0x0123456789ABCDEF, 0xFEDCBA98)
    assert len(header) == HEADER_LEN == 24
    assert read_header(header + b"frame") == (
        12, 7, 1000, 0x0123456789ABCDEF, 0xFEDCBA98)
    with pytest.raises(StreamFormatError, match="shorter"):
        read_header(header[:-1])


def test_config_refuses_what_the_header_cannot_carry():
    """K has a 2-byte header field and M a 4-byte one, and every integer
    header field refuses a fraction."""
    cfg = bsc_config(passes=2**16 - 1, min_block=2**32 - 1)
    header = _pack_header(cfg, 0, 0)
    assert read_header(header)[1:3] == (2**16 - 1, 2**32 - 1)
    with pytest.raises(ConfigError, match="passes"):
        bsc_config(passes=2**16)
    with pytest.raises(ConfigError, match="min_block"):
        bsc_config(min_block=2**32)
    for name, value in (("min_block", 64.5), ("passes", 2.5), ("seed", 1.5),
                        ("precision", 16.5), ("delta", "x")):
        with pytest.raises(ConfigError, match=name):
            bsc_config(**{name: value})


def test_header_config_mismatch_detected():
    cfg = bsc_config(seed=2)
    src = uniform_source(2, 180_000, 2)
    res = encode(src, cfg)
    other = bsc_config(seed=2, passes=4)  # different K -> header mismatch
    oracle = FeedforwardOracle(src[src.size - res.n:])
    with pytest.raises(StreamFormatError, match="do not match"):
        decode(res.bitstream, oracle, other)


def test_decoder_reads_no_seed():
    """The decoder rebuilds the seed block from the final frame, so a
    config with any seed decodes the stream, and a numpy-integer seed
    codes exactly like the same Python int."""
    src = uniform_source(2, 40_000, 2)
    res = encode(src, bsc_config(seed=5, passes=3, min_block=1024))
    res_np = encode(src, bsc_config(seed=np.int64(5), passes=3,
                                    min_block=1024))
    assert res_np.bitstream == res.bitstream
    assert np.array_equal(res_np.xhat, res.xhat)
    for seed in (5, np.int64(5), 6):
        oracle = FeedforwardOracle(src[src.size - res.n:])
        dec = decode(res.bitstream, oracle,
                     bsc_config(seed=seed, passes=3, min_block=1024))
        assert np.array_equal(dec.xhat, res.xhat)


def test_header_digest_guards_model_swap():
    cfg = bsc_config(seed=2)
    src = uniform_source(2, 180_000, 2)
    res = encode(src, cfg)
    swapped = bsc_config(seed=2, channel=TestChannel.bsc(0.2))
    oracle = FeedforwardOracle(src[src.size - res.n:])
    with pytest.raises(StreamFormatError):
        decode(res.bitstream, oracle, swapped)


def test_out_of_alphabet_seed_block_sample_is_left_to_measure():
    # The seed block sits last in original time and is never deshaped,
    # so decode reads none of its samples: a bad one there still decodes
    # exactly, with one oracle read per deshaped block, and only
    # measure, which scores against the source, rejects it.
    cfg = bsc_config(seed=5, passes=3, min_block=2048)
    src = uniform_source(5, 40_000, 2)
    res = encode(src, cfg)
    coded = src[src.size - res.n:].copy()
    for bad in (7, -1):
        coded[-1] = bad
        oracle = FeedforwardOracle(coded)
        dec = decode(res.bitstream, oracle, cfg)
        assert np.array_equal(dec.xhat, res.xhat)
        assert len(oracle.audit_log) == cfg.passes - 1
        assert all(stop <= res.n - cfg.min_block
                   for _, _, stop in oracle.audit_log)
        with pytest.raises(ConfigError, match="outside alphabet"):
            measure(coded, dec, cfg.distortion)


def test_truncated_stream_detected():
    cfg = bsc_config(seed=4)
    src = uniform_source(4, 180_000, 2)
    res = encode(src, cfg)
    oracle = FeedforwardOracle(src[src.size - res.n:])
    with pytest.raises(StreamFormatError):
        decode(res.bitstream[:HEADER_LEN - 3], oracle, cfg)
    assert res.bitstream[:4] == MAGIC


def skewed_config(min_block, passes, seed):
    """Prior (0.8, 0.2) at D = 0.15, with the solver's channel given by
    fixed rows, so that the solver's floating point cannot move it."""
    channel = TestChannel(
        [[0.9866034847160634, 0.013396515283936754],
         [0.696413938864253, 0.30358606113574704]])
    return CodecConfig(prior=Pmf([0.8, 0.2]), channel=channel,
                       distortion=DistortionMatrix.hamming(2),
                       min_block=min_block, passes=passes, seed=seed)


def test_final_frame_cut_by_one_byte_is_refused():
    # On this skewed model the cut frame still decodes with status OK to
    # a frame of exactly the cut length, one sample wrong; only its last
    # byte, which no flush can write, gives the cut away.  The channel is
    # the solver's at D = 0.15, given by fixed rows: the solver is only
    # accurate to about 5e-6 here, and a unit moved in the quantized
    # tables changes these bytes.
    cfg = skewed_config(min_block=83, passes=1, seed=51)
    src = (np.random.default_rng(51083).random(166) < 0.2).astype(np.int64)
    res = encode(src, cfg)
    oracle = FeedforwardOracle(src[src.size - res.n:])
    with pytest.raises(CodingError, match="terminator"):
        decode(res.bitstream[:-1], oracle, cfg)


def mutations(stream: bytes, rng):
    """Three bit flips past the header, two in the last 64 bits, one
    truncation and one run of junk appended."""
    body_bits = 8 * (len(stream) - HEADER_LEN)
    flips = [8 * HEADER_LEN + int(b) for b in rng.integers(0, body_bits, 3)]
    flips += [8 * len(stream) - 1 - int(b)
              for b in rng.integers(0, min(64, body_bits), 2)]
    for bit in flips:
        out = bytearray(stream)
        out[bit // 8] ^= 0x80 >> (bit % 8)
        yield bytes(out)
    yield stream[:int(rng.integers(0, len(stream)))]
    yield stream + rng.integers(0, 256, int(rng.integers(1, 9)),
                                dtype=np.uint8).tobytes()


@pytest.mark.parametrize("passes", [1, 2, 3])
def test_corrupted_stream_never_decodes_to_a_wrong_reconstruction(passes):
    """Every mutated stream decodes to the encoder's reconstruction or
    raises a package error.  A one-pass stream has no redundancy but
    its terminator and the CRC-32, and a flip in the tail of a shaped
    block's frame can leave every frame check satisfied."""
    silent = []
    for seed in range(1, 21):
        for min_block in (83, 200, 517):
            cfg = skewed_config(min_block, passes, seed)
            rng = np.random.default_rng([seed, min_block, passes])
            src = (rng.random(4 * estimate_total_samples(cfg)) < 0.2
                   ).astype(np.int64)
            res = encode(src, cfg)
            coded = src[src.size - res.n:]
            for k, bad in enumerate(mutations(res.bitstream, rng)):
                try:
                    dec = decode(bad, FeedforwardOracle(coded), cfg)
                except FfscError:
                    continue
                if not np.array_equal(dec.xhat, res.xhat):
                    silent.append((seed, min_block, k))
    assert silent == []


def test_final_frame_longer_than_the_oracle_is_refused_before_decoding(
        monkeypatch):
    cfg = bsc_config(seed=3, passes=3, min_block=256)
    src = uniform_source(3, 6000, 2)
    res = encode(src, cfg)
    coded = src[src.size - res.n:]
    short = FeedforwardOracle(coded[:res.pass_lengths[-1] - 1])

    def decode_kernel(*args):
        pytest.fail("decode_kernel called")

    monkeypatch.setattr(_kernels, "decode_kernel", decode_kernel)
    with pytest.raises(CodingError, match="declares"):
        decode(res.bitstream, short, cfg)


@pytest.mark.parametrize("size, rows, seed, digest", [
    (2, None, 7,
     "ba19933d15783e03662e4b913fa3f9b28ff248cbb40be98840687ee9b921fda1"),
    (2, None, 8,
     "fd371ee027b4d99680ab45f44da96fdde26d264de6ac7dae6dbd9ba7dfa79f81"),
    (3, [[0.8, 0.15, 0.05], [0.05, 0.8, 0.15], [0.15, 0.05, 0.8]], 9,
     "69e1a085e048a72dadab0253067b0a799a82b690beebb96f6782b8e33f4a6f6a"),
])
def test_bitstream_matches_recorded_digest(size, rows, seed, digest):
    """Small fixed configurations encode to recorded bytes, so a change
    to any layer that moves the wire format fails here.  The ternary
    channel is given by fixed rows, not solved for, so that the
    solver's floating point cannot move the digest."""
    channel = (TestChannel.bsc(0.11) if rows is None
               else TestChannel(rows))
    cfg = CodecConfig(prior=Pmf.uniform(size), channel=channel,
                      distortion=DistortionMatrix.hamming(size),
                      min_block=256, passes=3, seed=seed)
    res = encode(uniform_source(seed, 6000, size), cfg)
    assert hashlib.sha256(res.bitstream).hexdigest() == digest


def test_stream_layout_header_then_single_frame():
    cfg = bsc_config(seed=6, passes=3)
    src = uniform_source(6, 120_000, 2)
    res = encode(src, cfg)
    # only the final pass's frame is transmitted; every earlier pass
    # lives inside it recursively
    final_block = res.pass_lengths[-1]
    body_bits = 8 * (len(res.bitstream) - HEADER_LEN)
    assert body_bits <= final_block * 1.02 + 64
    assert body_bits >= final_block * 0.98


# ---------------------------------------------------------------------------
# typicality flags and measurement


def test_atypical_source_is_flagged_but_still_transported():
    cfg = bsc_config(passes=3, min_block=2048, delta=0.02)
    src = np.zeros(60_000, dtype=np.int64)  # wildly atypical for uniform prior
    res = encode(src, cfg)
    assert res.atypical_blocks  # at least one consumed block flagged
    oracle = FeedforwardOracle(src[src.size - res.n:])
    dec = decode(res.bitstream, oracle, cfg)
    assert np.array_equal(dec.xhat, res.xhat)


def test_typical_source_has_no_flags():
    cfg = bsc_config(seed=13)
    src = uniform_source(13, 200_000, 2)
    res = encode(src, cfg)
    assert res.atypical_blocks == []


def test_measure_reports_gap_to_reference():
    cfg = bsc_config(seed=21)
    src = uniform_source(21, 200_000, 2)
    res, dec, _ = run_pair(cfg, src)
    x = src[src.size - res.n:]
    rep = measure(x, dec, cfg.distortion)
    assert rep.mean_distortion == pytest.approx(
        cfg.distortion.entries[x, dec.xhat].mean())
    assert rep.rate == pytest.approx(dec.rate)
    assert 0 < rep.rd_reference < 1
    assert rep.gap == pytest.approx(rep.rate - rep.rd_reference)
    assert rep.gap <= 0.06


def test_measure_rejects_out_of_alphabet_source():
    cfg = bsc_config(seed=5, passes=2, min_block=1024)
    src = uniform_source(5, 20_000, 2)
    res, dec, _ = run_pair(cfg, src)
    x = src[src.size - res.n:].copy()
    for bad in (-1, 2):
        x[0] = bad
        with pytest.raises(ConfigError, match="alphabet"):
            measure(x, dec, cfg.distortion)


def test_measure_refuses_source_that_is_not_1d_integers():
    cfg = bsc_config(seed=5, passes=2, min_block=1024)
    src = uniform_source(5, 20_000, 2)
    res, dec, _ = run_pair(cfg, src)
    x = src[src.size - res.n:]
    for bad in (x[:, None], x[None, :], x + 0.7, x.astype(np.float64)):
        with pytest.raises(ConfigError, match="1-D integer"):
            measure(bad, dec, cfg.distortion)


def test_distortion_matches_channel_level():
    cfg = bsc_config(seed=33)
    src = uniform_source(33, 200_000, 2)
    res, dec, _ = run_pair(cfg, src)
    x = src[src.size - res.n:]
    rep = measure(x, dec, cfg.distortion)
    assert 0.10 <= rep.mean_distortion <= 0.12
    assert rep.per_sample_distortion.shape == (dec.n,)
    assert rep.mean_distortion == pytest.approx(
        cfg.distortion.entries[x, dec.xhat].mean())
