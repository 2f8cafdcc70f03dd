import itertools

import numpy as np
import pytest

from ffsc.codec import FeedforwardOracle
from ffsc.erasure import (
    ERASED,
    ErasurePattern,
    ErasureSource,
    apply_erasures,
    bec_feedback_send,
    beq_decode,
    beq_encode,
    erasure_distortion,
)
from ffsc.errors import CodingError, ModelError


def decode_with_audit(m, src):
    oracle = FeedforwardOracle(src.seq)
    recon = beq_decode(m, oracle)
    return recon, oracle


def reconstruction_distortion(src, recon):
    d = erasure_distortion().entries
    return float(d[src.seq, recon].sum())


# ---------------------------------------------------------------------------
# the worked example, byte for byte


def test_worked_example_quantizer():
    src = ErasureSource.from_string("0**10**1")
    assert (src.n, src.e) == (8, 4)
    m = beq_encode(src)
    assert m.dtype == np.uint8 and m.tolist() == [0, 1, 0, 1]
    assert len(m) == src.n - src.e
    recon, oracle = decode_with_audit(m, src)
    assert recon.tolist() == [0, 1, 1, 1, 0, 1, 1, 1]
    assert reconstruction_distortion(src, recon) == 0.0
    assert oracle.audit_clean()


def test_worked_example_channel():
    message = np.array([0, 1, 0, 1], dtype=np.uint8)
    pattern = ErasurePattern({2, 3, 6, 7})
    inputs, uses = bec_feedback_send(message, pattern)
    assert inputs.dtype == np.uint8
    assert inputs.tolist() == [0, 1, 1, 1, 0, 1, 1, 1]
    assert uses == 8
    outputs = apply_erasures(inputs, pattern)
    assert outputs.to_string() == "0**10**1"
    # the receiver is the encoder
    assert np.array_equal(beq_encode(outputs), message)


# ---------------------------------------------------------------------------
# exhaustive sweeps


def all_sources(n):
    for tup in itertools.product((0, 1, ERASED), repeat=n):
        yield ErasureSource(np.array(tup, dtype=np.int64))


@pytest.mark.parametrize("n", range(1, 9))
def test_quantizer_exhaustive(n):
    """|message| = n - e, zero distortion, clean audit: every source."""
    for src in all_sources(n):
        m = beq_encode(src)
        assert len(m) == src.n - src.e
        recon, oracle = decode_with_audit(m, src)
        assert reconstruction_distortion(src, recon) == 0.0
        assert oracle.audit_clean()
        # constrained positions reproduce the source exactly
        mask = src.seq != ERASED
        assert np.array_equal(recon[mask], src.seq[mask])


@pytest.mark.parametrize("n", range(1, 7))
def test_duality_exhaustive(n):
    """Sender transcripts mirror quantizer reconstructions use for use."""
    for src in all_sources(n):
        m = beq_encode(src)
        pattern = ErasurePattern(
            frozenset(int(i) + 1 for i in np.flatnonzero(src.seq == ERASED))
        )
        inputs, uses = bec_feedback_send(m, pattern)
        # channel stops after the last constrained position
        trailing = 0
        for v in src.seq[::-1]:
            if v != ERASED:
                break
            trailing += 1
        assert uses == n - trailing
        recon, _ = decode_with_audit(m, src)
        assert np.array_equal(inputs, recon[:uses])
        received = apply_erasures(inputs, pattern)
        assert received.to_string() == src.to_string()[:uses]
        assert np.array_equal(beq_encode(received), m)


# ---------------------------------------------------------------------------
# error paths and types


def test_message_too_long_rejected():
    src = ErasureSource.from_string("0*1")
    with pytest.raises(CodingError):
        beq_decode(np.array([0, 1, 1]), FeedforwardOracle(src.seq))


def test_message_too_short_rejected():
    src = ErasureSource.from_string("011")
    with pytest.raises(CodingError):
        beq_decode(np.array([0]), FeedforwardOracle(src.seq))


@pytest.mark.parametrize("bad", [
    np.array([0, 2], dtype=np.uint8),  # would be written into the output
    np.array([1, -1]),
    np.array([0.0, 0.5]),
    np.zeros((1, 2), dtype=np.uint8),
    np.zeros((2, 1), dtype=np.uint8),
])
def test_beq_decode_refuses_bits_that_are_not_1d_zeros_and_ones(bad):
    src = ErasureSource.from_string("0*1")
    with pytest.raises(CodingError,
                       match=r"message must be 1-D integers in \[0, 2\)"):
        beq_decode(bad, FeedforwardOracle(src.seq))


def test_source_string_roundtrip():
    s = "01*10**1"
    assert ErasureSource.from_string(s).to_string() == s
    with pytest.raises(ModelError):
        ErasureSource.from_string("01x")


def test_pattern_validates_indices():
    with pytest.raises(ModelError):
        ErasurePattern({0})
    assert ErasurePattern({3, 1}).indices == frozenset({1, 3})


@pytest.mark.parametrize("index", [2.7, "x", None, -1])
def test_pattern_refuses_an_index_that_is_not_a_positive_integer(index):
    with pytest.raises(ModelError):
        ErasurePattern({1, index})


def test_erasure_distortion_matrix():
    d = erasure_distortion().entries
    assert d[ERASED].tolist() == [0.0, 0.0, 0.0]
    assert d[0, 1] == 1.0 and d[1, 0] == 1.0
    assert d[0, 0] == 0.0 and d[1, 1] == 0.0


def test_all_erased_source_needs_empty_message():
    src = ErasureSource.from_string("****")
    m = beq_encode(src)
    assert len(m) == 0
    recon, oracle = decode_with_audit(m, src)
    assert recon.tolist() == [0, 0, 0, 0]
    assert oracle.audit_clean()
    inputs, uses = bec_feedback_send(m, ErasurePattern({1, 2, 3, 4}))
    assert uses == 0 and len(inputs) == 0
