import hashlib

import numpy as np
import pytest

from ffsc.codec import _sample_rows
from ffsc.errors import ConfigError, FfscError
from ffsc.experiments import _prior_source, uniform_source
from ffsc.model import Pmf
from ffsc.rng import SplitMix64
from splitmix64 import SplitMix64Reference


def sample_from_table(seed: int, cum, count: int) -> np.ndarray:
    """`count` draws through the codec's sampler from the one 16-bit
    table whose cumulative frequencies are `cum`."""
    return _sample_rows(SplitMix64(seed), np.asarray(cum)[None], 16, count)


def test_splitmix64_reference_sequence():
    # first outputs for seed 1234567, checked against the published
    # reference implementation, by the scalar reference and the package
    expected = [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
    ]
    ref = SplitMix64Reference(1234567)
    assert [ref.next_u64() for _ in range(3)] == expected
    assert SplitMix64(1234567).fill_u64(3).tolist() == expected


def test_splitmix64_seed_zero_ok():
    assert SplitMix64Reference(0).next_u64() == 16294208416658607535
    assert SplitMix64(0).fill_u64(1).tolist() == [16294208416658607535]


def test_fill_matches_scalar_path():
    a = SplitMix64(99)
    b = SplitMix64Reference(99)
    vec = a.fill_u64(257)
    scalar = np.array([b.next_u64() for _ in range(257)], dtype=np.uint64)
    assert np.array_equal(vec, scalar)
    # and the stream continues from where the block ended
    assert a.fill_u64(1).tolist() == [b.next_u64()]


@pytest.mark.parametrize("seed", [1.5, "x"])
def test_seed_that_is_not_an_integer_is_refused(seed):
    with pytest.raises(ConfigError):
        SplitMix64(seed)


@pytest.mark.parametrize("count", [-1, 2.5, "3", None])
def test_fill_refuses_a_count_that_is_not_a_non_negative_integer(count):
    rng = SplitMix64(7)
    with pytest.raises(FfscError):
        rng.fill_u64(count)
    assert rng.fill_u64(1).tolist() == SplitMix64(7).fill_u64(1).tolist()


def test_sample_from_quantized_is_deterministic():
    cum = np.array([0, 58327, 65536], dtype=np.int64)
    a = sample_from_table(5, cum, 10000)
    b = sample_from_table(5, cum, 10000)
    assert np.array_equal(a, b)
    assert set(np.unique(a)) <= {0, 1}


def test_sample_from_quantized_hits_expected_fractions():
    cum = np.array([0, 58327, 65536], dtype=np.int64)
    s = sample_from_table(17, cum, 200_000)
    ones = s.mean()
    assert abs(ones - 7209 / 65536) < 0.005


def test_sample_never_emits_zero_frequency_symbol():
    # middle symbol has frequency zero and must never appear
    cum = np.array([0, 40000, 40000, 65536], dtype=np.int64)
    s = sample_from_table(3, cum, 50_000)
    assert not np.any(s == 1)
    # and so must a zero of a prior the trial harness draws from
    s = _prior_source(3, 50_000, Pmf([0.5, 0.0, 0.5]))
    assert not np.any(s == 1) and set(np.unique(s)) == {0, 2}


def test_prior_source_hits_the_prior_within_five_deviations():
    """Each symbol's count over 10^6 draws lies within 5 binomial
    standard deviations, sqrt(n p (1 - p)), of n p."""
    p = np.array([0.6, 0.3, 0.1])
    n = 10**6
    counts = np.bincount(_prior_source(11, n, Pmf(p)), minlength=3)
    assert (np.abs(counts - n * p) <= 5 * np.sqrt(n * p * (1 - p))).all()


@pytest.mark.parametrize("size, digest", [
    (2, "9b9d0a6ab03e2840722da936fd74bcb4d7002ea2f8fbc81cbd968959e512f811"),
    (3, "0dcbdcc09cff7b210945e4aa5cb544faae9aa5046140b9611145d2ef48f4fd79"),
    (4, "87dd1837e9a685fb8703155459f8f1b92588e6fcf790648a791cb0b086eae5c4"),
])
def test_uniform_source_draws_recorded_symbols(size, digest):
    """The inverse CDF of a uniform prior draws the symbols the earlier
    multiply-shift drew, floor(size * u / 2^32) of the top 32 bits u."""
    s = uniform_source(5, 100_000, size)
    assert hashlib.sha256(s.astype("<i8").tobytes()).hexdigest() == digest
