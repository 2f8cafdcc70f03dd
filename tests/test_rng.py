import numpy as np
import pytest

from ffsc.codec import _sample_rows
from ffsc.coder import QuantizedModel
from ffsc.errors import ConfigError, FfscError
from ffsc.rng import SplitMix64


def sample_from_table(seed: int, cum, count: int) -> np.ndarray:
    """`count` draws through the codec's sampler from the one 16-bit
    table whose cumulative frequencies are `cum`."""
    table = QuantizedModel(np.diff(cum), 16)
    return _sample_rows(SplitMix64(seed), table, np.zeros(count, dtype=np.int64))


def test_splitmix64_reference_sequence():
    # first outputs for seed 1234567, checked against the published
    # reference implementation
    rng = SplitMix64(1234567)
    got = [rng.next_u64() for _ in range(3)]
    assert got == [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
    ]


def test_splitmix64_seed_zero_ok():
    rng = SplitMix64(0)
    assert rng.next_u64() == 16294208416658607535


def test_fill_matches_scalar_path():
    a = SplitMix64(99)
    b = SplitMix64(99)
    vec = a.fill_u64(257)
    scalar = np.array([b.next_u64() for _ in range(257)], dtype=np.uint64)
    assert np.array_equal(vec, scalar)
    # and the stream continues from where the block ended
    assert a.next_u64() == b.next_u64()


@pytest.mark.parametrize("seed", [1.5, "x"])
def test_seed_that_is_not_an_integer_is_refused(seed):
    with pytest.raises(ConfigError):
        SplitMix64(seed)


@pytest.mark.parametrize("count", [-1, 2.5, "3", None])
def test_fill_refuses_a_count_that_is_not_a_non_negative_integer(count):
    rng = SplitMix64(7)
    with pytest.raises(FfscError):
        rng.fill_u64(count)
    assert rng.next_u64() == SplitMix64(7).next_u64()


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
