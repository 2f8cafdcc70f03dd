import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from ffsc.bits import (
    as_bytes,
    as_symbols,
    fnv1a64,
    read_uvarint,
    write_uvarint,
)
from ffsc.errors import CodingError, StreamFormatError


@given(st.integers(0, 2**64 - 1))
def test_uvarint_roundtrip(value):
    buf = write_uvarint(value)
    got, used = read_uvarint(buf)
    assert got == value
    assert used == len(buf)


def test_uvarint_known_encodings():
    assert write_uvarint(0) == b"\x00"
    assert write_uvarint(127) == b"\x7f"
    assert write_uvarint(128) == b"\x80\x01"
    assert write_uvarint(4096) == b"\x80\x20"


def test_uvarint_truncated_raises():
    with pytest.raises(StreamFormatError):
        read_uvarint(b"\x80")
    with pytest.raises(StreamFormatError):
        read_uvarint(b"")


def test_uvarint_past_64_bits_raises():
    # ten continuation bytes: the tenth would shift a payload to bit 70
    with pytest.raises(StreamFormatError, match="too long"):
        read_uvarint(b"\x80" * 10)


def test_fnv1a64_reference_values():
    # standard FNV-1a test vectors
    assert fnv1a64(b"") == 0xCBF29CE484222325
    assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
    assert fnv1a64(b"foobar") == 0x85944171F73967E8


def test_as_bytes_returns_a_bytes_input_itself():
    """So the frame decoder's checks of a bytes stream copy nothing."""
    raw = b"\x05\x01"
    assert as_bytes(raw, StreamFormatError, "data") is raw


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16])
def test_as_symbols_keeps_a_narrow_unsigned_array(dtype):
    """A symbol array at its alphabet's width is checked, not widened:
    a contiguous one comes back sharing its memory, a strided one as a
    contiguous copy of the same dtype."""
    arr = np.array([0, 2, 1, 2, 0, 1], dtype=dtype)
    out = as_symbols(arr, 3, CodingError, "a")
    assert out.dtype == dtype and np.shares_memory(out, arr)
    strided = as_symbols(arr[::-2], 3, CodingError, "a")
    assert strided.dtype == dtype and strided.flags.c_contiguous
    assert strided.tolist() == [1, 2, 2]


@pytest.mark.parametrize("dtype, value", [(np.uint8, 255), (np.uint8, 3),
                                          (np.uint16, 257)])
def test_as_symbols_checks_a_narrow_unsigned_array(dtype, value):
    arr = np.array([0, 1, value, 2], dtype=dtype)
    with pytest.raises(CodingError, match=f"{value} is outside"):
        as_symbols(arr, 3, CodingError, "a")


@pytest.mark.parametrize("dtype", [np.int8, np.int64, np.uint64, bool])
def test_as_symbols_widens_signed_bool_and_uint64_input_to_int64(dtype):
    arr = np.array([0, 1, 1, 0], dtype=dtype)
    out = as_symbols(arr, 2, CodingError, "a")
    assert out.dtype == np.int64 and out.tolist() == [0, 1, 1, 0]
