import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from ffsc.bits import (
    BitString,
    fnv1a64,
    read_uvarint,
    write_uvarint,
)
from ffsc.errors import StreamFormatError


@given(st.lists(st.integers(0, 1), max_size=300))
def test_pack_unpack_roundtrip(bits):
    packed = BitString.from_bits(np.array(bits, dtype=np.uint8))
    assert len(packed.data) == (len(bits) + 7) // 8
    assert BitString(packed.data, len(bits)).to_array().tolist() == bits


def test_pack_bits_msb_first():
    assert BitString.from_bits([1, 0, 0, 0, 0, 0, 0, 1]).data == b"\x81"
    assert BitString.from_bits([1]).data == b"\x80"
    assert BitString(b"\x81", 8).to_array().tolist() == [1, 0, 0, 0, 0, 0, 0, 1]


@given(st.lists(st.integers(0, 1), max_size=200))
def test_bitstring_indexing(bits):
    b = BitString.from_bits(bits)
    assert len(b) == len(bits)
    assert [b[i] for i in range(len(b))] == bits
    assert b.to_array().tolist() == bits


def test_bitstring_pad_bits_are_canonical():
    # same logical bits, different junk in the pad positions
    a = BitString(b"\xff", 3)
    b = BitString(b"\xe0", 3)
    assert a == b
    assert a.data == b"\xe0"


def test_bitstring_rejects_bad_length():
    with pytest.raises(ValueError):
        BitString(b"\x00", 9)
    with pytest.raises(ValueError):
        BitString(b"\x00\x00", -1)


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


def test_fnv1a64_reference_values():
    # standard FNV-1a test vectors
    assert fnv1a64(b"") == 0xCBF29CE484222325
    assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
    assert fnv1a64(b"foobar") == 0x85944171F73967E8
