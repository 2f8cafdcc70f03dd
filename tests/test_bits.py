import pytest
from hypothesis import given
import hypothesis.strategies as st

from ffsc.bits import (
    as_bytes,
    fnv1a64,
    read_uvarint,
    write_uvarint,
)
from ffsc.errors import StreamFormatError


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
