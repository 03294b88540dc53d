import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from robustagg import wire
from robustagg.errors import FrameError

from helpers import read_i64, read_u16


@given(st.integers(min_value=0, max_value=0xFFFF))
def test_u16_roundtrip(x):
    assert read_u16(wire.u16(x)) == x
    assert wire.u16(x) == struct.pack(">H", x)


@given(st.integers(min_value=-(2**63), max_value=2**63 - 1))
def test_i64_roundtrip(x):
    assert read_i64(wire.i64(x)) == x
    assert wire.i64(x) == struct.pack(">q", x)


@given(st.lists(st.binary(max_size=64), max_size=8))
def test_frame_roundtrip(fields):
    data = wire.frame(*fields)
    assert wire.unframe(data) == fields
    assert len(data) == wire.framed_size(*[len(f) for f in fields])
    if fields:
        assert wire.split_field(data) == (fields[0], wire.frame(*fields[1:]))


def test_frame_layout_matches_independent_packing():
    fields = [b"abc", b"", b"\x00" * 5]
    expect = b"".join(struct.pack(">I", len(f)) + f for f in fields)
    assert wire.frame(*fields) == expect


def test_unframe_rejects_truncated_prefix():
    for parse in (wire.unframe, wire.split_field):
        with pytest.raises(FrameError):
            parse(b"\x00\x00\x01")


def test_unframe_rejects_overrunning_field():
    for parse in (wire.unframe, wire.split_field):
        with pytest.raises(FrameError):
            parse(struct.pack(">I", 10) + b"short")


def test_read_u16_rejects_wrong_length():
    # The oracles' readers take a fixed-width field or nothing.
    with pytest.raises(FrameError):
        read_u16(b"\x01")
    with pytest.raises(FrameError):
        read_i64(b"\x01" * 4)


def test_empty_frame_is_empty():
    assert wire.frame() == b""
    assert wire.unframe(b"") == []
