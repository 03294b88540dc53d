"""Byte layouts and length-prefixed framing.

Every multi-field message in the simulator is serialized as a sequence of
fields, each preceded by a 4-byte big-endian length.  Congestion accounting
is byte-exact, so all sizes funnel through the constants below.
"""

from __future__ import annotations

import struct

from .errors import FrameError

NODE_ID_LEN = 2
COUNT_LEN = 2
VALUE_LEN = 8  # signed
DIGEST_LEN = 32
ACK_LEN = 16
NONCE_LEN = 8
LEN_PREFIX = 4

_U16 = struct.Struct(">H")
_I64 = struct.Struct(">q")
_U32 = struct.Struct(">I")


def u16(x: int) -> bytes:
    return _U16.pack(x)


def i64(x: int) -> bytes:
    return _I64.pack(x)


def u32(x: int) -> bytes:
    return _U32.pack(x)


def frame(*fields: bytes) -> bytes:
    """Concatenate fields, each prefixed with its 4-byte length."""
    return b"".join([_U32.pack(len(f)) + f for f in fields])


def unframe(data: bytes) -> list[bytes]:
    """Split a frame back into its fields; raises FrameError on junk."""
    fields = []
    pos = 0
    n = len(data)
    while pos < n:
        if pos + LEN_PREFIX > n:
            raise FrameError("truncated length prefix")
        (length,) = _U32.unpack_from(data, pos)
        pos += LEN_PREFIX
        if pos + length > n:
            raise FrameError("field overruns buffer")
        fields.append(data[pos : pos + length])
        pos += length
    return fields


def split_field(data: bytes) -> tuple[bytes, bytes]:
    """Split the first field off a frame: (that field, the frame of the rest)."""
    if len(data) < LEN_PREFIX:
        raise FrameError("truncated length prefix")
    (length,) = _U32.unpack_from(data)
    end = LEN_PREFIX + length
    if end > len(data):
        raise FrameError("field overruns buffer")
    return data[LEN_PREFIX:end], data[end:]


def framed_size(*field_lengths: int) -> int:
    """Size of a frame built from fields of the given lengths."""
    return LEN_PREFIX * len(field_lengths) + sum(field_lengths)
