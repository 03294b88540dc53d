"""Deterministic cryptographic primitives and the shared key store.

Hashing is SHA-256; MACs are keyed BLAKE2b truncated to 16 bytes.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable

from . import wire
from .errors import ConfigError, ProtocolViolation

NodeId = int

BS_ID: NodeId = 0

# Reserved marker a node MACs together with the session nonce when it
# acknowledges a result ("OK", 0x4F4B).
OK = b"\x4f\x4b"

KEY_LEN = 32


def hash_bytes(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def mac(key: bytes, message: bytes) -> bytes:
    return hashlib.blake2b(message, key=key, digest_size=wire.ACK_LEN).digest()


def mac_long(key: bytes, message: bytes) -> bytes:
    """Full-width keyed hash, used for key derivation only."""
    return hashlib.blake2b(message, key=key, digest_size=KEY_LEN).digest()


def node_ack(key: bytes, nonce: bytes) -> bytes:
    """The acknowledgement code a node releases for session `nonce`."""
    return mac(key, nonce + OK)


ZERO_ACK = b"\x00" * wire.ACK_LEN


def xor_acks(acks: list[bytes]) -> bytes:
    """XOR-combine acknowledgement codes; identity is the all-zero ack."""
    out = 0
    for a in acks:
        if len(a) != wire.ACK_LEN:
            raise ProtocolViolation(f"ack of length {len(a)}, expected {wire.ACK_LEN}")
        out ^= int.from_bytes(a, "big")
    return out.to_bytes(wire.ACK_LEN, "big")


class KeyStore:
    """Per-node BS keys and per-edge link keys, derived from a master seed.

    Registering a node or edge only records that it exists; its key is
    derived the first time it is read and cached after that, so a run that
    reads no key derives none.
    """

    def __init__(self, master_seed: bytes):
        self._master = mac_long(b"\x00" * KEY_LEN, b"master" + master_seed)
        # Each registered id maps to its key, or to None until first read.
        self._bs_keys: dict[NodeId, bytes | None] = {}
        self._link_keys: dict[tuple[NodeId, NodeId], bytes | None] = {}

    def register_node(self, nodes: Iterable[NodeId]) -> None:
        """Record that each sensor in `nodes` holds a BS key."""
        new = dict.fromkeys(nodes)
        if BS_ID in new:
            raise ConfigError("the BS id cannot be registered as a sensor")
        new.update(self._bs_keys)  # keys already derived stay
        self._bs_keys = new

    def register_edge(self, edges: Iterable[tuple[NodeId, NodeId]]) -> None:
        """Record that each link in `edges`, in either orientation, holds a key."""
        new = dict.fromkeys((a, b) if a < b else (b, a) for a, b in edges)
        new.update(self._link_keys)
        self._link_keys = new

    def bs_key(self, node: NodeId) -> bytes:
        try:
            key = self._bs_keys[node]
        except KeyError:
            raise ConfigError(f"no BS key for node {node}") from None
        if key is None:
            key = self._bs_keys[node] = mac_long(self._master, b"bs" + wire.u16(node))
        return key

    def link_key(self, a: NodeId, b: NodeId) -> bytes:
        lo, hi = (a, b) if a < b else (b, a)
        try:
            key = self._link_keys[(lo, hi)]
        except KeyError:
            raise ConfigError(f"no link key for edge ({a}, {b})") from None
        if key is None:
            key = self._link_keys[(lo, hi)] = mac_long(
                self._master, b"link" + wire.u16(lo) + wire.u16(hi)
            )
        return key
