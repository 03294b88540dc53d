"""Stage two: localizing faulty nodes after a failed aggregation.

Phase I collects onion-authenticated confirmations from every node that
acknowledged the result and recursively checks them at the BS; phase II
collects the per-child acks nodes stored during result checking and hunts
for inconsistencies.  Both produce a set of marks, in (child, parent)
pairs except when the parent is the BS.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import crypto, wire
from .adversary import garble
from .crypto import BS_ID, KeyStore, NodeId
from .errors import FrameError
from .netmodel import AggregationTree, Network

# Wire tags for confirmation slots.
NR = b"\x00"  # "no message received from this child"; always illegitimate
_ENV = b"\x01"


@dataclass(frozen=True)
class Mark:
    node: NodeId
    partner: NodeId | None  # the paired parent; None when the parent is the BS
    rule: str  # absent | structural | type_i | type_ii

    def pair(self) -> set[NodeId]:
        return {self.node} if self.partner is None else {self.node, self.partner}


@dataclass
class MarkSet:
    marks: list[Mark] = field(default_factory=list)

    def add(self, node: NodeId, parent: NodeId, rule: str) -> None:
        self.marks.append(Mark(node, None if parent == BS_ID else parent, rule))

    def nodes(self) -> set[NodeId]:
        out: set[NodeId] = set()
        for m in self.marks:
            out |= m.pair()
        return out

    def __bool__(self) -> bool:
        return bool(self.marks)


def _wrap(key: bytes, payload: bytes) -> bytes:
    return _ENV + crypto.auth_wrap(key, payload).to_bytes()


def _open(key: bytes, data: bytes | None) -> bytes | None:
    """Envelope payload if the blob verifies under `key`, else None (an
    absent blob or the NR placeholder never verifies)."""
    if data is None or data[0:1] != _ENV:
        return None
    try:
        env = crypto.AuthEnvelope.from_bytes(data[1:])
    except FrameError:
        return None
    return env.payload if crypto.auth_verify(key, env) else None


def als1_collect(
    net: Network,
    tree: AggregationTree,
    acked: dict[NodeId, bool],
    adv,
    nonce: bytes,
) -> bytes | None:
    """Hierarchical confirmation collection; returns the blob the BS receives.

    Only nodes that acknowledged in result checking (`acked[s]`) take part;
    silent nodes send nothing and their parents substitute the NR placeholder.
    """
    net.phase = "als1"
    sent: dict[NodeId, bytes] = {}  # keyed by sender: each node has one parent
    for epoch in tree.epochs:
        for node in epoch:
            if not acked[node]:
                continue
            key = net.keys.bs_key(node)
            kids = tree.children.get(node, [])
            if not kids:
                msg = _wrap(key, wire.frame(nonce))
            else:
                slots = [sent.get(c, NR) for c in kids]
                tamper = adv.action(node, "confirm_tamper")
                if tamper is not None:
                    idx = tamper.params.get("slot", len(slots) - 1) % len(slots)
                    slots[idx] = garble(slots[idx])
                    adv.fire(node, "confirm_tamper")
                msg = _wrap(key, wire.frame(nonce, *slots))
            if adv.action(node, "confirm_drop") is not None:
                adv.fire(node, "confirm_drop")
                continue
            sent[node] = net.send_link(node, tree.parent[node], msg)
    return sent.get(tree.bs_child)


def _fields(
    keys: KeyStore, node: NodeId, data: bytes | None, nonce: bytes, count: int
) -> list[bytes] | None:
    """The `count` fields after the nonce in a legitimate report from `node`,
    or None (incl. the NR case)."""
    payload = _open(keys.bs_key(node), data)
    if payload is None:
        return None
    try:
        fields = wire.unframe(payload)
    except FrameError:
        return None
    if len(fields) != 1 + count or fields[0] != nonce:
        return None
    return fields[1:]


def als1_process(
    keys: KeyStore, tree: AggregationTree, m_b: bytes | None, nonce: bytes
) -> MarkSet:
    """BS-side recursive confirmation check."""
    marks = MarkSet()
    b = tree.bs_child
    if m_b is None:
        marks.add(b, BS_ID, "absent")
        return marks

    # Pre-order walk, children in tree order: the stack holds them reversed.
    stack: list[tuple[NodeId, NodeId, bytes | None]] = [(b, BS_ID, m_b)]
    while stack:
        node, parent, data = stack.pop()
        slots = _fields(keys, node, data, nonce, len(tree.children.get(node, [])))
        if slots is None:
            marks.add(node, parent, "structural")
            continue
        kids = list(zip(tree.children.get(node, []), slots))
        stack.extend((child, node, slot) for child, slot in reversed(kids))
    return marks


def expected_acks(keys: KeyStore, tree: AggregationTree, nonce: bytes) -> dict[NodeId, bytes]:
    """Per-node expected aggregated ack: XOR of acks over the node's subtree."""
    out: dict[NodeId, bytes] = {}
    for epoch in tree.epochs:
        for node in epoch:
            parts = [crypto.node_ack(keys.bs_key(node), nonce)]
            parts.extend(out[c] for c in tree.children.get(node, []))
            out[node] = crypto.xor_acks(parts)
    return out


def expected_ack(keys: KeyStore, tree: AggregationTree, node: NodeId, nonce: bytes) -> bytes:
    return crypto.xor_acks(
        [crypto.node_ack(keys.bs_key(u), nonce) for u in tree.subtree(node)]
    )


def als2_collect(
    net: Network,
    tree: AggregationTree,
    acks_up: dict[NodeId, bytes],
    adv,
    nonce: bytes,
) -> bytes | None:
    """Hierarchical ack-report collection; leaves stay silent.

    A report carries nested reports for non-leaf children and the ack every
    child sent up in stage one (`acks_up`, keyed by sender; a never-received
    ack is reported as all zeros).
    """
    net.phase = "als2"
    sent: dict[NodeId, bytes] = {}  # keyed by sender: each node has one parent
    for epoch in tree.epochs:
        for node in epoch:
            kids = tree.children.get(node, [])
            if not kids:
                continue
            reports = [sent.get(c, NR) for c in kids if not tree.is_leaf(c)]
            acks = [acks_up.get(c, crypto.ZERO_ACK) for c in kids]
            forge = adv.action(node, "ack_report_forge")
            if forge is not None:
                idx = forge.params.get("slot", 0) % len(acks)
                acks[idx] = garble(acks[idx])
                adv.fire(node, "ack_report_forge")
            if adv.action(node, "report_drop") is not None:
                adv.fire(node, "report_drop")
                continue
            msg = _wrap(net.keys.bs_key(node), wire.frame(nonce, *reports, *acks))
            sent[node] = net.send_link(node, tree.parent[node], msg)
    return sent.get(tree.bs_child)


def _extract2(
    keys: KeyStore, tree: AggregationTree, node: NodeId, data: bytes | None, nonce: bytes
) -> tuple[dict[NodeId, bytes], dict[NodeId, bytes]] | None:
    """(nested reports by non-leaf child, reported acks by child), or None."""
    kids = tree.children.get(node, [])
    nonleaf = [c for c in kids if not tree.is_leaf(c)]
    fields = _fields(keys, node, data, nonce, len(nonleaf) + len(kids))
    if fields is None:
        return None
    ack_fields = fields[len(nonleaf) :]
    if any(len(a) != wire.ACK_LEN for a in ack_fields):
        return None
    return dict(zip(nonleaf, fields)), dict(zip(kids, ack_fields))


def als2_process(
    keys: KeyStore,
    tree: AggregationTree,
    m_b: bytes | None,
    agg_ack: bytes,
    nonce: bytes,
) -> MarkSet:
    """BS-side recursive ack analysis.

    `agg_ack` is the aggregated ack the BS received in stage one.  A child
    whose reported ack matches its expected value is not descended into;
    mismatches at a leaf (wrong individual ack) or at an internal node
    (report does not recombine to the claimed aggregate) mark the pair, and
    recursion continues where the structure allows.
    """
    marks = MarkSet()
    expect = expected_acks(keys, tree, nonce)

    # Pre-order walk, children in tree order: the stack holds them reversed.
    stack: list[tuple[NodeId, NodeId, bytes | None, bytes]] = [
        (tree.bs_child, BS_ID, m_b, agg_ack)
    ]
    while stack:
        node, parent, data, reported = stack.pop()
        if reported == expect[node]:
            continue  # consistent subtree: not processed further
        if tree.is_leaf(node):
            if reported != crypto.node_ack(keys.bs_key(node), nonce):
                marks.add(node, parent, "type_i")
            continue
        extracted = _extract2(keys, tree, node, data, nonce)
        if extracted is None:
            marks.add(node, parent, "structural")
            continue
        reports, acks = extracted
        recombined = crypto.xor_acks(
            [crypto.node_ack(keys.bs_key(node), nonce)] + list(acks.values())
        )
        if reported != recombined:
            marks.add(node, parent, "type_ii")
        stack.extend(
            (child, node, reports.get(child), acks[child])
            for child in reversed(tree.children.get(node, []))
        )
    return marks
