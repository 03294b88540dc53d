"""Stage two: localizing faulty nodes after a failed aggregation.

Phase I collects onion-authenticated confirmations from every node that
acknowledged the result and recursively checks them at the BS; phase II
collects the per-child acks nodes stored during result checking and hunts
for inconsistencies.  Both produce a list of marks, in (child, parent)
pairs except when the parent is the BS.

Both phases' envelopes are charged by their byte size, not built.  A
confirmation is the nonce and one slot per child, the child's confirmation
or a 1-byte "none received" placeholder that never verifies; a report is
the nonce, the nested reports of the non-leaf children and one ack per
child.  Each is MACed with the sender's BS key and tagged with one byte.
A sender always holds its own key, and the one deviation that alters an
envelope in flight, `confirm_tamper`, flips the tag byte of a child's slot,
so the BS rejects that slot on its tag alone.  The collect phases therefore
hand the BS what it would verify: the child slots each confirmation carried
intact, and the acks each report listed.
"""

from __future__ import annotations

from itertools import chain, repeat
from typing import NamedTuple

from . import crypto, wire
from .adversary import garble
from .crypto import BS_ID, NodeId
from .netmodel import LINK_OVERHEAD, AggregationTree, Network

# Wire size of the "no message received from this child" placeholder slot.
_NR_SIZE = 1


def _bare_envelope(nonce: bytes) -> int:
    """Bytes of a tagged, BS-keyed envelope around the nonce alone; each
    field it carries adds that field's framed size."""
    return 1 + wire.framed_size(wire.framed_size(len(nonce)), wire.ACK_LEN)


class Mark(NamedTuple):
    node: NodeId
    partner: NodeId | None  # the paired parent; None when the parent is the BS
    rule: str  # absent | structural | type_i | type_ii

    def pair(self) -> set[NodeId]:
        return {self.node} if self.partner is None else {self.node, self.partner}


def mark(node: NodeId, parent: NodeId, rule: str) -> Mark:
    """A mark on `node` and its parent, or on `node` alone under the BS."""
    return Mark(node, None if parent == BS_ID else parent, rule)


def marked(marks: list[Mark]) -> set[NodeId]:
    """Every node the marks name."""
    out: set[NodeId] = set()
    for m in marks:
        out |= m.pair()
    return out


def als1_collect(
    net: Network,
    tree: AggregationTree,
    acked: dict[NodeId, bool],
    adv,
    nonce: bytes,
) -> dict[NodeId, list[NodeId]]:
    """Hierarchical confirmation collection.

    Returns, for each node whose confirmation reached its parent, the
    children whose slots it carried intact.  Only nodes that acknowledged in
    result checking (`acked[s]`) take part; silent nodes send nothing and
    their parents substitute the placeholder.
    """
    net.phase = phase = "als1"
    charge, faulty = net.ledger.charge, adv.faulty
    children, parent, prefix = tree.children, tree.parent, wire.LEN_PREFIX
    bare = _bare_envelope(nonce)
    # The framed slot each sent confirmation fills in its parent's, keyed by
    # sender (each node has one parent); a child that sent none fills the
    # placeholder's.
    slot: dict[NodeId, int] = {}
    placeholder = repeat(wire.framed_size(_NR_SIZE))
    intact: dict[NodeId, list[NodeId]] = {}
    for node in chain.from_iterable(tree.epochs):
        if not acked[node]:
            continue
        kids = children[node]
        if kids:
            carried = [c for c in kids if c in slot]
            size = bare + sum(map(slot.get, kids, placeholder))
        else:
            carried, size = [], bare
        if node in faulty:
            tamper = adv.action(node, "confirm_tamper") if kids else None
            if tamper is not None:
                victim = kids[tamper.params.get("slot", len(kids) - 1) % len(kids)]
                carried = [c for c in carried if c != victim]
                adv.fire(node, "confirm_tamper")
            if adv.action(node, "confirm_drop") is not None:
                adv.fire(node, "confirm_drop")
                continue
        charge(node, parent[node], size + LINK_OVERHEAD, phase)
        slot[node] = size + prefix  # `wire.framed_size(size)`
        intact[node] = carried
    return intact


def als1_process(tree: AggregationTree, intact: dict[NodeId, list[NodeId]]) -> list[Mark]:
    """BS-side recursive confirmation check."""
    b = tree.bs_child
    if b not in intact:
        return [mark(b, BS_ID, "absent")]
    marks = []

    # Pre-order walk, children in tree order: the stack holds them reversed,
    # each with whether its parent carried its confirmation intact.
    children = tree.children
    stack: list[tuple[NodeId, NodeId, bool]] = [(b, BS_ID, True)]
    while stack:
        node, parent, ok = stack.pop()
        if not ok:
            marks.append(mark(node, parent, "structural"))
            continue
        kids, carried = children[node], intact[node]
        whole = len(carried) == len(kids)  # every child's slot intact
        stack += [(c, node, whole or c in carried) for c in reversed(kids)]
    return marks


def subtree_acks(tree: AggregationTree, node_acks: dict[NodeId, bytes]) -> dict[NodeId, bytes]:
    """Each node's expected aggregated ack: the XOR of its subtree's own acks.

    One bottom-up pass folds 128-bit ints; each node's bytes are made once.
    """
    children = tree.children
    folds: dict[NodeId, int] = {}
    for node in chain.from_iterable(tree.epochs):
        fold = int.from_bytes(node_acks[node], "big")
        for c in children[node]:
            fold ^= folds[c]
        folds[node] = fold
    return {node: fold.to_bytes(wire.ACK_LEN, "big") for node, fold in folds.items()}


def als2_collect(
    net: Network,
    tree: AggregationTree,
    acks_up: dict[NodeId, bytes],
    adv,
    nonce: bytes,
) -> dict[NodeId, list[bytes]]:
    """Hierarchical ack-report collection; leaves stay silent.

    A report carries nested reports for non-leaf children and the ack every
    child sent up in stage one (`acks_up`, keyed by sender; a never-received
    ack is reported as all zeros).  Returns, for each node whose report
    reached its parent, the acks it reported, in child order.
    """
    net.phase = phase = "als2"
    charge, faulty, children = net.ledger.charge, adv.faulty, tree.children
    parent, prefix = tree.parent, wire.LEN_PREFIX
    bare = _bare_envelope(nonce)
    ack_field = wire.framed_size(wire.ACK_LEN)
    # Each child's framed nested-report slot in its parent's report, keyed
    # by sender (each node has one parent): none for a leaf, and the
    # placeholder's for a non-leaf child whose report never came.
    slot: dict[NodeId, int] = {}
    placeholder = repeat(wire.framed_size(_NR_SIZE))
    reported: dict[NodeId, list[bytes]] = {}
    for node in chain.from_iterable(tree.epochs):
        kids = children[node]
        if not kids:
            slot[node] = 0
            continue
        acks = [acks_up.get(c, crypto.ZERO_ACK) for c in kids]
        if node in faulty:
            forge = adv.action(node, "ack_report_forge")
            if forge is not None:
                idx = forge.params.get("slot", 0) % len(acks)
                acks[idx] = garble(acks[idx])
                adv.fire(node, "ack_report_forge")
            if adv.action(node, "report_drop") is not None:
                adv.fire(node, "report_drop")
                continue
        size = bare + sum(map(slot.get, kids, placeholder)) + ack_field * len(kids)
        charge(node, parent[node], size + LINK_OVERHEAD, phase)
        slot[node] = size + prefix  # `wire.framed_size(size)`
        reported[node] = acks
    return reported


def als2_process(
    node_acks: dict[NodeId, bytes],
    tree: AggregationTree,
    reported: dict[NodeId, list[bytes]],
    agg_ack: bytes,
) -> list[Mark]:
    """BS-side recursive ack analysis.

    `node_acks` is each member's own ack, as stage one MACed it, and
    `agg_ack` the aggregated ack the BS received in stage one.  A child
    whose reported ack matches its expected value is not descended into;
    mismatches at a leaf (wrong individual ack) or at an internal node
    (report does not recombine to the claimed aggregate) mark the pair, and
    recursion continues where the structure allows.
    """
    marks = []
    expect = subtree_acks(tree, node_acks)

    # Pre-order walk, children in tree order: the stack holds them reversed.
    stack: list[tuple[NodeId, NodeId, bytes]] = [(tree.bs_child, BS_ID, agg_ack)]
    while stack:
        node, parent, claimed = stack.pop()
        if claimed == expect[node]:
            continue  # consistent subtree: not processed further
        if tree.is_leaf(node):
            if claimed != node_acks[node]:
                marks.append(mark(node, parent, "type_i"))
            continue
        acks = reported.get(node)
        if acks is None:
            marks.append(mark(node, parent, "structural"))
            continue
        recombined = crypto.xor_acks([node_acks[node], *acks])
        if claimed != recombined:
            marks.append(mark(node, parent, "type_ii"))
        kids = tree.children[node]
        stack.extend((c, node, a) for c, a in zip(reversed(kids), reversed(acks)))
    return marks
