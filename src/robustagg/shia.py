"""Stage one: in-network sum aggregation under hash commitments, with acks.

Four phases per session: query broadcast, aggregate-commit (labels flow up
the tree), result checking (off-path labels flow down, nodes verify their
own value reached the root), and ack aggregation (per-node MACs XOR'ed
upward, compared by the BS against the expected combination).
"""

from __future__ import annotations

import struct
from itertools import chain

from . import crypto, wire
from .adversary import garble
from .crypto import NodeId
from .errors import FrameError, ProtocolViolation
from .netmodel import LINK_OVERHEAD, AggregationTree, Edge, Network

# A label is its tag, then the frame of count, value and commitment.  The
# commitment is a node id (leaf) or a digest (internal), so each kind has one
# fixed-size layout: tag, then `u32 len, u16 count, u32 len, i64 value,
# u32 len, commitment`.
_LEAF, _INTERNAL = 0, 1
_LEAF_LAYOUT = struct.Struct(f">BIHIqI{wire.NODE_ID_LEN}s")
_INTERNAL_LAYOUT = struct.Struct(f">BIHIqI{wire.DIGEST_LEN}s")
# The count and value frames of an internal label's hashed input.
_SUMS_LAYOUT = struct.Struct(">IHIq")
# Each hashed input label's length prefix, indexed by `Label.leaf`.
_INPUT_PREFIX = (wire.u32(_INTERNAL_LAYOUT.size), wire.u32(_LEAF_LAYOUT.size))
# A leaf label's commitment, the node id as `wire.u16` packs it.
_pack_id = struct.Struct(">H").pack


class Label:
    """The <count, value, commitment> tuple flowing up the tree.

    Leaf-format labels carry the node id in the commitment slot; internal
    labels carry a digest chaining the child labels.  `raw` is the label's
    wire serialization, made once: the layout is canonical, so a parsed
    label keeps the bytes it was parsed from, and two labels carry the same
    fields exactly when their `raw` bytes are equal.  Labels are never
    mutated.
    """

    __slots__ = ("count", "value", "commit", "leaf", "raw")

    def __init__(self, count: int, value: int, commit: bytes, leaf: bool, raw: bytes = b""):
        self.count = count
        self.value = value
        self.commit = commit
        self.leaf = leaf
        self.raw = raw or self.to_bytes()

    def to_bytes(self) -> bytes:
        if self.leaf:
            layout, tag, commit_len = _LEAF_LAYOUT, _LEAF, wire.NODE_ID_LEN
        else:
            layout, tag, commit_len = _INTERNAL_LAYOUT, _INTERNAL, wire.DIGEST_LEN
        if len(self.commit) != commit_len:  # `s` would pad or truncate it
            raise ProtocolViolation(f"commitment of {len(self.commit)} bytes, not {commit_len}")
        return layout.pack(
            tag, wire.COUNT_LEN, self.count, wire.VALUE_LEN, self.value, commit_len, self.commit
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "Label":
        if len(data) == _LEAF_LAYOUT.size and data[0] == _LEAF:
            leaf, commit_len = True, wire.NODE_ID_LEN
            fields = _LEAF_LAYOUT.unpack(data)
        elif len(data) == _INTERNAL_LAYOUT.size and data[0] == _INTERNAL:
            leaf, commit_len = False, wire.DIGEST_LEN
            fields = _INTERNAL_LAYOUT.unpack(data)
        else:
            raise FrameError("not a label: bad tag or length")
        _, count_len, count, value_len, value, got_commit_len, commit = fields
        if (count_len, value_len, got_commit_len) != (wire.COUNT_LEN, wire.VALUE_LEN, commit_len):
            raise FrameError("bad label field lengths")
        return cls(count, value, commit, leaf, data)


def leaf_label(node: NodeId, value: int) -> Label:
    commit = _pack_id(node)
    raw = _LEAF_LAYOUT.pack(
        _LEAF, wire.COUNT_LEN, 1, wire.VALUE_LEN, value, wire.NODE_ID_LEN, commit
    )
    return Label(1, value, commit, True, raw)


def internal_label(nonce: bytes, inputs: list[Label]) -> Label:
    """Combine an ordered input list into the parent label.

    The commitment hashes the frame of the nonce, the summed count and
    value, then each input label's serialization in order; any reordering or
    field change yields a different digest.
    """
    count = value = 0
    parts = [wire.u32(len(nonce)), nonce, b""]  # [2]: the sums, once known
    for l in inputs:
        count += l.count
        value += l.value
        parts += (_INPUT_PREFIX[l.leaf], l.raw)
    parts[2] = _SUMS_LAYOUT.pack(wire.COUNT_LEN, count, wire.VALUE_LEN, value)
    digest = crypto.hash_bytes(b"".join(parts))
    raw = _INTERNAL_LAYOUT.pack(
        _INTERNAL, wire.COUNT_LEN, count, wire.VALUE_LEN, value, wire.DIGEST_LEN, digest
    )
    return Label(count, value, digest, False, raw)


# Off-path data: one framed step per ancestor level, bottom-up.  A step is a
# u16 `slot`, where the recomputing node's current label goes among the
# ancestor's inputs, then the serialized other inputs.  Its framing costs the
# step's own length prefix and the framed slot.
_STEP_OVERHEAD = wire.LEN_PREFIX + wire.framed_size(len(wire.u16(0)))


class Offpath:
    """An off-path blob as a chain of steps; a session keeps one per blob.

    A non-empty blob is its first step framed ahead of the blob `above`:
    `inputs`, the sender's input list, and `slot`, where the recomputing
    node's label goes in it.  A built step shares its sender's list with
    its siblings' steps; a parsed step has a placeholder at `slot`, last if
    a junk slot lies past the other inputs.  No step mutates `inputs`.
    `others`, the inputs but the one at `slot`, is a read-only view of the
    sender's other inputs, which the step's bytes frame.  The empty blob,
    which the BS child gets, has no step and `above` None.  `len()` is the
    blob's byte length, which is all the link charge reads.  The bytes,
    `raw`, are kept when the blob was parsed and otherwise built by
    `offpath_to_bytes` on first use, so an honest check phase builds
    none.  A step that arrived unaltered keeps the label its sender held at
    `slot` (`held`) and the root the sender's own fold implies (`root`), so
    a walk that reaches `held` stops.
    """

    __slots__ = ("size", "slot", "above", "inputs", "held", "root", "_raw")

    def __init__(
        self,
        size: int,
        slot: int = 0,
        above: "Offpath | None" = None,
        inputs: list[Label | None] | tuple[()] = (),
        held: Label | None = None,
        root: Label | None = None,
        raw: bytes | None = None,
    ):
        self.size = size
        self.slot = slot
        self.above = above
        self.inputs = inputs
        self.held = held
        self.root = root
        self._raw = raw

    def __len__(self) -> int:
        return self.size

    @property
    def others(self) -> tuple[Label, ...]:
        inputs, slot = self.inputs, self.slot
        return (*inputs[:slot], *inputs[slot + 1 :])

    @property
    def raw(self) -> bytes:
        if self._raw is None:
            # Build the unbuilt blobs on the way up first, top-down, without
            # recursing: a tree can be deeper than the recursion limit.
            unbuilt = []
            path = self
            while path._raw is None:
                unbuilt.append(path)
                path = path.above
            for path in reversed(unbuilt):
                others = [l.raw for l in path.others]
                path._raw = offpath_to_bytes(path.slot, others, path.above._raw)
        return self._raw


def offpath_to_bytes(slot: int, others: list[bytes], above: bytes) -> bytes:
    """The blob for the child whose label sits at `slot`: one step framed
    ahead of the blob the node received (`frame` concatenates).  The one
    builder of blob bytes; `Offpath.raw` calls it."""
    return wire.frame(wire.frame(wire.u16(slot), *others)) + above


def offpath_from_bytes(data: bytes) -> Offpath:
    """Parse an off-path blob, every step of it.  Raises FrameError on junk."""
    walked: list[tuple[bytes, int, list[Label | None]]] = []
    rest = data
    while rest:
        step, tail = wire.split_field(rest)
        fields = wire.unframe(step)
        if not fields:
            raise FrameError("empty off-path step")
        inputs: list[Label | None] = [Label.from_bytes(f) for f in fields[1:]]
        # The placeholder for the recomputing node's label; a junk slot past
        # the other inputs puts it last.
        slot = min(wire.read_u16(fields[0]), len(inputs))
        inputs.insert(slot, None)
        walked.append((rest, slot, inputs))
        rest = tail
    path = Offpath(0, raw=b"")
    for raw, slot, inputs in reversed(walked):
        path = Offpath(len(raw), slot, path, inputs, raw=raw)
    return path


def recompute_root(own: Label, path: Offpath, nonce: bytes) -> Label:
    """Fold `own` up the steps of `path` into the root label they imply.

    At the first step that arrived unaltered and `held` the current fold,
    the sender has resolved the rest of the walk: its `root` is the answer.
    """
    cur = own
    while path.above is not None:
        if path.held is not None and cur.raw == path.held.raw:
            return path.root
        inputs = path.inputs.copy()
        inputs[path.slot] = cur
        cur = internal_label(nonce, inputs)
        path = path.above
    return cur


class ShiaResult:
    """One session's stage-one outcome."""

    def __init__(
        self,
        accepted: bool,
        value: int | None,
        root_label: Label | None,
        root_ok: bool,
        agg_ack: bytes | None,
        expected_ack: bytes | None,
        node_acks: dict[NodeId, bytes],
        acked: dict[NodeId, bool],
        acks_up: dict[NodeId, bytes] | None = None,
    ) -> None:
        self.accepted = accepted
        self.value = value  # the root label's value; None when none arrived
        self.root_label = root_label
        self.root_ok = root_ok
        self.agg_ack = agg_ack
        self.expected_ack = expected_ack
        # Each member's own ack, MACed once per session; ALS II reads it.
        self.node_acks = node_acks
        # Whether each tree node released its ack, keyed by sensor NodeId.
        self.acked = acked
        # The aggregated ack each node sent its parent, keyed by sender.
        self.acks_up = {} if acks_up is None else acks_up


def run_shia(
    net: Network,
    tree: AggregationTree,
    values: dict[NodeId, int],
    adv,
    nonce: bytes,
    value_range: tuple[int, int],
) -> ShiaResult:
    """Execute one full aggregation session over `tree`.

    `adv` supplies the readings nodes report for the true `values` and the
    per-node deviations (see adversary.Adversary); passing a no-op adversary
    yields the honest run.  Its hooks are consulted only at the nodes in
    `adv.faulty`, since no other node can be scripted, and at each of those
    in the order the phases visit the tree.
    """
    m_lo, m_hi = value_range
    faulty = adv.faulty
    values = adv.readings(values)
    children, parent = tree.children, tree.parent

    # --- query dissemination ---
    net.phase = "query"
    net.bs_broadcast(wire.frame(nonce))

    # --- aggregate-commit ---
    # Upward messages are keyed by sender: each node has one parent.
    net.phase = "commit"
    sent: dict[NodeId, Label] = {}  # the label each node's parent received
    handoffs: dict[NodeId, list[Label]] = {}  # labels handed to parent_switch targets
    # Each node that accepted a child: those children, its inputs (their
    # labels first, in order) and its label before any forgery.
    steps: dict[NodeId, tuple[list[NodeId], list[Label], Label]] = {}
    send = net.send_link

    for node in chain.from_iterable(tree.epochs):
        kids = children[node]
        if not kids and node not in handoffs:
            label = leaf_label(node, values[node])  # its inputs are its own leaf label
        else:
            kept: list[NodeId] = []
            inputs: list[Label] = []
            for child in kids:
                lab = sent.get(child)
                if lab is None:
                    continue  # silent child: exclude its subtree
                if lab.count < 1 or not (m_lo * lab.count <= lab.value <= m_hi * lab.count):
                    continue  # implausible label: treat as silent
                kept.append(child)
                inputs.append(lab)
            if node in handoffs:
                inputs += handoffs[node]
            inputs.append(leaf_label(node, values[node]))
            label = inputs[0] if len(inputs) == 1 else internal_label(nonce, inputs)
            if kept:
                steps[node] = (kept, inputs, label)

        if node in faulty:
            act = adv.action(node, "label_forge")
            if act is not None:
                p = act.params
                label = Label(
                    p.get("count", label.count),
                    p.get("value", label.value + p.get("value_add", 0)),
                    crypto.hash_bytes(b"forged" + nonce + wire.u16(node)),
                    leaf=False,
                )
                adv.fire(node, "label_forge")
            if adv.action(node, "label_drop") is not None:
                adv.fire(node, "label_drop")
                continue
            switch = adv.action(node, "parent_switch")
            if switch is not None:
                # Covert handoff between colluding faulty nodes; the real
                # parent sees silence, the target folds the label in.  If
                # the accomplice is no longer in the tree, or has already
                # had its turn, the label is lost.
                target = switch.params["target"]
                if target in parent:
                    handoffs.setdefault(target, []).append(label)
                adv.fire(node, "parent_switch")
                continue
        send(node, parent[node], label.raw)
        sent[node] = label

    b = tree.bs_child
    root_label = sent.get(b)
    # Each member's ack, MACed once: the BS's expectation, the ack phase and
    # ALS II read it.  Acks fold as 128-bit ints; the ack phase makes bytes
    # only for an ack that is sent.
    bs_key = net.keys.bs_key
    node_acks: dict[NodeId, bytes] = {}
    ack_ints: dict[NodeId, int] = {}
    total = 0  # the XOR of every member's ack
    for s in parent:
        ack = node_acks[s] = crypto.node_ack(bs_key(s), nonce)
        ack_ints[s] = own = int.from_bytes(ack, "big")
        total ^= own
    expected = total.to_bytes(wire.ACK_LEN, "big")

    if root_label is None:
        return ShiaResult(
            accepted=False,
            value=None,
            root_label=None,
            root_ok=False,
            agg_ack=None,
            expected_ack=expected,
            node_acks=node_acks,
            acked=dict.fromkeys(parent, False),
        )

    # BS-side plausibility: the root count must cover the whole tree and the
    # root value must be achievable from in-range measurements.
    root_ok = root_label.count == len(parent) and (
        m_lo * root_label.count <= root_label.value <= m_hi * root_label.count
    )

    # --- result checking: off-path dissemination ---
    # Top-down, so each node checks the path it got before forwarding it.
    # A node that got a path is one whose label its parent kept.
    net.phase = "check"
    net.bs_broadcast(wire.frame(nonce, root_label.raw))
    offpath: dict[NodeId, Offpath] = {b: Offpath(0, raw=b"")}  # nodes that got one
    matched: set[NodeId] = set()  # nodes whose label the root commits to
    for node in chain.from_iterable(reversed(tree.epochs)):
        above = offpath.get(node)
        if above is None:
            continue  # nothing received to check or forward
        mine = recompute_root(sent[node], above, nonce)
        if mine.raw == root_label.raw:
            matched.add(node)
        step = steps.get(node)
        if step is None:
            continue  # no child to forward to
        kids, labels, fold = step
        # A child's blob frames every input but its own ahead of `above`.
        size = _STEP_OVERHEAD + len(above) + wire.LEN_PREFIX * len(labels)
        for l in labels:
            size += len(l.raw)
        corrupt = adv.action(node, "offpath_corrupt") if node in faulty else None
        root = None
        if corrupt is None:
            # The root the node's own fold implies; a forger walks it anew.
            root = mine if fold is sent[node] else recompute_root(fold, above, nonce)
        for idx, child in enumerate(kids):
            held = labels[idx]
            # Every child's step shares the node's input list.
            built = Offpath(size - wire.LEN_PREFIX - len(held.raw), idx, above, labels, held, root)
            msg = built
            if corrupt is not None:
                msg = garble(built.raw)
                adv.fire(node, "offpath_corrupt")
            delivered = send(node, child, msg)
            if delivered is built:
                # Unaltered (`garble` always makes new bytes): the step is
                # the labels the sender holds, no bytes and no parse.
                offpath[child] = built
                continue
            try:
                offpath[child] = offpath_from_bytes(delivered)
            except FrameError:
                pass  # junk: the child has no path to check

    # --- acknowledgement aggregation ---
    net.phase = "ack"
    acked: dict[NodeId, bool] = {}
    acks_up: dict[NodeId, bytes] = {}
    folds: dict[NodeId, int] = {}  # each sent `acks_up` entry as an int
    for node in chain.from_iterable(tree.epochs):
        bad = node in faulty
        released = node in matched
        if bad and released and adv.action(node, "ack_drop") is not None:
            adv.fire(node, "ack_drop")
            released = False
        acked[node] = released
        # The XOR of the acks this node sends up, None until one joins: a
        # node with none sends nothing.
        acc = ack_ints[node] if released else None
        if bad and released and adv.action(node, "ack_garble") is not None:
            adv.fire(node, "ack_garble")
            acc = int.from_bytes(garble(node_acks[node]), "big")

        for c in children[node]:
            got = folds.get(c)
            if got is not None:
                acc = got if acc is None else acc ^ got
        up = None if acc is None else acc.to_bytes(wire.ACK_LEN, "big")
        if bad and adv.action(node, "agg_ack_garble") is not None:
            adv.fire(node, "agg_ack_garble")
            up = garble(crypto.ZERO_ACK if up is None else up)
            acc = int.from_bytes(up, "big")
        if up is not None:
            send(node, parent[node], up)
            acks_up[node] = up
            folds[node] = acc

    agg_ack = acks_up.get(b)
    return ShiaResult(
        accepted=root_ok and agg_ack == expected,
        value=root_label.value,
        root_label=root_label,
        root_ok=root_ok,
        agg_ack=agg_ack,
        expected_ack=expected,
        node_acks=node_acks,
        acked=acked,
        acks_up=acks_up,
    )


def honest_charges(
    tree: AggregationTree, flood_edges: list[Edge]
) -> list[tuple[NodeId, NodeId, int, str]]:
    """The bytes an honest `run_shia` over `tree` charges, as rows of
    (low id, high id, bytes, phase), one per (edge, phase).

    Every label, blob step and ack has a fixed width, so an honest session
    costs what the tree's shape says: a member's label is internal exactly
    when it has children, and each child's off-path blob is its parent's
    blob plus one step framing the parent's other inputs.  `flood_edges`
    carry the two BS broadcasts; the check phase's flood and blob bytes on
    one edge share its row.  Rows come in the order `run_shia` first charges
    their (edge, phase).
    """
    children, parent, epochs = tree.children, tree.parent, tree.epochs
    label = {s: _INTERNAL_LAYOUT.size if children[s] else _LEAF_LAYOUT.size for s in parent}
    # (low id, high id, label size) per member's uplink, leaves first;
    # `edge_key` is inlined here and below, once per member.
    up = [
        (s, p, label[s]) if s < p else (p, s, label[s])
        for s in chain.from_iterable(epochs)
        for p in (parent[s],)
    ]
    prefix = wire.LEN_PREFIX
    blob = {tree.bs_child: 0}
    checks: dict[Edge, int] = {}  # blob bytes per tree edge, in sending order
    for node in chain.from_iterable(reversed(epochs)):
        kids = children[node]
        if not kids:
            continue
        # The node's inputs: its children's labels, then its own leaf label.
        inputs = sum(map(label.__getitem__, kids)) + _LEAF_LAYOUT.size
        size = _STEP_OVERHEAD + blob[node] + prefix * (len(kids) + 1) + inputs
        for c in kids:
            blob[c] = nbytes = size - prefix - label[c]
            checks[(node, c) if node < c else (c, node)] = nbytes + LINK_OVERHEAD
    query = wire.framed_size(wire.NONCE_LEN)
    root = wire.framed_size(wire.NONCE_LEN, label[tree.bs_child])
    ack = wire.ACK_LEN + LINK_OVERHEAD
    rows = [(a, b, query, "query") for a, b in flood_edges]
    rows += [(a, b, nbytes + LINK_OVERHEAD, "commit") for a, b, nbytes in up]
    rows += [(a, b, root + checks.pop((a, b), 0), "check") for a, b in flood_edges]
    rows += [(a, b, nbytes, "check") for (a, b), nbytes in checks.items()]
    rows += [(a, b, ack, "ack") for a, b, _ in up]
    return rows
