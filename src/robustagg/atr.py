"""Stage three: rebuilding the aggregation tree without blacklisted nodes.

Two variants: the basic flood-and-respond protocol, and a resilient one
that collects signed neighbor lists once up front and lets the BS compute
trees centrally.  Both end with the BS distributing the finished tree in a
single authenticated broadcast so every node's view matches the BS's.

The BS-keyed responses of the basic variant and the signed lists of the
resilient one are charged by their byte size, not computed: no deviation
can alter either in flight, so each would always verify.  The distributed
tree keeps its bytes, because every node's view is parsed from them.
"""

from __future__ import annotations

import struct
from functools import cached_property
from itertools import chain

from . import wire
from .crypto import BS_ID, NodeId
from .errors import FrameError
from .netmodel import LINK_OVERHEAD, AggregationTree, Network, NetworkGraph, bfs_levels


class AtrOutcome:
    def __init__(
        self,
        tree: AggregationTree | None,
        adopted: dict[NodeId, NodeId],
        sensors: set[NodeId],
    ) -> None:
        self.tree = tree
        # The (child, parent) pairs parsed from the broadcast payload, in
        # child-id order as packed, not copied from the BS structure.
        self.adopted = adopted
        self.sensors = sensors

    @cached_property
    def node_views(self) -> dict[NodeId, tuple[NodeId, tuple[NodeId, ...]]]:
        """What each sensor adopted, for consistency checks: node -> (parent,
        children tuple).  Built from `adopted` on first read."""
        children: dict[NodeId, list[NodeId]] = {}
        for c, p in self.adopted.items():
            children.setdefault(p, []).append(c)
        return {node: (p, tuple(children.get(node, ()))) for node, p in self.adopted.items()}

    @cached_property
    def unreached(self) -> set[NodeId]:
        return set(self.sensors).difference(self.adopted)


def _bs_child(bs_neighbors: list[NodeId], blacklist: frozenset[NodeId]) -> NodeId | None:
    """The tree's one BS child: the lowest-id BS neighbor not blacklisted."""
    return next((v for v in bs_neighbors if v not in blacklist), None)


def build_initial_tree(graph: NetworkGraph) -> AggregationTree:
    """Deterministic BFS tree with a single BS child, the BS's lowest-id
    neighbor; a `NetworkGraph` always gives the BS one."""
    parent = {graph.neighbors(BS_ID)[0]: BS_ID}
    # Levels expand in discovery order (unsorted); the pinned reports depend on it.
    levels = bfs_levels(parent, graph.neighbors, frozenset({BS_ID}))
    return AggregationTree.from_levels(parent, levels)


# One framed (child, parent) field of the distributed tree: the 4-byte length
# prefix, whose value is always 4, then the two u16 ids.  All of a tree's
# pairs pack, and unpack, as one run of u16s, four per pair: the prefix's
# two halves, then the ids.
_PAIR = struct.Struct(">IHH")
_PAIR_LEN = 2 * wire.NODE_ID_LEN


def _serialize_tree(nonce: bytes, parent: dict[NodeId, NodeId]) -> bytes:
    kids = sorted(parent)
    flat = [0, _PAIR_LEN] * (2 * len(kids))  # (0, length, child, parent) per pair
    flat[2::4] = kids
    flat[3::4] = map(parent.__getitem__, kids)
    return wire.frame(nonce) + struct.pack(f">{len(flat)}H", *flat)


def _parse_tree(payload: bytes) -> dict[NodeId, NodeId]:
    if not payload:
        return {}  # no nonce field and no pair: an empty tree
    _, pairs = wire.split_field(payload)
    count, extra = divmod(len(pairs), _PAIR.size)
    if extra:
        raise FrameError("truncated tree pair")
    flat = struct.unpack(f">{4 * count}H", pairs)
    if flat[0::4].count(0) != count or flat[1::4].count(_PAIR_LEN) != count:
        for length, _, _ in _PAIR.iter_unpack(pairs):
            if length != _PAIR_LEN:
                raise FrameError(f"tree pair of {length} bytes, expected {_PAIR_LEN}")
    return dict(zip(flat[2::4], flat[3::4]))


def _distribute(net: Network, nonce: bytes, tree: AggregationTree) -> AtrOutcome:
    delivered = net.bs_broadcast(_serialize_tree(nonce, tree.parent))
    return AtrOutcome(tree, _parse_tree(delivered), net.graph.sensors)


def atr_basic(
    net: Network, blacklist: frozenset[NodeId], nonce: bytes, adv
) -> AtrOutcome:
    """Flooded tree-establishment plus upward response collection."""
    net.phase = "atr"
    graph, faulty = net.graph, adv.faulty
    te = wire.frame(nonce, *[wire.u16(x) for x in sorted(blacklist)], wire.u16(graph.n))
    te_size = len(te) + wire.framed_size(wire.ACK_LEN)  # hop-by-hop auth tag

    b = _bs_child(graph.neighbors(BS_ID), blacklist)
    if b is None:
        return AtrOutcome(None, {}, graph.sensors)
    net.send_link(BS_ID, b, te)

    def rebroadcast(u: NodeId) -> list[NodeId]:
        if u in faulty and adv.action(u, "te_suppress") is not None:
            adv.fire(u, "te_suppress")
            return []
        nbrs = graph.neighbors(u)
        for w in nbrs:
            if w != BS_ID:
                net.ledger.charge(u, w, te_size, net.phase)
        return nbrs

    # Flood: each reached node rebroadcasts the TE once to all neighbors;
    # the first fresh sender becomes the parent, ties broken by id order.
    # Each level is sorted by id; the pinned reports depend on it.
    parent = {b: BS_ID}
    levels = bfs_levels(parent, rebroadcast, blacklist | {BS_ID}, sort_levels=True)
    flood = AggregationTree.from_levels(parent, levels)
    # Childhood confirmation back to the chosen parent: the nonce and the
    # child's id, charged by size.
    confirm = wire.framed_size(len(nonce), wire.NODE_ID_LEN) + LINK_OVERHEAD
    for c, p in sorted(parent.items()):
        if p != BS_ID:
            net.ledger.charge(c, p, confirm, net.phase)

    # Upward response relay, deepest levels first: a node passes its own
    # response and everything its children forwarded to its parent, and the
    # link is charged once for all of it, one link envelope per message.  A
    # dropping node cuts off its whole subtree.  A response is the nonce, the
    # node's id and its flood children's ids, MACed with its BS key.  Each
    # node sends one, blacklisted nodes never join the flood, and nothing
    # alters a response in flight, so every response that reaches the BS
    # verifies and is the first from its node: it is charged, not built.
    carried: dict[NodeId, int] = dict.fromkeys((BS_ID, *parent), 0)  # bytes children sent up
    dropped: set[NodeId] = set()
    # A response with no id yet (its framed nonce, MACed), and each framed id.
    resp_base = wire.framed_size(wire.framed_size(len(nonce)), wire.ACK_LEN)
    id_field = wire.framed_size(wire.NODE_ID_LEN)
    for u in chain.from_iterable(flood.epochs):
        if u in faulty and adv.action(u, "response_drop") is not None:
            adv.fire(u, "response_drop")
            dropped.add(u)
            continue
        resp = resp_base + id_field * (1 + len(flood.children[u]))
        p = parent[u]
        nbytes = carried[u] + resp + LINK_OVERHEAD
        net.ledger.charge(u, p, nbytes, net.phase)
        carried[p] += nbytes

    # b is always kept (the BS handed it the TE itself); below it, a node
    # joins only if its response arrived: no node on its flood path dropped.
    final_parent = {b: BS_ID}
    blocked = frozenset(dropped)
    levels = [[b]] if b in blocked else bfs_levels(final_parent, flood.children.__getitem__, blocked)
    return _distribute(net, nonce, AggregationTree.from_levels(final_parent, levels))


def atr_resilient_init(net: Network, adv) -> dict[NodeId, list[NodeId]]:
    """One-time signed neighbor-list collection.

    Every node floods its signed list once.  Returns the BS's mutual
    adjacency, the BS included: a sensor keeps a graph neighbor that it
    announced and that announced it back, or the BS, which observes its own
    links.  So no fabricated link survives: a one-sided claim is dropped,
    and so is a link two colluding nodes both announce, since a link that
    does not exist cannot carry a frame.  Each list is sorted and the
    adjacency is symmetric.  A faked list is faked before it is signed, and
    no one can alter a signed list, so each list arrives as announced and
    its signature is charged, not computed.
    """
    net.phase = "nl"
    graph = net.graph
    sensors = sorted(graph.sensors)
    # The lists faulty nodes faked; every other node announces exactly its
    # graph neighbors.
    faked: dict[NodeId, set[NodeId]] = {}
    # Every list crosses every backbone edge, so each edge carries the sum:
    # per list, the signer's id, the framed ids behind a 2-byte b"nl" tag,
    # and the signature.
    empty_list = wire.framed_size(wire.NODE_ID_LEN, wire.framed_size(2), wire.ACK_LEN)
    id_field = wire.framed_size(wire.NODE_ID_LEN)
    list_bytes = 0
    for s in sensors:
        nbrs = graph.neighbors(s)
        fake = adv.action(s, "nl_fake") if s in adv.faulty else None
        if fake is not None:
            adv.fire(s, "nl_fake")
            add, remove = set(fake.params.get("add", ())), set(fake.params.get("remove", ()))
            nbrs = faked[s] = (set(nbrs) | add) - remove
        list_bytes += empty_list + id_field * len(nbrs)
    for a, c in graph.flood_edges:
        net.ledger.charge(a, c, list_bytes, net.phase)
    # A link is kept when each end announced the other; the BS announces no
    # list and keeps each of its links whose sensor end announced it.
    adj: dict[NodeId, list[NodeId]] = {}
    for s in (BS_ID, *sensors):
        own = faked.get(s)
        adj[s] = [
            t for t in graph.neighbors(s)
            if (own is None or t in own) and (t not in faked or s in faked[t])
        ]
    return adj


def atr_resilient_build(
    net: Network,
    adj: dict[NodeId, list[NodeId]],
    blacklist: frozenset[NodeId],
    nonce: bytes,
) -> AtrOutcome:
    """Centralized BFS over the mutual adjacency `atr_resilient_init` returned,
    then distribution."""
    net.phase = "atr"
    b = _bs_child(adj[BS_ID], blacklist)
    if b is None:
        return AtrOutcome(None, {}, net.graph.sensors)
    parent = {b: BS_ID}
    # Each level is sorted by id; the pinned reports depend on it.
    levels = bfs_levels(parent, adj.__getitem__, blacklist | {BS_ID}, sort_levels=True)
    return _distribute(net, nonce, AggregationTree.from_levels(parent, levels))
