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

from dataclasses import dataclass, field
from itertools import chain

from . import wire
from .crypto import BS_ID, NodeId
from .netmodel import LINK_OVERHEAD, AggregationTree, Network, NetworkGraph, bfs_levels, edge_key


@dataclass
class AtrOutcome:
    tree: AggregationTree | None
    # What each sensor adopted from the distributed tree, for consistency
    # checks: node -> (parent, children tuple).  Parsed from the broadcast
    # payload, not copied from the BS structure.
    node_views: dict[NodeId, tuple[NodeId, tuple[NodeId, ...]]] = field(default_factory=dict)
    unreached: set[NodeId] = field(default_factory=set)


def _bs_child(bs_neighbors: list[NodeId], blacklist: frozenset[NodeId]) -> NodeId | None:
    """The tree's one BS child: the lowest-id BS neighbor not blacklisted."""
    return next((v for v in bs_neighbors if v not in blacklist), None)


def build_initial_tree(graph: NetworkGraph, blacklist: frozenset[NodeId] = frozenset()) -> AggregationTree | None:
    """Deterministic BFS tree with a single BS child (lowest usable id)."""
    b = _bs_child(graph.neighbors(BS_ID), blacklist)
    if b is None:
        return None
    parent = {b: BS_ID}
    # Levels expand in discovery order (unsorted); the pinned reports depend on it.
    bfs_levels(parent, graph.neighbors, blacklist | {BS_ID})
    return AggregationTree(parent)


def _serialize_tree(nonce: bytes, parent: dict[NodeId, NodeId]) -> bytes:
    pairs = [wire.u16(c) + wire.u16(p) for c, p in sorted(parent.items())]
    return wire.frame(nonce, *pairs)


def _parse_tree(payload: bytes) -> dict[NodeId, NodeId]:
    fields = wire.unframe(payload)
    out = {}
    for pair in fields[1:]:
        out[wire.read_u16(pair[:2])] = wire.read_u16(pair[2:])
    return out


def _distribute(net: Network, nonce: bytes, tree: AggregationTree) -> AtrOutcome:
    payload = _serialize_tree(nonce, tree.parent)
    delivered = net.bs_broadcast(payload)
    adopted = _parse_tree(delivered)
    views: dict[NodeId, tuple[NodeId, tuple[NodeId, ...]]] = {}
    children: dict[NodeId, list[NodeId]] = {}
    for c, p in sorted(adopted.items()):
        children.setdefault(p, []).append(c)
    for node, p in adopted.items():
        views[node] = (p, tuple(children.get(node, [])))
    unreached = net.graph.sensors - set(adopted)
    return AtrOutcome(tree, views, unreached)


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
        return AtrOutcome(None, {}, set(graph.sensors))
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
    bfs_levels(parent, rebroadcast, blacklist | {BS_ID}, sort_levels=True)

    flood = AggregationTree(parent)
    for c, p in sorted(parent.items()):
        if p != BS_ID:
            # childhood confirmation back to the chosen parent
            net.send_link(c, p, wire.frame(nonce, wire.u16(c)))

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
    for u in chain.from_iterable(flood.epochs):
        if u in faulty and adv.action(u, "response_drop") is not None:
            adv.fire(u, "response_drop")
            dropped.add(u)
            continue
        ids = [wire.NODE_ID_LEN] * (1 + len(flood.children[u]))
        resp = wire.framed_size(wire.framed_size(len(nonce), *ids), wire.ACK_LEN)
        p = parent[u]
        nbytes = carried[u] + resp + LINK_OVERHEAD
        net.ledger.charge(u, p, nbytes, net.phase)
        carried[p] += nbytes

    # b is always kept (the BS handed it the TE itself); below it, a node
    # joins only if its response arrived: no node on its flood path dropped.
    final_parent = {b: BS_ID}
    if b not in dropped:
        bfs_levels(final_parent, flood.children.__getitem__, frozenset(dropped))
    tree = AggregationTree(final_parent)
    return _distribute(net, nonce, tree)


def atr_resilient_init(net: Network, adv) -> set[tuple[NodeId, NodeId]]:
    """One-time signed neighbor-list collection.

    Every node floods its signed list once; the BS keeps only edges both
    endpoints announced that are graph links, plus its own observed edges,
    so no fabricated link survives: a one-sided claim is dropped, and so is
    a link two colluding nodes both announce, since a link that does not
    exist cannot carry a frame.  A faked list is faked before it is signed,
    and no one can alter a signed list, so each list arrives as announced
    and its signature is charged, not computed.
    """
    net.phase = "nl"
    graph = net.graph
    announced: dict[NodeId, set[NodeId]] = {}
    # Every list crosses every backbone edge, so each edge carries the sum.
    list_bytes = 0
    for s in sorted(graph.sensors):
        nbrs = set(graph.neighbors(s))
        fake = adv.action(s, "nl_fake") if s in adv.faulty else None
        if fake is not None:
            adv.fire(s, "nl_fake")
            nbrs = (nbrs | set(fake.params.get("add", ()))) - set(fake.params.get("remove", ()))
        announced[s] = nbrs
        # The signer's id, the list framed behind a 2-byte b"nl" tag, the signature.
        listed = wire.framed_size(2, *[wire.NODE_ID_LEN] * len(nbrs))
        list_bytes += wire.framed_size(wire.NODE_ID_LEN, listed, wire.ACK_LEN)
    for a, c in graph.flood_edges:
        net.ledger.charge(a, c, list_bytes, net.phase)
    edges: set[tuple[NodeId, NodeId]] = set()
    bs_nbrs = set(graph.neighbors(BS_ID))
    for s, nbrs in announced.items():
        for t in nbrs:
            if t == BS_ID:
                if s in bs_nbrs:
                    edges.add(edge_key(s, BS_ID))
            elif t in announced and s in announced[t] and graph.has_edge(s, t):
                edges.add(edge_key(s, t))
    return edges


def atr_resilient_build(
    net: Network,
    edges: set[tuple[NodeId, NodeId]],
    blacklist: frozenset[NodeId],
    nonce: bytes,
) -> AtrOutcome:
    """Centralized BFS over the mutually-announced graph, then distribution."""
    net.phase = "atr"
    adj: dict[NodeId, list[NodeId]] = {}
    for a, c in edges:
        adj.setdefault(a, []).append(c)
        adj.setdefault(c, []).append(a)
    for nbrs in adj.values():
        nbrs.sort()
    b = _bs_child(adj.get(BS_ID, []), blacklist)
    if b is None:
        return AtrOutcome(None, {}, set(net.graph.sensors))
    parent = {b: BS_ID}
    # Each level is sorted by id; the pinned reports depend on it.
    bfs_levels(parent, adj.__getitem__, blacklist | {BS_ID}, sort_levels=True)
    tree = AggregationTree(parent)
    return _distribute(net, nonce, tree)
