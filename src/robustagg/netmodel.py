"""Simulated network: graph, aggregation tree, scheduling, channels, ledger.

The engine is synchronous and deterministic: phases iterate over epoch sets
derived from the tree, and every transmitted byte is charged to exactly one
graph edge in the congestion ledger.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sized
from typing import TypeVar

from . import wire
from .crypto import BS_ID, KeyStore, NodeId
from .errors import ConfigError, ProtocolViolation

Edge = tuple[NodeId, NodeId]
# A link payload: `bytes`, or a sized stand-in whose `len()` is its wire length.
Payload = TypeVar("Payload", bound=Sized)

# A hop-authenticated send's envelope around its payload: the payload's
# length prefix and a length-prefixed 16-byte link MAC.  Every link charge,
# sent through `Network.send_link` or charged by size, adds it once per
# message.
LINK_OVERHEAD = wire.framed_size(0, wire.ACK_LEN)


def edge_key(a: NodeId, b: NodeId) -> Edge:
    return (a, b) if a < b else (b, a)


def bfs_levels(
    parent: dict[NodeId, NodeId],
    neighbors: Callable[[NodeId], Iterable[NodeId]],
    blocked: frozenset[NodeId],
    sort_levels: bool = False,
) -> list[list[NodeId]]:
    """Level-order walk from `parent`'s keys; grows `parent` in place.

    The first node whose `neighbors` lists `v` becomes its parent; nodes in
    `blocked` are never entered.  Returns the levels, seeds first; each later
    level is in discovery order, or sorted by id with `sort_levels`.
    """
    levels = []
    level = list(parent)
    while level:
        levels.append(level)
        nxt = []
        for u in level:
            for v in neighbors(u):
                if v not in parent and v not in blocked:
                    parent[v] = u
                    nxt.append(v)
        level = sorted(nxt) if sort_levels else nxt
    return levels


class NetworkGraph:
    """Connectivity graph over the BS and sensor nodes."""

    def __init__(self, sensors: set[NodeId], edges: set[Edge], d_max: int):
        if BS_ID in sensors:
            raise ConfigError("BS id reserved; cannot be a sensor")
        self.sensors = set(sensors)
        # Each edge as (lower id, higher id), as `edge_key` orders it.
        self.edges = {(a, b) if a < b else (b, a) for a, b in edges}
        adj: dict[NodeId, list[NodeId]] = {n: [] for n in sensors}
        adj[BS_ID] = []
        self._adj = adj
        for a, b in self.edges:
            if a not in adj or b not in adj:
                raise ConfigError(f"edge ({a}, {b}) references unknown node")
            if a == b:
                raise ConfigError(f"edge ({a}, {b}) is a self-loop")
            adj[a].append(b)
            adj[b].append(a)
        for n, nbrs in adj.items():
            nbrs.sort()
            if len(nbrs) > d_max:
                raise ConfigError(f"node {n} exceeds degree bound {d_max}")
        if not adj[BS_ID]:
            raise ConfigError("BS has no neighbors")
        # The flood backbone of every broadcast, in BFS discovery order from
        # the BS; it spans all sensors iff the graph is connected.
        parent = dict.fromkeys(adj[BS_ID], BS_ID)
        bfs_levels(parent, adj.__getitem__, frozenset({BS_ID}))
        self.flood_edges = [(p, c) if p < c else (c, p) for c, p in parent.items()]
        if len(self.flood_edges) != len(self.sensors):
            raise ConfigError("graph is not connected")

    def neighbors(self, node: NodeId) -> list[NodeId]:
        return self._adj[node]

    def check_tree(self, tree: AggregationTree) -> None:
        """Refuse a tree with a link the graph lacks.

        Every tree-phase send rides a tree edge, so checking each tree once,
        when it is adopted, stands in for a check on every send.
        """
        edges = self.edges
        for c, p in tree.parent.items():
            if ((c, p) if c < p else (p, c)) not in edges:
                raise ProtocolViolation(f"tree link ({c}, {p}) is not a graph edge")

    @property
    def n(self) -> int:
        return len(self.sensors)


class AggregationTree:
    """Rooted tree over node ids; the BS always has exactly one child."""

    def __init__(self, parent: dict[NodeId, NodeId]):
        """Validate a hand-built parent map; builders use `from_levels`."""
        kids: dict[NodeId, list[NodeId]] = {}
        for c, p in parent.items():
            kids.setdefault(p, []).append(c)
        if len(kids.get(BS_ID, ())) != 1:
            raise ConfigError("BS must have exactly one child")
        # Reject cycles / orphans: a level walk down from the BS must reach all.
        reached = {kids[BS_ID][0]: BS_ID}
        levels = bfs_levels(reached, lambda u: kids.get(u, ()), frozenset({BS_ID}), sort_levels=True)
        for c in parent:
            if c not in reached:
                raise ConfigError(f"node {c} does not reach the BS")
        self._adopt(dict(parent), levels)

    @classmethod
    def from_levels(cls, parent: dict[NodeId, NodeId], levels: list[list[NodeId]]) -> AggregationTree:
        """The tree a builder's `bfs_levels` walk found; takes ownership of `parent`."""
        tree = cls.__new__(cls)
        tree._adopt(parent, [sorted(level) for level in levels])
        if len(tree.children) != len(parent) + 1:
            raise ConfigError("levels do not cover the tree")
        return tree

    def _adopt(self, parent: dict[NodeId, NodeId], levels: list[list[NodeId]]) -> None:
        # Id-sorted levels, seeds first, give id-sorted child lists.  Epochs run
        # leaves first: a child is always deeper, so it acts before its parent.
        children: dict[NodeId, list[NodeId]] = {BS_ID: []}
        for level in levels:
            for c in level:
                children[c] = []
                children[parent[c]].append(c)
        self.parent, self.children, self.epochs = parent, children, levels[::-1]

    @property
    def bs_child(self) -> NodeId:
        return self.children[BS_ID][0]

    @property
    def members(self) -> set[NodeId]:
        """Sensor nodes in the tree (BS excluded)."""
        return set(self.parent)

    def is_leaf(self, node: NodeId) -> bool:
        return not self.children.get(node)

    def height(self) -> int:
        """Longest root-to-leaf path, in edges."""
        return len(self.epochs)

    def max_degree(self) -> int:
        """Max tree degree over non-root nodes (children + parent link)."""
        return max(map(len, map(self.children.__getitem__, self.parent)), default=0) + 1


class CongestionLedger:
    """Per-edge byte counters for one session, with a per-phase breakdown."""

    def __init__(self) -> None:
        self.per_edge: dict[Edge, int] = {}
        self.per_phase: dict[str, int] = {}

    def charge(self, a: NodeId, b: NodeId, nbytes: int, phase: str) -> None:
        if nbytes < 0:
            raise ProtocolViolation("negative byte charge")
        e = (a, b) if a < b else (b, a)  # edge_key, inlined on the hot path
        per_edge, per_phase = self.per_edge, self.per_phase
        per_edge[e] = per_edge.get(e, 0) + nbytes
        per_phase[phase] = per_phase.get(phase, 0) + nbytes

    def max_congestion(self) -> int:
        return max(self.per_edge.values(), default=0)

    def reset(self) -> None:
        self.per_edge.clear()
        self.per_phase.clear()


class Network:
    """Channels plus accounting, shared by all protocol phases."""

    def __init__(self, graph: NetworkGraph, keys: KeyStore) -> None:
        self.graph = graph
        self.keys = keys
        self.ledger = CongestionLedger()
        self.phase = "idle"

    def send_link(self, frm: NodeId, to: NodeId, payload: Payload) -> Payload:
        """Hop-authenticated neighbor send; returns the payload the receiver gets.

        The payload is `bytes` or a sized stand-in whose `len()` is its wire
        length (an unbuilt off-path blob); the receiver gets the same object
        back, so a caller detects tampering by identity.  The link MAC is
        charged, not computed: the sender always holds the link key, so the
        tag would always verify.  The charge is the framed envelope of the
        payload and a 16-byte tag.  The link is not checked here: tree-phase
        sends ride edges of a tree `NetworkGraph.check_tree` accepted, and
        the basic tree rebuild sends over links its flood found through
        `NetworkGraph.neighbors`.
        """
        self.ledger.charge(frm, to, len(payload) + LINK_OVERHEAD, self.phase)
        return payload

    def bs_broadcast(self, payload: bytes) -> bytes:
        """Network-wide authenticated broadcast from the BS (ideal oracle).

        Cost model: a flood over the BFS spanning backbone, each node
        relaying the payload once.
        """
        charge, nbytes, phase = self.ledger.charge, len(payload), self.phase
        for a, b in self.graph.flood_edges:
            charge(a, b, nbytes, phase)
        return payload
