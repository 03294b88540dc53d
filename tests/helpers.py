"""Shared test machinery: tree enumeration, engine drivers, oracles."""

from __future__ import annotations

import hashlib
import math
import random
import struct
from dataclasses import dataclass
from itertools import chain, product

from robustagg import als, crypto, shia, wire
from robustagg.adversary import Adversary, ScriptEntry, garble
from robustagg.crypto import BS_ID, KEY_LEN, KeyStore, NodeId, mac, mac_long
from robustagg.errors import ConfigError, FrameError
from robustagg.netmodel import AggregationTree, Network, NetworkGraph, bfs_levels, edge_key


def complete_net(n: int) -> Network:
    """Complete graph over n sensors plus the BS; hosts any tree shape."""
    sensors = set(range(1, n + 1))
    nodes = sensors | {BS_ID}
    edges = {edge_key(a, b) for a in nodes for b in nodes if a < b}
    graph = NetworkGraph(sensors, edges, d_max=n + 1)
    keys = KeyStore(b"test")
    keys.register_node(sensors)
    keys.register_edge(edges)
    return Network(graph, keys)


def net_for_tree(parent: dict[int, int]) -> tuple[Network, AggregationTree]:
    tree = AggregationTree(parent)
    n = len(tree.members)
    sensors = set(tree.members)
    edges = {edge_key(c, p) for c, p in parent.items()}
    graph = NetworkGraph(sensors, edges, d_max=n + 1)
    keys = KeyStore(b"test")
    keys.register_node(sensors)
    keys.register_edge(edges)
    return Network(graph, keys), tree


def prufer_trees(n: int):
    """All labeled trees on nodes 1..n, as edge lists (Prüfer decoding)."""
    nodes = list(range(1, n + 1))
    if n == 1:
        yield []
        return
    if n == 2:
        yield [(1, 2)]
        return
    for seq in product(nodes, repeat=n - 2):
        degree = {v: 1 for v in nodes}
        for v in seq:
            degree[v] += 1
        edges = []
        avail = sorted(v for v in nodes if degree[v] == 1)
        seq_list = list(seq)
        for v in seq_list:
            leaf = avail.pop(0)
            edges.append((leaf, v))
            degree[v] -= 1
            if degree[v] == 1:
                # re-insert keeping availability sorted
                import bisect

                bisect.insort(avail, v)
        edges.append((avail[0], avail[1]))
        yield edges


def all_rooted_trees(n: int):
    """All rooted trees on sensors 1..n with the BS above the root."""
    for edges in prufer_trees(n):
        adj: dict[int, list[int]] = {v: [] for v in range(1, n + 1)}
        for a, b in edges:
            adj[a].append(b)
            adj[b].append(a)
        for root in range(1, n + 1):
            parent = {root: BS_ID}
            stack = [root]
            seen = {root}
            while stack:
                u = stack.pop()
                for v in adj[u]:
                    if v not in seen:
                        seen.add(v)
                        parent[v] = u
                        stack.append(v)
            yield parent


def run_localization(net: Network, tree: AggregationTree, sres: shia.ShiaResult, adv, nonce: bytes):
    """The post-failure flow: confirmations, then ack reports if needed."""
    intact = als.als1_collect(net, tree, sres.acked, adv, nonce)
    marks = als.als1_process(tree, intact)
    als2_ran = False
    if not marks:
        als2_ran = True
        reported = als.als2_collect(net, tree, sres.acks_up, adv, nonce)
        marks = als.als2_process(sres.node_acks, tree, reported, sres.agg_ack)
    return marks, als2_ran


def run_session(net, tree, values, scripts, faulty, nonce=b"\x07" * 8, vrange=(0, 100)):
    """One SHIA session plus localization on failure; returns rich results."""
    adv = Adversary(faulty, scripts)
    adv.begin_session(0)
    net.ledger.reset()
    sres = shia.run_shia(net, tree, values, adv, nonce, vrange)
    marks, als2_ran = (None, False)
    if not sres.accepted:
        marks, als2_ran = run_localization(net, tree, sres, adv, nonce)
    return sres, marks, als2_ran, adv


def recorded_charges(net: Network, *args) -> tuple[shia.ShiaResult, dict]:
    """Run `shia.run_shia(net, *args)`, adding each of its charges to a record
    per (low id, high id, phase), keys in first-charge order: the oracle for
    `shia.honest_charges`.  Returns the session's result and the record."""
    record: dict[tuple[NodeId, NodeId, str], int] = {}
    charge = net.ledger.charge

    def recording(a: NodeId, b: NodeId, nbytes: int, phase: str) -> None:
        key = (a, b, phase) if a < b else (b, a, phase)
        record[key] = record.get(key, 0) + nbytes
        charge(a, b, nbytes, phase)

    net.ledger.charge = recording  # shadows the method for this run only
    try:
        return shia.run_shia(net, *args), record
    finally:
        del net.ledger.charge


def entry(node: int, kind: str, **params) -> ScriptEntry:
    return ScriptEntry(node=node, kind=kind, params=params, sessions=None)


# --- independent byte-layout oracle (deliberately avoids robustagg.wire) ---


def oracle_frame(*fields: bytes) -> bytes:
    return b"".join(struct.pack(">I", len(f)) + f for f in fields)


def oracle_link_charge(payload: bytes) -> int:
    """Bytes of one hop-authenticated send: the payload framed with a 16-byte tag."""
    return len(oracle_frame(payload, b"\0" * 16))


def oracle_leaf_bytes(node: int, value: int) -> bytes:
    return b"\x00" + oracle_frame(
        struct.pack(">H", 1), struct.pack(">q", value), struct.pack(">H", node)
    )


def oracle_internal_bytes(count: int, value: int, digest: bytes) -> bytes:
    return b"\x01" + oracle_frame(
        struct.pack(">H", count), struct.pack(">q", value), digest
    )


def oracle_combine(nonce: bytes, inputs: list[tuple[int, int, bytes]]):
    """(count, value, digest) for an internal label, recomputed from scratch.

    Each input is (count, value, serialized_bytes).
    """
    count = sum(c for c, _, _ in inputs)
    value = sum(v for _, v, _ in inputs)
    digest = hashlib.sha256(
        oracle_frame(
            nonce,
            struct.pack(">H", count),
            struct.pack(">q", value),
            *[b for _, _, b in inputs],
        )
    ).digest()
    return count, value, digest


def oracle_root(nonce: bytes, tree: AggregationTree, values: dict[int, int]):
    """Bottom-up recomputation of the root label, independent of shia.py."""

    def label_of(node: int) -> tuple[int, int, bytes]:
        kids = tree.children.get(node, [])
        own = (1, values[node], oracle_leaf_bytes(node, values[node]))
        if not kids:
            return own
        inputs = [label_of(c) for c in kids] + [own]
        c, v, d = oracle_combine(nonce, inputs)
        return c, v, oracle_internal_bytes(c, v, d)

    c, v, raw = label_of(tree.bs_child)
    return c, v, raw


# --- the label codec as the general frame path wrote it, field by field ---


def oracle_label_to_bytes(count: int, value: int, commit: bytes, leaf: bool) -> bytes:
    tag = b"\x00" if leaf else b"\x01"
    return tag + wire.frame(wire.u16(count), wire.i64(value), commit)


def oracle_label_from_bytes(data: bytes) -> tuple[int, int, bytes, bool]:
    """(count, value, commit, leaf); raises FrameError on junk."""
    if not data or data[0:1] not in (b"\x00", b"\x01"):
        raise FrameError("bad label tag")
    fields = wire.unframe(data[1:])
    if len(fields) != 3:
        raise FrameError("label needs count, value and commitment")
    count_b, value_b, commit = fields
    leaf = data[0:1] == b"\x00"
    expect = wire.NODE_ID_LEN if leaf else wire.DIGEST_LEN
    if len(commit) != expect:
        raise FrameError("bad commitment length")
    return wire.read_u16(count_b), wire.read_i64(value_b), commit, leaf


# --- off-path reference: parse every step of every blob, hash every level ---


@dataclass(frozen=True)
class PathStep:
    """One ancestor level: where the current label goes, and the other inputs."""

    slot: int
    others: tuple[shia.Label, ...]


def step_raws(steps) -> list[tuple[int, list[bytes]]]:
    """Each step (a `PathStep` or a `shia.Offpath`) as its slot and its other
    inputs' bytes: equal exactly when the steps carry the same labels in the
    same places."""
    return [(s.slot, [l.raw for l in s.others]) for s in steps]


def result_fields(sres: shia.ShiaResult) -> dict:
    """A stage-one result's fields, with its root label as its bytes."""
    fields = dict(vars(sres))
    if sres.root_label is not None:
        fields["root_label"] = sres.root_label.raw
    return fields


def oracle_offpath_to_bytes(steps: list[PathStep]) -> bytes:
    return oracle_frame(
        *[oracle_frame(struct.pack(">H", s.slot), *[l.to_bytes() for l in s.others]) for s in steps]
    )


def oracle_offpath_from_bytes(data: bytes) -> list[PathStep]:
    steps = []
    for raw in wire.unframe(data):
        fields = wire.unframe(raw)
        if not fields:
            raise FrameError("empty off-path step")
        slot = wire.read_u16(fields[0])
        steps.append(PathStep(slot, tuple(shia.Label.from_bytes(f) for f in fields[1:])))
    return steps


def oracle_recompute_root(own: shia.Label, steps: list[PathStep], nonce: bytes) -> shia.Label:
    cur = own
    for step in steps:
        inputs = list(step.others[: step.slot]) + [cur] + list(step.others[step.slot :])
        cur = shia.internal_label(nonce, inputs)
    return cur


def oracle_ack(key: bytes, nonce: bytes) -> bytes:
    return hashlib.blake2b(nonce + b"\x4f\x4b", key=key, digest_size=16).digest()


def oracle_xor(parts: list[bytes]) -> bytes:
    out = bytearray(16)
    for p in parts:
        for i, b in enumerate(p):
            out[i] ^= b
    return bytes(out)


# --- geometric generator reference: sorts every placed sensor per insertion
# and every sensor pair; raises StopIteration when no sensor can take the BS ---


def oracle_geometric_graph(n: int, d_max: int, seed: int) -> NetworkGraph:
    """Connected degree-bounded graph over random positions.

    A nearest-neighbor backbone guarantees connectivity without retries;
    extra short links are added while both endpoints stay under the bound.
    """
    if n < 1:
        raise ConfigError("geometric topology needs n >= 1")
    if d_max < 2:
        raise ConfigError("geometric topology needs d_max >= 2")
    rng = random.Random(f"topo:{seed}:{n}:{d_max}")
    pos = {BS_ID: (0.5, 0.5)}
    for s in range(1, n + 1):
        pos[s] = (rng.random(), rng.random())

    def dist(a: int, b: int) -> float:
        (x1, y1), (x2, y2) = pos[a], pos[b]
        return math.hypot(x1 - x2, y1 - y2)

    deg: dict[int, int] = {v: 0 for v in pos}
    edges: set[tuple[int, int]] = set()

    def add(a: int, b: int) -> None:
        edges.add(edge_key(a, b))
        deg[a] += 1
        deg[b] += 1

    # Backbone over sensors only: tree floods never route through the BS,
    # so the sensor subgraph itself must be connected.
    placed = [1]
    for s in range(2, n + 1):
        candidates = sorted(placed, key=lambda v: (dist(s, v), v))
        target = next((v for v in candidates if deg[v] < d_max - 1), candidates[0])
        add(s, target)
        placed.append(s)

    radius = math.sqrt(3.0 / max(n, 1))
    all_pairs = sorted(
        (
            (dist(a, b), a, b)
            for i, a in enumerate(placed)
            for b in placed[i + 1 :]
            if edge_key(a, b) not in edges
        ),
    )
    for d, a, b in all_pairs:
        if d > radius:
            break
        if deg[a] < d_max and deg[b] < d_max:
            add(a, b)

    # The BS hears its nearest sensors (always at least one).
    by_dist = sorted(range(1, n + 1), key=lambda v: (dist(BS_ID, v), v))
    want = max(1, min(3, d_max - 1, n))
    for v in by_dist:
        if deg[BS_ID] >= want:
            break
        if deg[v] < d_max:
            add(BS_ID, v)
    if deg[BS_ID] == 0:
        add(BS_ID, next(v for v in by_dist if deg[v] < d_max))
    return NetworkGraph(set(range(1, n + 1)), edges, d_max)


# --- geometric generator reference: computes every sensor pair's distance
# once, when the later sensor is placed, and picks each backbone target
# from that full list; the bucketed generator must build the same graph ---


def oracle_onepass_geometric_graph(n: int, d_max: int, seed: int) -> NetworkGraph:
    """Connected degree-bounded graph over random positions.

    A nearest-neighbor backbone guarantees connectivity without retries;
    extra short links are added while both endpoints stay under the bound.
    """
    if n < 1:
        raise ConfigError("geometric topology needs n >= 1")
    if d_max < 2:
        raise ConfigError("geometric topology needs d_max >= 2")
    rng = random.Random(f"topo:{seed}:{n}:{d_max}")
    pos = {BS_ID: (0.5, 0.5)}
    for s in range(1, n + 1):
        pos[s] = (rng.random(), rng.random())

    deg: dict[int, int] = {v: 0 for v in pos}
    edges: set[tuple[int, int]] = set()

    def add(a: int, b: int) -> None:
        edges.add(edge_key(a, b))
        deg[a] += 1
        deg[b] += 1

    # Backbone over sensors only: tree floods never route through the BS,
    # so the sensor subgraph itself must be connected.  Each sensor pair's
    # distance is computed once, when the later sensor is placed; the same
    # list picks the backbone target and keeps the pairs inside the radius.
    radius = math.sqrt(3.0 / n)
    short: list[tuple[float, int, int]] = []
    sensors = list(pos.items())[1:]  # in id order
    for s in range(2, n + 1):
        xs, ys = pos[s]
        near = [(math.hypot(x - xs, y - ys), v) for v, (x, y) in sensors[: s - 1]]
        # Prefer a sensor under d_max - 1; else any under d_max, which the
        # backbone tree always has (a leaf, or sensor 1 before any link).
        free = [p for p in near if deg[p[1]] < d_max - 1]
        add(s, min(free or [p for p in near if deg[p[1]] < d_max])[1])
        short.extend((d, v, s) for d, v in near if d <= radius)

    # Extra short links, nearest first, while both ends stay under the bound.
    short.sort()
    extra: list[tuple[int, int]] = []
    for d, a, b in short:
        if edge_key(a, b) not in edges and deg[a] < d_max and deg[b] < d_max:
            add(a, b)
            extra.append((a, b))

    # The BS hears its nearest sensors that still have a free slot.
    bx, by = pos[BS_ID]
    by_dist = sorted((math.hypot(bx - x, by - y), v) for v, (x, y) in sensors)
    want = max(1, min(3, d_max - 1, n))
    for _, v in by_dist:
        if deg[BS_ID] >= want:
            break
        if deg[v] < d_max:
            add(BS_ID, v)
    if deg[BS_ID] == 0:
        # Extra links took every free slot (a backbone leaf has one
        # otherwise): the nearest sensor with an extra link trades its
        # shortest one for the BS.  The backbone keeps the sensors connected.
        v, u = next((v, a if b == v else b) for _, v in by_dist for a, b in extra if v in (a, b))
        edges.remove(edge_key(u, v))
        edges.add(edge_key(BS_ID, v))
    return NetworkGraph(set(range(1, n + 1)), edges, d_max)


# --- the BS-keyed envelope codec: a payload framed with its MAC ---


@dataclass(frozen=True)
class AuthEnvelope:
    payload: bytes
    tag: bytes

    def to_bytes(self) -> bytes:
        return wire.frame(self.payload, self.tag)

    @classmethod
    def from_bytes(cls, data: bytes) -> "AuthEnvelope":
        fields = wire.unframe(data)
        if len(fields) != 2:
            raise FrameError(f"auth envelope has {len(fields)} fields, not 2")
        return cls(*fields)


def auth_wrap(key: bytes, payload: bytes) -> AuthEnvelope:
    return AuthEnvelope(payload, mac(key, payload))


def auth_verify(key: bytes, envelope: AuthEnvelope) -> bool:
    return envelope.tag == mac(key, envelope.payload)


# --- tree distribution reference: the tree framed one (child, parent) field
# at a time through the general frame path, and unframed field by field ---


def oracle_serialize_tree(nonce: bytes, parent: dict[NodeId, NodeId]) -> bytes:
    pairs = [wire.u16(c) + wire.u16(p) for c, p in sorted(parent.items())]
    return wire.frame(nonce, *pairs)


def oracle_parse_tree(payload: bytes) -> dict[NodeId, NodeId]:
    fields = wire.unframe(payload)
    out = {}
    for pair in fields[1:]:
        out[wire.read_u16(pair[:2])] = wire.read_u16(pair[2:])
    return out


class OracleOutcome:
    """An ATR outcome as the references build it: each sensor's view and the
    unreached set computed at distribution, from the parsed pairs."""

    def __init__(
        self,
        tree: AggregationTree | None,
        adopted: dict[NodeId, NodeId],
        node_views: dict[NodeId, tuple[NodeId, tuple[NodeId, ...]]],
        unreached: set[NodeId],
    ) -> None:
        self.tree, self.adopted, self.node_views, self.unreached = tree, adopted, node_views, unreached


def oracle_distribute(net: Network, nonce: bytes, tree: AggregationTree) -> OracleOutcome:
    payload = oracle_serialize_tree(nonce, tree.parent)
    delivered = net.bs_broadcast(payload)
    adopted = oracle_parse_tree(delivered)
    views: dict[NodeId, tuple[NodeId, tuple[NodeId, ...]]] = {}
    children: dict[NodeId, list[NodeId]] = {}
    for c, p in sorted(adopted.items()):
        children.setdefault(p, []).append(c)
    for node, p in adopted.items():
        views[node] = (p, tuple(children.get(node, [])))
    unreached = net.graph.sensors - set(adopted)
    return OracleOutcome(tree, adopted, views, unreached)


# --- basic ATR reference: every response crosses every hop of its path as
# its own link send, and each node forwards at most n relayed responses ---


def oracle_atr_basic(net: Network, blacklist: frozenset[NodeId], nonce: bytes, adv) -> OracleOutcome:
    """Flooded tree-establishment plus upward response collection."""
    net.phase = "atr"
    graph = net.graph
    te = wire.frame(nonce, *[wire.u16(x) for x in sorted(blacklist)], wire.u16(graph.n))
    te_size = len(te) + wire.framed_size(wire.ACK_LEN)  # hop-by-hop auth tag

    usable = [v for v in graph.neighbors(BS_ID) if v not in blacklist]
    if not usable:
        return OracleOutcome(None, {}, {}, set(graph.sensors))
    b = usable[0]
    net.send_link(BS_ID, b, te)

    # Flood: each reached node rebroadcasts the TE once to all neighbors;
    # the first fresh sender becomes the parent, ties broken by id order.
    parent: dict[NodeId, NodeId] = {b: BS_ID}
    frontier = [b]
    while frontier:
        nxt = []
        for u in frontier:
            if adv.action(u, "te_suppress") is not None:
                adv.fire(u, "te_suppress")
                continue
            for w in graph.neighbors(u):
                if w == BS_ID:
                    continue
                net.ledger.charge(u, w, te_size, net.phase)
                if w in blacklist or w in parent:
                    continue
                parent[w] = u
                nxt.append(w)
        frontier = sorted(nxt)

    flood = AggregationTree(parent)
    for c, p in sorted(parent.items()):
        if p != BS_ID:
            # childhood confirmation back to the chosen parent
            net.send_link(c, p, wire.frame(nonce, wire.u16(c)))

    # Upward response relay, deepest levels first, at most n forwarded per node.
    relay_cap = graph.n
    upward: dict[NodeId, list[bytes]] = {u: [] for u in parent}
    for u in chain.from_iterable(flood.epochs):
        kid_ids = flood.children[u]
        resp = auth_wrap(
            net.keys.bs_key(u),
            wire.frame(nonce, wire.u16(u), *[wire.u16(c) for c in kid_ids]),
        ).to_bytes()
        batch = [resp] + upward[u][:relay_cap]
        if adv.action(u, "response_drop") is not None:
            adv.fire(u, "response_drop")
            continue
        p = parent[u]
        for msg in batch:
            delivered = net.send_link(u, p, msg)
            if delivered is None:
                continue
            if p == BS_ID:
                upward.setdefault(BS_ID, []).append(delivered)
            else:
                upward[p].append(delivered)

    # BS assembly: first verified response per node wins.
    claims: dict[NodeId, list[NodeId]] = {}
    for raw in upward.get(BS_ID, []):
        try:
            env = AuthEnvelope.from_bytes(raw)
            fields = wire.unframe(env.payload)
            node = wire.read_u16(fields[1])
        except (FrameError, IndexError):
            continue
        if node in claims or node in blacklist or node not in graph.sensors:
            continue
        if not auth_verify(net.keys.bs_key(node), env) or fields[0] != nonce:
            continue
        claims[node] = [wire.read_u16(f) for f in fields[2:]]

    # b is always kept (the BS handed it the TE itself); below it, a node
    # joins only if its parent claimed it and its own response arrived.
    final_parent: dict[NodeId, NodeId] = {b: BS_ID}
    stack = [b]
    while stack:
        u = stack.pop()
        for c in claims.get(u, []):
            if c in claims and c not in final_parent and c not in blacklist:
                final_parent[c] = u
                stack.append(c)
    tree = AggregationTree(final_parent)
    return oracle_distribute(net, nonce, tree)


# --- resilient ATR reference: every neighbor list is signed by an ideal
# signature oracle, then verified and unframed before the BS reads it ---


@dataclass(frozen=True)
class SignedBlob:
    signer: NodeId
    payload: bytes
    token: bytes

    @property
    def size(self) -> int:
        return wire.framed_size(wire.NODE_ID_LEN, len(self.payload), len(self.token))


class SignatureOracle:
    """Ideal signatures: a simulation-private secret no node can read.

    Unforgeable within a run because only the oracle (the engine) holds the
    secret; faulty nodes can replay blobs but never mint one for another id.
    """

    def __init__(self, master_seed: bytes):
        self._secret = mac_long(b"\x01" * KEY_LEN, b"sig" + master_seed)

    def sign(self, node: NodeId, payload: bytes) -> SignedBlob:
        token = mac(self._secret, wire.u16(node) + payload)
        return SignedBlob(node, payload, token)

    def verify(self, node: NodeId, blob: SignedBlob) -> bool:
        if blob.signer != node:
            return False
        return blob.token == mac(self._secret, wire.u16(node) + blob.payload)


def oracle_atr_resilient_init(
    net: Network, oracle: SignatureOracle, adv
) -> set[tuple[NodeId, NodeId]]:
    """One-time signed neighbor-list collection.

    Every node floods its signed list once; the BS keeps only edges both
    endpoints announced that are graph links, plus its own observed edges,
    so no fabricated link survives: a one-sided claim is dropped, and so is
    a link two colluding nodes both announce, since a link that does not
    exist cannot carry a frame.
    """
    net.phase = "nl"
    graph = net.graph
    announced: dict[NodeId, set[NodeId]] = {}
    # Every list crosses every backbone edge, so each edge carries the sum.
    list_bytes = 0
    for s in sorted(graph.sensors):
        nbrs = list(graph.neighbors(s))
        fake = adv.action(s, "nl_fake")
        if fake is not None:
            adv.fire(s, "nl_fake")
            nbrs = sorted(
                (set(nbrs) | set(fake.params.get("add", ())))
                - set(fake.params.get("remove", ()))
            )
        blob = oracle.sign(s, wire.frame(b"nl", *[wire.u16(v) for v in nbrs]))
        list_bytes += blob.size
        if oracle.verify(s, blob):
            fields = wire.unframe(blob.payload)
            announced[s] = {wire.read_u16(f) for f in fields[1:]}
    for a, c in graph.flood_edges:
        net.ledger.charge(a, c, list_bytes, net.phase)
    edges: set[tuple[NodeId, NodeId]] = set()
    bs_nbrs = set(graph.neighbors(BS_ID))
    for s, nbrs in announced.items():
        for t in nbrs:
            if t == BS_ID:
                if s in bs_nbrs:
                    edges.add(edge_key(s, BS_ID))
            elif t in announced and s in announced[t] and edge_key(s, t) in graph.edges:
                edges.add(edge_key(s, t))
    return edges


def oracle_atr_resilient_build(
    net: Network,
    edges: set[tuple[NodeId, NodeId]],
    blacklist: frozenset[NodeId],
    nonce: bytes,
) -> OracleOutcome:
    """Centralized BFS over the mutually-announced edge set, its adjacency
    derived and sorted again at every build, then distribution."""
    net.phase = "atr"
    adj: dict[NodeId, list[NodeId]] = {}
    for a, c in edges:
        adj.setdefault(a, []).append(c)
        adj.setdefault(c, []).append(a)
    for nbrs in adj.values():
        nbrs.sort()
    b = next((v for v in adj.get(BS_ID, []) if v not in blacklist), None)
    if b is None:
        return OracleOutcome(None, {}, {}, set(net.graph.sensors))
    parent = {b: BS_ID}
    bfs_levels(parent, adj.__getitem__, blacklist | {BS_ID}, sort_levels=True)
    tree = AggregationTree(parent)
    return oracle_distribute(net, nonce, tree)


def adjacency_edges(adj: dict[NodeId, list[NodeId]]) -> set[tuple[NodeId, NodeId]]:
    """The edge set of a resilient-init adjacency, after checking that each
    list is sorted without repeats and that every link is listed at both ends."""
    for s, nbrs in adj.items():
        assert nbrs == sorted(set(nbrs)), (s, nbrs)
        assert all(s in adj[t] for t in nbrs), (s, nbrs)
    return {edge_key(s, t) for s, nbrs in adj.items() for t in nbrs}


# --- ALS reference: every confirmation and ack report is built as bytes,
# MACed into a tagged envelope, nested in its parent's, and parsed and
# verified at the BS ---

# Wire tags for confirmation slots.
NR = b"\x00"  # "no message received from this child"; always illegitimate
_ENV = b"\x01"


def _wrap(key: bytes, payload: bytes) -> bytes:
    return _ENV + auth_wrap(key, payload).to_bytes()


def _open(key: bytes, data: bytes | None) -> bytes | None:
    """Envelope payload if the blob verifies under `key`, else None (an
    absent blob or the NR placeholder never verifies)."""
    if data is None or data[0:1] != _ENV:
        return None
    try:
        env = AuthEnvelope.from_bytes(data[1:])
    except FrameError:
        return None
    return env.payload if auth_verify(key, env) else None


def oracle_als1_collect(
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


def oracle_als1_process(
    keys: KeyStore, tree: AggregationTree, m_b: bytes | None, nonce: bytes
) -> list[als.Mark]:
    """BS-side recursive confirmation check."""
    b = tree.bs_child
    if m_b is None:
        return [als.mark(b, BS_ID, "absent")]
    marks = []

    # Pre-order walk, children in tree order: the stack holds them reversed.
    stack: list[tuple[NodeId, NodeId, bytes | None]] = [(b, BS_ID, m_b)]
    while stack:
        node, parent, data = stack.pop()
        slots = _fields(keys, node, data, nonce, len(tree.children.get(node, [])))
        if slots is None:
            marks.append(als.mark(node, parent, "structural"))
            continue
        kids = list(zip(tree.children.get(node, []), slots))
        stack.extend((child, node, slot) for child, slot in reversed(kids))
    return marks


def oracle_als2_collect(
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


def oracle_subtree(tree: AggregationTree, node: NodeId) -> list[NodeId]:
    """`node` and every node below it, found by a walk down the child lists."""
    out = []
    stack = [node]
    while stack:
        u = stack.pop()
        out.append(u)
        stack.extend(tree.children.get(u, []))
    return out


def oracle_expected_acks(keys: KeyStore, tree: AggregationTree, nonce: bytes) -> dict[NodeId, bytes]:
    """Per-node expected aggregated ack: XOR of acks over the node's subtree."""
    out: dict[NodeId, bytes] = {}
    for epoch in tree.epochs:
        for node in epoch:
            parts = [crypto.node_ack(keys.bs_key(node), nonce)]
            parts.extend(out[c] for c in tree.children.get(node, []))
            out[node] = crypto.xor_acks(parts)
    return out


def oracle_als2_process(
    keys: KeyStore,
    tree: AggregationTree,
    m_b: bytes | None,
    agg_ack: bytes,
    nonce: bytes,
) -> list[als.Mark]:
    """BS-side recursive ack analysis.

    `agg_ack` is the aggregated ack the BS received in stage one.  A child
    whose reported ack matches its expected value is not descended into;
    mismatches at a leaf (wrong individual ack) or at an internal node
    (report does not recombine to the claimed aggregate) mark the pair, and
    recursion continues where the structure allows.
    """
    marks = []
    expect = oracle_expected_acks(keys, tree, nonce)

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
                marks.append(als.mark(node, parent, "type_i"))
            continue
        extracted = _extract2(keys, tree, node, data, nonce)
        if extracted is None:
            marks.append(als.mark(node, parent, "structural"))
            continue
        reports, acks = extracted
        recombined = crypto.xor_acks(
            [crypto.node_ack(keys.bs_key(node), nonce)] + list(acks.values())
        )
        if reported != recombined:
            marks.append(als.mark(node, parent, "type_ii"))
        stack.extend(
            (child, node, reports.get(child), acks[child])
            for child in reversed(tree.children.get(node, []))
        )
    return marks


def oracle_run_localization(net: Network, tree: AggregationTree, sres: shia.ShiaResult, adv, nonce: bytes):
    """`run_localization` over the byte-level reference phases."""
    m_b = oracle_als1_collect(net, tree, sres.acked, adv, nonce)
    marks = oracle_als1_process(net.keys, tree, m_b, nonce)
    als2_ran = False
    if not marks:
        als2_ran = True
        m_b2 = oracle_als2_collect(net, tree, sres.acks_up, adv, nonce)
        marks = oracle_als2_process(net.keys, tree, m_b2, sres.agg_ack, nonce)
    return marks, als2_ran
