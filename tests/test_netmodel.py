import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from robustagg import wire
from robustagg.crypto import BS_ID, KeyStore
from robustagg.errors import ConfigError, ProtocolViolation
from robustagg.netmodel import (
    AggregationTree,
    CongestionLedger,
    Network,
    NetworkGraph,
    bfs_levels,
    edge_key,
)

from helpers import net_for_tree, oracle_link_charge


class SizedPayload:
    """A link payload that is not bytes: its `len()` is its wire length."""

    def __init__(self, size: int):
        self.size = size

    def __len__(self) -> int:
        return self.size


def random_parent_map(rng: random.Random, n: int) -> dict[int, int]:
    """Random rooted tree over sensors 1..n (BS above sensor 1)."""
    parent = {1: BS_ID}
    for s in range(2, n + 1):
        parent[s] = rng.randint(1, s - 1)
    return parent


class TestNetworkGraph:
    def test_rejects_bs_as_sensor(self):
        with pytest.raises(ConfigError):
            NetworkGraph({0, 1}, {(0, 1)}, d_max=3)

    def test_rejects_unknown_edge_endpoint(self):
        with pytest.raises(ConfigError):
            NetworkGraph({1, 2}, {(0, 1), (2, 9)}, d_max=3)

    def test_rejects_degree_violation(self):
        edges = {(0, 1), (1, 2), (1, 3), (1, 4)}
        with pytest.raises(ConfigError):
            NetworkGraph({1, 2, 3, 4}, edges, d_max=3)

    def test_rejects_disconnected_graph(self):
        with pytest.raises(ConfigError):
            NetworkGraph({1, 2, 3}, {(0, 1), (2, 3)}, d_max=3)

    def test_rejects_isolated_bs(self):
        with pytest.raises(ConfigError):
            NetworkGraph({1, 2}, {(1, 2)}, d_max=3)

    def test_neighbors_sorted_and_spanning_edges_cover(self):
        g = NetworkGraph({1, 2, 3}, {(0, 3), (3, 1), (1, 2), (2, 3)}, d_max=4)
        assert g.neighbors(3) == [0, 1, 2]
        span = g.flood_edges
        assert len(span) == 3  # spanning tree over 4 nodes
        covered = {v for e in span for v in e}
        assert covered == {0, 1, 2, 3}

    def test_tree_off_the_graph_rejected(self):
        # A send is not checked on its own: the tree it rides is checked
        # once, and a tree with a link the graph lacks is refused.
        net, tree = net_for_tree({1: BS_ID, 2: 1, 3: 2})
        net.graph.check_tree(tree)
        with pytest.raises(ProtocolViolation, match=r"\(3, 1\) is not a graph edge"):
            net.graph.check_tree(AggregationTree({1: BS_ID, 2: 1, 3: 1}))


def test_bfs_levels_grows_parent_in_either_level_order():
    adj = {1: [3, 2], 2: [4], 3: [5, 4], 4: [], 5: []}
    parent = {1: BS_ID}
    assert bfs_levels(parent, adj.__getitem__, frozenset()) == [[1], [3, 2], [5, 4]]
    assert parent == {1: BS_ID, 3: 1, 2: 1, 5: 3, 4: 3}
    parent = {1: BS_ID}
    assert bfs_levels(parent, adj.__getitem__, frozenset(), sort_levels=True) == [[1], [2, 3], [4, 5]]
    assert parent == {1: BS_ID, 3: 1, 2: 1, 4: 2, 5: 3}
    parent = {1: BS_ID}
    assert bfs_levels(parent, adj.__getitem__, frozenset({3})) == [[1], [2], [4]]
    assert parent == {1: BS_ID, 2: 1, 4: 2}


class TestAggregationTree:
    def test_single_bs_child_enforced(self):
        with pytest.raises(ConfigError):
            AggregationTree({1: BS_ID, 2: BS_ID})

    def test_cycle_rejected(self):
        with pytest.raises(ConfigError):
            AggregationTree({1: BS_ID, 2: 3, 3: 2})

    def test_bs_as_a_child_rejected(self):
        with pytest.raises(ConfigError, match="node 0 does not reach"):
            AggregationTree({1: BS_ID, BS_ID: 1})

    def test_orphan_rejected(self):
        with pytest.raises(ConfigError):
            AggregationTree({1: BS_ID, 2: 9})

    def test_first_unreached_node_in_parent_map_order_is_named(self):
        with pytest.raises(ConfigError, match="node 5 does not reach"):
            AggregationTree({1: BS_ID, 5: 6, 6: 5, 2: 9})

    def test_from_levels_sorts_levels_and_refuses_a_missing_node(self):
        parent = {1: BS_ID, 2: 1, 3: 1, 4: 3}
        tree = AggregationTree.from_levels(dict(parent), [[1], [3, 2], [4]])
        assert tree.children == {BS_ID: [1], 1: [2, 3], 2: [], 3: [4], 4: []}
        assert tree.epochs == [[4], [2, 3], [1]]
        for levels in ([[1], [3, 2]], [[1], [2, 2]]):
            with pytest.raises(ConfigError, match="levels do not cover the tree"):
                AggregationTree.from_levels(dict(parent), levels)

    def test_metrics_against_bfs_oracle(self):
        rng = random.Random(7)
        for _ in range(100):
            n = rng.randint(1, 40)
            parent = random_parent_map(rng, n)
            tree = AggregationTree(parent)
            # Independent oracle: height by path-walking, degree by counting.
            heights = []
            for s in parent:
                d, cur = 0, s
                while cur != BS_ID:
                    cur = parent[cur]
                    d += 1
                heights.append(d)
            assert tree.height() == max(heights)
            kids: dict[int, int] = {}
            for s, p in parent.items():
                kids[p] = kids.get(p, 0) + 1
            assert tree.max_degree() == max(kids.get(s, 0) + 1 for s in parent)

    def test_leaves_root_child_and_members(self):
        tree = AggregationTree({1: BS_ID, 2: 1, 3: 1, 4: 2})
        assert tree.is_leaf(3) and tree.is_leaf(4) and not tree.is_leaf(2)
        assert tree.bs_child == 1
        assert tree.members == {1, 2, 3, 4}


def test_schedule_children_always_before_parents():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(1, 30)
        parent = random_parent_map(rng, n)
        tree = AggregationTree(parent)
        # Reference: one epoch per depth, deepest first, ids sorted.
        depth = {BS_ID: 0}
        for s in sorted(parent):  # a parent's id is always below its child's
            depth[s] = depth[parent[s]] + 1
        levels = range(max(depth.values()), 0, -1)
        assert tree.epochs == [sorted(s for s in parent if depth[s] == d) for d in levels]
        seen_at = {}
        for i, epoch in enumerate(tree.epochs):
            for node in epoch:
                seen_at[node] = i
        assert set(seen_at) == tree.members
        for c, p in parent.items():
            if p != BS_ID:
                assert seen_at[c] < seen_at[p]


class TestLedger:
    def test_charges_accumulate_per_edge_and_phase(self):
        led = CongestionLedger()
        led.charge(1, 2, 10, "commit")
        led.charge(2, 1, 5, "ack")
        led.charge(1, 3, 100, "commit")
        assert led.per_edge[edge_key(1, 2)] == 15
        assert led.per_phase == {"commit": 110, "ack": 5}
        assert led.max_congestion() == 100
        assert sum(led.per_edge.values()) == 115
        led.reset()
        assert led.max_congestion() == 0

    def test_negative_charge_rejected(self):
        with pytest.raises(ProtocolViolation):
            CongestionLedger().charge(1, 2, -1, "x")


class TestNetwork:
    def test_send_link_delivers_and_charges_envelope_size(self):
        net, _tree = net_for_tree({1: BS_ID, 2: 1})
        net.phase = "commit"
        out = net.send_link(2, 1, b"payload")
        assert out == b"payload"
        expect = wire.framed_size(len(b"payload"), wire.ACK_LEN)
        assert net.ledger.per_edge[edge_key(1, 2)] == expect

    @given(
        st.lists(
            st.one_of(st.binary(max_size=300), st.builds(SizedPayload, st.integers(0, 300))),
            min_size=1,
            max_size=6,
        ),
        st.sampled_from([(1, 0), (0, 1), (3, 1), (1, 3)]),
        st.sampled_from(["commit", "check", "ack", "atr"]),
    )
    def test_send_link_returns_payload_and_charges_old_envelope_size(self, payloads, link, phase):
        net, _tree = net_for_tree({1: BS_ID, 2: 1, 3: 1})
        net.ledger.charge(2, 1, 7, "query")  # earlier traffic stays as it was
        net.phase = phase
        frm, to = link
        for payload in payloads:
            assert net.send_link(frm, to, payload) is payload
        # A sized stand-in is charged its length plus the 24-byte envelope.
        want = sum(
            oracle_link_charge(p) if isinstance(p, bytes) else len(p) + 24 for p in payloads
        )
        assert net.ledger.per_edge == {edge_key(1, 2): 7, edge_key(frm, to): want}
        assert net.ledger.per_phase == {"query": 7, phase: want}

    def test_broadcast_bs_only_and_cost_per_backbone_edge(self):
        # 5-node path: the backbone is the path itself, 5 edges.
        net, _tree = net_for_tree({1: BS_ID, 2: 1, 3: 2, 4: 3, 5: 4})
        net.phase = "query"
        payload = b"q" * 10
        assert net.bs_broadcast(payload) == payload
        assert sum(net.ledger.per_edge.values()) == 5 * len(payload)
        assert all(v == len(payload) for v in net.ledger.per_edge.values())
