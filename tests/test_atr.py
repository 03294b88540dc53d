import copy
import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from robustagg import atr, orchestrator, wire
from robustagg.adversary import Adversary
from robustagg.crypto import BS_ID, KeyStore
from robustagg.errors import FrameError
from robustagg.netmodel import AggregationTree, Network, NetworkGraph, edge_key
from robustagg.scenario import Scenario

from helpers import (
    SignatureOracle,
    adjacency_edges,
    entry,
    oracle_atr_basic,
    oracle_atr_resilient_build,
    oracle_atr_resilient_init,
    oracle_parse_tree,
    oracle_serialize_tree,
)

NONCE = b"\x09" * 8


def make_net(n: int, edges: set[tuple[int, int]], d_max: int = 8) -> Network:
    sensors = set(range(1, n + 1))
    graph = NetworkGraph(sensors, edges, d_max)
    keys = KeyStore(b"atr-test")
    keys.register_node(sensors)
    keys.register_edge(graph.edges)
    return Network(graph, keys)


def ring_net(n: int) -> Network:
    """BS attached to sensor 1 and 2 of a sensor ring (some redundancy)."""
    edges = {(i, i % n + 1) for i in range(1, n + 1)} if n > 2 else {(1, 2)}
    edges |= {(BS_ID, 1), (BS_ID, 2)}
    return make_net(n, edges)


def path_net(n: int) -> Network:
    edges = {(i, i + 1) for i in range(1, n)} | {(BS_ID, 1)}
    return make_net(n, edges)


# Node 6 sits two levels below both 4 and 5, and 5 is discovered first.
ORDER_EDGES = {(0, 1), (1, 2), (1, 3), (2, 5), (3, 4), (4, 6), (5, 6)}


def test_level_orders_are_pinned():
    net = make_net(6, ORDER_EDGES, d_max=3)
    # Discovery order: the flood backbone and the initial tree reach 6 via 5.
    assert net.graph.flood_edges == [(0, 1), (1, 2), (1, 3), (2, 5), (3, 4), (5, 6)]
    assert atr.build_initial_tree(net.graph).parent[6] == 5
    # Sorted levels: both rebuilds walk 4 before 5.
    adj = atr.atr_resilient_init(net, Adversary((), ()))
    assert adjacency_edges(adj) == net.graph.edges
    rebuilt = atr.atr_resilient_build(net, adj, frozenset(), NONCE)
    assert rebuilt.tree.parent[6] == 4
    assert atr.atr_basic(net, frozenset(), NONCE, Adversary((), ())).tree.parent[6] == 4


class TestInitialTree:
    def test_spans_everything(self):
        net = ring_net(6)
        tree = atr.build_initial_tree(net.graph)
        assert tree.members == net.graph.sensors
        assert tree.bs_child == 1


class TestBasicRebuild:
    def test_honest_rebuild_spans_and_views_match(self):
        net = ring_net(8)
        out = atr.atr_basic(net, frozenset(), NONCE, Adversary((), ()))
        assert out.tree is not None
        assert out.tree.members == net.graph.sensors
        assert out.unreached == set()
        for node in out.tree.members:
            assert out.node_views[node] == (
                out.tree.parent[node],
                tuple(out.tree.children.get(node, [])),
            )

    def test_blacklisted_nodes_never_join(self):
        net = ring_net(8)
        out = atr.atr_basic(net, frozenset({3, 4}), NONCE, Adversary((), ()))
        assert out.tree is not None
        assert not out.tree.members & {3, 4}

    def test_flood_suppression_prunes_without_blacklisting(self):
        net = path_net(4)
        adv = Adversary({2}, [entry(2, "te_suppress")])
        adv.begin_session(0)
        out = atr.atr_basic(net, frozenset(), NONCE, adv)
        # 3 and 4 sit behind the suppressor and silently fall off the tree.
        assert out.tree.members == {1, 2}
        assert out.unreached == {3, 4}
        assert adv.misbehaved(0) == {2}

    def test_response_drop_prunes_own_subtree(self):
        net = path_net(4)
        adv = Adversary({2}, [entry(2, "response_drop")])
        adv.begin_session(0)
        out = atr.atr_basic(net, frozenset(), NONCE, adv)
        # 2 swallows its own response and everything it relays for 3 and 4.
        assert out.tree.members == {1}
        assert out.unreached == {2, 3, 4}

    def test_disconnection_reported(self):
        net = path_net(3)
        out = atr.atr_basic(net, frozenset({1}), NONCE, Adversary((), ()))
        assert out.tree is None
        assert out.unreached == {1, 2, 3}


def draw_graph(draw) -> tuple[int, set[tuple[int, int]]]:
    """A connected graph over sensors 1..n (n <= 12) with 1-3 BS links."""
    n = draw(st.integers(1, 12))
    edges = {(draw(st.integers(1, v - 1)), v) for v in range(2, n + 1)}
    extra = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)), max_size=2 * n))
    edges |= {edge_key(a, b) for a, b in extra if a != b}
    edges |= {(BS_ID, v) for v in draw(st.sets(st.integers(1, n), min_size=1, max_size=3))}
    return n, edges


@st.composite
def rebuild_cases(draw):
    """A small connected graph, a blacklist and scripted ATR misbehavers."""
    n, edges = draw_graph(draw)
    blacklist = draw(st.frozensets(st.integers(1, n), max_size=n))
    kinds = st.sets(st.sampled_from(["response_drop", "te_suppress"]), min_size=1)
    faulty = {v: draw(kinds) for v in draw(st.sets(st.integers(1, n), max_size=n))}
    return n, edges, blacklist, faulty


@settings(max_examples=200, deadline=None)
@given(rebuild_cases())
def test_basic_rebuild_matches_hop_by_hop_oracle(case):
    n, edges, blacklist, faulty = case
    runs = []
    for rebuild in (atr.atr_basic, oracle_atr_basic):
        net = make_net(n, edges, d_max=n + 1)
        adv = Adversary(faulty, [entry(v, k) for v, kinds in faulty.items() for k in sorted(kinds)])
        adv.begin_session(2)
        out = rebuild(net, blacklist, NONCE, adv)
        runs.append(
            (
                list(net.ledger.per_edge.items()),
                net.ledger.per_phase,
                out.tree and out.tree.parent,
                list(out.adopted.items()),
                out.node_views,
                out.unreached,
                adv.trace,
            )
        )
    assert runs[0] == runs[1]


def test_dropped_walk_rebuilds_match_hop_by_hop_oracle(monkeypatch):
    """`grid8_basic_drops` with node 27's responses dropped through session
    2: both rebuilds (after sessions 0 and 2) lose nodes, and each equals
    the hop-by-hop reference run from the same state."""
    path = Path(__file__).resolve().parent.parent / "scenarios" / "grid8_basic_drops.json"
    config = json.loads(path.read_text())
    for script in config["adversary"]["scripts"]:
        if script["node"] == 27 and script["kind"] == "response_drop":
            script["sessions"] = [0, 1, 2]
    real = atr.atr_basic
    rebuilt = []

    def checked(net, blacklist, nonce, adv):
        ref_net, ref_adv = Network(net.graph, net.keys), copy.deepcopy(adv)
        ref_net.phase = net.phase
        want = oracle_atr_basic(ref_net, blacklist, nonce, ref_adv)
        before, fired = dict(net.ledger.per_edge), len(adv.trace)
        out = real(net, blacklist, nonce, adv)
        charged = {e: b - before.get(e, 0) for e, b in net.ledger.per_edge.items()}
        assert {e: b for e, b in charged.items() if b} == {e: b for e, b in ref_net.ledger.per_edge.items() if b}
        assert out.tree.parent == want.tree.parent
        assert list(out.adopted.items()) == list(want.adopted.items())
        assert out.node_views == want.node_views
        assert out.unreached == want.unreached
        assert adv.trace[fired:] == ref_adv.trace[fired:]
        rebuilt.append(out)
        return out

    monkeypatch.setattr(atr, "atr_basic", checked)
    result = orchestrator.run_sessions(Scenario.from_dict(config))
    assert [len(out.unreached) for out in rebuilt] == [7, 9]
    assert [len(out.tree.members) for out in rebuilt] == [57, 55]
    assert result.audits()["all_pass"]


def assert_same_as_validated(tree):
    """`tree` equals the tree the validating constructor builds from its
    parent map: same child lists in the same order, same epochs."""
    ref = AggregationTree(tree.parent)
    assert tree.parent == ref.parent
    assert tree.children == ref.children  # each list compared in order
    assert tree.epochs == ref.epochs
    assert tree.bs_child == ref.bs_child


@settings(max_examples=200, deadline=None)
@given(rebuild_cases())
def test_built_trees_equal_validated_trees(case):
    """Each builder's tree, made from its own walk's levels, is the tree
    `AggregationTree(parent)` derives by its own walk."""
    n, edges, blacklist, faulty = case
    net = make_net(n, edges, d_max=n + 1)
    adv = Adversary(faulty, [entry(v, k) for v, kinds in faulty.items() for k in sorted(kinds)])
    adv.begin_session(2)
    trees = [atr.build_initial_tree(net.graph)]
    trees.append(atr.atr_basic(net, blacklist, NONCE, adv).tree)
    adj = atr.atr_resilient_init(net, adv)
    trees.append(atr.atr_resilient_build(net, adj, blacklist, NONCE).tree)
    for tree in trees:
        if tree is not None:
            assert_same_as_validated(tree)


def broadcast_through(net: Network, rewrite) -> None:
    """Make `net.bs_broadcast` deliver `rewrite(payload)`, charged as sent."""
    send = net.bs_broadcast
    net.bs_broadcast = lambda payload: rewrite(send(payload))


def test_views_are_parsed_from_the_delivered_bytes():
    net = ring_net(6)
    adj = atr.atr_resilient_init(net, Adversary((), ()))
    honest = atr.atr_resilient_build(net, adj, frozenset(), NONCE)
    assert honest.tree.parent[4] == 3
    # Rewrite the delivered (4, 3) pair to (4, 5): no node's view may come
    # from the BS's own tree.
    pair, forged = atr._PAIR.pack(4, 4, 3), atr._PAIR.pack(4, 4, 5)
    broadcast_through(net, lambda payload: payload.replace(pair, forged))
    out = atr.atr_resilient_build(net, adj, frozenset(), NONCE)
    assert out.tree.parent[4] == 3
    assert out.adopted[4] == 5
    assert (honest.node_views[3], honest.node_views[5]) == ((2, (4,)), (6, ()))
    assert out.node_views[4] == (5, ())
    assert (out.node_views[3], out.node_views[5]) == ((2, ()), (6, (4,)))
    assert out.node_views is out.node_views  # built once, on first read


def test_truncated_tree_payload_raises_in_distribute():
    net = ring_net(6)
    adj = atr.atr_resilient_init(net, Adversary((), ()))
    broadcast_through(net, lambda payload: payload[:-1])
    with pytest.raises(FrameError, match="truncated tree pair"):
        atr.atr_resilient_build(net, adj, frozenset(), NONCE)
    with pytest.raises(FrameError, match="truncated tree pair"):
        atr.atr_basic(net, frozenset(), NONCE, Adversary((), ()))


@st.composite
def announcement_cases(draw):
    """A small connected graph and faked neighbor lists.

    Announced ids range over the BS (0), every sensor whether a neighbor or
    not, and two ids no node has; some faulty pairs fake a link together.
    """
    n, edges = draw_graph(draw)
    faulty = sorted(draw(st.sets(st.integers(1, n), max_size=n)))
    ids = st.lists(st.integers(0, n + 2), max_size=4)
    fakes = {v: (draw(ids), draw(ids)) for v in faulty if draw(st.booleans())}
    if faulty:
        for a, c in draw(st.lists(st.tuples(*[st.sampled_from(faulty)] * 2), max_size=3)):
            for v, w in ((a, c), (c, a)):
                fakes.setdefault(v, ([], []))[0].append(w)
    return n, edges, faulty, fakes


@settings(max_examples=200, deadline=None)
@given(announcement_cases())
def test_resilient_init_matches_signature_oracle(case):
    n, edges, faulty, fakes = case
    runs = []
    signed = lambda net, adv: oracle_atr_resilient_init(net, SignatureOracle(b"atr"), adv)
    for init in (atr.atr_resilient_init, signed):
        net = make_net(n, edges, d_max=n + 1)
        scripts = [entry(v, "nl_fake", add=add, remove=rm) for v, (add, rm) in fakes.items()]
        adv = Adversary(faulty, scripts)
        adv.begin_session(-1)
        found = init(net, adv)
        runs.append((found, list(net.ledger.per_edge.items()), net.ledger.per_phase, adv.trace))
    adj = runs[0][0]
    assert set(adj) == {BS_ID} | set(range(1, n + 1))
    runs[0] = (adjacency_edges(adj), *runs[0][1:])
    assert runs[0] == runs[1]


@st.composite
def rebuild_schedules(draw):
    """An announcement case and the growing blacklists of up to 4 rebuilds."""
    n, edges, faulty, fakes = draw(announcement_cases())
    blacklists, blacklist = [], frozenset()
    for _ in range(draw(st.integers(1, 4))):
        blacklist |= draw(st.frozensets(st.integers(1, n), max_size=2))
        blacklists.append(blacklist)
    return n, edges, faulty, fakes, blacklists


@settings(max_examples=200, deadline=None)
@given(rebuild_schedules())
def test_resilient_build_matches_edge_set_reference(case):
    """Rebuilding over one init's adjacency, build after build, matches the
    reference that rederives the adjacency from an edge set at each build."""
    n, edges, faulty, fakes, blacklists = case
    scripts = [entry(v, "nl_fake", add=add, remove=rm) for v, (add, rm) in fakes.items()]
    runs = []
    for init, build in (
        (atr.atr_resilient_init, atr.atr_resilient_build),
        (lambda net, adv: oracle_atr_resilient_init(net, SignatureOracle(b"atr"), adv),
         oracle_atr_resilient_build),
    ):
        net = make_net(n, edges, d_max=n + 1)
        adv = Adversary(faulty, scripts)
        adv.begin_session(-1)
        bs_view = init(net, adv)
        outs = []
        for blacklist in blacklists:
            net.ledger.reset()
            out = build(net, bs_view, blacklist, NONCE)
            tree = out.tree
            outs.append(
                (
                    tree and tree.parent,
                    tree and tree.epochs,
                    tree and tree.children,
                    list(out.adopted.items()),
                    out.node_views,
                    out.unreached,
                    list(net.ledger.per_edge.items()),
                    net.ledger.per_phase,
                )
            )
        runs.append(outs)
    assert runs[0] == runs[1]


u16s = st.integers(0, 0xFFFF)


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=16), st.dictionaries(u16s, u16s, max_size=12))
def test_tree_codec_matches_reference(nonce, parent):
    payload = atr._serialize_tree(nonce, parent)
    assert payload == oracle_serialize_tree(nonce, parent)
    assert list(atr._parse_tree(payload).items()) == sorted(parent.items())


@st.composite
def mutated_tree_payloads(draw):
    """A serialized tree with up to 3 bytes flipped, runs cut or bytes inserted."""
    nonce = draw(st.binary(max_size=10))
    data = bytearray(atr._serialize_tree(nonce, draw(st.dictionaries(u16s, u16s, max_size=6))))
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["flip", "cut", "insert"]))
        pos = draw(st.integers(0, len(data)))
        if op == "flip" and pos < len(data):
            data[pos] ^= draw(st.integers(1, 255))
        elif op == "cut":
            del data[pos : pos + draw(st.integers(1, 9))]
        else:
            data[pos:pos] = draw(st.binary(min_size=1, max_size=9))
    return bytes(data)


def parse_outcome(parse, payload):
    try:
        return list(parse(payload).items())
    except FrameError:
        return FrameError


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.binary(max_size=40), mutated_tree_payloads()))
@example(b"")  # no nonce field: an empty tree, not a FrameError
def test_tree_parser_matches_reference(payload):
    """Same pairs in the same order, or FrameError from both."""
    assert parse_outcome(atr._parse_tree, payload) == parse_outcome(oracle_parse_tree, payload)


class TestResilientRebuild:
    def test_mutual_announcement_reproduces_graph(self):
        net = ring_net(6)
        adj = atr.atr_resilient_init(net, Adversary((), ()))
        assert adjacency_edges(adj) == net.graph.edges
        out = atr.atr_resilient_build(net, adj, frozenset(), NONCE)
        assert out.tree.members == net.graph.sensors

    def test_fabricated_edge_rejected(self):
        net = path_net(4)
        # 4 claims a shortcut straight to 1; 1 never confirms it.
        adv = Adversary({4}, [entry(4, "nl_fake", add=[1])])
        adv.begin_session(0)
        adj = atr.atr_resilient_init(net, adv)
        assert (1, 4) not in adjacency_edges(adj)
        out = atr.atr_resilient_build(net, adj, frozenset(), NONCE)
        assert out.tree.parent[4] == 3  # still the real topology

    def test_colluding_fabricated_edge_rejected(self):
        # 1 and 4 both announce a link that does not exist: mutual, but no
        # graph edge, so it can carry no frame and is not kept.
        net = path_net(4)
        adv = Adversary({1, 4}, [entry(1, "nl_fake", add=[4]), entry(4, "nl_fake", add=[1])])
        adv.begin_session(-1)
        adj = atr.atr_resilient_init(net, adv)
        assert adjacency_edges(adj) == net.graph.edges
        out = atr.atr_resilient_build(net, adj, frozenset(), NONCE)
        assert out.tree.parent[4] == 3
        net.graph.check_tree(out.tree)

    def test_withheld_edge_disappears_both_ways(self):
        net = path_net(4)
        adv = Adversary({3}, [entry(3, "nl_fake", remove=[4])])
        adv.begin_session(0)
        adj = atr.atr_resilient_init(net, adv)
        assert (3, 4) not in adjacency_edges(adj)
        out = atr.atr_resilient_build(net, adj, frozenset(), NONCE)
        assert out.tree.members == {1, 2, 3}
        assert out.unreached == {4}

    def test_blacklist_respected_and_views_match(self):
        net = ring_net(8)
        adj = atr.atr_resilient_init(net, Adversary((), ()))
        out = atr.atr_resilient_build(net, adj, frozenset({1}), NONCE)
        assert 1 not in out.tree.members
        for node in out.tree.members:
            assert out.node_views[node] == (
                out.tree.parent[node],
                tuple(out.tree.children.get(node, [])),
            )

    def test_collection_cost_is_every_list_on_every_backbone_edge(self):
        # Honest lists, then 3 announcing two fabricated links and 5 hiding a
        # real one: each faked list changes its signed blob's size.
        faking = Adversary(
            {3, 5}, [entry(3, "nl_fake", add=[5, 6]), entry(5, "nl_fake", remove=[4])]
        )
        totals = []
        for adv, fakes in [(Adversary((), ()), {}), (faking, {3: [2, 4, 5, 6], 5: [6]})]:
            net = ring_net(6)
            oracle = SignatureOracle(b"atr-test")
            adv.begin_session(-1)
            atr.atr_resilient_init(net, adv)
            blob_total = sum(
                oracle.sign(
                    s,
                    wire.frame(
                        b"nl", *[wire.u16(v) for v in fakes.get(s, net.graph.neighbors(s))]
                    ),
                ).size
                for s in sorted(net.graph.sensors)
            )
            backbone = net.graph.flood_edges
            assert net.ledger.per_edge == {e: blob_total for e in backbone}
            assert net.ledger.per_phase == {"nl": blob_total * len(backbone)}
            assert net.ledger.max_congestion() == blob_total
            totals.append(blob_total)
        assert totals[0] != totals[1]

