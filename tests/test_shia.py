import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from robustagg import als, atr, crypto, shia, wire
from robustagg.adversary import Adversary, garble
from robustagg.crypto import BS_ID
from robustagg.errors import FrameError, ProtocolViolation
from robustagg.netmodel import AggregationTree, Network, NetworkGraph
from robustagg.scenario import Scenario

from helpers import (
    PathStep,
    entry,
    net_for_tree,
    oracle_combine,
    oracle_frame,
    oracle_internal_bytes,
    oracle_label_from_bytes,
    oracle_label_to_bytes,
    oracle_leaf_bytes,
    oracle_offpath_from_bytes,
    oracle_offpath_to_bytes,
    oracle_recompute_root,
    oracle_root,
    oracle_xor,
    recorded_charges,
    result_fields,
    run_session,
    step_raws,
)

NONCE = b"\x07" * 8

# BS - 1 - {2, 3}; 2 - {4, 5}; 3 - {6, 7}: a full binary tree of 7 sensors.
BINARY = {1: BS_ID, 2: 1, 3: 1, 4: 2, 5: 2, 6: 3, 7: 3}


def random_parent_map(rng: random.Random, n: int) -> dict[int, int]:
    parent = {1: BS_ID}
    for s in range(2, n + 1):
        parent[s] = rng.randint(1, s - 1)
    return parent


class TestLabels:
    def test_leaf_label_fields(self):
        lab = shia.leaf_label(7, 5)
        assert (lab.count, lab.value) == (1, 5)
        assert lab.commit == wire.u16(7)
        assert lab.leaf

    def test_leaf_bytes_match_oracle(self):
        lab = shia.leaf_label(7, 5)
        assert lab.raw == lab.to_bytes() == oracle_leaf_bytes(7, 5)

    def test_internal_label_matches_oracle(self):
        a, b = shia.leaf_label(1, 10), shia.leaf_label(2, 20)
        lab = shia.internal_label(NONCE, [a, b])
        c, v, digest = oracle_combine(
            NONCE, [(1, 10, a.to_bytes()), (1, 20, b.to_bytes())]
        )
        assert (lab.count, lab.value, lab.commit) == (c, v, digest)
        assert lab.raw == lab.to_bytes() == oracle_internal_bytes(c, v, digest)

    def test_input_order_changes_commitment(self):
        a, b = shia.leaf_label(1, 10), shia.leaf_label(2, 20)
        assert shia.internal_label(NONCE, [a, b]).raw != shia.internal_label(NONCE, [b, a]).raw

    def test_nonce_changes_commitment(self):
        a = shia.leaf_label(1, 10)
        one = shia.internal_label(b"\x01" * 8, [a, a])
        two = shia.internal_label(b"\x02" * 8, [a, a])
        assert one.commit != two.commit

    def test_roundtrip(self):
        for lab in (shia.leaf_label(9, -3), shia.internal_label(NONCE, [shia.leaf_label(1, 1), shia.leaf_label(2, 2)])):
            back = shia.Label.from_bytes(lab.to_bytes())
            assert (fields_of(back), back.raw) == (fields_of(lab), lab.raw)

    def test_bad_tag_and_commit_length_rejected(self):
        with pytest.raises(FrameError):
            shia.Label.from_bytes(b"\x05" + b"junk")
        good = shia.leaf_label(1, 1).to_bytes()
        with pytest.raises(FrameError):
            # leaf tag but digest-sized commitment
            shia.Label.from_bytes(b"\x00" + wire.frame(wire.u16(1), wire.i64(1), b"x" * 32))
        assert shia.Label.from_bytes(good)  # sanity: the original parses
        # a label frame needs exactly count, value and commitment
        for fields in ([wire.u16(1), wire.i64(1)], [wire.u16(1), wire.i64(1), wire.u16(1), b"x"]):
            bad = b"\x00" + wire.frame(*fields)
            with pytest.raises(FrameError):
                shia.Label.from_bytes(bad)
            with pytest.raises(FrameError):
                shia.offpath_from_bytes(wire.frame(wire.frame(wire.u16(0), bad)))

    def test_recompute_root_walks_sibling_steps(self):
        a, b, c = shia.leaf_label(1, 1), shia.leaf_label(2, 2), shia.leaf_label(3, 3)
        mid = shia.internal_label(NONCE, [a, b])
        root = shia.internal_label(NONCE, [mid, c])
        steps = [PathStep(0, (b,)), PathStep(0, (c,))]
        assert oracle_recompute_root(a, steps, NONCE).raw == root.raw
        # The BS child gets the empty blob; each node prepends one step.
        top = shia.offpath_to_bytes(0, [c.to_bytes()], b"")
        blob = shia.offpath_to_bytes(0, [b.to_bytes()], top)
        assert blob == oracle_offpath_to_bytes(steps)
        assert step_raws(oracle_offpath_from_bytes(blob)) == step_raws(steps)
        path = shia.offpath_from_bytes(blob)
        assert (path.raw, path.slot, [l.raw for l in path.others]) == (blob, 0, [b.raw])
        assert path.above.raw == top and path.above.above.raw == b""
        assert shia.recompute_root(a, path, NONCE).raw == root.raw


# --- the one-struct label codec against the general frame path ---


@st.composite
def label_fields(draw):
    """(count, value, commit, leaf) over the whole wire range."""
    leaf = draw(st.booleans())
    size = wire.NODE_ID_LEN if leaf else wire.DIGEST_LEN
    return (
        draw(st.integers(0, 2**16 - 1)),
        draw(st.integers(-(2**63), 2**63 - 1)),
        draw(st.binary(min_size=size, max_size=size)),
        leaf,
    )


def fields_of(lab: shia.Label) -> tuple:
    return (lab.count, lab.value, lab.commit, lab.leaf)


@settings(max_examples=300, deadline=None)
@given(label_fields())
def test_label_bytes_match_frame_oracle(fields):
    count, value, commit, leaf = fields
    lab = shia.Label(*fields)
    assert lab.raw == lab.to_bytes() == oracle_label_to_bytes(*fields)
    back = shia.Label.from_bytes(lab.raw)
    assert fields_of(back) == fields and back.raw == lab.raw
    if leaf:
        node = int.from_bytes(commit, "big")
        assert shia.leaf_label(node, value).raw == oracle_label_to_bytes(1, value, commit, True)
    # The hashed input frames this label with its own length prefix.
    up = shia.internal_label(NONCE, [lab])
    c, v, digest = oracle_combine(NONCE, [(count, value, oracle_label_to_bytes(*fields))])
    assert up.raw == oracle_label_to_bytes(c, v, digest, False)


@st.composite
def label_blobs(draw):
    """Arbitrary bytes, other framings, and valid labels intact or damaged."""
    kind = draw(st.sampled_from(["arbitrary", "reframed", "valid", "flip", "truncate", "extend"]))
    if kind == "arbitrary":
        return draw(st.binary(max_size=80))
    if kind == "reframed":  # any tag byte, three fields of any length
        tag = draw(st.integers(0, 3))
        fields = [draw(st.binary(max_size=n)) for n in (10, 10, 34)]
        return bytes([tag]) + oracle_frame(*fields)
    raw = oracle_label_to_bytes(*draw(label_fields()))
    if kind == "flip":
        pos = draw(st.integers(0, len(raw) - 1))
        return raw[:pos] + bytes([raw[pos] ^ draw(st.integers(1, 255))]) + raw[pos + 1 :]
    if kind == "truncate":
        return raw[: draw(st.integers(0, len(raw) - 1))]
    if kind == "extend":
        return raw + draw(st.binary(min_size=1, max_size=40))
    return raw


@settings(max_examples=500, deadline=None)
@given(label_blobs())
def test_label_parser_matches_frame_oracle(data):
    try:
        ref = oracle_label_from_bytes(data)
    except FrameError:
        ref = None
    try:
        lab = shia.Label.from_bytes(data)
    except FrameError:
        lab = None
    assert (lab is None) == (ref is None)
    if lab is not None:
        assert fields_of(lab) == ref and lab.raw == data


@st.composite
def label_pairs(draw):
    """Two labels' fields: the same, one field apart, or unrelated."""
    a = draw(label_fields())
    how = draw(st.sampled_from(["same", "count", "value", "commit", "leaf", "other"]))
    b = list(a)
    if how == "count":
        b[0] = a[0] ^ 1
    elif how == "value":
        b[1] = a[1] ^ 1
    elif how == "commit":
        b[2] = bytes([a[2][0] ^ 1]) + a[2][1:]
    elif how == "leaf":  # same count and value, the other kind
        b[2], b[3] = draw(label_fields().filter(lambda f: f[3] != a[3]))[2:]
    elif how == "other":
        b = draw(label_fields())
    return a, tuple(b)


@settings(max_examples=300, deadline=None)
@given(label_pairs(), st.booleans())
def test_labels_equal_exactly_when_fields_are(pair, parse_b):
    fa, fb = pair
    a = shia.Label(*fa)
    # Built from fields or parsed from bytes, a label is the same label:
    # its bytes are equal exactly when its fields are.
    b = shia.Label.from_bytes(oracle_label_to_bytes(*fb)) if parse_b else shia.Label(*fb)
    assert (a.raw == b.raw) == (fa == fb)


@given(st.booleans(), st.binary(max_size=40))
def test_wrong_length_commitment_raises(leaf, commit):
    assume(len(commit) != (wire.NODE_ID_LEN if leaf else wire.DIGEST_LEN))
    with pytest.raises(ProtocolViolation):
        shia.Label(1, 1, commit, leaf)


class TestHonestRuns:
    def test_binary_tree_root_matches_independent_recomputation(self):
        net, tree = net_for_tree(BINARY)
        values = {s: 10 * s for s in tree.members}
        sres, marks, _, _ = run_session(net, tree, values, [], frozenset())
        assert sres.accepted
        count, value, raw = oracle_root(NONCE, tree, values)
        assert sres.root_label.raw == raw
        assert (count, value) == (7, sum(values.values()))
        assert sres.value == sum(values.values())

    def test_everyone_acks_and_aggregate_matches_expectation(self):
        net, tree = net_for_tree(BINARY)
        values = {s: 5 for s in tree.members}
        sres, _, _, _ = run_session(net, tree, values, [], frozenset())
        assert all(sres.acked.values())
        assert sres.agg_ack == sres.expected_ack
        assert sres.agg_ack == crypto.xor_acks(
            [crypto.node_ack(net.keys.bs_key(s), NONCE) for s in tree.members]
        )

    def test_random_trees_always_accept_exact_sum(self):
        rng = random.Random(23)
        for _ in range(40):
            n = rng.randint(1, 25)
            parent = random_parent_map(rng, n)
            net, tree = net_for_tree(parent)
            values = {s: rng.randint(0, 100) for s in tree.members}
            sres, _, _, _ = run_session(net, tree, values, [], frozenset())
            assert sres.accepted, parent
            assert sres.value == sum(values.values())
            assert all(sres.acked.values())


class TestMisbehavior:
    def test_internal_forger_denied_by_its_own_children(self):
        # Node 2 forges its combined label; 4 and 5 cannot re-derive the root.
        net, tree = net_for_tree(BINARY)
        values = {s: 10 for s in tree.members}
        scripts = [entry(2, "label_forge", value=35)]
        sres, marks, als2_ran, adv = run_session(net, tree, values, scripts, frozenset({2}))
        assert not sres.accepted
        assert not sres.acked[4] and not sres.acked[5]
        assert sres.acked[2]  # the forger can still ack its own forgery
        assert not als2_ran
        assert marks is not None and als.marked(marks) & adv.misbehaved(0)

    def test_out_of_range_label_excluded_by_parent(self):
        net, tree = net_for_tree(BINARY)
        values = {s: 10 for s in tree.members}
        scripts = [entry(4, "label_forge", value=10**6)]
        sres, marks, _, _ = run_session(net, tree, values, scripts, frozenset({4}))
        assert not sres.accepted
        assert not sres.root_ok
        assert sres.root_label.count == 6  # node 4's subtree dropped
        assert als.marked(marks) == {4, 2}

    def test_label_drop_silences_whole_subtree(self):
        net, tree = net_for_tree(BINARY)
        values = {s: 10 for s in tree.members}
        scripts = [entry(2, "label_drop")]
        sres, marks, _, _ = run_session(net, tree, values, scripts, frozenset({2}))
        assert not sres.accepted
        assert sres.root_label.count == 4  # 1, 3, 6, 7 remain
        assert not sres.acked[2] and not sres.acked[4] and not sres.acked[5]
        assert als.marked(marks) == {2, 1}

    def test_root_child_drop_leaves_bs_empty_handed(self):
        net, tree = net_for_tree(BINARY)
        values = {s: 10 for s in tree.members}
        sres, marks, _, _ = run_session(
            net, tree, values, [entry(1, "label_drop")], frozenset({1})
        )
        assert sres.root_label is None and not sres.accepted
        assert als.marked(marks) == {1}

    def test_offpath_corruption_blocks_descendants_only(self):
        net, tree = net_for_tree(BINARY)
        values = {s: 10 for s in tree.members}
        scripts = [entry(3, "offpath_corrupt")]
        sres, marks, _, _ = run_session(net, tree, values, scripts, frozenset({3}))
        assert not sres.accepted
        assert not sres.acked[6] and not sres.acked[7]
        assert sres.acked[3] and sres.acked[1] and sres.acked[4]
        assert als.marked(marks) == {6, 7, 3}

    def test_ack_drop_breaks_the_aggregate_only(self):
        net, tree = net_for_tree(BINARY)
        values = {s: 10 for s in tree.members}
        scripts = [entry(5, "ack_drop")]
        sres, marks, _, _ = run_session(net, tree, values, scripts, frozenset({5}))
        assert not sres.accepted
        assert sres.root_ok  # the aggregate itself was fine
        assert sres.agg_ack != sres.expected_ack
        assert als.marked(marks) == {5, 2}

    def test_correct_edges_agree_on_ack_booleans(self):
        # Every behavior above: both-correct tree edges always agree.
        rng = random.Random(5)
        for kind, params in (
            ("label_forge", {"value": 35}),
            ("label_drop", {}),
            ("offpath_corrupt", {}),
            ("ack_drop", {}),
            ("ack_garble", {}),
            ("agg_ack_garble", {}),
        ):
            for _ in range(10):
                n = rng.randint(2, 15)
                parent = random_parent_map(rng, n)
                net, tree = net_for_tree(parent)
                f = rng.randint(1, n)
                values = {s: 10 for s in tree.members}
                sres, _, _, adv = run_session(
                    net, tree, values, [entry(f, kind, **params)], frozenset({f})
                )
                bad = adv.misbehaved(0)
                for c, p in parent.items():
                    if p == BS_ID or c in bad or p in bad:
                        continue
                    assert sres.acked[c] == sres.acked[p], (parent, f, kind)


def test_parent_switch_routes_label_through_accomplice():
    # 4 hands its label to faulty sibling 5 instead of parent 2.
    net, tree = net_for_tree(BINARY)
    values = {s: 10 for s in tree.members}
    scripts = [entry(4, "parent_switch", target=5)]
    sres, marks, _, _ = run_session(net, tree, values, scripts, frozenset({4, 5}))
    assert not sres.accepted
    # The value still arrives once (via 5), but 4 looks silent to 2.
    assert sres.root_label.count == 7
    assert sres.value == 70
    assert not sres.acked[4]
    assert als.marked(marks) == {4, 2}


# --- off-path parsing and root recomputation against the oracle ---

small_labels = st.one_of(
    st.builds(shia.leaf_label, st.integers(1, 9), st.integers(-50, 50)),
    st.builds(
        lambda c, v, d: shia.Label(c, v, d, leaf=False),
        st.integers(1, 40),
        st.integers(-500, 500),
        st.binary(min_size=32, max_size=32),
    ),
)


@st.composite
def offpath_cases(draw):
    """(blob, own label) pairs over one random tree, plus damaged blobs.

    Blobs follow the honest layout, so they share suffixes and a child's
    first step folds its honest label into its parent's.  Own labels are
    honest, another node's, or random, so memo entries meet many labels.
    """
    n = draw(st.integers(1, 9))
    parent = [None] + [draw(st.integers(0, i - 1)) for i in range(1, n)]
    kids = {i: [c for c in range(n) if parent[c] == i] for i in range(n)}
    values = draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n))
    labels: dict[int, shia.Label] = {}
    inputs: dict[int, list[shia.Label]] = {}
    for i in reversed(range(n)):  # children have larger ids than parents
        inputs[i] = [labels[c] for c in kids[i]] + [shia.leaf_label(i + 1, values[i])]
        labels[i] = inputs[i][0] if len(inputs[i]) == 1 else shia.internal_label(NONCE, inputs[i])
    chains: dict[int, list[PathStep]] = {0: []}
    for i in range(1, n):
        p = parent[i]
        idx = kids[p].index(i)
        chains[i] = [PathStep(idx, tuple(inputs[p][:idx] + inputs[p][idx + 1 :]))] + chains[p]
    blobs = [oracle_offpath_to_bytes(chains[i]) for i in range(n)]
    own_choices = st.one_of(st.sampled_from(list(labels.values())), small_labels)
    cases = [(blob, draw(st.one_of(st.just(labels[i]), own_choices))) for i, blob in enumerate(blobs)]
    for blob in draw(st.lists(st.sampled_from(blobs), max_size=6)):
        kind = draw(st.sampled_from(["garble", "truncate", "forged", "short", "long"]))
        if kind in ("garble", "truncate") and not blob:
            continue
        if kind == "garble":
            pos = draw(st.integers(0, len(blob) - 1))
            mask = draw(st.integers(1, 255))
            damaged = blob[:pos] + bytes([blob[pos] ^ mask]) + blob[pos + 1 :]
        elif kind == "truncate":
            damaged = blob[: draw(st.integers(0, len(blob) - 1))]
        elif kind == "forged":
            step = PathStep(draw(st.integers(0, 3)), (draw(small_labels),))
            damaged = oracle_offpath_to_bytes([step]) + blob
        else:  # a label frame with 2 or 4 fields in an otherwise valid step
            fields = [wire.u16(1), wire.i64(7)] + ([] if kind == "short" else [wire.u16(3), b"z"])
            bad = b"\x00" + wire.frame(*fields)
            damaged = wire.frame(wire.frame(wire.u16(0), bad)) + blob
        cases.append((damaged, draw(own_choices)))
    return draw(st.permutations(cases))


@settings(max_examples=150, deadline=None)
@given(offpath_cases())
def test_parsed_offpath_matches_oracle(cases):
    for blob, own in cases:
        try:
            ref = oracle_offpath_from_bytes(blob)
        except FrameError:
            ref = None
        try:
            path = shia.offpath_from_bytes(blob)
        except FrameError:
            path = None
        assert (path is None) == (ref is None)
        if path is not None:
            assert path.raw == blob
            assert shia.recompute_root(own, path, NONCE).raw == oracle_recompute_root(own, ref, NONCE).raw


SHIA_KINDS = (
    "own_value_forge", "label_forge", "label_drop", "parent_switch",
    "offpath_corrupt", "ack_drop", "ack_garble", "agg_ack_garble",
)


@st.composite
def shia_sessions(draw, kinds=SHIA_KINDS):
    """A random tree, in-range values and scripts for SHIA's deviations."""
    n = draw(st.integers(1, 12))
    parent = {1: BS_ID}
    for s in range(2, n + 1):
        parent[s] = draw(st.integers(1, s - 1))
    values = {s: draw(st.integers(0, 100)) for s in range(1, n + 1)}
    faulty = draw(st.lists(st.integers(1, n), unique=True, max_size=n))
    scripts = []
    for node in faulty:
        others = [f for f in faulty if f != node]  # a switch targets another faulty node
        for kind in draw(st.lists(st.sampled_from(kinds), unique=True, max_size=3)):
            if kind == "parent_switch" and not others:
                continue
            if kind == "own_value_forge":
                params = {"value": draw(st.integers(0, 100))}
            elif kind == "label_forge":
                params = draw(
                    st.fixed_dictionaries(
                        {},
                        optional={
                            "count": st.integers(0, n + 2),
                            "value": st.integers(-50, 100 * n + 50),
                            "value_add": st.integers(-60, 60),
                        },
                    )
                )
            elif kind == "parent_switch":
                params = {"target": draw(st.sampled_from(others))}
            else:
                params = {}
            scripts.append(entry(node, kind, **params))
    return parent, values, frozenset(faulty), scripts


def _check_steps(path, nonce, recompute):
    """Every step handed to recompute_root is the parse of its own bytes,
    and a step that carries its sender's root is the root that the held
    label folds into through the parsed steps."""
    ref = shia.offpath_from_bytes(path.raw)
    while path.above is not None:
        assert step_raws([path]) == step_raws([ref]) and path.raw == ref.raw
        assert len(path) == len(path.raw) and len(ref) == len(ref.raw)
        if path.held is not None:
            assert recompute(path.held, ref, nonce).raw == path.root.raw
        path, ref = path.above, ref.above
    assert ref.above is None


@settings(max_examples=300, deadline=None)
@given(shia_sessions())
def test_fast_check_phase_matches_parsing_every_blob(case):
    # The check phase builds an unaltered blob's step from the sender's
    # labels and reuses the root the sender's fold implies.  Handing each
    # child a fresh copy of the blob's bytes forces a parse and a hash per
    # step.
    parent, values, faulty, scripts = case
    real = shia.recompute_root

    def checked(own, path, nonce):
        _check_steps(path, nonce, real)
        return real(own, path, nonce)

    runs = []
    for copy in (False, True):
        net, tree = net_for_tree(parent)
        if copy:
            send = net.send_link

            def copying(frm, to, p):
                p = send(frm, to, p)  # bytes, or an off-path blob
                return bytes(bytearray(getattr(p, "raw", p)))

            net.send_link = copying
        adv = Adversary(faulty, scripts)
        adv.begin_session(0)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(shia, "recompute_root", checked)
            sres = shia.run_shia(net, tree, values, adv, NONCE, (0, 100))
        runs.append((result_fields(sres), net.ledger.per_edge, net.ledger.per_phase, adv.trace))
    assert runs[0] == runs[1]


def honest_grid_session(monkeypatch, module, name):
    """One honest stage-one session on a 30x30 grid's tree (59 levels),
    counting the calls to `module.name`: (the tree, the call count)."""
    calls = []
    real = getattr(module, name)

    def counting(*args):
        calls.append(1)
        return real(*args)

    scenario = Scenario.from_dict(
        {"seed": 3, "sessions": 1, "topology": {"kind": "grid", "rows": 30, "cols": 30}}
    )
    graph = scenario.graph
    keys = crypto.KeyStore(b"3")
    keys.register_node(graph.sensors)
    net, tree = Network(graph, keys), atr.build_initial_tree(graph)
    adv = Adversary(faulty=(), scripts=())
    adv.begin_session(0)
    values = scenario.values_for(0)
    monkeypatch.setattr(module, name, counting)
    sres = shia.run_shia(net, tree, values, adv, NONCE, scenario.value_range)
    assert sres.accepted and sres.value == sum(values.values())
    assert tree.height() == 59
    return tree, len(calls)


def test_honest_grid_session_hashes_linearly(monkeypatch):
    # Every blob arrives as its sender built it and every node holds the
    # label its parent folded in, so each walk stops at its first step and
    # the check hashes nothing: one hash per tree node with children, the
    # commit phase's folds, and none more.
    tree, calls = honest_grid_session(monkeypatch, shia, "internal_label")
    assert calls == sum(1 for s in tree.members if tree.children.get(s))


def test_honest_grid_session_builds_no_blob(monkeypatch):
    # Every blob arrives as its sender made it, so the check phase charges
    # each blob's length and builds none of their bytes.
    _, calls = honest_grid_session(monkeypatch, shia, "offpath_to_bytes")
    assert calls == 0


@pytest.mark.parametrize("node, built", [(1, 2), (3, 3)])
def test_tampering_node_builds_the_blobs_it_garbles(monkeypatch, node, built):
    # `garble` reads bytes, so a tampering node builds one blob per accepted
    # child, plus each unbuilt blob it holds on its own path as their
    # suffix (node 3 builds the one node 1 sent it).  Each child receives
    # the garbled frame of its steps.
    net, tree = net_for_tree(BINARY)
    values = {s: 10 for s in tree.members}
    calls = []
    real = shia.offpath_to_bytes
    monkeypatch.setattr(shia, "offpath_to_bytes", lambda *a: calls.append(1) or real(*a))
    labels, got = {}, {}
    send = net.send_link

    def recording(frm, to, payload):
        if net.phase == "commit":
            labels[frm] = shia.Label.from_bytes(payload)
        elif net.phase == "check" and frm == node:
            got[to] = payload
        return send(frm, to, payload)

    net.send_link = recording
    adv = Adversary({node}, [entry(node, "offpath_corrupt")])
    adv.begin_session(0)
    shia.run_shia(net, tree, values, adv, NONCE, (0, 100))

    def steps(child):
        out = []
        while child != tree.bs_child:
            up = tree.parent[child]
            kids = tree.children[up]
            inputs = [labels[k] for k in kids] + [shia.leaf_label(up, values[up])]
            idx = kids.index(child)
            out.append(PathStep(idx, tuple(inputs[:idx] + inputs[idx + 1 :])))
            child = up
        return out

    assert len(calls) == built
    assert got == {c: garble(oracle_offpath_to_bytes(steps(c))) for c in tree.children[node]}


def test_honest_grid_session_macs_each_ack_once(monkeypatch):
    # The BS's expected aggregate and each node's released ack are the same
    # MAC, computed once per member.
    tree, calls = honest_grid_session(monkeypatch, crypto, "node_ack")
    assert calls == len(tree.members)


@pytest.mark.parametrize(
    "kind, node",
    [
        (None, None),
        ("ack_drop", 5),
        ("ack_garble", 2),
        ("agg_ack_garble", 2),
        ("label_drop", 2),
        ("offpath_corrupt", 3),
    ],
    ids=["honest", "ack_drop", "ack_garble", "agg_ack_garble", "label_drop", "offpath_corrupt"],
)
def test_acked_is_the_ack_each_node_adds_to_what_it_sends_up(kind, node):
    # A node acks exactly when its upward ack differs from its children's
    # XOR by its own ack, so `acked` is what stage two may take as the set
    # of nodes that released an ack, with `acks_up` their messages.
    net, tree = net_for_tree(BINARY)
    scripts = [] if kind is None else [entry(node, kind)]
    adv = Adversary(frozenset() if node is None else {node}, scripts)
    adv.begin_session(0)
    sres = shia.run_shia(net, tree, {s: 10 for s in tree.members}, adv, NONCE, (0, 100))
    assert adv.misbehaved(0) == (set() if node is None else {node})
    _check_ack_phase(net, tree, adv, sres)
    assert sres.accepted == (kind is None)


# The deviations that shape what the ack phase sends.
ACK_KINDS = ("ack_drop", "ack_garble", "agg_ack_garble", "label_drop", "offpath_corrupt")


@settings(max_examples=300, deadline=None)
@given(shia_sessions(ACK_KINDS))
def test_ack_phase_matches_a_bytewise_fold(case):
    # The ack phase folds 128-bit ints; every ack it sends, and the BS's
    # expectation, equal XORs of byte lists.
    parent, values, faulty, scripts = case
    net, tree = net_for_tree(parent)
    adv = Adversary(faulty, scripts)
    adv.begin_session(0)
    sres = shia.run_shia(net, tree, values, adv, NONCE, (0, 100))
    _check_ack_phase(net, tree, adv, sres)
    # Not `not misbehaved`: an ack garbled twice at one node reads intact.
    assert sres.accepted == (sres.root_ok and sres.agg_ack == sres.expected_ack)


def _check_ack_phase(net, tree, adv, sres):
    """Each node's `acked` flag and the ack it sent up, against XORs of byte
    lists: a node sends the XOR of its released ack and what its children
    sent, garbled as its fired hooks say, and nothing when there is none."""
    own = {s: crypto.node_ack(net.keys.bs_key(s), NONCE) for s in tree.members}
    assert sres.node_acks == own
    assert sres.expected_ack == oracle_xor(list(own.values()))
    fired = {(e.node, e.kind) for e in adv.events(0)}
    for s in tree.members:
        sent = [sres.acks_up[c] for c in tree.children[s] if c in sres.acks_up]
        if (s, "ack_garble") in fired:
            assert sres.acked[s]
            sent.append(garble(own[s]))
        else:
            parts = [sres.acks_up.get(c, crypto.ZERO_ACK) for c in [s, *tree.children[s]]]
            if (s, "agg_ack_garble") not in fired:
                assert sres.acked[s] == (oracle_xor(parts) == own[s]), s
            if sres.acked[s]:
                sent.append(own[s])
        want = oracle_xor(sent) if sent else None
        if (s, "agg_ack_garble") in fired:
            want = garble(crypto.ZERO_ACK if want is None else want)
        assert sres.acks_up.get(s) == want, s
    assert all(len(a) == wire.ACK_LEN for a in sres.acks_up.values())
    assert sres.agg_ack == sres.acks_up.get(tree.bs_child)


def test_honest_grid_session_consults_no_adversary_hook(monkeypatch):
    # Only a faulty node can be scripted, so an honest session asks the
    # adversary nothing.
    _, calls = honest_grid_session(monkeypatch, Adversary, "action")
    assert calls == 0


def test_honest_grid_session_recomputes_each_root_once(monkeypatch):
    # Every member that got a path checks it exactly once.
    tree, calls = honest_grid_session(monkeypatch, shia, "recompute_root")
    assert calls == len(tree.members)


class RecordingAdversary(Adversary):
    """An adversary that records every hook consulted, in order."""

    def __init__(self, faulty, scripts):
        super().__init__(faulty, scripts)
        self.consulted = []

    def action(self, node, kind):
        self.consulted.append((node, kind))
        return super().action(node, kind)


@pytest.mark.parametrize(
    "scripts",
    [
        [entry(2, "label_forge", value=35)],
        [entry(3, "offpath_corrupt")],
        [entry(4, "parent_switch", target=5), entry(5, "ack_garble")],
        [entry(5, "ack_drop"), entry(6, "own_value_forge", value=3)],
        [entry(2, "agg_ack_garble"), entry(7, "label_drop")],
    ],
    ids=["label_forge", "offpath_corrupt", "parent_switch", "ack_drop", "agg_ack_garble"],
)
def test_hooks_run_at_faulty_nodes_in_the_per_node_order(scripts):
    # Marking every sensor faulty makes the session consult every hook at
    # every node.  With only the scripted nodes faulty, each of them sees
    # the same hooks in the same order, and the session ends the same.
    runs = []
    for faulty in (set(BINARY), {e.node for e in scripts}):
        net, tree = net_for_tree(BINARY)
        adv = RecordingAdversary(faulty, scripts)
        adv.begin_session(0)
        sres = shia.run_shia(net, tree, {s: 10 for s in tree.members}, adv, NONCE, (0, 100))
        root_raw = None if sres.root_label is None else sres.root_label.raw
        outcome = (sres.accepted, root_raw, sres.agg_ack, sres.acked, sres.acks_up)
        runs.append((adv, outcome, net.ledger.per_edge, net.ledger.per_phase))
    (every, *want), (only, *got) = runs
    assert {node for node, _ in every.consulted} == set(BINARY)
    assert only.consulted == [c for c in every.consulted if c[0] in only.faulty]
    assert only.trace == every.trace and only.trace
    assert got == want


def test_tampered_path_sees_each_step_as_its_sender_held_it(monkeypatch):
    # 2 forges its label, so it walks its own fold up through 1's step once,
    # by hashing 1's others, for 4 and 5; 3 garbles its blobs, so their
    # bytes are built from them.  Every path handed to recompute_root
    # carries, at each step, the sender's inputs but the recomputing node's
    # own, in the bytes as well.
    net, tree = net_for_tree(BINARY)
    values = {s: 10 for s in tree.members}
    labels = {}
    send = net.send_link

    def recording(frm, to, payload):
        if net.phase == "commit":
            labels[frm] = shia.Label.from_bytes(payload)
        return send(frm, to, payload)

    net.send_link = recording
    seen = []
    real = shia.recompute_root

    def watching(own, path, nonce):
        steps, step = [], path
        while step.above is not None:
            steps.append(PathStep(step.slot, step.others))
            step = step.above
        seen.append((own, steps, path.raw))
        return real(own, path, nonce)

    monkeypatch.setattr(shia, "recompute_root", watching)
    scripts = [entry(2, "label_forge", value=35), entry(3, "offpath_corrupt")]
    adv = Adversary({2, 3}, scripts)
    adv.begin_session(0)
    sres = shia.run_shia(net, tree, values, adv, NONCE, (0, 100))

    def sent_steps(child):
        out = []
        while child != tree.bs_child:
            up = tree.parent[child]
            kids = tree.children[up]
            inputs = [labels[k] for k in kids] + [shia.leaf_label(up, values[up])]
            idx = kids.index(child)
            out.append(PathStep(idx, tuple(inputs[:idx] + inputs[idx + 1 :])))
            child = up
        return out

    node_of = {lab.raw: node for node, lab in labels.items()}
    # 2's label before its forgery, the one walk a forger adds.
    fold = shia.internal_label(NONCE, [labels[4], labels[5], shia.leaf_label(2, values[2])])
    checked, folds = set(), 0
    for own, steps, raw in seen:
        if own.raw == fold.raw:
            node, folds = 2, folds + 1
        else:
            node = node_of[own.raw]
            checked.add(node)
        assert step_raws(steps) == step_raws(sent_steps(node)), node
        assert raw == oracle_offpath_to_bytes(steps), node
    assert folds == 1
    assert checked == {1, 2, 3, 4, 5}  # 6 and 7 got junk
    assert sres.acked == {1: True, 2: True, 3: True, 4: False, 5: False, 6: False, 7: False}


@pytest.mark.parametrize(
    "scripts, hashes, walks",
    [
        ([entry(2, "label_forge", value=35)], 3 + 1, 7 + 1),
        ([entry(2, "label_forge", value=35), entry(2, "offpath_corrupt")], 3, 5),
    ],
    ids=["label_forge", "label_forge_offpath_corrupt"],
)
def test_a_forger_walks_its_own_fold_once(monkeypatch, scripts, hashes, walks):
    # The commit phase folds at 1, 2 and 3.  A forger whose blobs go out
    # unaltered walks its label before the forgery up once for all its
    # children: one hash per level above it, and one root recomputation
    # besides each member's own.  A forger that also garbles its blobs
    # walks nothing for them, and 4 and 5 get junk, so no path to check.
    net, tree = net_for_tree(BINARY)
    hashed, walked = [], []
    real_label, real_root = shia.internal_label, shia.recompute_root
    monkeypatch.setattr(shia, "internal_label", lambda *a: hashed.append(1) or real_label(*a))
    monkeypatch.setattr(shia, "recompute_root", lambda *a: walked.append(1) or real_root(*a))
    adv = Adversary({2}, scripts)
    adv.begin_session(0)
    sres = shia.run_shia(net, tree, {s: 10 for s in tree.members}, adv, NONCE, (0, 100))
    assert (len(hashed), len(walked)) == (hashes, walks)
    assert sres.acked == {1: True, 2: True, 3: True, 4: False, 5: False, 6: True, 7: True}
    assert sres.root_ok and not sres.accepted


@pytest.mark.parametrize(
    "frm, to, withheld",
    [(1, 2, {2, 4, 5}), (2, 4, {4})],
    ids=["into_subtree", "into_leaf"],
)
def test_substituted_sibling_label_withholds_the_subtree_acks(monkeypatch, frm, to, withheld):
    # An off-path forger's attack: a well-formed blob whose first step
    # carries a sibling label other than the one the sender folded.  The
    # receiver parses it, folds its own label through the lie into a root
    # the BS never broadcast, and hands that root to its subtree, so none
    # of them acks; every other member does, and the session fails.
    net, tree = net_for_tree(BINARY)
    send = net.send_link
    parses = []
    real_parse = shia.offpath_from_bytes
    monkeypatch.setattr(shia, "offpath_from_bytes", lambda b: parses.append(b) or real_parse(b))

    def substituting(f, t, payload):
        if net.phase == "check" and (f, t) == (frm, to):
            sibling, *rest = payload.others
            lie = shia.Label(sibling.count, sibling.value + 1, sibling.commit, sibling.leaf)
            others = [lie.raw] + [l.raw for l in rest]
            payload = shia.offpath_to_bytes(payload.slot, others, payload.above.raw)
            steps = oracle_offpath_from_bytes(payload)  # well-formed
            assert [l.raw for l in steps[0].others] == others
        return send(f, t, payload)

    net.send_link = substituting
    adv = Adversary(frozenset(), [])
    adv.begin_session(0)
    sres = shia.run_shia(net, tree, {s: 10 for s in tree.members}, adv, NONCE, (0, 100))
    assert len(parses) == 1
    assert sres.acked == {s: s not in withheld for s in tree.members}
    assert sres.root_ok and sres.value == 70 and not sres.accepted


def test_an_omitted_acks_up_is_a_fresh_dict():
    bare = [shia.ShiaResult(False, None, None, False, None, None, {}, {}) for _ in range(2)]
    assert bare[0].acks_up == {} and bare[0].acks_up is not bare[1].acks_up


def honest_record(net: Network, tree: AggregationTree, seed: int = 0) -> dict:
    """What an honest `run_shia` over `tree` charges, per (edge, phase), in
    first-charge order; the session must succeed."""
    rng = random.Random(seed)
    values = {s: rng.randint(0, 100) for s in tree.members}
    adv = Adversary(faulty=(), scripts=())
    adv.begin_session(0)
    sres, record = recorded_charges(net, tree, values, adv, NONCE, (0, 100))
    assert sres.accepted and sres.value == sum(values.values())
    return record


@st.composite
def built_trees(draw) -> tuple[Network, AggregationTree]:
    """A connected graph drawn as `fuzzed_configs` draws one (sensors 1..n,
    n 1-12, 1-3 BS links), and a tree on it: the initial BFS tree, or a
    basic or resilient rebuild after a random blacklist."""
    n = draw(st.integers(1, 12))
    edges = {(draw(st.integers(1, v - 1)), v) for v in range(2, n + 1)}
    extra = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)), max_size=n))
    edges |= {(min(a, b), max(a, b)) for a, b in extra if a != b}
    edges |= {(BS_ID, v) for v in draw(st.sets(st.integers(1, n), min_size=1, max_size=3))}
    graph = NetworkGraph(set(range(1, n + 1)), edges, d_max=n + 1)
    keys = crypto.KeyStore(b"trees")
    keys.register_node(range(1, n + 1))
    net = Network(graph, keys)
    blacklist = frozenset(draw(st.sets(st.integers(1, n), max_size=n - 1)))
    build = draw(st.sampled_from(["initial", "basic", "resilient"]))
    if build == "initial":
        tree = atr.build_initial_tree(graph)
    elif build == "basic":
        tree = atr.atr_basic(net, blacklist, NONCE, Adversary(faulty=(), scripts=())).tree
    else:
        adj = atr.atr_resilient_init(net, Adversary(faulty=(), scripts=()))
        tree = atr.atr_resilient_build(net, adj, blacklist, NONCE).tree
    assume(tree is not None)
    net.ledger.reset()
    return net, tree


def assert_rows_match(rows: list, record: dict) -> None:
    """`rows` are `record`'s items as (a, b, bytes, phase), in its order,
    with no (edge, phase) in two rows."""
    assert rows == [(a, b, nbytes, phase) for (a, b, phase), nbytes in record.items()]
    assert len({(a, b, phase) for a, b, _, phase in rows}) == len(rows)


class TestHonestCharges:
    # `honest_charges` is the record an honest session charges, computed
    # from the tree's shape; the oracle runs the session and records it.

    @settings(max_examples=300, deadline=None)
    @given(built_trees(), st.integers(0, 10**6))
    def test_matches_a_recorded_honest_session(self, case, seed):
        net, tree = case
        got = shia.honest_charges(tree, net.graph.flood_edges)
        assert_rows_match(got, honest_record(net, tree, seed))

    @pytest.mark.parametrize(
        "parent",
        [
            {1: BS_ID},
            {v: v - 1 for v in range(1, 9)},
            {1: BS_ID, **{v: 1 for v in range(2, 9)}},
            BINARY,
        ],
        ids=["one_member", "chain", "star", "binary"],
    )
    def test_matches_on_fixed_shapes(self, parent):
        # The graph is the tree, so each broadcast rides the tree's edges and
        # the check phase's flood and blob charges share their keys.
        net, tree = net_for_tree(parent)
        got = shia.honest_charges(tree, net.graph.flood_edges)
        assert_rows_match(got, honest_record(net, tree))
