import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from robustagg import als, crypto, orchestrator, shia, wire
from robustagg.adversary import Adversary, garble
from robustagg.crypto import BS_ID
from robustagg.scenario import Scenario

from helpers import (
    entry,
    net_for_tree,
    oracle_expected_acks,
    oracle_run_localization,
    oracle_subtree,
    oracle_xor,
    run_localization,
    run_session,
)

NONCE = b"\x07" * 8

# BS - 1 - 2 - {3, 4, 5}: one relay above a three-leaf fan-out.
FANOUT = {1: BS_ID, 2: 1, 3: 2, 4: 2, 5: 2}

# Two independent branches under the root child.
TWO_BRANCH = {1: BS_ID, 2: 1, 3: 1, 4: 2, 5: 2, 6: 3, 7: 3}


def run_als1_only(net, tree, sres, adv):
    intact = als.als1_collect(net, tree, sres.acked, adv, NONCE)
    return als.als1_process(tree, intact)


def session_ack_table(parent):
    """The tree and the per-subtree table built from an honest session's acks."""
    net, tree = net_for_tree(parent)
    adv = Adversary(frozenset(), [])
    adv.begin_session(0)
    sres = shia.run_shia(net, tree, {s: 10 for s in tree.members}, adv, NONCE, (0, 100))
    return net, tree, als.subtree_acks(tree, sres.node_acks)


@st.composite
def shuffled_trees(draw, max_n: int = 24) -> dict[int, int]:
    """A random parent map whose ids are shuffled, so a child's id may be
    below its parent's and tree order differs from id order."""
    n = draw(st.integers(1, max_n))
    ids = draw(st.permutations(range(1, n + 1)))
    parent = {ids[0]: BS_ID}
    for i in range(1, n):
        parent[ids[i]] = ids[draw(st.integers(0, i - 1))]
    return parent


class TestExpectedAcks:
    @settings(max_examples=100, deadline=None)
    @given(shuffled_trees())
    @example(TWO_BRANCH)
    def test_matches_subtree_xor_oracle(self, parent):
        # The integer fold equals a per-node XOR of byte lists, at every node.
        net, tree, table = session_ack_table(parent)
        assert table == oracle_expected_acks(net.keys, tree, NONCE)
        for node in tree.members:
            parts = [
                crypto.node_ack(net.keys.bs_key(u), NONCE) for u in oracle_subtree(tree, node)
            ]
            assert table[node] == oracle_xor(parts)

    def test_root_expectation_covers_everyone(self):
        net, tree, table = session_ack_table(FANOUT)
        assert table[1] == crypto.xor_acks(
            [crypto.node_ack(net.keys.bs_key(s), NONCE) for s in tree.members]
        )


class TestConfirmationAnalysis:
    def test_missing_root_confirmation_marks_root_child_alone(self):
        net, tree = net_for_tree(FANOUT)
        marks = als.als1_process(tree, {})  # no confirmation reached the BS
        assert len(marks) == 1
        (m,) = marks
        assert (m.node, m.partner, m.rule) == (1, None, "absent")

    def test_silent_child_yields_pair_mark(self):
        # 3 withholds its ack (and thus its confirmation); 2 substitutes the
        # placeholder, which the BS always treats as illegitimate.
        net, tree = net_for_tree(FANOUT)
        values = {s: 10 for s in tree.members}
        sres, marks, als2_ran, _ = run_session(
            net, tree, values, [entry(3, "ack_drop")], frozenset({3})
        )
        assert not als2_ran
        assert {(m.node, m.partner, m.rule) for m in marks} == {
            (3, 2, "structural")
        }

    def test_tampered_slot_marks_victim_with_the_tamperer(self):
        # 2 garbles the slot holding 4's confirmation: the pair (4, 2) is
        # marked, so the actual misbehaver is always inside the marked set.
        net, tree = net_for_tree(FANOUT)
        values = {s: 10 for s in tree.members}
        scripts = [entry(2, "ack_garble"), entry(2, "confirm_tamper", slot=1)]
        sres, marks, als2_ran, adv = run_session(
            net, tree, values, scripts, frozenset({2})
        )
        assert not sres.accepted and not als2_ran
        assert {(m.node, m.partner) for m in marks} == {(4, 2)}
        assert als.marked(marks) & adv.misbehaved(0)

    def test_confirm_drop_marks_dropper_with_parent(self):
        net, tree = net_for_tree(FANOUT)
        values = {s: 10 for s in tree.members}
        scripts = [entry(2, "ack_garble"), entry(2, "confirm_drop")]
        _, marks, _, _ = run_session(net, tree, values, scripts, frozenset({2}))
        assert {(m.node, m.partner) for m in marks} == {(2, 1)}

    def test_marks_respect_tree_adjacency(self):
        # Whatever the script, a pair mark is always a (child, parent) edge.
        rng = random.Random(3)
        for _ in range(30):
            n = rng.randint(2, 12)
            parent = {1: BS_ID}
            for s in range(2, n + 1):
                parent[s] = rng.randint(1, s - 1)
            net, tree = net_for_tree(parent)
            f = rng.randint(1, n)
            kind = rng.choice(["label_forge", "label_drop", "ack_drop", "offpath_corrupt"])
            params = {"value": 35} if kind == "label_forge" else {}
            values = {s: 10 for s in tree.members}
            sres, marks, _, _ = run_session(
                net, tree, values, [entry(f, kind, **params)], frozenset({f})
            )
            if marks is None:
                continue
            for m in marks:
                if m.partner is None:
                    assert tree.parent[m.node] == BS_ID
                else:
                    assert tree.parent[m.node] == m.partner


class TestAckReportAnalysis:
    def test_internal_garbler_marked_type_ii(self):
        net, tree = net_for_tree(FANOUT)
        values = {s: 10 for s in tree.members}
        sres, marks, als2_ran, _ = run_session(
            net, tree, values, [entry(2, "agg_ack_garble")], frozenset({2})
        )
        assert not sres.accepted and als2_ran
        assert {(m.node, m.partner, m.rule) for m in marks} == {
            (2, 1, "type_ii")
        }

    def test_leaf_garbler_marked_type_i(self):
        net, tree = net_for_tree(FANOUT)
        values = {s: 10 for s in tree.members}
        sres, marks, als2_ran, _ = run_session(
            net, tree, values, [entry(4, "agg_ack_garble")], frozenset({4})
        )
        assert als2_ran
        assert {(m.node, m.partner, m.rule) for m in marks} == {
            (4, 2, "type_i")
        }

    def test_ack_garble_equivalent_to_leaf_report_mismatch(self):
        net, tree = net_for_tree(FANOUT)
        values = {s: 10 for s in tree.members}
        sres, marks, als2_ran, _ = run_session(
            net, tree, values, [entry(5, "ack_garble")], frozenset({5})
        )
        assert als2_ran  # everyone participated, so phase I found nothing
        assert {(m.node, m.partner, m.rule) for m in marks} == {
            (5, 2, "type_i")
        }

    def test_report_drop_marked_structural(self):
        net, tree = net_for_tree(FANOUT)
        values = {s: 10 for s in tree.members}
        scripts = [entry(2, "agg_ack_garble"), entry(2, "report_drop")]
        _, marks, als2_ran, _ = run_session(net, tree, values, scripts, frozenset({2}))
        assert als2_ran
        assert {(m.node, m.partner, m.rule) for m in marks} == {
            (2, 1, "structural")
        }

    def test_forged_report_slot_still_traps_the_forger_in_a_pair(self):
        # 2 garbles both its aggregate and the reported ack of child 3; the
        # recombination then matches, but descending into 3 exposes the lie
        # and marks the (3, 2) pair -- the forger is in the pair.
        net, tree = net_for_tree(FANOUT)
        values = {s: 10 for s in tree.members}
        scripts = [
            entry(2, "agg_ack_garble"),
            entry(2, "ack_report_forge", slot=0),
        ]
        _, marks, als2_ran, adv = run_session(net, tree, values, scripts, frozenset({2}))
        assert als2_ran
        assert als.marked(marks) & adv.misbehaved(0)
        for m in marks:
            assert 2 in m.pair() or m.node in adv.misbehaved(0)

    def test_consistent_branch_never_descended(self):
        # Fault in the 2-branch only: the 3-branch reports consistently and
        # its nodes are never marked.
        net, tree = net_for_tree(TWO_BRANCH)
        values = {s: 10 for s in tree.members}
        _, marks, als2_ran, _ = run_session(
            net, tree, values, [entry(4, "agg_ack_garble")], frozenset({4})
        )
        assert als2_ran
        assert als.marked(marks) == {4, 2}
        assert not als.marked(marks) & {3, 6, 7}

    def test_phase_one_finds_nothing_for_pure_ack_path_faults(self):
        net, tree = net_for_tree(TWO_BRANCH)
        values = {s: 10 for s in tree.members}
        adv_scripts = [entry(6, "agg_ack_garble")]
        from robustagg.adversary import Adversary, garble

        adv = Adversary(frozenset({6}), adv_scripts)
        adv.begin_session(0)
        sres = shia.run_shia(net, tree, values, adv, NONCE, (0, 100))
        assert not sres.accepted
        marks1 = run_als1_only(net, tree, sres, adv)
        assert not marks1


def test_processing_walks_chains_deeper_than_the_recursion_limit():
    n = sys.getrecursionlimit() + 50
    net, tree = net_for_tree({s: s - 1 if s > 1 else BS_ID for s in range(1, n + 1)})
    adv = Adversary(frozenset(), [])
    adv.begin_session(0)
    # Phase I: the bottom node stays silent, so the walk reaches it via an NR slot.
    acked = {s: s != n for s in tree.members}
    intact = als.als1_collect(net, tree, acked, adv, NONCE)
    marks = als.als1_process(tree, intact)
    assert [(m.node, m.partner, m.rule) for m in marks] == [(n, n - 1, "structural")]
    # Phase II: the bottom node's ack is garbled, so every aggregate above it
    # is off and the walk descends the whole chain to a type (i) mark.
    agg = {n: garble(crypto.node_ack(net.keys.bs_key(n), NONCE))}
    for s in range(n - 1, 0, -1):
        agg[s] = crypto.xor_acks([crypto.node_ack(net.keys.bs_key(s), NONCE), agg[s + 1]])
    acks_up = {s: agg[s] for s in range(2, n + 1)}
    reported = als.als2_collect(net, tree, acks_up, adv, NONCE)
    node_acks = {s: crypto.node_ack(net.keys.bs_key(s), NONCE) for s in tree.members}
    marks = als.als2_process(node_acks, tree, reported, agg[1])
    assert [(m.node, m.partner, m.rule) for m in marks] == [(n, n - 1, "type_i")]


@pytest.mark.parametrize(
    "scripts",
    [
        [entry(2, "ack_garble"), entry(2, "confirm_tamper", slot=1)],
        [entry(2, "agg_ack_garble"), entry(2, "ack_report_forge", slot=0)],
    ],
    ids=["als1_marks", "als2_marks"],
)
def test_localization_frames_and_parses_nothing(monkeypatch, scripts):
    net, tree = net_for_tree(FANOUT)
    adv = Adversary(frozenset({2}), scripts)
    adv.begin_session(0)
    sres = shia.run_shia(net, tree, {s: 10 for s in tree.members}, adv, NONCE, (0, 100))
    assert not sres.accepted
    calls = []
    for name in ("frame", "unframe"):
        real = getattr(wire, name)
        monkeypatch.setattr(wire, name, lambda *a, _n=name, _f=real: calls.append(_n) or _f(*a))
    marks, _ = run_localization(net, tree, sres, adv, NONCE)
    assert marks
    assert calls == []


def test_ack_analysis_macs_no_ack_again(monkeypatch):
    # ALS II reads the acks stage one MACed, once per member per session.
    calls = []
    real = crypto.node_ack
    monkeypatch.setattr(crypto, "node_ack", lambda *a: calls.append(1) or real(*a))
    config = {
        "seed": 1234,
        "sessions": 1,
        "topology": {"kind": "grid", "rows": 4, "cols": 5},
        "adversary": {"faulty": [7], "scripts": [{"node": 7, "kind": "agg_ack_garble"}]},
    }
    result = orchestrator.run_sessions(Scenario.from_dict(config))
    assert result.records[0].als2_ran and result.records[0].marks
    assert len(calls) == len(result.records[0].tree.members)


SHIA_KINDS = (
    "own_value_forge", "label_forge", "label_drop", "parent_switch",
    "offpath_corrupt", "ack_drop", "ack_garble", "agg_ack_garble",
)
ALS_KINDS = ("confirm_tamper", "confirm_drop", "ack_report_forge", "report_drop")


@st.composite
def localization_cases(draw):
    """A random tree with shuffled ids, 1-4 scripts over SHIA's and ALS's
    deviations (slots of any sign), in-range values and a nonce of any
    length from 1 to 16 bytes."""
    n = draw(st.integers(1, 14))
    ids = draw(st.permutations(range(1, n + 1)))
    parent = {ids[0]: BS_ID}
    for i in range(1, n):
        parent[ids[i]] = ids[draw(st.integers(0, i - 1))]
    faulty = draw(st.lists(st.sampled_from(ids), min_size=1, max_size=4, unique=True))
    # One or two SHIA deviations, which most often fail the session, then
    # up to two ALS ones, which only a failed session reaches.
    kinds = draw(st.lists(st.sampled_from(SHIA_KINDS), min_size=1, max_size=2))
    kinds += draw(st.lists(st.sampled_from(ALS_KINDS), max_size=2))
    # Tampering, forging a report and dropping one act only at nodes with
    # children, so they go there when a faulty node has any.
    parents = [f for f in faulty if f in parent.values()] or faulty
    scripts = []
    for kind in kinds:
        at_parent = kind in ALS_KINDS and kind != "confirm_drop"
        node = draw(st.sampled_from(parents if at_parent else faulty))
        others = [f for f in faulty if f != node]  # a switch targets another faulty node
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
        elif kind in ("confirm_tamper", "ack_report_forge"):
            params = draw(st.fixed_dictionaries({}, optional={"slot": st.integers(-20, 20)}))
        else:
            params = {}
        scripts.append(entry(node, kind, **params))
    values = {s: draw(st.integers(0, 100)) for s in ids}
    nonce = draw(st.binary(min_size=1, max_size=16))
    return parent, values, frozenset(faulty), scripts, nonce


@settings(max_examples=300, deadline=None)
@given(localization_cases())
def test_localization_matches_byte_level_envelopes(case):
    # The reference builds, MACs, nests, parses and verifies every
    # confirmation and report; charging them by size must leave the marks,
    # the bytes on every edge and in every phase, and the trace unchanged.
    parent, values, faulty, scripts, nonce = case
    runs = []
    for localize in (run_localization, oracle_run_localization):
        net, tree = net_for_tree(parent)
        adv = Adversary(faulty, scripts)
        adv.begin_session(0)
        sres = shia.run_shia(net, tree, values, adv, nonce, (0, 100))
        marks, als2_ran = (None, False) if sres.accepted else localize(net, tree, sres, adv, nonce)
        runs.append((marks, als2_ran, net.ledger.per_edge, net.ledger.per_phase, adv.trace))
    assert runs[0] == runs[1]



def test_marks_pair_a_node_with_its_parent_below_the_bs():
    assert als.mark(3, 2, "type_i") == als.Mark(3, 2, "type_i")
    assert als.mark(1, BS_ID, "absent") == als.Mark(1, None, "absent")
    assert als.marked([]) == set()
    marks = [als.mark(3, 2, "type_i"), als.mark(1, BS_ID, "absent"), als.mark(2, 1, "structural")]
    assert als.marked(marks) == {1, 2, 3}


def test_marks_hash_and_compare_by_fields():
    m = als.Mark(3, 2, "type_i")
    assert m == als.Mark(3, 2, "type_i") and hash(m) == hash(als.Mark(3, 2, "type_i"))
    assert m != als.Mark(3, 2, "type_ii") and m != als.Mark(3, None, "type_i")
    assert len({m, als.Mark(3, 2, "type_i"), als.Mark(2, 3, "type_i")}) == 2
    assert m.pair() == {2, 3} and als.Mark(1, None, "absent").pair() == {1}
    with pytest.raises(AttributeError):
        m.node = 4
