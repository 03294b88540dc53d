import random
import sys

import pytest

from robustagg import als, crypto, shia
from robustagg.adversary import Adversary, garble
from robustagg.crypto import BS_ID

from helpers import entry, net_for_tree, oracle_xor, run_session

NONCE = b"\x07" * 8

# BS - 1 - 2 - {3, 4, 5}: one relay above a three-leaf fan-out.
FANOUT = {1: BS_ID, 2: 1, 3: 2, 4: 2, 5: 2}

# Two independent branches under the root child.
TWO_BRANCH = {1: BS_ID, 2: 1, 3: 1, 4: 2, 5: 2, 6: 3, 7: 3}


def run_als1_only(net, tree, sres, adv):
    m_b = als.als1_collect(net, tree, sres.acked, adv, NONCE)
    return als.als1_process(net.keys, tree, m_b, NONCE)


class TestExpectedAcks:
    def test_matches_subtree_xor_oracle(self):
        net, tree = net_for_tree(TWO_BRANCH)
        table = als.expected_acks(net.keys, tree, NONCE)
        for node in tree.members:
            parts = [
                crypto.node_ack(net.keys.bs_key(u), NONCE) for u in tree.subtree(node)
            ]
            assert table[node] == oracle_xor(parts)
            assert table[node] == als.expected_ack(net.keys, tree, node, NONCE)

    def test_root_expectation_covers_everyone(self):
        net, tree = net_for_tree(FANOUT)
        table = als.expected_acks(net.keys, tree, NONCE)
        assert table[1] == crypto.xor_acks(
            [crypto.node_ack(net.keys.bs_key(s), NONCE) for s in tree.members]
        )


class TestConfirmationAnalysis:
    def test_missing_root_confirmation_marks_root_child_alone(self):
        net, tree = net_for_tree(FANOUT)
        marks = als.als1_process(net.keys, tree, None, NONCE)
        assert len(marks.marks) == 1
        (m,) = marks.marks
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
        assert {(m.node, m.partner, m.rule) for m in marks.marks} == {
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
        assert {(m.node, m.partner) for m in marks.marks} == {(4, 2)}
        assert marks.nodes() & adv.misbehaved(0)

    def test_confirm_drop_marks_dropper_with_parent(self):
        net, tree = net_for_tree(FANOUT)
        values = {s: 10 for s in tree.members}
        scripts = [entry(2, "ack_garble"), entry(2, "confirm_drop")]
        _, marks, _, _ = run_session(net, tree, values, scripts, frozenset({2}))
        assert {(m.node, m.partner) for m in marks.marks} == {(2, 1)}

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
            for m in marks.marks:
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
        assert {(m.node, m.partner, m.rule) for m in marks.marks} == {
            (2, 1, "type_ii")
        }

    def test_leaf_garbler_marked_type_i(self):
        net, tree = net_for_tree(FANOUT)
        values = {s: 10 for s in tree.members}
        sres, marks, als2_ran, _ = run_session(
            net, tree, values, [entry(4, "agg_ack_garble")], frozenset({4})
        )
        assert als2_ran
        assert {(m.node, m.partner, m.rule) for m in marks.marks} == {
            (4, 2, "type_i")
        }

    def test_ack_garble_equivalent_to_leaf_report_mismatch(self):
        net, tree = net_for_tree(FANOUT)
        values = {s: 10 for s in tree.members}
        sres, marks, als2_ran, _ = run_session(
            net, tree, values, [entry(5, "ack_garble")], frozenset({5})
        )
        assert als2_ran  # everyone participated, so phase I found nothing
        assert {(m.node, m.partner, m.rule) for m in marks.marks} == {
            (5, 2, "type_i")
        }

    def test_report_drop_marked_structural(self):
        net, tree = net_for_tree(FANOUT)
        values = {s: 10 for s in tree.members}
        scripts = [entry(2, "agg_ack_garble"), entry(2, "report_drop")]
        _, marks, als2_ran, _ = run_session(net, tree, values, scripts, frozenset({2}))
        assert als2_ran
        assert {(m.node, m.partner, m.rule) for m in marks.marks} == {
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
        assert marks.nodes() & adv.misbehaved(0)
        for m in marks.marks:
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
        assert marks.nodes() == {4, 2}
        assert not marks.nodes() & {3, 6, 7}

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
    m_b = als.als1_collect(net, tree, acked, adv, NONCE)
    marks = als.als1_process(net.keys, tree, m_b, NONCE)
    assert [(m.node, m.partner, m.rule) for m in marks.marks] == [(n, n - 1, "structural")]
    # Phase II: the bottom node's ack is garbled, so every aggregate above it
    # is off and the walk descends the whole chain to a type (i) mark.
    agg = {n: garble(crypto.node_ack(net.keys.bs_key(n), NONCE))}
    for s in range(n - 1, 0, -1):
        agg[s] = crypto.xor_acks([crypto.node_ack(net.keys.bs_key(s), NONCE), agg[s + 1]])
    acks_up = {s: agg[s] for s in range(2, n + 1)}
    m_b = als.als2_collect(net, tree, acks_up, adv, NONCE)
    marks = als.als2_process(net.keys, tree, m_b, agg[1], NONCE)
    assert [(m.node, m.partner, m.rule) for m in marks.marks] == [(n, n - 1, "type_i")]
