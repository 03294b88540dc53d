import pytest

from robustagg.adversary import CATALOG, Adversary, ScriptEntry, TraceEvent, acting
from robustagg.crypto import BS_ID

from helpers import entry, net_for_tree, run_session


def test_catalog_covers_every_protocol_phase():
    # "reading" is not a protocol phase: own-value forgery changes the
    # reading a node reports, never a message.
    assert set(CATALOG.values()) == {
        "reading", "commit", "offpath", "ack", "als1", "als2", "atr", "nl",
    }
    # the commit-phase deviations that drive most scenarios
    assert {"own_value_forge", "label_forge", "label_drop", "parent_switch"} <= set(CATALOG)


def test_action_only_fires_for_faulty_nodes_in_active_sessions():
    e = ScriptEntry(node=3, kind="label_drop", params={}, sessions=frozenset({1, 2}))
    adv = Adversary(faulty={3}, scripts=[e])
    adv.begin_session(0)
    assert adv.action(3, "label_drop") is None
    adv.begin_session(1)
    assert adv.action(3, "label_drop") is e
    assert adv.action(4, "label_drop") is None  # not faulty
    assert adv.action(3, "label_forge") is None  # different kind


def test_trace_records_only_fired_events():
    adv = Adversary(faulty={3}, scripts=[entry(3, "label_drop")])
    adv.begin_session(0)
    assert adv.misbehaved(0) == set()
    adv.fire(3, "label_drop")
    assert adv.misbehaved(0) == {3}
    assert adv.misbehaved(1) == set()
    (ev,) = adv.events(0)
    assert (ev.session, ev.node, ev.phase, ev.kind) == (0, 3, "commit", "label_drop")


def test_each_node_acts_on_its_first_active_entry_of_a_kind():
    first = ScriptEntry(3, "label_forge", {"value": 1}, frozenset({1}))
    always = ScriptEntry(3, "label_forge", {"value": 2}, None)
    later = ScriptEntry(3, "label_forge", {"value": 3}, frozenset({1, 2}))
    drop = ScriptEntry(3, "label_drop", {}, frozenset({2}))
    other = ScriptEntry(4, "label_forge", {"value": 5}, frozenset({2}))
    scripts = [first, always, later, drop, other]
    assert acting(scripts, 1) == {(3, "label_forge"): first}
    assert acting(scripts, 2) == {
        (3, "label_forge"): always, (3, "label_drop"): drop, (4, "label_forge"): other,
    }
    # None: a session that no script names, where only unscheduled entries act.
    assert acting(scripts, None) == acting(scripts, 7) == {(3, "label_forge"): always}
    assert acting([], 0) == {}
    # The adversary reads the same map, from its construction on (session -1).
    adv = Adversary({3, 4}, scripts)
    assert adv.session == -1 and adv.acts == acting(scripts, None)
    assert adv.action(3, "label_forge") is always and adv.action(3, "label_drop") is None
    for session in (1, 2, 7):
        adv.begin_session(session)
        assert adv.acts == acting(scripts, session)
        assert adv.action(3, "label_forge") is acting(scripts, session)[3, "label_forge"]


def test_own_value_forge_is_never_traced():
    # A chain BS-1-2-3 whose middle node reports 9 in place of its 20; the
    # second, later entry of the same kind never acts.
    parent = {1: BS_ID, 2: 1, 3: 2}
    values = {1: 10, 2: 20, 3: 30}
    scripts = [entry(2, "own_value_forge", value=9), entry(2, "own_value_forge", value=50)]
    adv = Adversary(faulty={2}, scripts=scripts)
    adv.begin_session(0)
    assert adv.readings(values) == {1: 10, 2: 9, 3: 30}
    assert values == {1: 10, 2: 20, 3: 30}  # the true readings stay as they are
    net, tree = net_for_tree(parent)
    sres, marks, _, ran = run_session(net, tree, values, scripts, faulty={2})
    assert sres.accepted and sres.value == 10 + 9 + 30 and marks is None
    assert ran.trace == []


def test_honest_adversary_is_inert():
    adv = Adversary((), ())
    adv.begin_session(0)
    assert adv.faulty == frozenset()
    assert adv.action(1, "label_drop") is None


def test_trace_events_hash_and_compare_by_fields():
    ev = TraceEvent(0, 3, "commit", "label_drop")
    assert ev == TraceEvent(0, 3, "commit", "label_drop")
    assert hash(ev) == hash(TraceEvent(0, 3, "commit", "label_drop"))
    assert ev != TraceEvent(1, 3, "commit", "label_drop")
    assert len({ev, TraceEvent(0, 3, "commit", "label_drop"), TraceEvent(0, 3, "ack", "ack_drop")}) == 2
    with pytest.raises(AttributeError):
        ev.session = 1
    # Two adversaries that fire alike keep equal traces.
    traces = []
    for _ in range(2):
        adv = Adversary(faulty={3}, scripts=[entry(3, "label_drop")])
        adv.begin_session(0)
        adv.fire(3, "label_drop")
        traces.append(adv.trace)
    assert traces[0] == traces[1] == [ev]


def test_script_entry_defaults_and_activity():
    e, f = ScriptEntry(3, "label_drop", {}, None), entry(3, "label_drop")
    assert e == f
    assert e != ScriptEntry(3, "label_drop", {"value": 9}, None)
    assert e.active(0) and e.active(1 << 16)  # no sessions: every session
    g = ScriptEntry(3, "label_drop", {}, frozenset({2}))
    assert g.active(2) and not g.active(1)
    assert g != e
