import pytest

from robustagg.adversary import CATALOG, Adversary, ScriptEntry, TraceEvent
from robustagg.errors import ProtocolViolation

from helpers import entry


def test_catalog_covers_every_protocol_phase():
    assert set(CATALOG.values()) == {"commit", "offpath", "ack", "als1", "als2", "atr", "nl"}
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


def test_own_value_forge_is_never_traced():
    adv = Adversary(faulty={3}, scripts=[entry(3, "own_value_forge", value=9)])
    adv.begin_session(0)
    with pytest.raises(ProtocolViolation):
        adv.fire(3, "own_value_forge")
    assert adv.trace == []


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
