"""Exhaustive small-scope check: every tiny network, every single deviation.

The space: every connected graph on the BS and three sensors (`edges`
topology, default `d_max`), every faulty set of one or two sensors, and one
script on one faulty node, active in session 0 of 3, under both ATR
variants at seed 7.  The scripts are every catalog kind, with `label_forge`
in seven shapes, `own_value_forge` reporting 0, `nl_fake` announcing the
BS, and `parent_switch` to the other faulty node.  Every run ends with
every audit passing, either complete or cut short by exclusions that
disconnect the network, except one class of label forgeries that no rule
localizes yet; every mark any run makes holds a node that misbehaved in its
session.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter

import pytest

from robustagg import cli
from robustagg.adversary import CATALOG, Adversary
from robustagg.errors import UnlocalizableFailure
from robustagg.orchestrator import run_sessions
from robustagg.scenario import Scenario

K = 3  # sensors
LABEL_FORGES = [
    {"count": 40000},
    {"count": K + 1},
    {"count": 0},
    {"value": 10**7},
    {"value": -1},
    {"value_add": 1},
    {"count": 1, "value": 100},
]
PLAIN_KINDS = sorted(
    k for k in CATALOG if k not in ("own_value_forge", "label_forge", "parent_switch", "nl_fake")
)
# Kinds that leave stage one unrun, or run from its ack phase: own-value
# forgery always, off-path corruption at a leaf, and the ack kinds.
QUIET_KINDS = ("own_value_forge", "offpath_corrupt", "ack_drop", "ack_garble", "agg_ack_garble")


def connected_graphs() -> list[list[list[int]]]:
    """Every connected edge set over the BS (0) and sensors 1..K."""
    pairs = list(itertools.combinations(range(K + 1), 2))
    graphs = []
    for r in range(K, len(pairs) + 1):
        for edges in itertools.combinations(pairs, r):
            seen, todo = {0}, [0]
            while todo:
                u = todo.pop()
                for a, b in edges:
                    v = b if a == u else a if b == u else None
                    if v is not None and v not in seen:
                        seen.add(v)
                        todo.append(v)
            if len(seen) == K + 1:
                graphs.append([list(e) for e in edges])
    return graphs


def scripts(faulty: tuple[int, ...], node: int):
    yield "own_value_forge", {"value": 0}
    for params in LABEL_FORGES:
        yield "label_forge", params
    for kind in PLAIN_KINDS:
        yield kind, {}
    yield "nl_fake", {"add": [0]}
    for other in faulty:
        if other != node:
            yield "parent_switch", {"target": other}


def config(edges, atr: str, faulty=(), script=None) -> dict:
    cfg = {"seed": 7, "sessions": 3, "atr": atr, "topology": {"kind": "edges", "n": K, "edges": edges}}
    if script is not None:
        cfg["adversary"] = {"faulty": list(faulty), "scripts": [script]}
    return cfg


def space():
    """(graph index, atr, faulty set, node, kind, params) for every config."""
    for g in range(len(GRAPHS)):
        for atr in ("basic", "resilient"):
            for size in (1, 2):
                for faulty in itertools.combinations(range(1, K + 1), size):
                    for node in faulty:
                        for kind, params in scripts(faulty, node):
                            yield g, atr, faulty, node, kind, params


def make(case) -> dict:
    g, atr, faulty, node, kind, params = case
    script = {"node": node, "kind": kind, "params": params, "sessions": [0]}
    return config(GRAPHS[g], atr, faulty, script)


def make_key(case) -> tuple:
    """`case` with its params hashable."""
    *head, params = case
    return (*head, tuple(sorted(params.items())))


GRAPHS = connected_graphs()


@pytest.fixture(scope="module")
def outcomes() -> list[tuple[tuple, str, str | None, int, list]]:
    """Each config's case, its outcome class, for a quiet kind its report,
    its number of marks, and (session, mark) for each mark that holds no
    node which misbehaved in that session."""
    out = []
    for case in space():
        try:
            result = run_sessions(Scenario.from_dict(make(case)))
        except UnlocalizableFailure:
            out.append((case, "unlocalized", None, 0, []))
            continue
        marks = sum(len(rec.marks) for rec in result.records)
        unsound = [
            (rec.index, m) for rec in result.records for m in rec.marks
            if not m.pair() & rec.misbehaved
        ]
        if not result.audits()["all_pass"]:
            cls = "audit failed"
        else:
            cls = "exit 3" if result.disconnected else "exit 0"
        report = cli.render_report(result) if case[4] in QUIET_KINDS else None
        out.append((case, cls, report, marks, unsound))
    return out


def test_space_is_every_tiny_network_and_deviation(outcomes):
    assert len(GRAPHS) == 38
    assert len(outcomes) == 14136


def test_every_config_passes_its_audits_or_is_unlocalized(outcomes):
    assert Counter(cls for _, cls, *_ in outcomes) == {
        "exit 0": 10740,
        "exit 3": 2682,  # exclusions cut the three-sensor network
        "unlocalized": 714,
    }


def test_the_unlocalized_class_is_listed(outcomes):
    # Session 0 fails, and no rule marks a node, in exactly these configs:
    # - a count forgery (40000, or one more than the network) by a leaf of
    #   session 0's tree: every commitment and ack checks out;
    # - a zero count or an out-of-range value forged by the tree's only
    #   member, which the BS alone hears.
    trees = {
        (g, atr): run_sessions(Scenario.from_dict(dict(config(GRAPHS[g], atr), sessions=1))).records[0].tree
        for g in range(len(GRAPHS))
        for atr in ("basic", "resilient")
    }
    expected = set()
    for case in space():
        g, atr, _, node, kind, params = case
        tree = trees[g, atr]
        if kind != "label_forge":
            continue
        if params in ({"count": 40000}, {"count": K + 1}) and node in tree.parent and tree.is_leaf(node):
            expected.add(make_key(case))
        if params in ({"count": 0}, {"value": 10**7}, {"value": -1}) and list(tree.parent) == [node]:
            expected.add(make_key(case))
    unlocalized = [case for case, cls, *_ in outcomes if cls == "unlocalized"]
    assert {make_key(case) for case in unlocalized} == expected
    assert Counter(str(case[5]) for case in unlocalized) == {
        str({"count": 40000}): 312,
        str({"count": K + 1}): 312,
        str({"count": 0}): 30,
        str({"value": 10**7}): 30,
        str({"value": -1}): 30,
    }


def test_quiet_kinds_report_what_a_full_stage_one_reports(outcomes, monkeypatch):
    # The oracle runs stage one in full in every session.
    monkeypatch.setattr(Adversary, "first_altered_phase", lambda self, tree: "commit")
    checked = 0
    for case, _, report, *_ in outcomes:
        if case[4] in QUIET_KINDS:
            assert cli.render_report(run_sessions(Scenario.from_dict(make(case)))) == report, case
            checked += 1
    assert checked == 5 * len(GRAPHS) * 2 * (3 + 6)


def test_every_mark_holds_a_node_that_misbehaved(outcomes):
    # Localization soundness: each marked pair holds a node of its session's
    # ground-truth trace.
    assert sum(marks for *_, marks, _ in outcomes) == 6546
    assert [(case, unsound) for case, *_, unsound in outcomes if unsound] == []


def test_a_sample_through_the_cli_exits_as_the_run_ended(outcomes, tmp_path):
    # Every 250th config: every kind, both ATRs and every outcome class go
    # through the file boundary, the script parser and the exit code.
    sample = outcomes[::250]
    assert {case[4] for case, *_ in sample} == set(CATALOG)
    assert {case[1] for case, *_ in sample} == {"basic", "resilient"}
    exit_code = {"exit 0": cli.EXIT_OK, "exit 3": cli.EXIT_DISCONNECTED, "unlocalized": cli.EXIT_AUDIT_FAIL}
    assert {cls for _, cls, *_ in sample} == set(exit_code)
    path, out = tmp_path / "config.json", str(tmp_path / "report.json")
    for case, cls, *_ in sample:
        path.write_text(json.dumps(make(case)))
        assert cli.main(["run", "--config", str(path), "--out", out]) == exit_code[cls], case
