import pytest

from robustagg import orchestrator
from robustagg.adversary import Adversary
from robustagg.netmodel import NetworkGraph
from robustagg.orchestrator import (
    RunResult,
    SessionGroundTruth,
    SessionRecord,
    cost_audit,
    failure_cost_ok,
    run_sessions,
    security_audit,
    success_cost_ok,
)
from robustagg.scenario import Scenario


def grid_config(**overrides) -> dict:
    cfg = {
        "seed": 1234,
        "sessions": 4,
        "topology": {"kind": "grid", "rows": 4, "cols": 5},
        "value_range": [0, 100],
    }
    cfg.update(overrides)
    return cfg


def run(cfg: dict) -> orchestrator.RunResult:
    return run_sessions(Scenario.from_dict(cfg))


class TestHonestRuns:
    def test_all_sessions_succeed_with_exact_sums(self):
        scenario = Scenario.from_dict(grid_config())
        result = run_sessions(scenario)
        assert [r.verdict for r in result.records] == ["success"] * 4
        assert result.blacklist == set()
        for i, rec in enumerate(result.records):
            values = scenario.values_for(i, scenario.graph.sensors)
            assert rec.value == sum(values.values())
        assert result.audits()["all_pass"]

    def test_nonces_are_unique_across_sessions(self):
        result = run(grid_config(sessions=8))
        nonces = [r.nonce for r in result.records]
        assert len(set(nonces)) == len(nonces)

    def test_resilient_variant_also_clean(self):
        result = run(grid_config(atr="resilient"))
        assert result.failures == 0
        assert result.setup_congestion > 0  # neighbor lists were collected
        assert result.audits()["all_pass"]


class TestFaultyRuns:
    def test_persistent_forger_costs_exactly_one_session(self):
        cfg = grid_config(
            sessions=5,
            adversary={
                "faulty": [7],
                "scripts": [{"node": 7, "kind": "label_forge", "params": {"value": 55}}],
            },
        )
        result = run(cfg)
        assert result.failures == 1
        assert result.records[0].verdict == "failure"
        assert all(r.verdict == "success" for r in result.records[1:])
        assert 7 in result.blacklist
        # once excluded, the forger is out of every later tree
        for gt in result.truths[1:]:
            assert 7 not in gt.tree.members
        assert result.audits()["all_pass"]

    def test_blacklist_grows_monotonically(self):
        cfg = grid_config(
            sessions=5,
            adversary={
                "faulty": [7, 12],
                "scripts": [
                    {"node": 7, "kind": "label_drop"},
                    {"node": 12, "kind": "ack_drop"},
                ],
            },
        )
        result = run(cfg)
        prev: set = set()
        for rec in result.records:
            cur = set(rec.blacklist_after)
            assert prev <= cur
            prev = cur
        assert result.failures <= 2
        assert result.audits()["all_pass"]

    def test_ack_only_disruption_can_be_salvaged(self):
        adversary = {
            "faulty": [7],
            "scripts": [{"node": 7, "kind": "agg_ack_garble", "sessions": [0]}],
        }
        strict = run(grid_config(adversary=adversary))
        lenient = run(grid_config(adversary=adversary, accept_on_als2=True))
        assert strict.records[0].verdict == "failure"
        assert strict.records[0].als2_ran
        assert lenient.records[0].verdict == "success"
        assert lenient.records[0].value == strict.truths[0].shia_result.value
        # the garbler is excluded either way
        assert 7 in strict.blacklist and 7 in lenient.blacklist
        assert lenient.audits()["all_pass"]

    def test_cut_vertex_exclusion_reports_disconnection(self):
        cfg = {
            "seed": 5,
            "sessions": 4,
            "topology": {"kind": "chain", "n": 4},
            "adversary": {
                "faulty": [2],
                "scripts": [{"node": 2, "kind": "label_drop"}],
            },
        }
        result = run(cfg)
        assert result.disconnected
        # pair-marking took the chain neighbor 1 with it, severing the BS
        assert {1, 2} <= result.blacklist
        assert len(result.records) < 4
        assert result.audits()["failure_bound"]

    @pytest.mark.parametrize("variant", ["basic", "resilient"])
    def test_each_adopted_tree_is_checked_against_the_graph_once(self, monkeypatch, variant):
        checked = []
        real = NetworkGraph.check_tree
        monkeypatch.setattr(
            NetworkGraph, "check_tree", lambda self, tree: checked.append(tree) or real(self, tree)
        )
        adversary = {
            "faulty": [7, 12],
            "scripts": [
                {"node": 7, "kind": "label_drop", "sessions": [0]},
                {"node": 12, "kind": "ack_drop", "sessions": [2]},
            ],
        }
        result = run(grid_config(sessions=5, atr=variant, adversary=adversary))
        trees = [gt.tree for gt in result.truths]
        adopted = [t for i, t in enumerate(trees) if i == 0 or t is not trees[i - 1]]
        assert len(adopted) == 1 + result.failures > 1
        assert checked == adopted


    @pytest.mark.parametrize("variant", ["basic", "resilient"])
    def test_adversary_is_consulted_only_at_faulty_nodes(self, monkeypatch, variant):
        consulted = []
        real = Adversary.action
        monkeypatch.setattr(
            Adversary,
            "action",
            lambda self, node, kind: consulted.append((node in self.faulty, kind))
            or real(self, node, kind),
        )
        # Session 0 fails on the ack path, so both ALS phases run, then a
        # rebuild; 12 stays in the tree, faulty but idle.
        adversary = {
            "faulty": [7, 12],
            "scripts": [{"node": 7, "kind": "agg_ack_garble", "sessions": [0]}],
        }
        result = run(grid_config(sessions=3, atr=variant, adversary=adversary))
        assert result.failures == 1 and result.records[0].als2_ran
        assert all(at_faulty for at_faulty, _ in consulted)
        rebuild = {"basic": "response_drop", "resilient": "nl_fake"}[variant]
        assert {"confirm_drop", "report_drop", rebuild} <= {kind for _, kind in consulted}


class TestSecurityAudit:
    def make(self, value, values, faulty, vrange=(0, 100)):
        from robustagg.netmodel import AggregationTree

        tree = AggregationTree({1: 0, 2: 1, 3: 1})
        rec = SessionRecord(
            index=0, nonce="", verdict="success", value=value, marks=[],
            blacklist_after=[], max_congestion=0, phase_congestion={},
            tree_height=2, tree_degree=3, tree_size=3, als2_ran=False,
        )
        gt = SessionGroundTruth(
            tree=tree, values=values, misbehaved=set(),
            shia_result=None, atr_outcome=None, value_range=vrange,
        )
        return rec, gt

    def test_exact_sum_passes_with_no_faults(self):
        rec, gt = self.make(60, {1: 10, 2: 20, 3: 30}, frozenset())
        assert security_audit(rec, gt, frozenset())

    def test_any_drift_fails_with_no_faults(self):
        rec, gt = self.make(61, {1: 10, 2: 20, 3: 30}, frozenset())
        assert not security_audit(rec, gt, frozenset())

    def test_faulty_node_gets_one_in_range_contribution(self):
        values = {1: 10, 2: 20, 3: 30}
        rec, gt = self.make(30 + 100, values, None)
        assert security_audit(rec, gt, frozenset({1, 2}))  # slack 100 <= 2*100
        rec, gt = self.make(30 + 201, values, None)
        assert not security_audit(rec, gt, frozenset({1, 2}))  # slack over bound
        rec, gt = self.make(30 - 1, values, None)
        assert not security_audit(rec, gt, frozenset({1, 2}))  # below bound


class TestCostModel:
    def test_envelope_helpers(self):
        u = orchestrator.UNIT_BYTES
        c1, c2 = orchestrator.SUCCESS_COST_C1, orchestrator.FAILURE_COST_C2
        assert success_cost_ok(int(c1 * 3 * 4 * u), 3, 4)
        assert not success_cost_ok(int(c1 * 3 * 4 * u) + 1, 3, 4)
        assert failure_cost_ok(int(c2 * 50 * u), 50)
        assert not failure_cost_ok(int(c2 * 50 * u) + 1, 50)

    def test_linear_failure_points_pass(self):
        points = [
            {"n": n, "height": 5, "degree": 4, "success_cost": 1000,
             "failure_cost": 200 * n + 100}
            for n in (50, 100, 200, 400)
        ]
        audit = cost_audit(points)
        assert audit["pass"]
        assert audit["slope"] == pytest.approx(200, rel=0.01)

    def test_quadratic_failure_points_fail(self):
        points = [
            {"n": n, "height": 5, "degree": 4, "success_cost": 1000,
             "failure_cost": 3 * n * n}
            for n in (50, 100, 200, 400)
        ]
        assert not cost_audit(points)["pass"]

    def test_needs_at_least_two_points(self):
        with pytest.raises(ValueError):
            cost_audit([{"n": 50}])
        with pytest.raises(ValueError):  # one size twice is still one size
            cost_audit([{"n": 50, "failure_cost": 8000}, {"n": 50, "failure_cost": 7900}])


def test_report_dict_is_json_ready_and_complete():
    import json

    result = run(grid_config(sessions=2))
    d = result.to_dict()
    json.dumps(d)  # must serialize cleanly
    assert d["schema"] == "robustagg-report-v1"
    assert d["config_hash"] == Scenario.from_dict(grid_config(sessions=2)).hash()
    assert len(d["sessions"]) == 2
    assert d["audits"]["all_pass"]
    assert d["totals"]["failures"] == 0
