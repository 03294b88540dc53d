import gc
import json
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustagg import cli, crypto, orchestrator, shia
from robustagg.adversary import CATALOG, Adversary
from robustagg.crypto import BS_ID
from robustagg.errors import RobustAggError
from robustagg.netmodel import AggregationTree, CongestionLedger, NetworkGraph
from robustagg.orchestrator import (
    RunResult,
    SessionRecord,
    cost_audit,
    failure_cost_ok,
    run_sessions,
    security_audit,
    success_cost_ok,
)
from robustagg.scenario import Scenario, load_config

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


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
            values = scenario.values_for(i)
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
        for rec in result.records[1:]:
            assert 7 not in rec.tree.members
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
        assert lenient.records[0].value == strict.records[0].shia_result.value
        # the garbler is excluded either way
        assert 7 in strict.blacklist and 7 in lenient.blacklist
        assert lenient.audits()["all_pass"]

    def test_salvage_needs_an_aggregate_that_passed_the_root_check(self):
        # Node 16's forged count fails the root check, and node 3's garbled
        # ack leaves ALS I nothing to mark, so ALS II runs and marks node 3.
        # The aggregate never checked out, so it is not salvaged.
        adversary = {
            "faulty": [16, 3],
            "scripts": [
                {"node": 16, "kind": "label_forge", "params": {"count": 40000, "value": 1000000},
                 "sessions": [0]},
                {"node": 3, "kind": "ack_garble", "sessions": [0]},
            ],
        }
        result = run(grid_config(adversary=adversary, accept_on_als2=True))
        first = result.records[0]
        assert first.als2_ran and not first.shia_result.root_ok
        assert (first.verdict, first.value) == ("failure", None)
        assert result.audits()["all_pass"]

    def test_a_salvaged_session_reports_the_forged_reading(self):
        # Node 12 garbles the aggregated ack in session 1, so that session
        # runs stage one, fails on the ack path only and is salvaged through
        # ALS II.  Its value is the members' sum with node 7's true reading
        # of 17 replaced by the 99 it forges in every session.
        config = load_config(str(SCENARIOS / "grid_clean.json"))
        config.update(sessions=6, accept_on_als2=True, adversary={
            "faulty": [7, 12],
            "scripts": [
                {"node": 7, "kind": "own_value_forge", "params": {"value": 99}},
                {"node": 12, "kind": "agg_ack_garble", "sessions": [1]},
            ],
        })
        scenario = Scenario.from_dict(config)
        result = run_sessions(scenario)
        salvaged = result.records[1]
        assert salvaged.als2_ran and salvaged.marks and salvaged.tree.members >= {7, 12}
        values = scenario.values_for(1)
        assert (sum(values.values()), values[7]) == (1049, 17)
        assert (salvaged.verdict, salvaged.value) == ("success", 1049 - 17 + 99)
        assert result.audits()["all_pass"]

    @pytest.mark.parametrize("name", ["long/grid_clean_forger_salvage", "geometric400_resilient"])
    def test_each_record_keeps_its_correct_members_true_sum(self, name):
        # The security audit reads this sum alone.  Both runs adopt new
        # trees after failures, and the first salvages a session with node
        # 7's forged reading in its value, which the sum must leave out.
        scenario = Scenario.from_dict(load_config(str(SCENARIOS / f"{name}.json")))
        result = run_sessions(scenario)
        assert len({id(rec.tree) for rec in result.records}) > 1
        for i, rec in enumerate(result.records):
            values = scenario.values_for(i)
            assert rec.correct_sum == sum(values[s] for s in rec.tree.members - scenario.faulty)
        assert result.audits()["all_pass"]

    def test_run_on_a_shifted_value_range_passes_every_audit(self):
        # Readings lie in [200, 300], and node 7 forges 300 in every session:
        # each accepted sum sits far outside n_f * [0, 100] over the correct
        # sum, so the audit must read the scenario's range.
        adversary = {
            "faulty": [7, 18],
            "scripts": [
                {"node": 7, "kind": "own_value_forge", "params": {"value": 300}},
                {"node": 18, "kind": "label_drop", "sessions": [3]},
            ],
        }
        result = run(grid_config(sessions=5, value_range=[200, 300], adversary=adversary))
        assert [r.verdict for r in result.records] == ["success"] * 3 + ["failure", "success"]
        assert result.blacklist == {13, 18}  # the dropper and its correct parent
        assert all(7 in rec.tree.members for rec in result.records)
        assert result.audits()["all_pass"]

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
        trees = [rec.tree for rec in result.records]
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

    def test_each_run_of_a_scenario_gets_its_own_adversary(self, monkeypatch):
        # The scripts are parsed once, at validation; each run builds a
        # fresh adversary over them, so a second run neither shares nor
        # extends the first run's trace.
        advs = []
        real = Scenario.build_adversary
        monkeypatch.setattr(Scenario, "build_adversary", lambda self: advs.append(real(self)) or advs[-1])
        adversary = {
            "faulty": [7, 12],
            "scripts": [
                {"node": 7, "kind": "label_drop", "sessions": [0]},
                {"node": 12, "kind": "ack_drop", "sessions": [2]},
            ],
        }
        scenario = Scenario.from_dict(grid_config(sessions=4, adversary=adversary))
        first = run_sessions(scenario)
        trace = list(advs[0].trace)
        second = run_sessions(scenario)
        assert len(advs) == 2 and advs[0] is not advs[1]
        assert trace and advs[0].trace == trace == advs[1].trace
        assert [r.misbehaved for r in first.records] == [r.misbehaved for r in second.records]
        assert first.records[0].misbehaved == {7}


class TestSecurityAudit:
    # Nodes 1, 2 and 3 read 10, 20 and 30.
    def make(self, value, correct_sum):
        return SessionRecord(
            index=0, nonce="", verdict="success", value=value, marks=[],
            blacklist_after=[], max_congestion=0, phase_congestion={},
            tree=AggregationTree({1: 0, 2: 1, 3: 1}), tree_degree=3, als2_ran=False,
            correct_sum=correct_sum, misbehaved=set(), shia_result=None, atr_outcome=None,
        )

    def test_exact_sum_passes_with_no_faults(self):
        rec = self.make(60, 10 + 20 + 30)
        assert security_audit(rec, frozenset(), (0, 100))

    def test_any_drift_fails_with_no_faults(self):
        rec = self.make(61, 10 + 20 + 30)
        assert not security_audit(rec, frozenset(), (0, 100))

    def test_faulty_node_gets_one_in_range_contribution(self):
        faulty = frozenset({1, 2})  # node 3's 30 is the correct sum
        assert security_audit(self.make(30 + 100, 30), faulty, (0, 100))  # slack 100 <= 2*100
        assert not security_audit(self.make(30 + 201, 30), faulty, (0, 100))  # over bound
        assert not security_audit(self.make(30 - 1, 30), faulty, (0, 100))  # below bound
        # The same slacks against 2*[200, 300]: only 400..600 is in range.
        assert not security_audit(self.make(30 + 100, 30), faulty, (200, 300))
        assert security_audit(self.make(30 + 400, 30), faulty, (200, 300))


# Node 1 neighbours the BS and three children: Δ = 4.
AUDIT_TREE = {1: BS_ID, 2: 1, 3: 1, 4: 1, 5: 2}


def audited_result(verdicts, faulty, blacklist=(), value_range=(0, 100)):
    """A hand-built run: one failing or succeeding session per verdict, each
    on AUDIT_TREE, every node reading 10, and each success accepting the
    members' sum."""
    tree = AggregationTree(AUDIT_TREE)
    config = grid_config(
        sessions=len(verdicts), value_range=list(value_range), adversary={"faulty": sorted(faulty)}
    )
    result = RunResult(Scenario.from_dict(config))
    result.blacklist = set(blacklist)
    for i, verdict in enumerate(verdicts):
        result.records.append(
            SessionRecord(
                index=i, nonce="", verdict=verdict,
                value=10 * len(tree.members) if verdict == "success" else None, marks=[],
                blacklist_after=sorted(blacklist), max_congestion=0, phase_congestion={},
                tree=tree, tree_degree=tree.max_degree(), als2_ran=False,
                correct_sum=10 * len(tree.members - faulty), misbehaved=set(), shia_result=None,
                atr_outcome=None,
            )
        )
    return result


# Each run audit exactly at its bound, then one step past it.
AUDIT_BOUNDS = [
    # n_a = 2 faulty nodes: 2 failures pass, 3 do not.
    pytest.param(
        "failure_bound", dict(verdicts=["failure"] * 2, faulty={1, 2}), True, id="failures_at_n_a"
    ),
    pytest.param(
        "failure_bound", dict(verdicts=["failure"] * 3, faulty={1, 2}), False, id="failures_past_n_a"
    ),
    # Δ = 4 and n_a = 1: (Δ-1)·n_a = 3 correct nodes may be excluded.
    pytest.param(
        "exclusion_bound", dict(verdicts=["success"], faulty={1}, blacklist={1, 2, 3, 4}), True,
        id="exclusion_at_bound",
    ),
    pytest.param(
        "exclusion_bound", dict(verdicts=["success"], faulty={1}, blacklist={1, 2, 3, 4, 5}), False,
        id="exclusion_past_bound",
    ),
    # A session fails only while a faulty node is in the tree.
    pytest.param(
        "stability", dict(verdicts=["failure"], faulty={5}), True, id="failure_with_faulty_member"
    ),
    pytest.param(
        "stability", dict(verdicts=["failure"], faulty={6}), False, id="failure_without_faulty_member"
    ),
]


class TestRunAudits:
    @pytest.mark.parametrize("audit, args, passes", AUDIT_BOUNDS)
    def test_audit_holds_at_its_bound_and_fails_past_it(self, audit, args, passes):
        audits = audited_result(**args).audits()
        # Every other audit passes, so the one probed decides the verdict.
        assert audits == {**dict.fromkeys(audits, True), audit: passes, "all_pass": passes}

    @pytest.mark.parametrize("value_range, passes", [((0, 100), True), ((200, 300), False)])
    def test_security_reads_the_scenarios_value_range(self, value_range, passes):
        # Faulty member 5 reads 10, as every node does: the slack of 10 lies
        # in 1 * [0, 100] but not in 1 * [200, 300].
        result = audited_result(["success"], faulty={5}, value_range=value_range)
        assert result.audits()["security"] is passes

    @pytest.mark.parametrize("audit, args, passes", AUDIT_BOUNDS)
    def test_run_exits_1_exactly_when_an_audit_fails(
        self, tmp_path, monkeypatch, audit, args, passes
    ):
        result = audited_result(**args)
        monkeypatch.setattr(orchestrator, "run_sessions", lambda scenario: result)
        out = tmp_path / "report.json"
        code = cli.main(["run", "--config", str(SCENARIOS / "grid_clean.json"), "--out", str(out)])
        assert code == (cli.EXIT_OK if passes else cli.EXIT_AUDIT_FAIL)
        assert json.loads(out.read_text())["audits"][audit] is passes


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


def retained_bytes(config: dict) -> int:
    """Bytes that a run of `config` allocates and its result still holds."""
    scenario = Scenario.from_dict(config)
    gc.collect()
    tracemalloc.start()
    try:
        result = run_sessions(scenario)
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.audits()["all_pass"]
    return retained


def test_each_extra_session_retains_a_bounded_history():
    # Geometric, basic ATR, a forger in session 0 and a garbled aggregated
    # ack in session 2, so every extra session is quiet.  A record keeps the
    # sum of its correct members' readings, not the readings, and shares its
    # tree with the other sessions on it, so what a session retains does not
    # grow with n: about 1.3 KB at both sizes.  With a readings dict per
    # record it was 19.8 KB at n = 500 and 75.1 KB at n = 2000.
    for n in (500, 2000):
        config = {
            "seed": 42,
            "topology": {"kind": "geometric", "n": n, "d_max": 6},
            "value_range": [0, 100],
            "atr": "basic",
            "adversary": {
                "faulty": [7, 23],
                "scripts": [
                    {"node": 7, "kind": "label_forge", "params": {"value": 10**7}, "sessions": [0]},
                    {"node": 23, "kind": "agg_ack_garble", "sessions": [2]},
                ],
            },
        }
        short = retained_bytes({**config, "sessions": 10})
        long = retained_bytes({**config, "sessions": 60})
        assert (long - short) / 50 < 4_000, n


# What stage one folds in or sends: the readings, then its three phases.
SHIA_PHASES = ("reading", "commit", "offpath", "ack")
SHIA_KINDS = sorted(k for k, phase in CATALOG.items() if phase in SHIA_PHASES)


def count_calls(monkeypatch, module, name) -> list:
    """Patch `module.name` to record each call's arguments."""
    calls = []
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a: calls.append(a) or real(*a))
    return calls


@pytest.mark.parametrize("name", ["grid_clean", "geometric400_resilient"])
def test_a_run_registers_its_ids_in_one_call_per_kind(monkeypatch, name):
    # A 4x5 grid under basic ATR and n = 400 under resilient ATR: one call
    # per kind whatever n is, each given every sensor or every edge.
    nodes = count_calls(monkeypatch, crypto.KeyStore, "register_node")
    edges = count_calls(monkeypatch, crypto.KeyStore, "register_edge")
    scenario = Scenario.from_dict(load_config(SCENARIOS / f"{name}.json"))
    run_sessions(scenario)
    assert (len(nodes), len(edges)) == (1, 1)
    assert set(nodes[0][1]) == scenario.graph.sensors
    assert set(edges[0][1]) == scenario.graph.edges


class TestQuietSessions:
    # A quiet session (no active script on a tree member can alter a stage-one
    # message) runs no stage one: it is charged from the record
    # `shia.honest_charges` computes from its tree.  A session whose only
    # such scripts are ack kinds takes all but the record's ack rows and runs
    # only the ack phase.  On the 4x5 grid's tree node 7 forwards to its
    # child 12, and node 17 is a leaf.

    @pytest.mark.parametrize("kind", SHIA_KINDS)
    def test_stage_one_runs_in_exactly_the_scripted_session(self, monkeypatch, kind):
        # Own-value forgery alters no message, so no session runs stage one;
        # an ack kind alters none before the ack phase, so its session runs
        # that phase alone.
        calls = count_calls(monkeypatch, shia, "run_shia")
        acks = []  # the session of each ack phase, in or out of `run_shia`
        real_ack_phase = shia.ack_phase
        monkeypatch.setattr(
            shia, "ack_phase", lambda *a: acks.append(a[-1].session) or real_ack_phase(*a)
        )
        params = {
            "own_value_forge": {"value": 55},
            "label_forge": {"value_add": 7},
            "parent_switch": {"target": 12},
        }.get(kind, {})
        adversary = {
            "faulty": [7, 12],
            "scripts": [{"node": 7, "kind": kind, "params": params, "sessions": [2]}],
        }
        result = run(grid_config(sessions=4, adversary=adversary))
        ran = [nonce.hex() for _, _, _, _, nonce, _ in calls]
        full = kind != "own_value_forge" and CATALOG[kind] != "ack"
        assert ran == ([result.records[2].nonce] if full else [])
        assert acks == ([] if kind == "own_value_forge" else [2])

    def test_an_ack_only_session_builds_no_label_and_macs_each_ack_once(self, monkeypatch):
        # Node 7 garbles the aggregated ack it sends in session 2.  The
        # commit and check phases come from the tree's record, so no label
        # is built, and each member's ack is MACed once, for the ack phase.
        internal = count_calls(monkeypatch, shia, "internal_label")
        leaves = count_calls(monkeypatch, shia, "leaf_label")
        acks = count_calls(monkeypatch, crypto, "node_ack")
        adversary = {
            "faulty": [7],
            "scripts": [{"node": 7, "kind": "agg_ack_garble", "sessions": [2]}],
        }
        result = run(grid_config(sessions=4, adversary=adversary))
        assert [r.verdict for r in result.records] == ["success", "success", "failure", "success"]
        assert (len(internal), len(leaves)) == (0, 0)
        assert len(acks) == len(result.records[2].tree.members)

    @pytest.mark.parametrize("node, scripted", [(17, []), (7, [2])], ids=["leaf", "internal"])
    def test_offpath_corruption_runs_stage_one_only_where_a_node_forwards(
        self, monkeypatch, node, scripted
    ):
        calls = count_calls(monkeypatch, shia, "run_shia")
        adversary = {
            "faulty": [node],
            "scripts": [{"node": node, "kind": "offpath_corrupt", "sessions": [2]}],
        }
        config = grid_config(sessions=4, adversary=adversary)
        result = run(config)
        assert [nonce.hex() for _, _, _, _, nonce, _ in calls] == [
            result.records[t].nonce for t in scripted
        ]
        assert observed_run(config, skip_quiet=True) == observed_run(config, skip_quiet=False)

    def test_own_value_forgery_in_every_session_runs_no_stage_one(self, monkeypatch):
        # Every session replays the tree's one record, and each accepted sum
        # carries the forged reading, as the full stage one's does.
        adversary = {
            "faulty": [7],
            "scripts": [{"node": 7, "kind": "own_value_forge", "params": {"value": 100}}],
        }
        config = grid_config(sessions=50, adversary=adversary)
        runs = count_calls(monkeypatch, shia, "run_shia")
        records = count_calls(monkeypatch, shia, "honest_charges")
        quiet = observed_run(config, skip_quiet=True)
        assert (len(runs), len(records)) == (0, 1)
        assert quiet == observed_run(config, skip_quiet=False)
        assert len(runs) == 50  # the oracle ran stage one in every session
        report = json.loads(quiet[0])
        assert report["audits"]["all_pass"] and report["totals"]["failures"] == 0
        scenario = Scenario.from_dict(config)  # every sensor is in the tree
        honest = [sum(scenario.values_for(t).values()) for t in range(50)]
        assert [rec["value"] for rec in report["sessions"]] != honest

    def test_honest_grid_runs_no_stage_one_over_three_sessions(self, monkeypatch):
        acks = count_calls(monkeypatch, crypto, "node_ack")
        runs = count_calls(monkeypatch, shia, "run_shia")
        config = {"seed": 3, "sessions": 3, "topology": {"kind": "grid", "rows": 30, "cols": 30}}
        result = run(config)
        assert [r.verdict for r in result.records] == ["success"] * 3
        assert (acks, runs) == ([], [])

    def test_runs_on_one_scenario_each_compute_the_record_once(self, monkeypatch):
        calls = count_calls(monkeypatch, shia, "honest_charges")
        scenario = Scenario.from_dict(grid_config(sessions=5))
        per_run = []
        for _ in range(2):
            before = len(calls)
            run_sessions(scenario)
            per_run.append(len(calls) - before)
        assert per_run == [1, 1]

    def test_all_quiet_grid_derives_no_key(self, monkeypatch):
        # Keys are derived on first read; a quiet session reads none, so the
        # run derives only the master key and the nonce key.
        derived = count_calls(monkeypatch, crypto, "mac_long")
        config = {"seed": 3, "sessions": 3, "topology": {"kind": "grid", "rows": 30, "cols": 30}}
        result = run(config)
        assert [r.verdict for r in result.records] == ["success"] * 3
        assert [msg for _, msg in derived] == [b"master3", b"nonce3"]

    def test_faulty_grid_derives_only_the_bs_keys_stage_one_reads(self, monkeypatch):
        # Stage one MACs acks in full runs and in ack-only sessions alike.
        macs = count_calls(monkeypatch, shia, "member_acks")
        derivations = count_calls(monkeypatch, crypto, "mac_long")
        result = run_sessions(Scenario.from_dict(load_config(str(SCENARIOS / "grid30_faulty.json"))))
        derived = [msg for _, msg in derivations]
        assert result.failures > 0 and macs
        bs_nodes = [int.from_bytes(m[2:], "big") for m in derived if m.startswith(b"bs")]
        # Each key once, for exactly the members whose ack stage one MACs.
        assert len(bs_nodes) == len(set(bs_nodes))
        assert set(bs_nodes) == set().union(*(members for _, members, _ in macs))
        assert not [m for m in derived if m.startswith(b"link")]


@st.composite
def fuzzed_configs(draw) -> dict:
    """A connected graph over sensors 1..n (n 2-12) with 1-3 BS links, 4-8
    sessions, either ATR, and 1-3 faulty nodes with 1-3 scripts each, each
    script active in every session or in a random few."""
    n = draw(st.integers(2, 12))
    sessions = draw(st.integers(4, 8))
    edges = {(draw(st.integers(1, v - 1)), v) for v in range(2, n + 1)}
    extra = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)), max_size=n))
    edges |= {(min(a, b), max(a, b)) for a, b in extra if a != b}
    edges |= {(BS_ID, v) for v in draw(st.sets(st.integers(1, n), min_size=1, max_size=3))}
    faulty = draw(st.lists(st.integers(1, n), min_size=1, max_size=min(3, n - 1), unique=True))
    ids = st.lists(st.integers(0, n + 2), max_size=3)
    params = {
        "own_value_forge": st.fixed_dictionaries({"value": st.integers(0, 100)}),
        "label_forge": st.fixed_dictionaries(
            {},
            optional={
                "count": st.integers(0, n + 2),
                "value": st.integers(-50, 100 * n + 50),
                "value_add": st.integers(-60, 60),
            },
        ),
        "confirm_tamper": st.fixed_dictionaries({}, optional={"slot": st.integers(-3, 3)}),
        "ack_report_forge": st.fixed_dictionaries({}, optional={"slot": st.integers(-3, 3)}),
        "nl_fake": st.fixed_dictionaries({}, optional={"add": ids, "remove": ids}),
    }
    # Each node's first script acts in stage one, on its reading or in one
    # of its phases, drawn evenly, so that quiet and scripted sessions
    # alternate; the other two come from the whole catalog.
    scripts = []
    for node in faulty:
        phase = draw(st.sampled_from(SHIA_PHASES))
        kinds = [draw(st.sampled_from([k for k in SHIA_KINDS if CATALOG[k] == phase]))]
        others = [v for v in faulty if v != node]
        for kind in kinds + draw(st.lists(st.sampled_from(sorted(CATALOG)), max_size=2)):
            if kind == "parent_switch" and not others:
                kind = "label_drop"  # what a switch to itself amounted to; it is refused
            drawn = params.get(kind, st.just({}))
            if kind == "parent_switch":
                drawn = st.fixed_dictionaries({"target": st.sampled_from(others)})
            script = {"node": node, "kind": kind, "params": draw(drawn)}
            # Mostly one to three sessions, with quiet ones around them.
            if draw(st.integers(0, 3)):
                script["sessions"] = draw(
                    st.lists(st.integers(0, sessions - 1), unique=True, min_size=1, max_size=3)
                )
            scripts.append(script)
    return {
        "seed": draw(st.integers(0, 10**6)),
        "sessions": sessions,
        "topology": {"kind": "edges", "n": n, "edges": sorted(map(list, edges)), "d_max": n + 1},
        "atr": draw(st.sampled_from(["basic", "resilient"])),
        "adversary": {"faulty": faulty, "scripts": scripts},
    }


def observed_run(config: dict, skip_quiet: bool):
    """The rendered report (or the error the run raised), the ledger of
    every session and setup step, in insertion order, and the trace."""
    ledgers, seen, advs = [], [], []
    real_reset, real_build = CongestionLedger.reset, Scenario.build_adversary

    def snapshot(ledger):
        ledgers.append((list(ledger.per_edge.items()), list(ledger.per_phase.items())))

    def reset(ledger):
        seen.append(ledger)
        snapshot(ledger)
        real_reset(ledger)

    def build(scenario):
        advs.append(real_build(scenario))
        return advs[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(CongestionLedger, "reset", reset)
        mp.setattr(Scenario, "build_adversary", build)
        if not skip_quiet:
            mp.setattr(Adversary, "first_altered_phase", lambda self, tree: "commit")
        scenario = Scenario.from_dict(config)
        try:
            outcome = cli.render_report(run_sessions(scenario))
        except RobustAggError as exc:
            outcome = (type(exc).__name__, str(exc))
    if seen:
        snapshot(seen[-1])  # the last session's ledger is never reset
    return outcome, ledgers, advs[-1].trace


@settings(max_examples=400, deadline=None)
@given(fuzzed_configs())
def test_skipping_quiet_sessions_changes_nothing(config):
    # The oracle runs stage one in full in every session.
    assert observed_run(config, skip_quiet=True) == observed_run(config, skip_quiet=False)

