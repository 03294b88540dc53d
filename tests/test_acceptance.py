"""End-to-end guarantees of the aggregation scheme, checked at desk scale.

Each test prints (via the terminal summary) one PASS/FAIL line:

1. bounded failures over 200 randomized multi-fault runs
2. accepted values are range-tight; exact with no faults
3. confirmation analysis traps a misbehaver whenever a correct node
   withholds its ack (exhaustive over all rooted trees with <= 5 sensors)
4. ack-report analysis traps pure ack-path misbehavers the confirmation
   pass cannot see (same exhaustive harness)
5. both-correct tree edges always agree on their ack booleans
6. congestion envelopes: success fits C1*h*degree*U, failure linear in n
7. correct-node exclusion bounded by (degree-1) * n_a
8. distributed tree views identical to the base station's tree
9. reports replay byte-for-byte
"""

import json
import math
import random

import pytest

from robustagg import als, cli, shia
from robustagg.adversary import Adversary, ScriptEntry
from robustagg.crypto import BS_ID
from robustagg.netmodel import AggregationTree
from robustagg.orchestrator import run_sessions
from robustagg.scenario import Scenario

from conftest import record_criterion
from helpers import all_rooted_trees, complete_net, entry

VRANGE = (0, 100)
NONCE = b"\x07" * 8


def verdict(num: int, name: str, violations: list, detail: str = "") -> None:
    ok = not violations
    line = f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" [{detail}]"
    if violations:
        line += f" first: {violations[0]!r}"
    record_criterion(line)
    print(line)
    assert ok, line


# --------------------------------------------------------------------------
# randomized multi-fault scenario corpus (shared by criteria 1, 2, 5, 7, 8)
# --------------------------------------------------------------------------

MIXED_KINDS = [
    "own_value_forge",
    "label_forge_in",
    "label_forge_out",
    "label_drop",
    "offpath_corrupt",
    "ack_drop",
    "ack_garble",
    "agg_ack_garble",
    "confirm_tamper",
    "confirm_drop",
    "ack_report_forge",
    "report_drop",
    "te_suppress",
    "response_drop",
    "nl_fake",
]


def sample_scenario(rng: random.Random) -> dict:
    """One randomized scenario: n in [20, 500], n_a in [1, 10], 3*n_a sessions."""
    lo, hi = math.log(20), math.log(500)
    n = int(round(math.exp(lo + (rng.random() ** 1.6) * (hi - lo))))
    n_a = min(10, 1 + int(rng.expovariate(0.55)), n - 1)
    faulty = rng.sample(range(1, n + 1), n_a)
    sessions = 3 * n_a
    scripts = []
    for f in faulty:
        for _ in range(rng.randint(1, 2)):
            kind = rng.choice(MIXED_KINDS)
            params = {}
            if kind == "own_value_forge":
                params = {"value": rng.randint(*VRANGE)}
            elif kind == "label_forge_in":
                kind, params = "label_forge", {"value": rng.randint(*VRANGE)}
            elif kind == "label_forge_out":
                kind, params = "label_forge", {"value": 10**7}
            elif kind == "nl_fake":
                key = "add" if rng.random() < 0.5 else "remove"
                params = {key: [rng.randint(1, n)]}
            active = sorted(rng.sample(range(sessions), rng.randint(1, min(3, sessions))))
            scripts.append({"node": f, "kind": kind, "params": params, "sessions": active})
    if n_a >= 2 and rng.random() < 0.3:
        a, b = rng.sample(faulty, 2)
        scripts.append(
            {
                "node": a,
                "kind": "parent_switch",
                "params": {"target": b},
                "sessions": [rng.randrange(sessions)],
            }
        )
    return {
        "seed": rng.randrange(10**9),
        "sessions": sessions,
        "topology": {"kind": "geometric", "n": n, "d_max": rng.randint(5, 8)},
        "value_range": list(VRANGE),
        "atr": rng.choice(["basic", "resilient"]),
        "adversary": {"faulty": sorted(faulty), "scripts": scripts},
    }


@pytest.fixture(scope="module")
def mixed_runs():
    rng = random.Random("acceptance-mixed-runs")
    out = []
    for _ in range(200):
        cfg = sample_scenario(rng)
        out.append(run_sessions(Scenario.from_dict(cfg)))
    return out


def test_criterion_1_failure_bound(mixed_runs):
    violations = []
    for res in mixed_runs:
        n_a = len(res.faulty)
        if res.failures > n_a:
            violations.append((res.scenario.seed, res.failures, n_a))
    total = sum(len(r.records) for r in mixed_runs)
    verdict(1, "failure bound", violations, f"200 runs, {total} sessions")


def test_criterion_2_optimal_security(mixed_runs):
    from robustagg.orchestrator import security_audit

    violations = []
    successes = 0
    for res in mixed_runs:
        for rec in res.records:
            if rec.verdict != "success":
                continue
            successes += 1
            if not security_audit(rec, res.faulty, res.scenario.value_range):
                violations.append((res.scenario.seed, rec.index, rec.value))
    # no faults at all: the exact sum, zero tolerance
    exact = 0
    for seed in range(10):
        sc = Scenario.from_dict(
            {
                "seed": seed,
                "sessions": 3,
                "topology": {"kind": "geometric", "n": 25 + seed, "d_max": 6},
            }
        )
        res = run_sessions(sc)
        for i, rec in enumerate(res.records):
            exact += 1
            want = sum(sc.values_for(i).values())
            if rec.verdict != "success" or rec.value != want:
                violations.append(("exact", seed, i, rec.value, want))
    verdict(2, "optimal security", violations, f"{successes} accepted + {exact} exact")


# --------------------------------------------------------------------------
# exhaustive harness over all rooted trees with <= 5 sensors (criteria 3-5)
# --------------------------------------------------------------------------


def run_tiny(net, tree, scripts, faulty):
    """One session plus split localization phases on the tiny corpus."""
    adv = Adversary(faulty, [ScriptEntry(node=n, kind=k, params=p, sessions=None) for n, k, p in scripts])
    adv.begin_session(0)
    values = {s: 50 for s in tree.members}
    net.ledger.reset()
    sres = shia.run_shia(net, tree, values, adv, NONCE, VRANGE)
    marks1 = marks2 = None
    if not sres.accepted:
        intact = als.als1_collect(net, tree, sres.acked, adv, NONCE)
        marks1 = als.als1_process(tree, intact)
        if not marks1:
            reported = als.als2_collect(net, tree, sres.acks_up, adv, NONCE)
            marks2 = als.als2_process(sres.node_acks, tree, reported, sres.agg_ack)
    return sres, marks1, marks2, adv


def edge_disagreements(tree, sres, bad):
    out = []
    for c, p in tree.parent.items():
        if p == BS_ID or c in bad or p in bad:
            continue
        if sres.acked[c] != sres.acked[p]:
            out.append((c, p))
    return out


@pytest.fixture(scope="module")
def exhaustive_results():
    """Run every (tree, faulty node, behavior combo) case once; classify later."""
    phase1_records = []  # criterion 3: commit/result-check/confirmation behaviors
    ackpath_records = []  # criterion 4: ack-path-only behaviors
    edge_violations = []  # criterion 5 contribution
    for n in range(1, 6):
        net = complete_net(n)
        for parent in all_rooted_trees(n):
            tree = AggregationTree(parent)
            for f in range(1, n + 1):
                has_kids = bool(tree.children.get(f))
                combos = [
                    [(f, "label_forge", {"value": 60})],
                    [(f, "label_forge", {"value": 10**6})],
                    [(f, "label_drop", {})],
                    [(f, "own_value_forge", {"value": 60})],
                ]
                if has_kids:
                    combos += [
                        [(f, "offpath_corrupt", {})],
                        [(f, "offpath_corrupt", {}), (f, "confirm_tamper", {"slot": 0})],
                        [(f, "offpath_corrupt", {}), (f, "confirm_drop", {})],
                    ]
                for combo in combos:
                    sres, marks1, _, adv = run_tiny(net, tree, combo, frozenset({f}))
                    phase1_records.append((parent, f, combo, sres, marks1, adv.misbehaved(0)))
                    edge_violations += [
                        (parent, f, combo, e)
                        for e in edge_disagreements(tree, sres, adv.misbehaved(0))
                    ]
                combos2 = [[(f, "agg_ack_garble", {})]]
                if has_kids:
                    combos2 += [
                        [(f, "agg_ack_garble", {}), (f, "ack_report_forge", {"slot": 0})],
                        [(f, "agg_ack_garble", {}), (f, "report_drop", {})],
                    ]
                for combo in combos2:
                    sres, marks1, marks2, adv = run_tiny(net, tree, combo, frozenset({f}))
                    ackpath_records.append((parent, f, combo, sres, marks1, marks2, adv.misbehaved(0)))
                    edge_violations += [
                        (parent, f, combo, e)
                        for e in edge_disagreements(tree, sres, adv.misbehaved(0))
                    ]
    return phase1_records, ackpath_records, edge_violations


def test_criterion_3_confirmation_analysis_traps_misbehaver(exhaustive_results):
    phase1_records, _, _ = exhaustive_results
    violations = []
    checked = 0
    for parent, f, combo, sres, marks1, traced in phase1_records:
        correct_withheld = any(
            not sres.acked[s] for s in parent if s != f
        )
        if sres.accepted or not correct_withheld:
            continue
        checked += 1
        if marks1 is None or not (als.marked(marks1) & traced):
            violations.append((parent, f, combo))
    verdict(
        3,
        "confirmation analysis",
        violations,
        f"{len(phase1_records)} cases, {checked} with withheld acks",
    )


def test_criterion_4_ack_report_analysis(exhaustive_results):
    _, ackpath_records, _ = exhaustive_results
    violations = []
    for parent, f, combo, sres, marks1, marks2, traced in ackpath_records:
        if sres.accepted:
            violations.append((parent, f, combo, "unexpectedly accepted"))
            continue
        if marks1 is None or marks1:
            violations.append((parent, f, combo, "phase one marked someone"))
            continue
        if marks2 is None or not (als.marked(marks2) & traced):
            violations.append((parent, f, combo, "phase two missed the misbehaver"))
    verdict(4, "ack-report analysis", violations, f"{len(ackpath_records)} cases")


def test_criterion_5_correct_edges_agree(mixed_runs, exhaustive_results):
    _, _, edge_violations = exhaustive_results
    violations = list(edge_violations)
    edges = 0
    for res in mixed_runs:
        for rec in res.records:
            acked = rec.shia_result.acked
            for c, p in rec.tree.parent.items():
                if p == BS_ID or c in rec.misbehaved or p in rec.misbehaved:
                    continue
                edges += 1
                if acked[c] != acked[p]:
                    violations.append((res.scenario.seed, c, p))
    verdict(5, "ack agreement on correct edges", violations, f"{edges} edges checked")


# --------------------------------------------------------------------------
# cost, exclusion, tree-view, and replay criteria
# --------------------------------------------------------------------------


def test_criterion_6_cost_envelopes(tmp_path):
    template = {
        "seed": 42,
        "sessions": 2,
        "topology": {"kind": "geometric", "n": 50, "d_max": 6},
        "adversary": {
            "faulty": [2],
            "scripts": [{"node": 2, "kind": "ack_garble", "sessions": [0]}],
        },
    }
    tpl = tmp_path / "template.json"
    tpl.write_text(json.dumps(template))
    out = tmp_path / "sweep.json"
    code = cli.main(
        ["sweep", "--template", str(tpl), "--sizes", "50,100,200,400", "--out", str(out)]
    )
    table = json.loads(out.read_text())
    violations = []
    if code != cli.EXIT_OK or not table["cost_audit"]["pass"]:
        violations.append(table["cost_audit"])
    fails = [p["failure_cost"] for p in table["points"]]
    if any(c is None for c in fails):
        violations.append(("missing failure point", fails))
    verdict(6, "cost envelopes", violations, f"slope {table['cost_audit']['slope']:.0f} B/node")


def test_criterion_7_exclusion_bound(mixed_runs):
    violations = []
    for res in mixed_runs:
        n_a = len(res.faulty)
        excluded = len(res.blacklist - res.faulty)
        bound = max(0, res.max_tree_degree() - 1) * n_a
        if excluded > bound:
            violations.append((res.scenario.seed, excluded, bound))
    verdict(7, "exclusion bound", violations)


def test_criterion_8_tree_view_consistency(mixed_runs):
    violations = []
    rebuilt = {"basic": 0, "resilient": 0}
    for res in mixed_runs:
        variant = res.scenario.atr_variant
        for rec in res.records:
            out = rec.atr_outcome
            if out is None or out.tree is None:
                continue
            rebuilt[variant] += 1
            for node in out.tree.members - set(res.faulty):
                want = (out.tree.parent[node], tuple(out.tree.children.get(node, [])))
                if out.node_views.get(node) != want:
                    violations.append((res.scenario.seed, variant, node))
    for variant, count in rebuilt.items():
        if count == 0:
            violations.append((variant, "no reconstructions sampled"))
    verdict(
        8,
        "tree view consistency",
        violations,
        f"{rebuilt['basic']} basic + {rebuilt['resilient']} resilient rebuilds",
    )


def test_criterion_9_replay_determinism(tmp_path):
    rng = random.Random("acceptance-replay")
    violations = []
    for i in range(20):
        n = rng.randint(20, 40)
        cfg = {
            "seed": rng.randrange(10**9),
            "sessions": 3,
            "topology": {"kind": "geometric", "n": n, "d_max": 6},
            "atr": rng.choice(["basic", "resilient"]),
            "adversary": {
                "faulty": [2],
                "scripts": [
                    {
                        "node": 2,
                        "kind": rng.choice(["label_drop", "ack_garble", "agg_ack_garble"]),
                        "sessions": [0],
                    }
                ],
            },
        }
        cfg_path = tmp_path / f"cfg{i}.json"
        cfg_path.write_text(json.dumps(cfg))
        report = tmp_path / f"report{i}.json"
        cli.main(["run", "--config", str(cfg_path), "--out", str(report)])
        code = cli.main(["replay", "--report", str(report)])
        if code != cli.EXIT_OK:
            violations.append((i, cfg["seed"], code))
    verdict(9, "replay determinism", violations, "20 reports")
