"""Multi-session driver: aggregation loop, blacklist management, audits.

Each session runs stage one; on failure the localizer phases mark nodes,
the blacklist grows, and the tree is rebuilt before the next session.  The
audits check the run against the scheme's guarantees: bounded failures,
range-tight accepted values, bounded exclusion of correct nodes, and the
congestion envelopes.
"""

from __future__ import annotations

from . import als, atr, crypto, shia, wire
from .crypto import KeyStore, NodeId
from .errors import ProtocolViolation, UnlocalizableFailure
from .netmodel import AggregationTree, Network
from .scenario import SCHEMA, Scenario

# Cost-model constants, calibrated once on desk scenarios and frozen.
# UNIT_BYTES is the wire size of one internal-label link message (55-byte
# label in a 16-byte-tag envelope with framing).  Worst observed ratios on
# geometric/grid/chain topologies up to n=400: success 0.46 units per
# height*degree, failure 2.1 units per node; both constants keep about a
# 2x margin over those.
UNIT_BYTES = 79
SUCCESS_COST_C1 = 1.0
FAILURE_COST_C2 = 4.0


class SessionRecord:
    """One session: what the report shows of it, and the engine-side facts
    oracles and audits read (its tree, the sum of its correct members' true
    readings, who misbehaved, stage one's result, the rebuild's outcome),
    which it never shows.  It keeps no per-node readings, so a run's
    history grows by a constant per session, not by n."""

    def __init__(
        self,
        index: int,
        nonce: str,
        verdict: str,  # "success" | "failure"
        value: int | None,
        marks: list[als.Mark],
        blacklist_after: list[NodeId],
        max_congestion: int,
        phase_congestion: dict[str, int],
        tree: AggregationTree,
        tree_degree: int,
        als2_ran: bool,
        correct_sum: int,
        misbehaved: set[NodeId],
        shia_result: shia.ShiaResult,
        atr_outcome: atr.AtrOutcome | None,
    ) -> None:
        self.index = index
        self.nonce = nonce
        self.verdict = verdict
        self.value = value
        self.marks = marks
        self.blacklist_after = blacklist_after
        self.max_congestion = max_congestion
        self.phase_congestion = phase_congestion
        self.tree = tree
        self.tree_degree = tree_degree  # O(n) to compute, so once per tree
        self.als2_ran = als2_ran
        self.correct_sum = correct_sum
        self.misbehaved = misbehaved
        self.shia_result = shia_result
        self.atr_outcome = atr_outcome

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "nonce": self.nonce,
            "verdict": self.verdict,
            "value": self.value,
            "marks": [list(m) for m in self.marks],
            "blacklist_after": self.blacklist_after,
            "max_congestion": self.max_congestion,
            "phase_congestion": dict(sorted(self.phase_congestion.items())),
            "tree": {
                "height": self.tree.height(),
                "degree": self.tree_degree,
                "size": len(self.tree.parent),
            },
            "als2_ran": self.als2_ran,
        }


class RunResult:
    def __init__(self, scenario: Scenario) -> None:
        self.scenario = scenario
        self.faulty = scenario.faulty
        self.records: list[SessionRecord] = []
        self.blacklist: set[NodeId] = set()
        self.disconnected = False
        self.setup_congestion = 0

    @property
    def failures(self) -> int:
        return sum(1 for r in self.records if r.verdict == "failure")

    def max_tree_degree(self) -> int:
        return max((r.tree_degree for r in self.records), default=1)

    def audits(self) -> dict:
        n_a = len(self.faulty)
        correct_excluded = len(self.blacklist - self.faulty)
        security_ok = all(
            security_audit(rec, self.faulty, self.scenario.value_range)
            for rec in self.records
            if rec.verdict == "success"
        )
        # Stability: once no faulty node is left in the tree, nothing fails.
        stable = not any(
            rec.verdict == "failure" and not any(f in rec.tree.parent for f in self.faulty)
            for rec in self.records
        )
        out = {
            "failure_bound": self.failures <= n_a,
            "security": security_ok,
            "exclusion_bound": correct_excluded <= max(0, (self.max_tree_degree() - 1)) * n_a,
            "stability": stable,
        }
        out["all_pass"] = all(out.values())
        return out

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "config": self.scenario.config,
            "config_hash": self.scenario.hash(),
            "sessions": [r.to_dict() for r in self.records],
            "totals": {
                "failures": self.failures,
                "successes": len(self.records) - self.failures,
                "excluded_correct": sorted(self.blacklist - self.faulty),
                "excluded_faulty": sorted(self.blacklist & self.faulty),
            },
            "audits": self.audits(),
            "disconnected": self.disconnected,
            "setup_congestion": self.setup_congestion,
        }


def security_audit(
    rec: SessionRecord, faulty: frozenset[NodeId], value_range: tuple[int, int]
) -> bool:
    """An accepted value must equal the correct nodes' sum plus one in-range
    contribution per faulty tree node."""
    if rec.verdict != "success" or rec.value is None:
        return False
    n_f = sum(f in rec.tree.parent for f in faulty)
    lo, hi = value_range
    slack = rec.value - rec.correct_sum
    return n_f * lo <= slack <= n_f * hi


def run_sessions(scenario: Scenario) -> RunResult:
    graph = scenario.graph
    adv = scenario.build_adversary()
    seed_bytes = str(scenario.seed).encode()
    keys = KeyStore(seed_bytes)
    keys.register_node(graph.sensors)
    keys.register_edge(graph.edges)
    net = Network(graph, keys)
    nonce_key = crypto.mac_long(b"\x02" * crypto.KEY_LEN, b"nonce" + seed_bytes)

    result = RunResult(scenario)
    blacklist = result.blacklist
    bs_adj = None
    if scenario.atr_variant == "resilient":
        bs_adj = atr.atr_resilient_init(net, adv)
        result.setup_congestion = net.ledger.max_congestion()
        outcome = atr.atr_resilient_build(net, bs_adj, frozenset(), b"\x00" * wire.NONCE_LEN)
        tree = outcome.tree
    else:
        tree = atr.build_initial_tree(graph)

    checked = None  # the last tree checked against the graph
    # An honest session's charges on `checked`, one row per (edge, phase),
    # and a quiet session's all-acked map, made when a session first needs
    # them and shared read-only by the tree's sessions.
    record: list[tuple[NodeId, NodeId, int, str]] | None = None
    for i in range(scenario.sessions):
        if tree is None:
            result.disconnected = True
            break
        if tree is not checked:
            graph.check_tree(tree)
            checked, record = tree, None
            delta = tree.max_degree()
            members = tree.members
            correct = list(members - scenario.faulty)
        adv.begin_session(i)
        nonce = crypto.mac(nonce_key, b"session" + wire.u16(i))[: wire.NONCE_LEN]
        values = scenario.values_for(i)
        net.ledger.reset()

        # Stage one runs from the first phase a script can alter.  Up to it,
        # it runs as an honest one does: it charges by tree alone, every
        # member's label reaches the root, and the root holds the sum of the
        # members' readings.  A quiet session (none) succeeds with that sum.
        first = adv.first_altered_phase(tree)
        if first == "commit":
            sres = shia.run_shia(net, tree, values, adv, nonce, scenario.value_range)
        else:
            if record is None:
                record = shia.honest_charges(tree, graph.flood_edges)
                acked = dict.fromkeys(members, True)
            charge = net.ledger.charge
            # The ack rows, one per member, come last.
            for a, b, nbytes, phase in record if first is None else record[: -len(members)]:
                charge(a, b, nbytes, phase)
            value = sum(map(adv.readings(values).__getitem__, members))
            if first is None:
                sres = shia.ShiaResult(
                    accepted=True, value=value, root_label=None, root_ok=True, agg_ack=None,
                    expected_ack=None, node_acks={}, acked=acked,
                )
            else:  # every member's label matched the root: only acks can fail
                node_acks, ack_ints, expected = shia.member_acks(net, members, nonce)
                released, acks_up = shia.ack_phase(net, tree, members, node_acks, ack_ints, adv)
                agg_ack = acks_up.get(tree.bs_child)
                sres = shia.ShiaResult(
                    accepted=agg_ack == expected, value=value, root_label=None, root_ok=True,
                    agg_ack=agg_ack, expected_ack=expected, node_acks=node_acks,
                    acked=released, acks_up=acks_up,
                )
        marks: list[als.Mark] = []
        als2_ran = False
        atr_outcome: atr.AtrOutcome | None = None
        if sres.accepted:
            verdict, value = "success", sres.value
        else:
            intact = als.als1_collect(net, tree, sres.acked, adv, nonce)
            marks = als.als1_process(tree, intact)
            if not marks:
                als2_ran = True
                if sres.agg_ack is None:
                    raise ProtocolViolation(f"session {i}: ALS.II requires an aggregated ack")
                reported = als.als2_collect(net, tree, sres.acks_up, adv, nonce)
                marks = als.als2_process(sres.node_acks, tree, reported, sres.agg_ack)
            if not marks:
                raise UnlocalizableFailure(
                    f"session {i}: aggregation failed but no node was marked"
                )
            blacklist |= als.marked(marks)
            if als2_ran and sres.root_ok and scenario.accept_on_als2:
                # Only the ack path was disrupted: the aggregate passed the
                # root check, so the result can be salvaged (opt-in).
                verdict, value = "success", sres.value
            else:
                verdict, value = "failure", None
            if scenario.atr_variant == "resilient":
                atr_outcome = atr.atr_resilient_build(net, bs_adj, frozenset(blacklist), nonce)
            else:
                atr_outcome = atr.atr_basic(net, frozenset(blacklist), nonce, adv)

        result.records.append(
            SessionRecord(
                index=i,
                nonce=nonce.hex(),
                verdict=verdict,
                value=value,
                marks=marks,
                blacklist_after=sorted(blacklist),
                max_congestion=net.ledger.max_congestion(),
                phase_congestion=dict(net.ledger.per_phase),
                tree=tree,
                tree_degree=delta,
                als2_ran=als2_ran,
                correct_sum=sum(map(values.__getitem__, correct)),
                misbehaved=adv.misbehaved(i),
                shia_result=sres,
                atr_outcome=atr_outcome,
            )
        )
        if atr_outcome is not None:
            tree = atr_outcome.tree
    return result


def success_cost_ok(max_congestion: int, height: int, degree: int) -> bool:
    return max_congestion <= SUCCESS_COST_C1 * height * degree * UNIT_BYTES


def failure_cost_ok(max_congestion: int, n: int) -> bool:
    return max_congestion <= FAILURE_COST_C2 * n * UNIT_BYTES


def cost_audit(points: list[dict]) -> dict:
    """Check congestion envelopes over a multi-size sweep.

    Each point carries n, tree height/degree, and the observed max edge
    congestion of a successful and (optionally) a failed session.  Success
    costs must fit the frozen height*degree envelope; failure costs must
    grow at most linearly in n (every point within 30% of a least-squares
    line, no super-linear jumps).
    """
    sizes = {p["n"] for p in points}
    if len(sizes) < 2 or len(sizes) < len(points):
        raise ValueError("cost audit needs at least two network sizes, each given once")
    success_ok = all(
        success_cost_ok(p["success_cost"], p["height"], p["degree"])
        for p in points
        if p.get("success_cost") is not None
    )
    fail_pts = sorted((p["n"], p["failure_cost"]) for p in points if p.get("failure_cost"))
    failure_ok = True
    slope = intercept = None
    if len(fail_pts) >= 2:
        # Imported here: only a sweep fits a line, and `statistics` pulls in
        # `fractions` and `decimal`, which a plain run would load for nothing.
        import statistics

        slope, intercept = statistics.linear_regression(*zip(*fail_pts))
        # Each point within 30% of the fit, no cost ratio outgrowing its size
        # ratio by more than 30% (super-linear), and inside the envelope.
        n0, cost0 = fail_pts[0]
        failure_ok = all(
            abs(y - (slope * x + intercept)) <= 0.3 * abs(slope * x + intercept)
            and y / cost0 <= 1.3 * (x / n0)
            and failure_cost_ok(y, x)
            for x, y in fail_pts
        )
    return {
        "success_ok": success_ok,
        "failure_ok": failure_ok,
        "pass": success_ok and failure_ok,
        "slope": slope,
        "intercept": intercept,
        "c1": SUCCESS_COST_C1,
        "c2": FAILURE_COST_C2,
        "unit_bytes": UNIT_BYTES,
    }
