import contextlib
import copy
import io
import json
import random
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import oracle_geometric_graph, oracle_onepass_geometric_graph
from robustagg import cli, orchestrator, scenario
from robustagg.adversary import ScriptEntry
from robustagg.crypto import BS_ID
from robustagg.errors import ConfigError, FrameError, ProtocolViolation, UnlocalizableFailure
from robustagg.scenario import (
    SCHEMA,
    Scenario,
    _geometric_graph,
    build_graph,
    canonical_json,
    config_hash,
    load_config,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
GOLDEN = Path(__file__).resolve().parent / "golden"

# Two colluding faulty nodes announce a link between them that the grid
# does not have.
COLLUDING_NL_FAKE = {
    "seed": 7,
    "sessions": 3,
    "topology": {"kind": "grid", "rows": 4, "cols": 5},
    "atr": "resilient",
    "adversary": {
        "faulty": [1, 20],
        "scripts": [
            {"node": 1, "kind": "nl_fake", "params": {"add": [20]}},
            {"node": 20, "kind": "nl_fake", "params": {"add": [1]}},
        ],
    },
}


def base_config(**overrides) -> dict:
    cfg = {
        "seed": 99,
        "sessions": 3,
        "topology": {"kind": "geometric", "n": 24, "d_max": 6},
        "value_range": [0, 100],
    }
    cfg.update(overrides)
    return cfg


def scripted(*scripts, faulty=(2,)) -> dict:
    """Config overrides for an adversary running `scripts`."""
    return {"adversary": {"faulty": list(faulty), "scripts": list(scripts)}}


def write_config(tmp_path, cfg, name="scenario.json") -> str:
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


@pytest.fixture
def graph_builds(monkeypatch):
    """The (topology, seed) of every scenario.build_graph call."""
    calls = []
    real = scenario.build_graph

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(scenario, "build_graph", counting)
    return calls


class TestValidation:
    def test_missing_required_field(self):
        cfg = base_config()
        del cfg["seed"]
        with pytest.raises(ConfigError):
            Scenario.from_dict(cfg)

    def test_unknown_faulty_node(self):
        with pytest.raises(ConfigError):
            Scenario.from_dict(base_config(adversary={"faulty": [999]}))

    def test_faulty_set_cannot_cover_network(self):
        cfg = {
            "seed": 1,
            "sessions": 1,
            "topology": {"kind": "chain", "n": 3},
            "adversary": {"faulty": [1, 2, 3]},
        }
        with pytest.raises(ConfigError):
            Scenario.from_dict(cfg)

    def test_unknown_atr_variant(self):
        with pytest.raises(ConfigError):
            Scenario.from_dict(base_config(atr="psychic"))

    def test_unknown_topology(self):
        with pytest.raises(ConfigError):
            Scenario.from_dict(base_config(topology={"kind": "torus"}))

    def test_empty_value_range(self):
        with pytest.raises(ConfigError):
            Scenario.from_dict(base_config(value_range=[10, 5]))

    def test_fixed_value_outside_range(self):
        with pytest.raises(ConfigError):
            Scenario.from_dict(base_config(fixed_values={"3": 500}))

    def test_own_value_forge_must_stay_in_range(self):
        adversary = {
            "faulty": [3],
            "scripts": [
                {"node": 3, "kind": "own_value_forge", "params": {"value": 5000}}
            ],
        }
        with pytest.raises(ConfigError):
            Scenario.from_dict(base_config(adversary=adversary))
        adversary["scripts"][0]["params"]["value"] = 50
        Scenario.from_dict(base_config(adversary=adversary))

    def test_invalid_json_file(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(str(p))


class TestGeneration:
    def test_values_deterministic_and_in_range(self):
        sc = Scenario.from_dict(base_config())
        one = sc.values_for(0)
        two = sc.values_for(0)
        assert one == two
        assert set(one) == sc.graph.sensors
        assert all(0 <= v <= 100 for v in one.values())
        assert sc.values_for(1) != one  # fresh draw per session

    def test_validation_keeps_the_config_as_given(self):
        # Each scenario parses its own graph from its own copy of the config,
        # and validation adds and changes nothing in it.
        config = base_config()
        a, b = Scenario.from_dict(config), Scenario.from_dict(config)
        assert a.graph is not b.graph and a.config is not config
        assert a.config == b.config == base_config()

    def test_fixed_values_override_draws(self):
        sc = Scenario.from_dict(base_config(fixed_values={"3": 77}))
        assert sc.values_for(0)[3] == 77

    @settings(max_examples=300, deadline=None)
    @given(st.integers(-(10**9), 10**9), st.integers(0, 2**16 - 1), st.integers(1, 40), st.data())
    def test_values_are_the_draws_of_randint(self, seed, session, n, data):
        # One `randint(lo, hi)` per sensor in id order, a fixed sensor's too.
        # n readings sum into an i64 label, so validation bounds |lo| and |hi|.
        bound = scenario.I64_MAX // n
        lo, hi = data.draw(
            st.one_of(
                st.sampled_from([(0, 0), (0, 1), (-5, 5), (3, 2**40), (-bound, bound)]),
                st.tuples(st.integers(-bound, bound), st.integers(0, 2 * bound)).map(
                    lambda p: (p[0], min(p[0] + p[1], bound))
                ),
            )
        )
        fixed = data.draw(st.sets(st.integers(1, n), max_size=5))
        sc = Scenario.from_dict(
            {
                "seed": seed,
                "sessions": 1,
                "topology": {"kind": "chain", "n": n},
                "value_range": [lo, hi],
                "fixed_values": {str(s): lo for s in fixed},
            }
        )
        rng = random.Random(f"values:{seed}:{session}")
        drawn = {s: rng.randint(lo, hi) for s in range(1, n + 1)}
        expected = {s: lo if s in fixed else v for s, v in drawn.items()}
        assert sc.values_for(session) == expected

    @pytest.mark.parametrize(
        "topology",
        [
            {"kind": "grid", "rows": 3, "cols": 4},
            {"kind": "chain", "n": 7},
            {"kind": "geometric", "n": 30, "d_max": 4},
            {"kind": "edges", "n": 4, "edges": [[0, 3], [3, 1], [1, 4], [4, 2]]},
        ],
        ids=["grid", "chain", "geometric", "edges"],
    )
    def test_every_topology_numbers_its_sensors_1_to_n(self, topology):
        # `values_for` draws one reading per sensor in id order, 1..n.
        sc = Scenario.from_dict(base_config(topology=topology))
        assert sc.graph.sensors == set(range(1, sc.graph.n + 1))
        assert list(sc.values_for(0)) == sorted(sc.graph.sensors)

    def test_geometric_topology_deterministic_per_seed(self):
        g1 = build_graph({"kind": "geometric", "n": 30, "d_max": 6}, 5)
        g2 = build_graph({"kind": "geometric", "n": 30, "d_max": 6}, 5)
        g3 = build_graph({"kind": "geometric", "n": 30, "d_max": 6}, 6)
        assert g1.edges == g2.edges
        assert g1.edges != g3.edges

    @settings(max_examples=120, deadline=None)
    @given(st.integers(1, 200), st.integers(2, 9), st.integers())
    def test_geometric_graph_matches_oracle(self, n, d_max, seed):
        try:
            want = oracle_geometric_graph(n, d_max, seed)
        except (ConfigError, StopIteration) as exc:
            if isinstance(exc, StopIteration) or "exceeds degree bound" in str(exc):
                # No sensor could take the BS, or the oracle's backbone broke
                # the bound; the generator's keeps it and frees a slot for
                # the BS, so it builds (and NetworkGraph checks the bound
                # and connectivity).
                _geometric_graph(n, d_max, seed)
                return
            with pytest.raises(ConfigError) as got:
                _geometric_graph(n, d_max, seed)
            assert str(got.value) == str(exc)
            return
        got = _geometric_graph(n, d_max, seed)
        assert got.edges == want.edges
        assert got.neighbors(BS_ID) == want.neighbors(BS_ID)

    @settings(max_examples=120, deadline=None)
    @given(st.integers(1, 400), st.integers(2, 9), st.integers())
    def test_geometric_graph_matches_onepass_oracle(self, n, d_max, seed):
        got = _geometric_graph(n, d_max, seed)
        want = oracle_onepass_geometric_graph(n, d_max, seed)
        assert got.edges == want.edges
        assert got.neighbors(BS_ID) == want.neighbors(BS_ID)

    @pytest.mark.parametrize("n", [2000, 4000])
    @pytest.mark.parametrize("d_max", [2, 3, 6])
    def test_large_geometric_graph_matches_onepass_oracle(self, n, d_max):
        got = _geometric_graph(n, d_max, 1)
        want = oracle_onepass_geometric_graph(n, d_max, 1)
        assert got.edges == want.edges
        assert got.neighbors(BS_ID) == want.neighbors(BS_ID)

    @pytest.mark.parametrize("d_max", [5, 7, 8])
    def test_benchmark_size_geometric_graph_matches_onepass_oracle(self, d_max):
        # n = 800 with the d_max values the benchmark's geometric workloads
        # draw besides 6.
        got = _geometric_graph(800, d_max, 1)
        want = oracle_onepass_geometric_graph(800, d_max, 1)
        assert got.edges == want.edges
        assert got.neighbors(BS_ID) == want.neighbors(BS_ID)

    @pytest.mark.parametrize(
        "n, seed", [(10, 0), (10, 5), (10, 9), (50, 3), (200, 7), (1000, 1)]
    )
    def test_geometric_backbone_keeps_degree_bound_two(self, n, seed):
        # The oracle's backbone hangs a third link on a sensor (or leaves the
        # BS no free sensor); the generator's falls back to one under d_max.
        with pytest.raises((ConfigError, StopIteration)):
            oracle_geometric_graph(n, 2, seed)
        graph = _geometric_graph(n, 2, seed)
        assert graph.sensors == set(range(1, n + 1))
        assert max(len(graph.neighbors(v)) for v in graph.sensors | {BS_ID}) <= 2

    def test_config_hash_ignores_key_order(self):
        a = {"seed": 1, "sessions": 2}
        b = {"sessions": 2, "seed": 1}
        assert config_hash(a) == config_hash(b)
        assert canonical_json(a) == canonical_json(b)


class TestCli:
    def test_run_writes_report_and_exits_clean(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, base_config())
        out_path = str(tmp_path / "report.json")
        assert cli.main(["run", "--config", cfg_path, "--out", out_path]) == cli.EXIT_OK
        report = json.loads(open(out_path).read())
        assert report["schema"] == "robustagg-report-v1"
        assert report["audits"]["all_pass"]

    def test_run_rejects_bad_config(self, tmp_path, capsys):
        cfg = base_config()
        del cfg["sessions"]
        cfg_path = write_config(tmp_path, cfg)
        assert cli.main(["run", "--config", cfg_path]) == cli.EXIT_PARSE_ERROR

    @pytest.mark.parametrize("atr", ["basic", "resilient"])
    def test_edges_topology_runs_the_same_in_any_pair_order(self, tmp_path, atr):
        # The grid and chain builders hand over (lower, higher) pairs; a JSON
        # edge list may reverse or repeat a pair and must run the same.
        ordered = [[0, 1], [1, 2], [1, 3], [2, 4], [3, 4], [3, 5], [4, 5]]
        shuffled = [[1, 0], [2, 1], [1, 2], [3, 1], [4, 2], [5, 4], [4, 3], [5, 3], [3, 4]]
        runs = []
        for name, edges in (("ordered", ordered), ("shuffled", shuffled)):
            cfg = {
                "seed": 5,
                "sessions": 4,
                "atr": atr,
                "topology": {"kind": "edges", "n": 5, "edges": edges},
                "adversary": {
                    "faulty": [4],
                    "scripts": [{"node": 4, "kind": "label_drop", "sessions": [0]}],
                },
            }
            out = tmp_path / f"{name}.json"
            argv = ["run", "--config", write_config(tmp_path, cfg), "--out", str(out)]
            assert cli.main(argv) == cli.EXIT_OK
            report = json.loads(out.read_text())
            runs.append([report[k] for k in ("sessions", "totals", "audits")])
        assert runs[0] == runs[1]
        assert [s["verdict"] for s in runs[0][0]] == ["failure"] + ["success"] * 3

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("content", [None, "[1, 2]"], ids=["missing_file", "non_object"])
    def test_unloadable_config_is_a_config_error(self, tmp_path, capsys, command, content):
        path = tmp_path / "scenario.json"
        if content is not None:
            path.write_text(content)
        argv = ["run", "--config", str(path)]
        if command == "sweep":
            argv = ["sweep", "--template", str(path), "--sizes", "24,40"]
        assert cli.main(argv) == cli.EXIT_PARSE_ERROR
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_unwritable_out_is_a_config_error(self, tmp_path, capsys, command):
        cfg_path = write_config(tmp_path, base_config(sessions=2))
        out = str(tmp_path / "missing" / "out.json")
        argv = ["run", "--config", cfg_path, "--out", out]
        if command == "sweep":
            argv = ["sweep", "--template", cfg_path, "--sizes", "24,40", "--out", out]
        assert cli.main(argv) == cli.EXIT_PARSE_ERROR
        captured = capsys.readouterr()
        assert captured.err == f"config error: cannot write {out} (No such file or directory)\n"
        assert captured.out == ""

    def test_non_utf8_report_is_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        path.write_bytes(b'{"schema": "\xff\xfe"}')
        assert cli.main(["replay", "--report", str(path)]) == cli.EXIT_PARSE_ERROR
        assert "invalid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "sweep", "replay"])
    @pytest.mark.parametrize(
        "content",
        [
            "[" * 100_000 + "]" * 100_000,
            # Parses, but copying or rendering it would overflow the stack.
            '{"seed": 1, "sessions": 1, "topology": {"kind": "chain", "n": 3}, "x": '
            + "[" * 600 + "]" * 600 + "}",
        ],
        ids=["bare_100000", "in_config_600"],
    )
    def test_deeply_nested_json_is_a_config_error(self, tmp_path, capsys, command, content):
        path = tmp_path / "deep.json"
        path.write_text(content)
        argv = {
            "run": ["run", "--config", str(path)],
            "sweep": ["sweep", "--template", str(path), "--sizes", "3"],
            "replay": ["replay", "--report", str(path)],
        }[command]
        assert cli.main(argv) == cli.EXIT_PARSE_ERROR
        assert "JSON nests deeper than 32 levels" in capsys.readouterr().err

    def test_run_builds_the_graph_once(self, tmp_path, capsys, graph_builds):
        # An override must not cost a second validation.
        cfg_path = write_config(tmp_path, base_config(atr="resilient"))
        assert cli.main(["run", "--config", cfg_path, "--atr", "basic"]) == cli.EXIT_OK
        assert len(graph_builds) == 1

    def test_accept_on_als2_flag_writes_the_salvage_configs_report(self, tmp_path):
        # The golden is pinned from a config that sets `accept_on_als2`; the
        # flag must give the same bytes.
        out = tmp_path / "report.json"
        config = str(SCENARIOS / "geometric400_resilient.json")
        assert cli.main(["run", "--config", config, "--accept-on-als2", "--out", str(out)]) == cli.EXIT_OK
        golden = GOLDEN / "long" / "geometric400_resilient_salvage.json"
        assert out.read_text(encoding="utf-8") == golden.read_text(encoding="utf-8")

    def test_sweep_builds_one_graph_per_size(self, tmp_path, capsys, graph_builds):
        # The template's own n (24) is no sweep point and is never built.
        cfg_path = write_config(tmp_path, base_config(sessions=2))
        assert cli.main(["sweep", "--template", cfg_path, "--sizes", "30,40"]) == cli.EXIT_OK
        assert [topology["n"] for topology, _ in graph_builds] == [30, 40]

    @pytest.mark.parametrize("atr", ["basic", "resilient"])
    def test_rerunning_one_scenario_reproduces_its_report(self, atr):
        # Runs share the scenario's validated graph, so none may change it.
        cfg = json.loads((SCENARIOS / "geometric_forger.json").read_text())
        sc = Scenario.from_dict({**cfg, "atr": atr})
        first = cli.render_report(orchestrator.run_sessions(sc))
        assert json.loads(first)["totals"]["failures"] > 0
        assert cli.render_report(orchestrator.run_sessions(sc)) == first

    def test_seed_override_changes_report(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, base_config())
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        cli.main(["run", "--config", cfg_path, "--out", a])
        cli.main(["run", "--config", cfg_path, "--out", b, "--seed-override", "7"])
        assert open(a).read() != open(b).read()

    def test_reports_are_byte_identical_across_reruns(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, base_config())
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        cli.main(["run", "--config", cfg_path, "--out", a])
        cli.main(["run", "--config", cfg_path, "--out", b])
        assert open(a).read() == open(b).read()

    def test_replay_verifies_genuine_report(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, base_config())
        out_path = str(tmp_path / "report.json")
        cli.main(["run", "--config", cfg_path, "--out", out_path])
        assert cli.main(["replay", "--report", out_path]) == cli.EXIT_OK
        assert "verified" in capsys.readouterr().out

    def test_replay_flags_doctored_report(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, base_config())
        out_path = str(tmp_path / "report.json")
        cli.main(["run", "--config", cfg_path, "--out", out_path])
        report = json.loads(open(out_path).read())
        report["sessions"][0]["value"] += 1  # config and hash left intact
        doctored = tmp_path / "doctored.json"
        doctored.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
        assert cli.main(["replay", "--report", str(doctored)]) == cli.EXIT_AUDIT_FAIL

    def test_replay_refuses_foreign_schema(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, base_config())
        out_path = str(tmp_path / "report.json")
        cli.main(["run", "--config", cfg_path, "--out", out_path])
        report = json.loads(open(out_path).read())
        report["schema"] = "someone-elses-format-v9"
        foreign = tmp_path / "foreign.json"
        foreign.write_text(json.dumps(report))
        assert cli.main(["replay", "--report", str(foreign)]) == cli.EXIT_PARSE_ERROR
        assert "refusing replay" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "report",
        [[1], {"schema": SCHEMA, "config": [1, 2], "config_hash": "0" * 64}],
        ids=["non_object_report", "non_object_config"],
    )
    def test_replay_rejects_non_object_input(self, tmp_path, capsys, report):
        path = tmp_path / "report.json"
        path.write_text(json.dumps(report))
        assert cli.main(["replay", "--report", str(path)]) == cli.EXIT_PARSE_ERROR
        assert "JSON object" in capsys.readouterr().err

    def test_replay_refuses_mismatched_config_hash(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, base_config())
        out_path = str(tmp_path / "report.json")
        cli.main(["run", "--config", cfg_path, "--out", out_path])
        report = json.loads(open(out_path).read())
        report["config"]["seed"] += 1  # no longer matches the recorded hash
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(report))
        assert cli.main(["replay", "--report", str(tampered)]) == cli.EXIT_PARSE_ERROR

    @pytest.mark.parametrize("command", ["run", "sweep", "replay"])
    def test_unlocalizable_failure_is_an_audit_failure(self, tmp_path, capsys, command):
        # A forged count above n passes every check but the BS's root count,
        # and on a star (or at a chain's leaf) neither ALS phase marks anyone.
        forge = {"node": 3, "kind": "label_forge", "params": {"count": 40000}, "sessions": [0]}
        star = {
            "seed": 1234,
            "sessions": 5,
            "topology": {"kind": "edges", "n": 3, "edges": [[0, 1], [1, 2], [1, 3]]},
            "adversary": {"faulty": [2, 3], "scripts": [{**forge, "node": 2}]},
        }
        if command == "run":
            argv = ["run", "--config", write_config(tmp_path, star)]
        elif command == "sweep":
            chain = {"seed": 1, "sessions": 2, "topology": {"kind": "chain", "n": 3},
                     "adversary": {"faulty": [3], "scripts": [forge]}}
            argv = ["sweep", "--template", write_config(tmp_path, chain), "--sizes", "3"]
        else:
            # A genuine report's shell around the star's config and hash.
            out_path = str(tmp_path / "report.json")
            cli.main(["run", "--config", write_config(tmp_path, base_config()), "--out", out_path])
            report = json.loads(open(out_path).read())
            report["config"] = star
            report["config_hash"] = Scenario.from_dict(star).hash()
            path = tmp_path / "star_report.json"
            path.write_text(json.dumps(report))
            argv = ["replay", "--report", str(path)]
        assert cli.main(argv) == cli.EXIT_AUDIT_FAIL
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["audit failed: session 0: aggregation failed but no node was marked"]

    @pytest.mark.parametrize("command", ["run", "sweep", "replay"])
    @pytest.mark.parametrize(
        "error, code, prefix",
        [(ConfigError, cli.EXIT_PARSE_ERROR, "config error"),
         (ProtocolViolation, cli.EXIT_AUDIT_FAIL, "audit failed"),
         (FrameError, cli.EXIT_AUDIT_FAIL, "audit failed"),
         (UnlocalizableFailure, cli.EXIT_AUDIT_FAIL, "audit failed")],
        ids=["config_error", "protocol_violation", "frame_error", "unlocalizable_failure"],
    )
    def test_typed_error_mid_run_is_one_line_and_no_report(
        self, tmp_path, capsys, monkeypatch, command, error, code, prefix
    ):
        cfg_path = write_config(tmp_path, base_config())
        report = str(tmp_path / "report.json")
        cli.main(["run", "--config", cfg_path, "--out", report])
        capsys.readouterr()

        def raising(scenario):
            raise error("raised mid-run")

        monkeypatch.setattr(orchestrator, "run_sessions", raising)
        out = str(tmp_path / "out.json")
        argv = {
            "run": ["run", "--config", cfg_path, "--out", out],
            "sweep": ["sweep", "--template", cfg_path, "--sizes", "20,30", "--out", out],
            "replay": ["replay", "--report", report],
        }[command]
        assert cli.main(argv) == code
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"{prefix}: raised mid-run"]
        assert captured.out == ""
        assert not (tmp_path / "out.json").exists()

    def test_sweep_empty_sizes_is_a_noop(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, base_config())
        assert cli.main(["sweep", "--template", cfg_path, "--sizes", ""]) == cli.EXIT_OK

    def test_sweep_emits_cost_table(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, base_config(sessions=2))
        out_path = str(tmp_path / "sweep.json")
        code = cli.main(
            ["sweep", "--template", cfg_path, "--sizes", "24,40", "--out", out_path]
        )
        assert code == cli.EXIT_OK
        table = json.loads(open(out_path).read())
        assert [p["n"] for p in table["points"]] == [24, 40]
        assert table["cost_audit"]["pass"]

    def test_sweep_rejects_duplicate_sizes(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, base_config(sessions=2))
        code = cli.main(["sweep", "--template", cfg_path, "--sizes", "24,24"])
        assert code == cli.EXIT_PARSE_ERROR
        assert "duplicate network size" in capsys.readouterr().err

    def test_sweep_rejects_zero_sessions(self, tmp_path, capsys):
        # Each point reads its tree's shape off a session; with none there
        # is nothing to read, which is the template's fault, not an audit's.
        cfg_path = write_config(tmp_path, base_config(sessions=0))
        code = cli.main(["sweep", "--template", cfg_path, "--sizes", "24,40"])
        assert code == cli.EXIT_PARSE_ERROR
        captured = capsys.readouterr()
        assert captured.err == "config error: sweep needs at least one session per point\n"
        assert captured.out == ""

    @pytest.mark.parametrize("sessions", [False, 0.0], ids=["false", "float"])
    def test_sweep_names_a_non_integer_session_count(self, tmp_path, capsys, sessions):
        # Zero-like values that are not integers fail validation, not the
        # sweep's own session check.
        cfg_path = write_config(tmp_path, base_config(sessions=sessions))
        code = cli.main(["sweep", "--template", cfg_path, "--sizes", "24,40"])
        assert code == cli.EXIT_PARSE_ERROR
        err = capsys.readouterr().err
        assert err == "config error: at n=24: sessions must be an integer in 0..65536\n"

    @pytest.mark.parametrize(
        "topology",
        [
            {"kind": "grid", "rows": 4, "cols": 5},
            {"kind": "edges", "n": 3, "edges": [[0, 1], [1, 2], [2, 3]]},
        ],
        ids=["grid", "edges"],
    )
    def test_sweep_rejects_topology_not_sized_by_n(self, tmp_path, capsys, topology):
        cfg_path = write_config(tmp_path, base_config(sessions=2, topology=topology))
        code = cli.main(["sweep", "--template", cfg_path, "--sizes", "50,100"])
        assert code == cli.EXIT_PARSE_ERROR
        assert "sized by n" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "topology, needs",
        [
            ({"kind": "geometric", "n": 0, "d_max": 6}, "geometric topology needs n >= 1"),
            ({"kind": "geometric", "n": -3, "d_max": 6}, "geometric topology needs n >= 1"),
            ({"kind": "grid", "rows": 0, "cols": 5}, "grid topology needs rows >= 1 and cols >= 1"),
            ({"kind": "grid", "rows": -1, "cols": -5}, "grid topology needs rows >= 1 and cols >= 1"),
            ({"kind": "chain", "n": 0}, "chain topology needs n >= 1"),
            ({"kind": "chain", "n": -3}, "chain topology needs n >= 1"),
            ({"kind": "edges", "n": 0, "edges": []}, "edges topology needs n >= 1"),
        ],
        ids=["0", "-3", "grid_0x5", "grid_-1x-5", "chain_0", "chain_-3", "edges_0"],
    )
    def test_geometric_without_sensors_is_a_config_error(self, tmp_path, capsys, topology, needs):
        # Every kind checks its size once, before any graph is built.
        cfg_path = write_config(tmp_path, base_config(topology=topology))
        assert cli.main(["run", "--config", cfg_path]) == cli.EXIT_PARSE_ERROR
        assert capsys.readouterr().err == f"config error: {needs}\n"

    def test_run_computes_its_audits_once(self, tmp_path, capsys, monkeypatch):
        calls = []
        audits = orchestrator.RunResult.audits

        def counted(self):
            calls.append(self)
            return audits(self)

        monkeypatch.setattr(orchestrator.RunResult, "audits", counted)
        cfg_path = write_config(tmp_path, base_config())
        assert cli.main(["run", "--config", cfg_path]) == cli.EXIT_OK
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "field, value",
        [
            ("sessions", 2.5),
            ("sessions", -2),
            ("sessions", 65537),
            ("sessions", True),
            ("seed", "abc"),
            ("seed", 1.5),
            ("seed", True),
        ],
    )
    def test_bad_seed_or_sessions_is_a_config_error(self, tmp_path, capsys, field, value):
        cfg_path = write_config(tmp_path, base_config(**{field: value}))
        assert cli.main(["run", "--config", cfg_path]) == cli.EXIT_PARSE_ERROR
        assert f"config error: {field} must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_geometric_bs_takes_the_slot_of_an_extra_link(self, tmp_path, capsys, seed):
        # Three sensors at d_max 2 close a triangle, so no sensor has a free
        # slot: the one nearest the BS drops its extra link for the BS.
        topology = {"kind": "geometric", "n": 3, "d_max": 2}
        graph = build_graph(topology, seed)
        assert len(graph.neighbors(BS_ID)) == 1
        assert len(graph.edges) == 3  # a sensor path of two links plus the BS link
        cfg_path = write_config(tmp_path, {"seed": seed, "sessions": 1, "topology": topology})
        assert cli.main(["run", "--config", cfg_path]) == cli.EXIT_OK

    @pytest.mark.parametrize(
        "topology, message",
        [
            ([1], "topology must be an object"),
            ({"kind": "grid", "cols": 3}, "grid topology needs an integer 'rows'"),
            ({"kind": "chain", "n": "5"}, "chain topology needs an integer 'n'"),
            ({"kind": "geometric", "n": 10, "d_max": True}, "geometric topology needs an integer 'd_max'"),
            ({"kind": "edges", "n": 2, "edges": [[0, 1], [1]]}, "edges must be a list"),
            ({"kind": "edges", "n": 2, "edges": {"0": 1}}, "edges must be a list"),
            ({"kind": "chain", "n": 65536}, "65536 sensors exceed the u16 node id limit"),
            ({"kind": "grid", "rows": 300, "cols": 300}, "90000 sensors exceed"),
            ({"kind": "geometric", "n": 65536, "d_max": 6}, "65536 sensors exceed"),
        ],
        ids=[
            "list", "grid_no_rows", "chain_str_n", "bool_d_max", "short_edge",
            "edges_not_list", "chain_65536", "grid_300x300", "geometric_65536",
        ],
    )
    def test_malformed_topology_is_a_config_error(self, tmp_path, capsys, topology, message):
        cfg_path = write_config(tmp_path, base_config(topology=topology))
        assert cli.main(["run", "--config", cfg_path]) == cli.EXIT_PARSE_ERROR
        assert f"config error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("loop", [[1, 1], [0, 0]], ids=["sensor", "bs"])
    def test_self_loop_edge_is_a_config_error(self, tmp_path, capsys, loop):
        # Unchecked, a sensor self-loop lists node 1 twice among its own
        # neighbors, and a BS self-loop reads as a disconnected graph.
        topology = {"kind": "edges", "n": 2, "d_max": 6, "edges": [loop, [0, 1], [1, 2]]}
        cfg_path = write_config(tmp_path, base_config(topology=topology))
        assert cli.main(["run", "--config", cfg_path]) == cli.EXIT_PARSE_ERROR
        a, b = loop
        assert f"config error: edge ({a}, {b}) is a self-loop" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (scripted({"kind": "label_drop"}), "each adversary script needs an integer node"),
            (
                scripted({"node": 2, "kind": "label_drop", "params": [1]}),
                "each adversary script needs an integer node",
            ),
            ({"fixed_values": {"3": "50"}}, "fixed value for node 3 must be an integer"),
            ({"value_range": [1]}, "value_range must be a list of two integers"),
            ({"value_range": [0, 2**64]}, "value_range and label_forge values overflow an i64"),
            (
                scripted({"node": 2, "kind": "label_forge", "params": {"count": 70000}}),
                "sensors plus label_forge counts exceed the u16 label count limit 65535",
            ),
            (
                scripted({"node": 2, "kind": "label_forge", "params": {"value": 2**64}}),
                "value_range and label_forge values overflow an i64",
            ),
            (
                {
                    # Two sibling forgers whose counts each fit u16 but whose
                    # parent's sum does not.
                    "topology": {"kind": "edges", "n": 3, "edges": [[0, 1], [1, 2], [1, 3]]},
                    **scripted(
                        *[
                            {"node": v, "kind": "label_forge", "params": {"count": 40000, "value": 0}}
                            for v in (2, 3)
                        ],
                        faulty=[2, 3],
                    ),
                },
                "sensors plus label_forge counts exceed the u16 label count limit",
            ),
            ({"fixed_values": {"x": 5}}, "fixed_values key 'x' is not a node id"),
            ({"fixed_values": {"1_0": 5}}, "fixed_values key '1_0' is not a node id"),
            ({"fixed_values": {"999": 5}}, "fixed_values key '999' is not a node id"),
            ({"fixed_values": {"1": 5, "01": 6}}, "fixed_values key '01' is not a node id"),
            ({"accept_on_als2": "false"}, "accept_on_als2 must be a boolean"),
            ({"adversary": [2]}, "adversary must be an object"),
            ({"adversary": {"faulty": 2}}, "adversary faulty must be a list of integer node ids"),
            ({"adversary": {"faulty": [2], "scripts": {"node": 2}}}, "adversary scripts must be a list"),
            (
                scripted({"node": 2, "kind": "own_value_forge", "params": {"value": "5"}}),
                "own_value_forge must supply a value inside the measurement range",
            ),
            (
                scripted({"node": 2, "kind": "label_forge", "params": {"value_add": "5"}}),
                "label_forge needs a non-negative integer count and integer value and value_add",
            ),
            # The BS is never a sensor, so it cannot be faulty.
            ({"adversary": {"faulty": [0, 3]}}, "faulty set contains unknown nodes"),
            (scripted({"node": 4, "kind": "label_drop"}, faulty=[3]), "script targets correct node 4"),
            (scripted({"node": 3, "kind": "spoon_bend"}, faulty=[3]), "unknown adversary action 'spoon_bend'"),
            (
                scripted({"node": 3, "kind": "parent_switch", "params": {"target": 9}}, faulty=[3]),
                "parent_switch target must be another faulty node",
            ),
            (
                scripted({"node": 3, "kind": "parent_switch", "params": {"target": 3}}, faulty=[3, 9]),
                "parent_switch target must be another faulty node",
            ),
            # Each of these was ignored, and the run went on without it.
            ({"art": "resilient"}, "unknown config key 'art'; config takes seed, sessions, topology,"),
            ({"acept_on_als2": True}, "unknown config key 'acept_on_als2'"),
            (
                {"adversary": {"faulty": [2], "scirpts": []}},
                "unknown adversary key 'scirpts'; adversary takes faulty, scripts",
            ),
            (
                {"topology": {"kind": "grid", "rows": 4, "cols": 5, "d_max": 2}},
                "unknown grid topology key 'd_max'; grid topology takes kind, rows, cols",
            ),
            ({"topology": {"kind": "chain", "n": 20, "d_max": 3}}, "unknown chain topology key 'd_max'"),
            (
                {"topology": {"kind": "geometric", "n": 20, "d_max": 6, "rows": 4}},
                "unknown geometric topology key 'rows'",
            ),
            (
                {"topology": {"kind": "edges", "n": 2, "edges": [[0, 1], [1, 2]], "cols": 2}},
                "unknown edges topology key 'cols'; edges topology takes kind, n, edges, d_max",
            ),
        ],
        ids=[
            "script_without_node", "list_params", "string_fixed_value", "short_value_range",
            "value_range_beyond_i64", "forged_count_beyond_u16", "forged_value_beyond_i64",
            "forged_counts_summing_beyond_u16", "fixed_value_key", "fixed_value_key_underscore",
            "fixed_value_key_unknown", "fixed_value_key_leading_zero", "accept_on_als2_string",
            "adversary_list", "faulty_int",
            "scripts_object", "own_value_string", "value_add_string",
            "bs_faulty", "correct_node", "unknown_kind", "switch_target", "switch_self",
            "config_key", "config_key_accept", "adversary_key", "grid_key", "chain_key",
            "geometric_key", "edges_key",
        ],
    )
    def test_malformed_values_and_scripts_are_config_errors(self, tmp_path, capsys, overrides, message):
        cfg = json.loads((SCENARIOS / "grid_clean.json").read_text())
        cfg.update(overrides)
        cfg_path = write_config(tmp_path, cfg)
        assert cli.main(["run", "--config", cfg_path]) == cli.EXIT_PARSE_ERROR
        assert f"config error: {message}" in capsys.readouterr().err

    def test_colluding_fake_link_is_dropped_not_a_traceback(self, tmp_path, capsys):
        # A mutually announced link that is no graph edge stays out of the
        # resilient tree, so no session sends over it.
        cfg_path = write_config(tmp_path, COLLUDING_NL_FAKE)
        out_path = tmp_path / "report.json"
        assert cli.main(["run", "--config", cfg_path, "--out", str(out_path)]) == cli.EXIT_OK
        report = json.loads(out_path.read_text())
        assert report["audits"]["all_pass"]
        assert [s["verdict"] for s in report["sessions"]] == ["success"] * 3

    def test_parent_switch_between_faulty_nodes_validates(self):
        # Validation parses each script once; every run reads these entries.
        cfg = json.loads((SCENARIOS / "grid_clean.json").read_text())
        cfg.update(scripted({"node": 3, "kind": "parent_switch", "params": {"target": 9}}, faulty=[3, 9]))
        sc = Scenario.from_dict(cfg)
        assert sc.faulty == frozenset({3, 9})
        assert sc.scripts == [ScriptEntry(3, "parent_switch", {"target": 9}, None)]

    def test_forgers_in_disjoint_sessions_are_bounded_per_session(self, tmp_path, capsys):
        # Two forgers whose counts would overflow u16 in one label, but
        # never in the same session: no label sums both, so the config runs.
        cfg = json.loads((SCENARIOS / "grid_clean.json").read_text())
        cfg.update(
            scripted(
                *[
                    {"node": v, "kind": "label_forge", "params": {"count": 40000}, "sessions": [t]}
                    for v, t in ((2, 0), (3, 1))
                ],
                faulty=[2, 3],
            )
        )
        cfg_path = write_config(tmp_path, cfg)
        assert cli.main(["run", "--config", cfg_path]) == cli.EXIT_OK
        assert "config error" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (
                {
                    "topology": {"kind": "chain", "n": 5},
                    **scripted(
                        {"node": 2, "kind": "parent_switch", "params": {"target": {"a": 1}}},
                        faulty=[2, 3],
                    ),
                },
                "parent_switch target must be an integer node id",
            ),
            (
                {
                    "topology": {"kind": "chain", "n": 5},
                    "atr": "resilient",
                    **scripted({"node": 2, "kind": "nl_fake", "params": {"add": [70000]}}),
                },
                "nl_fake add must be a list of node ids in 0..65535",
            ),
            (
                {
                    "topology": {"kind": "chain", "n": 5},
                    "atr": "resilient",
                    **scripted({"node": 2, "kind": "nl_fake", "params": {"add": ["x"]}}),
                },
                "nl_fake add must be a list of node ids in 0..65535",
            ),
            (
                scripted(
                    {"node": 3, "kind": "ack_garble"},
                    {"node": 2, "kind": "confirm_tamper", "params": {"slot": "a"}},
                    faulty=[2, 3],
                ),
                "confirm_tamper slot must be an integer",
            ),
            (
                scripted(
                    {"node": 3, "kind": "ack_garble"},
                    {"node": 2, "kind": "ack_report_forge", "params": {"slot": "a"}},
                    faulty=[2, 3],
                ),
                "ack_report_forge slot must be an integer",
            ),
        ],
        ids=["switch_target_object", "nl_fake_id_beyond_u16", "nl_fake_id_string",
             "confirm_slot_string", "report_slot_string"],
    )
    def test_malformed_script_params_are_config_errors(self, tmp_path, capsys, overrides, message):
        # Each of these was a traceback (exit 1) from inside a protocol phase.
        cfg = json.loads((SCENARIOS / "grid_clean.json").read_text())
        cfg.update(overrides)
        cfg_path = write_config(tmp_path, cfg)
        assert cli.main(["run", "--config", cfg_path]) == cli.EXIT_PARSE_ERROR
        assert f"config error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "script, message",
        [
            # Exited 0: "session" was ignored, so the forgery fired in every
            # session from session 0, and its misspelt count was dropped.
            (
                {"node": 7, "kind": "label_forge", "session": [2], "params": {"cuont": 40000}},
                "unknown adversary script key 'session'",
            ),
            (
                {"node": 7, "kind": "label_forge", "sessions": [2], "params": {"cuont": 40000}},
                "unknown label_forge param 'cuont'; label_forge takes count, value, value_add",
            ),
            (
                {"node": 7, "kind": "own_value_forge", "params": {"value": 5, "count": 2}},
                "unknown own_value_forge param 'count'",
            ),
            (
                {"node": 7, "kind": "parent_switch", "params": {"target": 7, "slot": 0}},
                "unknown parent_switch param 'slot'",
            ),
            (
                {"node": 7, "kind": "confirm_tamper", "params": {"add": []}},
                "unknown confirm_tamper param 'add'",
            ),
            (
                {"node": 7, "kind": "ack_report_forge", "params": {"target": 7}},
                "unknown ack_report_forge param 'target'",
            ),
            (
                {"node": 7, "kind": "nl_fake", "params": {"add": [], "value": 1}},
                "unknown nl_fake param 'value'",
            ),
            (
                {"node": 7, "kind": "offpath_corrupt", "params": {"slot": 1}},
                "unknown offpath_corrupt param 'slot'; offpath_corrupt takes no params",
            ),
        ],
        ids=["typo_entry_key", "typo_count", "own_value", "parent_switch", "confirm_tamper",
             "ack_report_forge", "nl_fake", "no_params"],
    )
    def test_unknown_script_keys_are_config_errors(self, tmp_path, capsys, script, message):
        cfg = json.loads((SCENARIOS / "grid_clean.json").read_text())
        cfg.update(scripted(script, faulty=[7]))
        cfg_path = write_config(tmp_path, cfg)
        assert cli.main(["run", "--config", cfg_path]) == cli.EXIT_PARSE_ERROR
        assert f"config error: {message}" in capsys.readouterr().err


# Boundary fuzz: mutated configs and tampered reports end in an exit code,
# never in a traceback.
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 12)
    | st.floats()
    | st.text(max_size=4)
    # Past the u16 and i64 limits, so their checks run without a huge network.
    | st.sampled_from([2**16 + 1, 2**32, 2**63, -(2**63) - 1]),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=6,
)
FUZZ_BASES = [
    json.loads((SCENARIOS / "geometric_forger.json").read_text()),
    {
        "seed": 5,
        "sessions": 3,
        "atr": "resilient",
        "topology": {"kind": "edges", "n": 5, "edges": [[0, 1], [0, 2], [1, 3], [2, 4], [3, 5], [4, 5]]},
        "adversary": {
            "faulty": [3, 4],
            "scripts": [
                {"node": 3, "kind": "nl_fake", "params": {"add": [2]}},
                {"node": 4, "kind": "ack_garble", "sessions": [1]},
            ],
        },
    },
    COLLUDING_NL_FAKE,
]


def _json_paths(value, path=()):
    """The key path of every value nested in `value`."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield (*path, key)
        yield from _json_paths(child, (*path, key))


def _mutate(data, value):
    """A copy of `value` with one to three nested values replaced or deleted."""
    value = copy.deepcopy(value)
    for _ in range(data.draw(st.integers(1, 3))):
        paths = list(_json_paths(value))
        if not paths:
            break
        *where, key = data.draw(st.sampled_from(paths))
        container = value
        for k in where:
            container = container[k]
        if data.draw(st.booleans()):
            container[key] = data.draw(JSON_VALUES)
        else:
            del container[key]
    return value


def assert_one_stderr_line(code, err):
    """A command's stderr is empty or one line, and an exit 2 says why."""
    assert err == "" or (err.endswith("\n") and err.count("\n") == 1), err
    if code == cli.EXIT_PARSE_ERROR:
        assert err.startswith("config error: "), err


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_mutated_configs_end_in_an_exit_code(fuzz_dir, data):
    path = fuzz_dir / "mutated.json"
    path.write_text(json.dumps(_mutate(data, data.draw(st.sampled_from(FUZZ_BASES)))))
    with contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.main(["run", "--config", str(path), "--out", str(fuzz_dir / "report.json")])
    # Exit 1 stays possible while some failed sessions mark no one.
    assert code in (cli.EXIT_OK, cli.EXIT_AUDIT_FAIL, cli.EXIT_PARSE_ERROR, cli.EXIT_DISCONNECTED)
    assert_one_stderr_line(code, err.getvalue())


@pytest.fixture(scope="module")
def genuine_report(fuzz_dir):
    path = fuzz_dir / "genuine.json"
    config = str(SCENARIOS / "geometric_forger.json")
    assert cli.main(["run", "--config", config, "--out", str(path)]) == cli.EXIT_OK
    return path.read_bytes()


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_tampered_reports_are_refused_or_divergent(fuzz_dir, genuine_report, data):
    raw = genuine_report
    how = data.draw(st.sampled_from(["flip", "truncate", "mutate"]))
    if how == "flip":
        i = data.draw(st.integers(0, len(raw) - 1))
        raw = raw[:i] + bytes([raw[i] ^ data.draw(st.integers(1, 255))]) + raw[i + 1 :]
    elif how == "truncate":
        raw = raw[: data.draw(st.integers(0, len(raw) - 1))]
    else:
        raw = (json.dumps(_mutate(data, json.loads(raw)), sort_keys=True, indent=2) + "\n").encode()
        assume(raw != genuine_report)
    path = fuzz_dir / "tampered.json"
    path.write_bytes(raw)
    with contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.main(["replay", "--report", str(path)])
    assert code in (cli.EXIT_AUDIT_FAIL, cli.EXIT_PARSE_ERROR)
    assert_one_stderr_line(code, err.getvalue())
