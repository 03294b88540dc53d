"""Golden outputs: reports and a sweep table generated at a reference build.

These guard output across builds (replay only compares within one build).
Reports must regenerate byte-for-byte; the sweep's fitted slope and
intercept may move in the last bits between regression routines.
"""

import json
from pathlib import Path

import pytest

from robustagg import cli, orchestrator
from robustagg.scenario import Scenario, load_config

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
SCENARIOS = ROOT / "scenarios"
# Each config's golden sits at the same path under tests/golden/; long/
# holds the long runs (README's table of pinned runs).
CONFIGS = [
    p.relative_to(SCENARIOS)
    for pattern in ("*.json", "long/*.json")
    for p in sorted(SCENARIOS.glob(pattern))
]


@pytest.mark.parametrize("rel", CONFIGS, ids=lambda p: p.with_suffix("").as_posix())
def test_report_matches_golden(rel, tmp_path):
    path = SCENARIOS / rel
    golden = (GOLDEN / rel).read_text(encoding="utf-8")
    report = cli.render_report(orchestrator.run_sessions(Scenario.from_dict(load_config(str(path)))))
    assert report == golden
    out = tmp_path / "report.json"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == cli.EXIT_OK
    assert out.read_text(encoding="utf-8") == golden


def test_edges_run_fires_the_hooks_no_other_pinned_run_fires(monkeypatch):
    # A regenerated golden must not lose this coverage: the BS child drops
    # its label (run_shia's return with no root label), and ALS I and ALS II
    # each meet a forging or silent faulty node.
    advs = []
    real = Scenario.build_adversary
    monkeypatch.setattr(Scenario, "build_adversary", lambda self: advs.append(real(self)) or advs[-1])
    config = load_config(str(SCENARIOS / "long" / "edges23_localization_hooks.json"))
    assert config["topology"]["kind"] == "edges"
    result = orchestrator.run_sessions(Scenario.from_dict(config))
    assert result.audits()["all_pass"] and not result.disconnected
    (adv,) = advs
    kinds = {e.kind for e in adv.trace}
    assert {"label_drop", "confirm_tamper", "ack_report_forge", "report_drop"} <= kinds
    assert any(
        e.kind == "label_drop"
        and e.node == result.records[e.session].tree.bs_child
        and result.records[e.session].shia_result.root_label is None
        for e in adv.trace
    )


# Script entries a pinned run keeps that never fire, each with its reason.
# `own_value_forge` is a reading, never a traced deviation, so it is not
# listed.
SILENT = {
    ("geometric400_resilient.json", 333, "ack_report_forge"): "a leaf of session 2's tree; ALS II skips leaves",
    ("long/geometric400_resilient_salvage.json", 333, "ack_report_forge"): "as in geometric400_resilient.json",
    ("long/grid_clean_quiet.json", 17, "offpath_corrupt"): "a leaf never forwards a blob, which the config pins",
}


@pytest.mark.parametrize("rel", CONFIGS, ids=lambda p: p.with_suffix("").as_posix())
def test_every_pinned_script_fires(rel, monkeypatch):
    # A config whose script never acts pins less than its README row says.
    advs = []
    real = Scenario.build_adversary
    monkeypatch.setattr(Scenario, "build_adversary", lambda self: advs.append(real(self)) or advs[-1])
    scenario = Scenario.from_dict(load_config(str(SCENARIOS / rel)))
    orchestrator.run_sessions(scenario)
    (adv,) = advs
    fired = {(e.node, e.kind) for e in adv.trace}
    scripted = {(e.node, e.kind) for e in scenario.scripts if e.kind != "own_value_forge"}
    silent = {(node, kind) for (path, node, kind) in SILENT if path == rel.as_posix()}
    assert scripted - fired == silent


def test_sweep_matches_golden(tmp_path):
    out = tmp_path / "sweep.json"
    template = str(SCENARIOS / "sweep_template.json")
    code = cli.main(["sweep", "--template", template, "--sizes", "50,100,200,400", "--out", str(out)])
    assert code == cli.EXIT_OK
    table = json.loads(out.read_text(encoding="utf-8"))
    golden = json.loads((GOLDEN / "sweep_50_100_200_400.json").read_text(encoding="utf-8"))
    assert table["points"] == golden["points"]
    audit, expected = table.pop("cost_audit"), golden.pop("cost_audit")
    for key in ("slope", "intercept"):
        assert audit.pop(key) == pytest.approx(expected.pop(key), rel=1e-12)
    assert audit == expected
    assert table == golden
