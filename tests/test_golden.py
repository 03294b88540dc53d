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
SCENARIOS = sorted((ROOT / "scenarios").glob("*.json"))


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
def test_report_matches_golden(path, tmp_path):
    golden = (GOLDEN / path.name).read_text(encoding="utf-8")
    report = cli.render_report(orchestrator.run_sessions(Scenario.from_dict(load_config(str(path)))))
    assert report == golden
    out = tmp_path / "report.json"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == cli.EXIT_OK
    assert out.read_text(encoding="utf-8") == golden


def test_sweep_matches_golden(tmp_path):
    out = tmp_path / "sweep.json"
    template = str(ROOT / "scenarios" / "sweep_template.json")
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
