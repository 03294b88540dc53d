"""The package runs on the standard library alone.

A subprocess blocks numpy (the last third-party import the package had),
then runs a scenario and a two-size sweep through the CLI.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json, sys
sys.modules["numpy"] = None  # any `import numpy` now raises ImportError
sys.path.insert(0, {src!r})
from robustagg import cli
run = cli.main(["run", "--config", {scenario!r}, "--out", {report!r}])
sweep = cli.main(["sweep", "--template", {template!r}, "--sizes", "50,100", "--out", {table!r}])
print(json.dumps([run, sweep]))
"""


def test_cli_runs_with_numpy_blocked(tmp_path):
    script = SCRIPT.format(
        src=str(ROOT / "src"),
        scenario=str(ROOT / "scenarios" / "grid_clean.json"),
        report=str(tmp_path / "report.json"),
        template=str(ROOT / "scenarios" / "sweep_template.json"),
        table=str(tmp_path / "sweep.json"),
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0, 0]
