"""The package runs on the standard library alone, and a run loads only
what it executes.

One subprocess blocks numpy (the last third-party import the package had),
then runs a scenario and a two-size sweep through the CLI.  Another runs a
scenario and checks which costly stdlib modules it loaded.  Three more scan
the package's source: for imports that nothing reads, for definitions that
no run path or bench script reads, and for dunder methods without a
run-path reason.  A last one checks that every function the benchmark's
tracer wraps still exists.
"""

import ast
import importlib
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


# Each costs time to import and a run needs none: `dataclasses` pulls in
# `inspect`, `statistics` (which only a sweep's fit uses) pulls in `fractions`
# and `decimal`, and a config is copied one level deep, never with `copy`.
UNNEEDED = ("dataclasses", "inspect", "statistics", "fractions", "decimal", "copy")

IMPORTS_SCRIPT = """
import json, sys
before = set(sys.modules)
sys.path.insert(0, {src!r})
from robustagg import cli, orchestrator
from robustagg.scenario import Scenario, load_config
scenario = Scenario.from_dict(load_config({scenario!r}))
report = cli.render_report(orchestrator.run_sessions(scenario))
loaded = sorted(set({unneeded!r}) & (set(sys.modules) - before))
sweep = cli.main(["sweep", "--template", {template!r}, "--sizes", "50,100", "--out", {table!r}])
print(json.dumps([loaded, json.loads(report)["audits"]["all_pass"], sweep]))
"""


def test_run_loads_no_unneeded_modules(tmp_path):
    script = IMPORTS_SCRIPT.format(
        src=str(ROOT / "src"),
        scenario=str(ROOT / "scenarios" / "grid_clean.json"),
        unneeded=UNNEEDED,
        template=str(ROOT / "scenarios" / "sweep_template.json"),
        table=str(tmp_path / "sweep.json"),
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    loaded, run_ok, sweep = json.loads(proc.stdout)
    assert loaded == []
    assert run_ok is True
    assert sweep == 0  # the sweep still imports `statistics` and fits its line


def test_src_imports_are_all_read():
    # An import that nothing reads is dead weight, and a refactor that stops
    # using a name tends to leave its import behind.  A name read only in a
    # quoted annotation counts as unread.
    unread = []
    for path in sorted((ROOT / "src" / "robustagg").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    bound[name] = node.lineno
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        unread += [f"{path.name}:{line} {name}" for name, line in bound.items() if name not in read]
    assert unread == []


# Definitions kept although nothing in `src/robustagg` or `bench/` reads them.
KEPT_UNREAD = {
    "link_key": "KeyStore.link_key: link keys stay in the model; the link MAC is only charged",
    "node_views": "AtrOutcome.node_views: each node's view of a rebuild, acceptance criterion 8",
    "unreached": "AtrOutcome.unreached: the members a rebuild lost, acceptance criterion 8",
}


def test_src_definitions_are_all_read():
    # A function, class or method that no run path and no bench script reads
    # is dead code.  A read is a loaded name or attribute, an import, or a
    # string constant (bench/tracing.py names what it wraps in strings), so
    # a test-only caller does not keep a definition alive.
    defined: dict[str, str] = {}
    read: set[str] = set()
    src = sorted((ROOT / "src" / "robustagg").glob("*.py"))
    for path in src + sorted((ROOT / "bench").glob("*.py")):
        in_src = path.parent.name == "robustagg"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if in_src and isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.setdefault(node.name, f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name.rpartition(".")[2])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.update(node.value.split("."))
    dunder = {name for name in defined if name.startswith("__") and name.endswith("__")}
    unread = [
        f"{where} {name}"
        for name, where in defined.items()
        if name not in read | dunder | KEPT_UNREAD.keys()
    ]
    assert unread == []
    assert set(KEPT_UNREAD) <= set(defined)  # an entry whose definition is gone goes too


# Every dunder method `src/robustagg` defines, other than `__init__`, with
# the run path that calls it.
RUN_PATH_DUNDERS = {
    "Offpath.__len__": "the link charge reads len() of a payload, an off-path blob's too",
}


def test_src_dunders_all_have_a_run_path_reason():
    # The interpreter calls a dunder implicitly, so the read scan above
    # skips them; an `__eq__`, `__hash__` or `__repr__` that only tests call
    # would go unnoticed there.
    defined = set()
    for path in sorted((ROOT / "src" / "robustagg").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owners = [(None, tree)] + [(n.name, n) for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
        for owner, node in owners:
            for fn in node.body:
                if not isinstance(fn, ast.FunctionDef) or fn.name == "__init__":
                    continue
                if fn.name.startswith("__") and fn.name.endswith("__"):
                    defined.add(f"{owner}.{fn.name}" if owner else fn.name)
    assert defined == set(RUN_PATH_DUNDERS)


# Benchmark wrappers whose target `src/robustagg` no longer defines: the
# tracer lists each under `missing` and its metrics read zero.
MISSING_TRACE_TARGETS = {
    "shia.offpath_to_bytes": "the off-path byte codec is gone; the benchmark drops the wrapper",
    "shia.offpath_from_bytes": "the off-path byte codec is gone; the benchmark drops the wrapper",
}


def test_every_traced_target_exists():
    # `bench/run.py --trace` only warns about a target it cannot wrap, and
    # that target's per-layer metrics silently read zero.
    tree = ast.parse((ROOT / "bench" / "tracing.py").read_text(encoding="utf-8"))
    tables = {
        node.targets[0].id: node.value.elts
        for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
    }
    missing = set()
    for row in tables["SPAN_TARGETS"] + tables["COUNT_TARGETS"]:
        owner, attr = row.elts[0].value, row.elts[1].value
        module, _, cls = owner.partition(".")
        obj = importlib.import_module(f"robustagg.{module}")
        if not hasattr(getattr(obj, cls) if cls else obj, attr):
            missing.add(f"{owner}.{attr}")
    assert missing == set(MISSING_TRACE_TARGETS)
