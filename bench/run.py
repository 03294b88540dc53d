"""robustagg benchmark: one workload, one seed, one closed-loop run.

    python3 bench/run.py --workload honest_grid --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports the program from `src/`.
A single thread runs one scenario after another (closed loop, one caller),
as `robustagg run`, `sweep` and the acceptance corpus do.

One operation is one scenario run: `orchestrator.run_sessions` plus
`cli.render_report`.  A pass runs every scenario of the workload once.
Every operation's output is checked; it fails if it raises, if its report's
`audits.all_pass` is false, or, on a pinned seed, if the SHA-256 of its
report differs from `pinned.json`.  On a pinned seed the workload's
simulated totals (sessions, failures, ledger bytes, max congestion) must
match too.

`--trace 0` reports the end-to-end metrics from unmodified code:

- `run_s`: median seconds of a pass, over the passes that fit in
  `--seconds` after a warm-up pass;
- `setup_s`: median, over five fresh interpreters, of the seconds from the
  start of `import robustagg.cli` (numpy included) to validated scenarios;
- `node_sessions_per_s`: the tree sizes summed over a pass's sessions,
  divided by `setup_s + run_s`;
- `peak_rss_mb`: this process's high-water resident set.

Times are steady times (speed.py): wall time rescaled by the speed of a
fixed reference work unit sampled every 2 ms during the run, because on a
host shared with other tenants the wall time of identical runs varies by
up to 2x.  The raw wall medians
are printed and kept in the summary alongside.

`--trace 1` first runs the microbenchmarks and a few untraced passes, then
installs the wrappers of `tracing.py` and repeats "validate every scenario,
then run a pass" under tracing.  It reports per-layer times (median over
the traced iterations), counts (which must repeat exactly across them) and
the tracing overhead.  Spans go to `.bench_out/trace_<workload>.tsv`.

The last line of standard output is the result object; the lines before it
give the same numbers by name with their units, sample counts and the
environment stamp.  A summary also goes to `.bench_out/`.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads
from speed import SpeedSampler

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
PINNED = BENCH_DIR / "pinned.json"

DEFAULT_SEED = 1
HELD_OUT_SEED = 2
SETUP_PROBES = 5
MIN_TIMED_PASSES = 3
MIN_TRACED_ITERATIONS = 2

END_TO_END_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "node_sessions_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics, in report order, named `<module>.<function>.<unit>`.
# From spans: `.s` is total span time, `.self_s` span time minus child
# spans, `.calls` the span count.
SPAN_METRICS = [
    "shia.run_shia.s",
    "shia.internal_label.calls",
    "shia.internal_label.s",
    "shia.recompute_root.s",
    "shia.offpath_to_bytes.s",
    "shia.offpath_from_bytes.s",
    "scenario.build_graph.s",
    "scenario.build_graph.calls",
    "scenario.validate.s",
    "atr.atr_resilient_init.s",
    "atr.atr_basic.s",
    "atr.atr_resilient_build.s",
    "atr.build_initial_tree.s",
    "als.als1_collect.s",
    "als.als1_collect.calls",
    "als.als1_process.s",
    "als.als1_process.calls",
    "als.als2_collect.s",
    "als.als2_collect.calls",
    "als.als2_process.s",
    "als.als2_process.calls",
    "orchestrator.run_sessions.self_s",
    "crypto.KeyStore.register.s",
    "cli.render_report.s",
]
COUNT_METRICS = [
    "shia.Label.to_bytes.calls",
    "shia.Label.from_bytes.calls",
    "wire.frame.calls",
    "wire.frame.bytes",
    "wire.unframe.calls",
    "crypto.hash_bytes.calls",
    "crypto.mac.calls",
    "crypto.xor_acks.calls",
    "netmodel.CongestionLedger.charge.calls",
    "netmodel.Network.send_link.calls",
    "netmodel.ledger.bytes",
    "adversary.Adversary.action.calls",
]
MICRO_METRICS = [
    "wire.frame.label.ns",
    "wire.frame.offpath.ns",
    "wire.unframe.label.ns",
    "wire.unframe.offpath.ns",
    "crypto.mac.ns",
    "crypto.hash_bytes.ns",
    "crypto.xor_acks.ns",
    "shia.Label.to_bytes.ns",
    "shia.Label.from_bytes.ns",
]
TRACE_METRICS = ["trace.overhead.ratio"]


PER_LAYER_METRICS = SPAN_METRICS + COUNT_METRICS + MICRO_METRICS + TRACE_METRICS
SUFFIX_UNITS = {"s": "s", "self_s": "s", "calls": "count", "bytes": "bytes", "ns": "ns",
                "ratio": "ratio"}


def metric_unit(name: str) -> str:
    return SUFFIX_UNITS[name.rsplit(".", 1)[1]]


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def import_program():
    """Import robustagg from this checkout's `src/`, never from elsewhere."""
    if not (SRC / "robustagg" / "__init__.py").is_file():
        raise BenchError(f"no robustagg sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import robustagg
    from robustagg import cli, orchestrator
    from robustagg.scenario import Scenario

    if Path(robustagg.__file__).resolve().parent != SRC / "robustagg":
        raise BenchError(f"imported robustagg from {robustagg.__file__}, not from {SRC}")
    return cli, orchestrator, Scenario


def git_commit() -> str:
    """HEAD of the checkout, read from `.git` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """SHA-256 over the program's source files, which identifies the code
    measured even when the checkout carries no git metadata."""
    h = hashlib.sha256()
    for path in sorted((SRC / "robustagg").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def environment() -> dict:
    import numpy

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc,
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
    }


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def load_pinned(workload: str, seed: int) -> dict | None:
    try:
        data = json.loads(PINNED.read_text())
    except FileNotFoundError:
        return None
    return data.get("workloads", {}).get(workload, {}).get(str(seed))


def simulated_counts(report: dict) -> dict:
    sessions = report["sessions"]
    return {
        "sessions": len(sessions),
        "failures": report["totals"]["failures"],
        "report_bytes": sum(sum(s["phase_congestion"].values()) for s in sessions),
        "max_congestion": max((s["max_congestion"] for s in sessions), default=0),
        "node_sessions": sum(s["tree"]["size"] for s in sessions),
    }


class Checker:
    """Checks every operation's output and that every pass repeats the first."""

    def __init__(self, pinned: dict | None):
        self.pinned = pinned
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_pass: dict | None = None

    def check_pass(self, outcomes: list) -> dict:
        totals = {"sessions": 0, "failures": 0, "report_bytes": 0, "max_congestion": 0,
                  "node_sessions": 0}
        digests = []
        for i, (text, error) in enumerate(outcomes):
            self.attempted += 1
            if error is not None:
                self.failed += 1
                self.problem(f"scenario {i} raised: {error}")
                digests.append(None)
                continue
            report = json.loads(text)
            digest = hashlib.sha256(text.encode()).hexdigest()
            digests.append(digest)
            ok = report["audits"]["all_pass"] is True
            if not ok:
                self.problem(f"scenario {i}: audits failed: {report['audits']}")
            if self.pinned is not None and digest != self.pinned["reports"][i]:
                ok = False
                self.problem(f"scenario {i}: report digest {digest} != pinned")
            if not ok:
                self.failed += 1
            counts = simulated_counts(report)
            for key in ("sessions", "failures", "report_bytes", "node_sessions"):
                totals[key] += counts[key]
            totals["max_congestion"] = max(totals["max_congestion"], counts["max_congestion"])
        current = {"digests": digests, **totals}
        if self.first_pass is None:
            self.first_pass = current
            if self.pinned is not None:
                for key in ("sessions", "failures", "report_bytes", "max_congestion"):
                    if totals[key] != self.pinned[key]:
                        self.problem(f"{key} {totals[key]} != pinned {self.pinned[key]}")
        elif current != self.first_pass:
            self.problem("a pass did not reproduce the first pass's reports")
        return totals

    def problem(self, text: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(text)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def measure_setup(configs: list[dict]) -> tuple[list[float], list[float]]:
    """Steady and wall seconds from `import robustagg.cli` to validated
    scenarios, once per fresh interpreter."""
    steady, wall = [], []
    probe = str(BENCH_DIR / "setup_probe.py")
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, probe, str(SRC)],
            input=json.dumps(configs),
            capture_output=True,
            text=True,
            timeout=120,
            cwd=ROOT,
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{proc.stderr}")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        steady.append(out["steady_s"])
        wall.append(out["wall_s"])
    return steady, wall


def run_pass(cli, orchestrator, scenarios, tracer=None, run_base=0):
    """Run every scenario once; returns ([(start, end)], [(report, error)])."""
    intervals = []
    outcomes = []
    for i, scenario in enumerate(scenarios):
        if tracer is not None:
            tracer.run_id = run_base + i
        t0 = time.perf_counter()
        try:
            text = cli.render_report(orchestrator.run_sessions(scenario))
        except Exception as exc:  # a raising scenario is a failed operation
            intervals.append((t0, time.perf_counter()))
            traceback.print_exc(file=sys.stderr)
            outcomes.append((None, repr(exc)))
            continue
        intervals.append((t0, time.perf_counter()))
        outcomes.append((text, None))
    return intervals, outcomes


def wall(intervals) -> float:
    return sum(b - a for a, b in intervals)


def timed_passes(cli, orchestrator, scenarios, checker, seconds: float, min_passes: int):
    """A warm-up pass, then passes until the next one would overrun `seconds`
    (counted from the warm-up's start), but at least `min_passes`.  Returns
    the scenario intervals of each pass after the warm-up, and the totals."""
    deadline = time.perf_counter() + seconds
    passes = []
    while True:
        gc.collect()
        intervals, outcomes = run_pass(cli, orchestrator, scenarios)
        totals = checker.check_pass(outcomes)
        passes.append(intervals)
        timed = passes[1:]
        if len(timed) >= min_passes and (
            time.perf_counter() + max(map(wall, timed)) > deadline
        ):
            return timed, totals


def describe(samples: list[float]) -> dict:
    out = {"n": len(samples), "median": statistics.median(samples),
           "min": min(samples), "max": max(samples)}
    # The highest percentile with at least ten samples beyond it.
    if len(samples) >= 20:
        q = int(100 * (1 - 10 / len(samples)))
        out[f"p{q}"] = statistics.quantiles(samples, n=100, method="inclusive")[q - 1]
    return out


def end_to_end(args, configs, checker, lines: list[str]) -> dict:
    cli, orchestrator, Scenario = import_program()
    scenarios = [Scenario.from_dict(c) for c in configs]
    with SpeedSampler() as sampler:
        passes, totals = timed_passes(
            cli, orchestrator, scenarios, checker, args.seconds, MIN_TIMED_PASSES
        )
    steady_runs = [sum(sampler.steady(a, b) for a, b in p) for p in passes]
    wall_runs = [wall(p) for p in passes]
    steady_setups, wall_setups = measure_setup(configs)
    setup_s = statistics.median(steady_setups)
    run_s = statistics.median(steady_runs)
    metrics = {
        "run_s": run_s,
        "setup_s": setup_s,
        "node_sessions_per_s": totals["node_sessions"] / (setup_s + run_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    lines.append(
        f"samples: run_s median of {len(steady_runs)} passes after a warm-up, "
        f"setup_s median of {len(steady_setups)} fresh interpreters; steady times "
        f"(wall medians {statistics.median(wall_runs):.4f} s and "
        f"{statistics.median(wall_setups):.4f} s)"
    )
    return {
        "metrics": metrics,
        "samples": {
            "run_s": describe(steady_runs),
            "run_wall_s": describe(wall_runs),
            "setup_s": describe(steady_setups),
            "setup_wall_s": describe(wall_setups),
            "sampler_units": len(sampler.durations),
            "sampler_unit_median_s": statistics.median(sampler.durations),
            "node_sessions_per_pass": totals["node_sessions"],
        },
    }


def traced(args, configs, checker, lines: list[str]) -> dict:
    import micro
    import tracing

    cli, orchestrator, Scenario = import_program()
    micro_ns, micro_sizes = micro.run()
    scenarios = [Scenario.from_dict(c) for c in configs]
    start = time.perf_counter()
    tracer = tracing.Tracer()
    iterations = []
    with SpeedSampler() as sampler:
        untraced, _ = timed_passes(cli, orchestrator, scenarios, checker, args.seconds / 3, 2)
        tracer.install()
        try:
            deadline = start + args.seconds
            while True:
                tracer.reset_counts()
                base = len(iterations) * len(scenarios)
                gc.collect()
                t0 = time.perf_counter()
                with tracer.span("bench.validate"):
                    validated = []
                    for i, config in enumerate(configs):
                        tracer.run_id = base + i
                        validated.append(Scenario.from_dict(config))
                tracer.run_id = -1
                with tracer.span("bench.pass"):
                    intervals, outcomes = run_pass(cli, orchestrator, validated, tracer, base)
                tracer.run_id = -1
                t1 = time.perf_counter()
                checker.check_pass(outcomes)
                iterations.append(
                    {
                        "runs": range(base, base + len(scenarios)),
                        "interval": (t0, t1),
                        "pass": intervals,
                        "counts": tracer.snapshot_counts(),
                    }
                )
                if len(iterations) >= MIN_TRACED_ITERATIONS and (
                    time.perf_counter() + max(b - a for a, b in
                                              (it["interval"] for it in iterations)) > deadline
                ):
                    break
        finally:
            tracer.uninstall()

    self_ns = tracer.self_times()
    per_iter = [tracer.totals(it["runs"], self_ns) for it in iterations]
    for it, totals in zip(iterations, per_iter):
        for name, row in totals.items():
            it["counts"][f"{name}.calls"] = row["calls"]
        # Span times are wall times; scale each iteration's to steady time.
        a, b = it["interval"]
        it["steady_s"] = sampler.steady(a, b)
        factor = it["steady_s"] / (b - a)
        for row in totals.values():
            row["s"] *= factor
            row["self_s"] *= factor

    counts = iterations[0]["counts"]
    for it in iterations[1:]:
        if it["counts"] != counts:
            diff = sorted(k for k in counts if it["counts"].get(k) != counts[k])
            checker.problem(f"traced counts did not repeat: {diff}")
    pinned_bytes = (checker.pinned or {}).get("ledger_bytes")
    if pinned_bytes is not None and counts["netmodel.ledger.bytes"] != pinned_bytes:
        checker.problem(
            f"ledger bytes {counts['netmodel.ledger.bytes']} != pinned {pinned_bytes}"
        )

    def median_time(name: str, field: str) -> float:
        return statistics.median(t[name][field] for t in per_iter)

    metrics: dict[str, float] = {}
    for metric in SPAN_METRICS:
        name, _, kind = metric.rpartition(".")
        metrics[metric] = counts[metric] if kind == "calls" else median_time(name, kind)
    for metric in COUNT_METRICS:
        metrics[metric] = counts[metric]
    metrics.update(micro_ns)
    traced_run_s = statistics.median(
        sum(sampler.steady(a, b) for a, b in it["pass"]) for it in iterations
    )
    untraced_run_s = statistics.median(
        sum(sampler.steady(a, b) for a, b in p) for p in untraced
    )
    metrics["trace.overhead.ratio"] = traced_run_s / untraced_run_s

    iteration_s = statistics.median(it["steady_s"] for it in iterations)
    als_calls = sum(counts[f"als.{f}.calls"] for f in
                    ("als1_collect", "als1_process", "als2_collect", "als2_process"))
    emphasis = {
        "shia.run_shia.s / traced run_s": metrics["shia.run_shia.s"] / traced_run_s,
        "(scenario.build_graph.s + atr.atr_resilient_init.s) / traced iteration_s": (
            metrics["scenario.build_graph.s"] + metrics["atr.atr_resilient_init.s"]
        ) / iteration_s,
        "als.* calls": als_calls,
    }
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"trace_{args.workload}.tsv"
    tracer.write_spans(spans_path, self_ns)
    lines.append(
        f"samples: {len(iterations)} traced iterations (validate + pass), "
        f"{len(untraced)} untraced passes; traced run_s {traced_run_s:.4f} s, "
        f"untraced run_s {untraced_run_s:.4f} s (steady); "
        f"spans: {len(self_ns)} in {spans_path}"
    )
    for key, value in emphasis.items():
        lines.append(f"emphasis: {key} = {value:.4g}")
    if tracer.missing:
        lines.append(f"warning: not found, metrics read zero: {', '.join(tracer.missing)}")
    return {
        "metrics": metrics,
        "samples": {
            "traced_iterations": len(iterations),
            "untraced_passes": len(untraced),
            "traced_run_s": traced_run_s,
            "untraced_run_s": untraced_run_s,
            "traced_iteration_s": iteration_s,
            "micro_frame_bytes": micro_sizes,
        },
        "emphasis": emphasis,
        "self_s": {name: statistics.median(t[name]["self_s"] for t in per_iter)
                   for name in tracer.names},
        "missing": tracer.missing,
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    configs = workloads.WORKLOADS[args.workload](args.seed)
    pinned = load_pinned(args.workload, args.seed)
    checker = Checker(pinned)
    lines = [f"robustagg bench: workload={args.workload} seed={args.seed} "
             f"seconds={args.seconds:g} trace={args.trace}"]
    try:
        measured = (traced if args.trace else end_to_end)(args, configs, checker, lines)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    env = environment()
    names = PER_LAYER_METRICS if args.trace else list(END_TO_END_UNITS)
    units = {n: (metric_unit(n) if args.trace else END_TO_END_UNITS[n]) for n in names}
    metrics = {n: {"value": measured["metrics"][n], "unit": units[n]} for n in names}

    first = checker.first_pass or {}
    lines.append("env: " + json.dumps(env, sort_keys=True))
    lines.append(
        f"checks: {checker.attempted} scenario runs, {checker.failed} failed "
        f"(failed_ops {checker.failed / checker.attempted:.4f}); digests "
        + ("checked against pinned.json" if pinned else "not pinned for this seed (audits only)")
    )
    lines.append(
        "simulated per pass: "
        + ", ".join(f"{k} {first.get(k)}" for k in
                    ("sessions", "failures", "report_bytes", "max_congestion", "node_sessions"))
    )
    for problem in checker.problems:
        lines.append(f"problem: {problem}")
    for name in names:
        lines.append(f"  {name:<42} {metrics[name]['value']:>16.6g} {units[name]}")

    OUT_DIR.mkdir(exist_ok=True)
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "correct": checker.correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "failed_ops": checker.failed / checker.attempted,
        "problems": checker.problems,
        "simulated": {k: v for k, v in first.items() if k != "digests"},
        **measured,
        "metrics": metrics,
    }
    summary_path = OUT_DIR / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True, default=str) + "\n")

    print("\n".join(lines))
    print(
        json.dumps(
            {
                "correct": checker.correct,
                "attempted": checker.attempted,
                "failed": checker.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
