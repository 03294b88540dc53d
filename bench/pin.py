"""Regenerate `pinned.json`: the report digests and simulated totals of every
workload at the default and the held-out seed.

    python3 bench/pin.py

The benchmark fails any operation whose report differs from these pins, so
a change that is only meant to be faster cannot alter a report unnoticed.
Re-pin only in a change that alters reports on purpose (and bumps the
report `SCHEMA`); the pins refuse to record a run whose audits fail.
"""

from __future__ import annotations

import json

import run
import tracing
import workloads


def pin(cli, orchestrator, Scenario, workload: str, seed: int) -> dict:
    scenarios = [Scenario.from_dict(c) for c in workloads.WORKLOADS[workload](seed)]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        _, outcomes = run.run_pass(cli, orchestrator, scenarios)
    finally:
        tracer.uninstall()
    checker = run.Checker(None)
    totals = checker.check_pass(outcomes)
    if not checker.correct:
        raise SystemExit(f"{workload} seed {seed}: refusing to pin: {checker.problems}")
    return {
        "reports": checker.first_pass["digests"],
        "sessions": totals["sessions"],
        "failures": totals["failures"],
        "report_bytes": totals["report_bytes"],
        "max_congestion": totals["max_congestion"],
        "ledger_bytes": tracer.snapshot_counts()["netmodel.ledger.bytes"],
    }


def main() -> None:
    cli, orchestrator, Scenario = run.import_program()
    seeds = (run.DEFAULT_SEED, run.HELD_OUT_SEED)
    pinned = {
        "env": run.environment(),
        "seeds": {"default": run.DEFAULT_SEED, "held_out": run.HELD_OUT_SEED},
        "workloads": {
            name: {str(seed): pin(cli, orchestrator, Scenario, name, seed) for seed in seeds}
            for name in workloads.WORKLOADS
        },
    }
    run.PINNED.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")
    print(f"wrote {run.PINNED}")


if __name__ == "__main__":
    main()
