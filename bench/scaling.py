"""One-shot, ungated scaling table: pass time of one geometric scenario
(d_max 6, 6 sessions, two faulty nodes) at n in {100, 400, 1600} for both
ATR variants, with the fitted log-log growth exponent per variant.

    python3 bench/scaling.py

It measures how run time grows with n instead of asserting it.  Each cell
is the median steady time (see speed.py) of a few passes
(`orchestrator.run_sessions` plus `cli.render_report`), audits checked,
with the wall-time median beside it; the table also goes to
`.bench_out/scaling.json` with the environment stamp.
"""

from __future__ import annotations

import json
import math
import statistics

import run
import workloads
from speed import SpeedSampler

SIZES = (100, 400, 1600)
VARIANTS = ("basic", "resilient")
REPEATS = {100: 5, 400: 3, 1600: 1}


def main() -> None:
    cli, orchestrator, Scenario = run.import_program()
    rows = []
    for atr in VARIANTS:
        for n in SIZES:
            scenario = Scenario.from_dict(workloads.scaling_config(n, atr))
            checker = run.Checker(None)
            passes = []
            with SpeedSampler() as sampler:
                for _ in range(REPEATS[n]):
                    intervals, outcomes = run.run_pass(cli, orchestrator, [scenario])
                    checker.check_pass(outcomes)
                    passes.append(intervals[0])
            if not checker.correct:
                raise SystemExit(f"n={n} {atr}: {checker.problems}")
            rows.append({
                "n": n,
                "atr": atr,
                "run_s": statistics.median(sampler.steady(a, b) for a, b in passes),
                "wall_s": statistics.median(b - a for a, b in passes),
                "samples": len(passes),
            })
            print(f"{atr:<10} n={n:<5} run_s {rows[-1]['run_s']:8.3f} s "
                  f"(wall {rows[-1]['wall_s']:.3f} s, median of {len(passes)})", flush=True)
    exponents = {}
    for atr in VARIANTS:
        pts = [(math.log(r["n"]), math.log(r["run_s"])) for r in rows if r["atr"] == atr]
        exponents[atr] = statistics.linear_regression(*zip(*pts)).slope
        print(f"{atr:<10} log-log growth exponent {exponents[atr]:.2f}")
    table = {"env": run.environment(), "rows": rows, "loglog_exponent": exponents}
    run.OUT_DIR.mkdir(exist_ok=True)
    (run.OUT_DIR / "scaling.json").write_text(json.dumps(table, indent=2) + "\n")
    print(json.dumps(table))


if __name__ == "__main__":
    main()
