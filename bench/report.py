"""Run every workload and print every metric by name with its unit.

    python3 bench/report.py [--seed 1] [--seconds 30] [--out FILE]

For each workload this runs `run.py` three times, each in a fresh process:
once untraced for the end-to-end metrics, and twice traced for the
per-layer metrics.  Every count metric (`*.calls`, `*.bytes`) must repeat
exactly between the two traced runs.  The table goes to standard output and
the full results, with the environment stamp, to `--out` (by default
`.bench_out/BENCH_seed<seed>.json`).  Exits 0 only if every output check
passed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import run
import workloads


def bench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=run.ROOT, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace={trace} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=run.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--out")
    args = parser.parse_args()

    results = {}
    ok = True
    for name in workloads.WORKLOADS:
        e2e = bench(name, args.seed, args.seconds, 0)
        traced = [bench(name, args.seed, args.seconds, 1) for _ in range(2)]
        counts = [
            {k: m["value"] for k, m in t["metrics"].items() if m["unit"] in ("count", "bytes")}
            for t in traced
        ]
        repeat = counts[0] == counts[1]
        correct = e2e["correct"] and all(t["correct"] for t in traced) and repeat
        ok = ok and correct
        results[name] = {
            "correct": correct,
            "counts_repeat": repeat,
            "attempted": e2e["attempted"],
            "failed": e2e["failed"],
            "failed_ops": e2e["failed"] / e2e["attempted"],
            "end_to_end": e2e["metrics"],
            "per_layer": traced[0]["metrics"],
        }
        print(f"{name}: correct {correct}, failed_ops {results[name]['failed_ops']:.4f} "
              f"({e2e['failed']} of {e2e['attempted']}), traced counts repeat {repeat}")
        for section in ("end_to_end", "per_layer"):
            for metric, m in results[name][section].items():
                print(f"  {metric:<42} {m['value']:>16.6g} {m['unit']}")

    out = args.out or str(run.OUT_DIR / f"BENCH_seed{args.seed}.json")
    run.OUT_DIR.mkdir(exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"env": run.environment(), "seed": args.seed, "seconds": args.seconds,
                   "workloads": results}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
