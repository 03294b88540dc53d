"""Command-line front end: run, sweep, and replay subcommands.

Exit codes: 0 pass, 1 audit failure (or divergence on replay), 2 parse or
configuration error, 3 disconnection.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import orchestrator
from .errors import ConfigError, RobustAggError
from .scenario import SCHEMA, Scenario, load_config, read_json_object

EXIT_OK = 0
EXIT_AUDIT_FAIL = 1
EXIT_PARSE_ERROR = 2
EXIT_DISCONNECTED = 3


def render(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def render_report(result: orchestrator.RunResult) -> str:
    return render(result.to_dict())


def _apply_overrides(scenario_dict: dict, args: argparse.Namespace) -> dict:
    out = dict(scenario_dict)  # top-level keys only; nothing mutates nested values
    if args.seed_override is not None:
        out["seed"] = args.seed_override
    if args.atr:
        out["atr"] = args.atr
    if args.accept_on_als2:
        out["accept_on_als2"] = True
    return out


def _emit(text: str, out: str | None) -> None:
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {out} ({exc.strerror or exc})") from exc


def cmd_run(args: argparse.Namespace) -> int:
    scenario = Scenario.from_dict(_apply_overrides(load_config(args.config), args))
    result = orchestrator.run_sessions(scenario)
    report = result.to_dict()
    _emit(render(report), args.out)
    if result.disconnected:
        print("run truncated: exclusions disconnected the network", file=sys.stderr)
        return EXIT_DISCONNECTED
    return EXIT_OK if report["audits"]["all_pass"] else EXIT_AUDIT_FAIL


def cmd_sweep(args: argparse.Namespace) -> int:
    # Each point validates its own config; the template's n is never built.
    template = load_config(args.template)
    topology = template.get("topology")
    if not isinstance(topology, dict) or topology.get("kind") not in ("chain", "geometric"):
        raise ConfigError("sweep needs a topology sized by n (chain or geometric)")
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if len(set(sizes)) < len(sizes):
        raise ConfigError("duplicate network size")
    if not sizes:
        return EXIT_OK
    points = []
    for n in sizes:
        cfg = dict(template, topology=dict(topology, n=n))
        try:
            scenario = Scenario.from_dict(_apply_overrides(cfg, args))
        except ConfigError as exc:
            raise ConfigError(f"at n={n}: {exc}") from exc
        if not scenario.sessions:
            # A point reads its tree's shape off its first session.
            raise ConfigError("sweep needs at least one session per point")
        result = orchestrator.run_sessions(scenario)
        if result.disconnected:
            print(f"n={n}: disconnected", file=sys.stderr)
            return EXIT_DISCONNECTED
        success = [r for r in result.records if r.verdict == "success"]
        failure = [r for r in result.records if r.verdict == "failure"]
        rec = success[0] if success else result.records[0]
        points.append(
            {
                "n": n,
                "height": rec.tree.height(),
                "degree": rec.tree_degree,
                "success_cost": max((r.max_congestion for r in success), default=None),
                "failure_cost": max((r.max_congestion for r in failure), default=None),
            }
        )
    audit = orchestrator.cost_audit(points) if len(points) >= 2 else {"pass": True}
    _emit(render({"schema": SCHEMA, "points": points, "cost_audit": audit}), args.out)
    return EXIT_OK if audit["pass"] else EXIT_AUDIT_FAIL


def cmd_replay(args: argparse.Namespace) -> int:
    original, data = read_json_object(args.report)
    if data.get("schema") != SCHEMA:
        raise ConfigError(
            f"refusing replay: report schema {data.get('schema')!r} does not "
            f"match this build ({SCHEMA})"
        )
    if "config" not in data or "config_hash" not in data:
        raise ConfigError("refusing replay: report carries no embedded config/seed")
    scenario = Scenario.from_dict(data["config"])
    if scenario.hash() != data["config_hash"]:
        raise ConfigError("refusing replay: embedded config does not match its hash")
    if render_report(orchestrator.run_sessions(scenario)) == original:
        print("verified: replay reproduces the report byte-for-byte")
        return EXIT_OK
    print("divergent: replay does not reproduce the report", file=sys.stderr)
    return EXIT_AUDIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="robustagg",
        description="Deterministic simulator for robust secure in-network aggregation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Options shared by run and sweep.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out")
    common.add_argument("--seed-override", type=int, dest="seed_override")
    common.add_argument("--atr", choices=["basic", "resilient"])
    common.add_argument("--accept-on-als2", action="store_true", dest="accept_on_als2")

    p_run = sub.add_parser("run", parents=[common], help="execute one scenario and emit a report")
    p_run.add_argument("--config", required=True)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", parents=[common], help="run a template across network sizes")
    p_sweep.add_argument("--template", required=True)
    p_sweep.add_argument("--sizes", required=True, help="comma-separated sizes")
    p_sweep.set_defaults(func=cmd_sweep)

    p_replay = sub.add_parser("replay", help="re-execute a report and compare bytes")
    p_replay.add_argument("--report", required=True)
    p_replay.set_defaults(func=cmd_replay)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # Every error ends here, as one stderr line, before any report is written.
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except RobustAggError as exc:
        # A broken protocol invariant or frame, or a failed session that no
        # one was marked for: a guarantee the audit checks has failed.
        print(f"audit failed: {exc}", file=sys.stderr)
        return EXIT_AUDIT_FAIL


if __name__ == "__main__":
    raise SystemExit(main())
