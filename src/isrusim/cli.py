"""Command-line interface: run, sweep, replay, verify.

Exit codes: 0 success, 1 a bad input (a usage error too) or an unreadable
path, 2 a stalled run is present in the output, 3 an invariant or protocol
violation was found (in a log, or by a run's own invariant checks).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import NoReturn

from .engine import Simulation, finish
from .events import EventLog, LogParseError
from .metrics import (
    MetricsError,
    _write_json,
    build_run_meta,
    build_summary,
    collect_metrics,
    sweep,
    write_metrics_csv,
)
from .verify import verify_records
from .world import (POLICY_NAMES, SCENARIO_KEYS, InvariantError, build_config,
                    parse_scenario_file)

EXIT_OK = 0
EXIT_STALLED = 2
EXIT_VIOLATION = 3

# Each scenario flag, by its dest, and the key it sets.  A flag's type is
# its key's field type.  Only `run` takes the first two.
_FLAG_TO_KEY = {
    "policy": "policy",
    "seed": "seed",
    "scouts": "n_scouts",
    "excavators": "n_excavators",
    "haulers": "n_haulers",
    "sites": "n_sites",
    "minerals": "n_minerals",
    "arena": "arena_side",
    "scan_radius": "scan_radius",
    "tick_cap": "tick_cap",
}
_SHARED_FLAGS = tuple(_FLAG_TO_KEY)[2:]


def _add_scenario_flags(parser: argparse.ArgumentParser, *flags: str) -> None:
    for flag in flags:
        key = _FLAG_TO_KEY[flag]
        parser.add_argument("--" + flag.replace("_", "-"), dest=flag,
                            type=SCENARIO_KEYS[key],
                            choices=POLICY_NAMES if key == "policy" else None)


def _scenario_from_args(args: argparse.Namespace):
    file_values = parse_scenario_file(args.config) if args.config else {}
    return build_config(file_values, {key: getattr(args, flag, None)
                                      for flag, key in _FLAG_TO_KEY.items()})


def parse_seed_spec(spec: str) -> list[int]:
    """Seed lists like '7', '0..19' or '1,4,9'.  A descending range or a
    seed given twice is an error, not a silent drop or a double count."""
    seeds: list[int] = []
    for token in spec.split(","):
        token = token.strip()
        if ".." in token:
            lo, hi = (int(bound) for bound in token.split("..", 1))
            if lo > hi:
                raise ValueError(f"descending seed range {token!r} in {spec!r}")
            seeds.extend(range(lo, hi + 1))
        elif token:
            seeds.append(int(token))
    if not seeds:
        raise ValueError(f"no seeds in {spec!r}")
    if len(set(seeds)) < len(seeds):
        raise ValueError(f"a seed appears twice in {spec!r}")
    return seeds


def _cmd_run(args: argparse.Namespace) -> int:
    config = _scenario_from_args(args)
    sim = Simulation(config, snapshots=args.snapshots)  # before writing
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)  # fail before simulating
    result = finish(sim)
    result.log.dump_jsonl(out / "events.jsonl")
    write_metrics_csv([result.metrics], out / "metrics.csv")
    _write_json(out / "summary.json", build_summary([result.metrics]))
    _write_json(out / "run_meta.json", build_run_meta(config))
    print(f"{result.status.value}: policy={config.policy} seed={config.seed} "
          f"tick={result.metrics.completion_ticks} "
          f"minerals={result.simulation.ctx.world.minerals_at_plant} "
          f"messages={result.metrics.message_count}")
    print(f"outputs written to {out}")
    return EXIT_OK if result.status.value == "completed" else EXIT_STALLED


def _cmd_sweep(args: argparse.Namespace) -> int:
    policies = [p.strip() for p in args.policies.split(",") if p.strip()]
    for policy in policies:
        if policy not in POLICY_NAMES:
            raise ValueError(f"unknown policy {policy!r}")
    seeds = parse_seed_spec(args.seeds)
    base = _scenario_from_args(args)
    result = sweep(policies, seeds, base_config=base, out_dir=args.out,
                   snapshots=args.snapshots)
    for report in result.reports:
        print(f"{report.policy:9s} seed={report.seed:<4d} {report.status:9s} "
              f"ticks={report.completion_ticks}")
    print(f"{len(result.reports)} runs -> {args.out}")
    return EXIT_STALLED if result.any_stalled else EXIT_OK


# What reading a log raises when a field holds a value of the wrong kind,
# such as a number where a point belongs: the record schema checks that the
# fields are there, not what they hold.
_MALFORMED = (TypeError, ValueError, KeyError, IndexError)


def _malformed(command: str, exc: Exception) -> int:
    print(f"{command} failed: malformed value in the log: "
          f"{type(exc).__name__}: {exc}", file=sys.stderr)
    return EXIT_VIOLATION


def _cmd_replay(args: argparse.Namespace) -> int:
    try:
        log = EventLog.load_jsonl(args.log)
        report = collect_metrics(log.records)  # validates its own invariants
    except (LogParseError, MetricsError) as exc:
        print(f"replay failed: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except _MALFORMED as exc:
        return _malformed("replay", exc)
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    try:
        log = EventLog.load_jsonl(args.log)
        violations = verify_records(log.records)
    except LogParseError as exc:
        print(f"verify failed: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except _MALFORMED as exc:
        return _malformed("verify", exc)
    if violations:
        for violation in violations:
            print(violation, file=sys.stderr)
        print(f"{len(violations)} violation(s) in {args.log}", file=sys.stderr)
        return EXIT_VIOLATION
    print(f"ok: {len(log)} records, no protocol violations")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """A usage error is bad input: exit 1, not argparse's 2 (stalled)."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="isrusim",
        description="Auction-coordinated lunar mining fleet simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario and write its outputs")
    _add_scenario_flags(p_run, "policy", "seed")
    p_run.add_argument("--snapshots", action="store_true",
                       help="log per-tick robot snapshots (large)")
    p_run.add_argument("--out", required=True, type=Path)
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a policies x seeds grid")
    p_sweep.add_argument("--policies", default=",".join(POLICY_NAMES))
    p_sweep.add_argument("--seeds", default="0..19",
                         help="e.g. 0..19 or 1,2,5")
    p_sweep.add_argument("--snapshots", action="store_true")
    p_sweep.add_argument("--out", required=True, type=Path)
    p_sweep.set_defaults(func=_cmd_sweep)

    for scenario in (p_run, p_sweep):
        scenario.add_argument("--config", type=Path,
                              help="flat key=value scenario file; flags override it")
        _add_scenario_flags(scenario, *_SHARED_FLAGS)

    p_replay = sub.add_parser(
        "replay", help="re-derive metrics from an event log")
    p_replay.add_argument("--log", required=True, type=Path)
    p_replay.set_defaults(func=_cmd_replay)

    p_verify = sub.add_parser(
        "verify", help="run the protocol safety checker over an event log")
    p_verify.add_argument("--log", required=True, type=Path)
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InvariantError as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
