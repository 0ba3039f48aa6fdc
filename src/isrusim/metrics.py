"""Run metrics and the multi-seed policy comparison sweep.

Everything here is computed from the event log alone, never from live
simulation state: if a number cannot be derived from the log, the log is
incomplete and that is a bug.  Times are reported in ticks (the simulation's
only honest clock).  Auction open time spans the whole allocation attempt,
from the first announcement to the final close, however many re-announcement
rounds that took.
"""

from __future__ import annotations

import csv
import json
import statistics
from dataclasses import asdict, dataclass, field, replace
from operator import ge, le
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from .events import record_auction_key
from .world import (
    PLANT_CLEARANCE_FACTOR,
    START_CIRCLE_RADIUS,
    RobotKind,
    ScenarioConfig,
    TaskType,
)

if TYPE_CHECKING:
    from .engine import RunResult

TIER_SCOUT_TO_EXCAVATOR = "scout_to_excavator"
TIER_EXCAVATOR_TO_HAULER = "excavator_to_hauler"

_TIER_OF_TASK = {TaskType.EXCAVATE.value: TIER_SCOUT_TO_EXCAVATOR,
                 TaskType.TRANSPORT.value: TIER_EXCAVATOR_TO_HAULER}

CSV_COLUMNS = [
    "policy", "seed", "status", "completion_ticks", "discovery_complete_tick",
    "distance_scout", "distance_excavator", "distance_hauler", "distance_total",
    "messages", "auctions_scout_to_excavator", "auctions_excavator_to_hauler",
    "median_open_scout_to_excavator", "median_open_excavator_to_hauler",
]


class MetricsError(ValueError):
    """A log that cannot be turned into a metrics report."""


@dataclass
class AuctionHistory:
    """One auction generation as the log tells it: first announcement to
    final close (if it closed), with every round and every declared winner."""

    auctioneer: str
    location: tuple[float, float]
    task_type: str
    opened_tick: int
    rounds: int = 1
    winners: list[str] = field(default_factory=list)
    allocated_to: str | None = None
    closed_tick: int | None = None

    @property
    def tier(self) -> str:
        return _TIER_OF_TASK[self.task_type]

    @property
    def duration(self) -> int | None:
        if self.closed_tick is None:
            return None
        return self.closed_tick - self.opened_tick


def derive_auction_histories(records: Iterable[dict]) -> list[AuctionHistory]:
    """Every auction generation in a log's msg records: the closed ones in
    the order they closed, then the ones still open in the order they
    opened."""
    still_open: dict[tuple, AuctionHistory] = {}
    closed: list[AuctionHistory] = []
    for record in records:
        if record["type"] != "msg":
            continue
        variant = record["variant"]
        if variant == "bid" or variant == "ack":
            continue
        key = record_auction_key(record)
        if variant == "announcement":
            history = still_open.get(key)
            if history is None:
                still_open[key] = AuctionHistory(
                    key[0], key[1], record["task_type"], record["tick"])
            else:
                history.rounds += 1
        elif variant == "winner":
            history = still_open.get(key)
            if history is not None:  # the safety checker flags the rest
                history.winners.append(record["winner"])
        elif variant == "close":
            history = still_open.pop(key, None)
            if history is None:
                raise MetricsError(f"seq {record['seq']}: close for an "
                                   "auction never announced")
            history.allocated_to = record["allocated_to"]
            history.closed_tick = record["tick"]
            closed.append(history)
    return closed + list(still_open.values())


@dataclass
class MetricsReport:
    """The headline metrics of one run: completion time, distances,
    auction open times."""

    policy: str
    seed: int
    status: str
    completion_ticks: int | None
    discovery_complete_tick: int | None
    per_robot_distance: dict[str, float]
    per_kind_distance: dict[str, float]
    auction_durations: list[AuctionHistory]
    message_count: int

    def durations_for(self, tier: str) -> list[int]:
        return [s.duration for s in self.auction_durations if s.tier == tier]

    def validate(self) -> None:
        """Internal consistency of the report (raises MetricsError)."""
        for kind in RobotKind:
            total = sum(d for name, d in self.per_robot_distance.items()
                        if name.startswith(kind.value))
            if abs(total - self.per_kind_distance.get(kind.value, 0.0)) > 1e-9:
                raise MetricsError(f"per-kind distance mismatch for {kind.value}")
        seen = set()
        for history in self.auction_durations:
            # one scout can open two auctions in a tick and see both close
            # in a tick; the task location tells them apart
            ident = (history.auctioneer, history.location,
                     history.opened_tick, history.closed_tick)
            if ident in seen:
                raise MetricsError(f"auction {ident} reported twice")
            seen.add(ident)
            if history.task_type not in _TIER_OF_TASK:
                raise MetricsError(f"auction {ident}: unknown task type "
                                   f"{history.task_type!r}")
            if history.duration < 0:
                raise MetricsError("negative auction duration")
        if (self.completion_ticks is not None
                and self.discovery_complete_tick is not None
                and self.discovery_complete_tick > self.completion_ticks):
            raise MetricsError("discovery finished after completion")

    def to_row(self) -> dict:
        tier_s = self.durations_for(TIER_SCOUT_TO_EXCAVATOR)
        tier_e = self.durations_for(TIER_EXCAVATOR_TO_HAULER)
        return {
            "policy": self.policy,
            "seed": self.seed,
            "status": self.status,
            "completion_ticks": _blank(self.completion_ticks),
            "discovery_complete_tick": _blank(self.discovery_complete_tick),
            "distance_scout": self.per_kind_distance.get("scout", 0.0),
            "distance_excavator": self.per_kind_distance.get("excavator", 0.0),
            "distance_hauler": self.per_kind_distance.get("hauler", 0.0),
            "distance_total": sum(self.per_robot_distance.values()),
            "messages": self.message_count,
            "auctions_scout_to_excavator": len(tier_s),
            "auctions_excavator_to_hauler": len(tier_e),
            "median_open_scout_to_excavator": _blank(_median(tier_s)),
            "median_open_excavator_to_hauler": _blank(_median(tier_e)),
        }

    def to_dict(self) -> dict:
        return {
            "policy": self.policy,
            "seed": self.seed,
            "status": self.status,
            "completion_ticks": self.completion_ticks,
            "discovery_complete_tick": self.discovery_complete_tick,
            "per_robot_distance": self.per_robot_distance,
            "per_kind_distance": self.per_kind_distance,
            "auction_durations": [
                {"tier": s.tier, "auctioneer": s.auctioneer,
                 "allocated_to": s.allocated_to, "opened_tick": s.opened_tick,
                 "closed_tick": s.closed_tick, "rounds": s.rounds,
                 "duration": s.duration}
                for s in self.auction_durations
            ],
            "message_count": self.message_count,
        }


def _blank(value):
    return "" if value is None else value


def _median(values: Sequence) -> float | None:
    return statistics.median(values) if values else None


def collect_metrics(records: Iterable[dict]) -> MetricsReport:
    """Derive a MetricsReport purely from the event log of one finished run."""
    ends: dict[str, dict] = {}
    discovery_ticks: list[int] = []
    n_messages = 0

    def publications() -> Iterator[dict]:
        """The msg records that are neither bids nor acks, each passed on
        as the one walk reads it; every msg record is counted."""
        nonlocal n_messages
        for index, record in enumerate(records):
            if not isinstance(record, dict) or "type" not in record:
                raise MetricsError(f"record {index}: not an event record")
            rtype = record["type"]
            if rtype == "msg":
                n_messages += 1
                variant = record["variant"]
                if variant != "bid" and variant != "ack":
                    yield record
            elif rtype == "run_start" or rtype == "run_end":
                if rtype in ends:
                    raise MetricsError(f"record {index}: a second {rtype}")
                ends[rtype] = record
            elif rtype == "discovery":
                discovery_ticks.append(record["tick"])

    histories = derive_auction_histories(publications())

    run_start, run_end = ends.get("run_start"), ends.get("run_end")
    if run_start is None or run_end is None:
        raise MetricsError("log is missing run_start/run_end records")

    odometry: dict[str, float] = dict(run_end["odometry"])
    kind_of = {name: kind for name, kind in run_start["robots"]}
    per_kind = {k.value: 0.0 for k in RobotKind}
    for name, distance in odometry.items():
        per_kind[kind_of[name]] += distance

    n_sites = run_start["n_sites"]
    if n_sites == 0:
        discovery_tick: int | None = 0
    elif len(discovery_ticks) == n_sites:
        discovery_tick = max(discovery_ticks)
    else:
        discovery_tick = None  # stalled before full discovery

    status = run_end["status"]
    report = MetricsReport(
        policy=run_start["policy"],
        seed=run_start["seed"],
        status=status,
        completion_ticks=run_end["tick"] if status == "completed" else None,
        discovery_complete_tick=discovery_tick,
        per_robot_distance=odometry,
        per_kind_distance=per_kind,
        auction_durations=[h for h in histories if h.closed_tick is not None],
        message_count=n_messages,
    )
    report.validate()
    return report


# --- sweeps -----------------------------------------------------------------


@dataclass
class SweepResult:
    reports: list[MetricsReport]
    summary: dict

    @property
    def any_stalled(self) -> bool:
        return any(r.status != "completed" for r in self.reports)


def sweep(policies: Sequence[str], seeds: Sequence[int],
          base_config: ScenarioConfig | None = None,
          out_dir: str | Path | None = None,
          snapshots: bool = False,
          on_run: Callable[[ScenarioConfig, "RunResult"], None] | None = None,
          ) -> SweepResult:
    """Run every (policy, seed) combination and aggregate the results.

    A policy or seed given twice raises, as would double-count its run, and
    so does one its config refuses (a seed of 2.7 or True), before anything
    is written.  Every scenario of the grid is generated before the first
    run and before `out_dir` is made, so a grid holding one that the
    generator rejects raises before anything is run or written.  Runs
    execute sequentially in a fixed order, so repeated sweeps with the same
    arguments produce byte-identical outputs.  Stalled runs
    are flagged in the CSV and summary, never dropped.  `on_run` is invoked
    with each finished run before its log is released (useful for per-run
    verification without holding 60 logs in memory).
    """
    from .engine import Simulation, finish

    if not policies or not len(seeds):
        raise ValueError("sweep needs at least one policy and one seed")
    for kind, values in (("policy", list(policies)), ("seed", list(seeds))):
        for i, value in enumerate(values):
            if value in values[:i]:
                raise ValueError(f"sweep {kind} {value!r} given twice")
    base = base_config if base_config is not None else ScenarioConfig()
    configs = [replace(base, policy=policy, seed=seed)
               for policy in policies for seed in seeds]
    grid = [Simulation(config, snapshots=snapshots) for config in configs]
    grid.reverse()
    out = Path(out_dir) if out_dir is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)  # fail before simulating
    reports: list[MetricsReport] = []
    while grid:
        sim = grid.pop()  # the grid keeps no finished run
        result = finish(sim)
        reports.append(result.metrics)
        if on_run is not None:
            on_run(sim.config, result)
        if out is not None:
            run_dir = out / "runs" / f"{sim.config.policy}-seed{sim.config.seed}"
            result.log.dump_jsonl(run_dir / "events.jsonl")
            _write_json(run_dir / "run_meta.json", build_run_meta(sim.config))

    summary = build_summary(reports)
    if out is not None:
        write_metrics_csv(reports, out / "metrics.csv")
        _write_json(out / "summary.json", summary)
    return SweepResult(reports=reports, summary=summary)


def write_metrics_csv(reports: Sequence[MetricsReport], path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for report in reports:
            writer.writerow(report.to_row())


def build_summary(reports: Sequence[MetricsReport]) -> dict:
    """Per-policy aggregates plus the cross-policy ordering checks."""
    policies: dict[str, list[MetricsReport]] = {}
    for report in reports:
        policies.setdefault(report.policy, []).append(report)

    per_policy: dict[str, dict] = {}
    for policy, runs in policies.items():
        completions = [r.completion_ticks for r in runs
                       if r.completion_ticks is not None]
        pooled_s = [d for r in runs for d in r.durations_for(TIER_SCOUT_TO_EXCAVATOR)]
        pooled_e = [d for r in runs for d in r.durations_for(TIER_EXCAVATOR_TO_HAULER)]
        per_policy[policy] = {
            "runs": len(runs),
            "completed": sum(1 for r in runs if r.status == "completed"),
            "stalled": sum(1 for r in runs if r.status != "completed"),
            "median_completion_ticks": _median(completions),
            "mean_completion_ticks": (sum(completions) / len(completions)
                                      if completions else None),
            "median_distance": {
                kind.value: _median([r.per_kind_distance.get(kind.value, 0.0)
                                     for r in runs])
                for kind in RobotKind
            },
            "median_auction_open": {
                TIER_SCOUT_TO_EXCAVATOR: _median(pooled_s),
                TIER_EXCAVATOR_TO_HAULER: _median(pooled_e),
            },
            "mean_messages": sum(r.message_count for r in runs) / len(runs),
        }

    return {
        "total_runs": len(reports),
        "stalled_runs": [{"policy": r.policy, "seed": r.seed}
                         for r in reports if r.status != "completed"],
        "policies": per_policy,
        "orderings": _ordering_checks(per_policy),
    }


def _ordering_checks(per_policy: dict[str, dict]) -> dict:
    """The cross-policy comparisons reported by the summary.

    Completion time is reported soft (it depends on timing constants the
    source figures never pin down); the excavator-distance and
    coalition-open-time orderings are structural and gate the acceptance
    suite.
    """
    have_all = all(p in per_policy for p in ("fcfs", "coalition", "nearest"))

    def medians(metric: Callable[[dict], float | None]) -> dict[str, float | None]:
        return {policy: metric(stats) for policy, stats in per_policy.items()}

    completion = medians(lambda s: s["median_completion_ticks"])
    excavator_distance = medians(lambda s: s["median_distance"]["excavator"])
    transport_open = medians(
        lambda s: s["median_auction_open"][TIER_EXCAVATOR_TO_HAULER])

    def holds(values: dict, policy: str, order: Callable) -> bool | None:
        """Whether `policy`'s median stands in `order` (`le`: least, `ge`:
        greatest) to every other; None unless all three have one."""
        if not have_all or any(v is None for v in values.values()):
            return None
        return all(order(values[policy], v)
                   for p, v in values.items() if p != policy)

    return {
        "completion_fcfs_least": {
            "hard_gate": False,
            "pass": holds(completion, "fcfs", le),
            "medians": completion,
        },
        "excavator_distance_nearest_minimal": {
            "hard_gate": True,
            "pass": holds(excavator_distance, "nearest", le),
            "medians": excavator_distance,
        },
        "excavator_to_hauler_open_coalition_maximal": {
            "hard_gate": True,
            "pass": holds(transport_open, "coalition", ge),
            "medians": transport_open,
        },
    }


def build_run_meta(config: ScenarioConfig) -> dict:
    """The fully resolved configuration written next to each event log."""
    from . import __version__
    from .agents import STANDBY_OFFSET
    from .policy import make_policy

    names = config.robot_names()
    policy = make_policy(config.policy,
                         [n for n, k in names if k is RobotKind.EXCAVATOR],
                         [n for n, k in names if k is RobotKind.HAULER])
    return {
        "version": __version__,
        "config": asdict(config),
        "coalition_pairs": [list(p) for p in policy.pairs],
        "constants": {
            "cell_side": config.cell_side,
            "grid_cells": config.grid_cells,
            "start_circle_radius": START_CIRCLE_RADIUS,
            "standby_offset": STANDBY_OFFSET,
            "plant_clearance": PLANT_CLEARANCE_FACTOR * config.scan_radius,
            "site_separation": config.scan_radius,
            "boundary_margin": config.scan_radius,
            # excavate-tier bidding under coalition follows the fcfs rule
            "coalition_excavate_tier": "fcfs",
        },
    }


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
