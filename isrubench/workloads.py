"""The benchmark's four workloads and the code that runs and checks them.

Every workload is a closed loop: one process runs one simulation (or one
log replay) at a time.  Each has a fixed list of (policy, scenario seed)
runs, and the golden data in `golden.json` holds the log fingerprint of
every one of them, so any run that drifts is caught.  The benchmark's
`--seed` only sets the orders in which that fixed list is visited; it never
changes which runs are made, so the stored fingerprints cover every seed.

All times here are host seconds from `time.perf_counter`; given a
`hostclock.HostClock`, a run's ``seconds`` are corrected for the host's
speed and ``raw_seconds`` keep the plain host seconds.  Simulated time
appears only as tick counts.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import isrusim

POLICIES = ("fcfs", "coalition", "nearest")

# Fleet of the two scale points: 2 scouts, 8 excavators, 12 haulers.
_BIG_FLEET = {"n_scouts": 2, "n_excavators": 8, "n_haulers": 12}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # ScenarioConfig fields that differ from the reference defaults; the
    # log_replay workload replays the logs of `source` instead.
    overrides: dict
    seeds: tuple[int, ...]
    # runs (or logs) in the traced pass
    trace_runs: int
    source: str | None = None

    def runs(self) -> list[tuple[str, int]]:
        """The fixed (policy, scenario seed) list, scenario seed major."""
        return [(policy, seed) for seed in self.seeds for policy in POLICIES]

    def config(self, policy: str, seed: int) -> "isrusim.ScenarioConfig":
        return isrusim.ScenarioConfig(**self.overrides, policy=policy, seed=seed)


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="reference",
        why=("This is what users and the acceptance suite run, and its load "
             "is mixed (pathing and world ~60%, agents and bus ~20%)."),
        overrides={},
        seeds=(0, 1, 2, 3),
        trace_runs=3,
    ),
    Workload(
        name="arena200",
        why=("It is the north-star scale point. Each scout's spiral has ~800 "
             "waypoints, so PathCursor.step/point_along and the site scan "
             "take ~70% of host time. A pathing or scan fix must show here."),
        overrides={"arena_side": 200.0, "n_sites": 40, "n_minerals": 256,
                   **_BIG_FLEET},
        seeds=(0,),
        trace_runs=1,
    ),
    Workload(
        name="dense_fleet",
        why=("The spiral is short, so pathing is ~4% of host time. Meanwhile "
             "12k-55k broadcasts each reach 22 robots, so bus delivery, agents "
             "ingest and the auction machinery dominate. A bus or ingest fix "
             "shows here, and a pathing fix must show nothing."),
        overrides={"arena_side": 50.0, "n_sites": 30, "n_minerals": 400,
                   **_BIG_FLEET},
        seeds=(0,),
        trace_runs=3,
    ),
    Workload(
        name="log_replay",
        why=("This is the only workload where events decoding, verify and "
             "metrics do most of the work, and they are under 5% elsewhere. "
             "It is also the read side of the log: schema validation in "
             "load_jsonl would cost here while the write side stays flat."),
        overrides={},
        seeds=(0,),
        trace_runs=3,
        source="dense_fleet",
    ),
)}


def run_orders(workload: Workload, seed: int):
    """Endless orders of the workload's fixed run list, one per pass, drawn
    from `seed`.  A run's time depends on what ran before it (heap and
    cache state), so each pass takes a fresh order."""
    rng = random.Random(seed)
    while True:
        order = workload.runs()
        rng.shuffle(order)
        yield order


def run_key(policy: str, seed: int) -> str:
    return f"{policy}/{seed}"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_json(value) -> str:
    return sha256(json.dumps(value, sort_keys=True).encode())


# -- simulation workloads ------------------------------------------------------


def log_counts(records: list[dict], last_tick: int) -> Counter:
    """Counts read from one run's log: announcements, acks and declines,
    and the bus deliveries some robot acts on.

    A message published at tick t reaches every robot at t + 1, so only
    messages published before the last stepped tick were delivered.  Of
    each delivered message, announcements and closes concern the robots of
    the capable kind, bids and acks the auctioneer, and a winner
    declaration the winner.
    """
    counts: Counter = Counter()
    kinds = Counter(kind for _, kind in records[0]["robots"])
    capable = {"excavate": kinds["excavator"], "transport": kinds["hauler"]}
    for record in records:
        if record["type"] != "msg":
            continue
        variant = record["variant"]
        if variant == "announcement":
            counts["auction.announcements"] += 1
        elif variant == "ack":
            counts["auction.acks"] += 1
            if record["verdict"] == "declined":
                counts["auction.declines"] += 1
        if record["tick"] < last_tick:
            counts["bus.useful"] += (capable[record["task_type"]]
                                     if variant in ("announcement", "close") else 1)
    return counts


def _timed(outcome: dict, clock, start: float) -> None:
    """Store the seconds since `start`, corrected by `clock` if given."""
    if clock is None:
        outcome["seconds"] = outcome["raw_seconds"] = time.perf_counter() - start
    else:
        outcome["seconds"], outcome["raw_seconds"] = clock.lap()


def run_simulation(workload: Workload, policy: str, seed: int,
                   tracer=None, clock=None) -> dict:
    """One run: `isrusim.sweep` of a single (policy, seed), then the
    protocol verifier and a fingerprint of the log, inside the timing."""
    outcome: dict = {"run": run_key(policy, seed)}
    base = workload.config(policy, seed)

    def on_run(config, result) -> None:
        violations = isrusim.verify_records(result.log.records)
        data = result.log.dumps()
        sim = result.simulation
        outcome.update(
            status=result.status.value,
            violations=[str(v) for v in violations[:3]],
            n_violations=len(violations),
            sha256=sha256(data),
            ticks=sim.tick,
            publish_calls=sim.ctx.bus.messages_published,
            records=len(result.log),
        )
        if tracer is not None:
            tracer.counts.update(log_counts(result.log.records, sim.tick - 1))
            tracer.counts["events.records"] += len(result.log)
            tracer.forget_paths()

    if tracer is not None:  # the benchmark's own work is a layer of its own
        on_run = tracer.wrap("bench.on_run", on_run)
    if clock is not None:
        clock.restart()
    start = time.perf_counter()
    try:
        isrusim.sweep([policy], [seed], base_config=base, on_run=on_run)
    except Exception as exc:  # a crashing run is counted, not fatal
        outcome["error"] = f"{type(exc).__name__}: {exc}"
    _timed(outcome, clock, start)
    return outcome


def check_simulation(outcome: dict, golden: dict | None) -> str | None:
    """Why the run failed, or None: it raised, stalled, broke the protocol
    or missed its stored fingerprint."""
    if "error" in outcome:
        return outcome["error"]
    if outcome["status"] != "completed":
        return f"{outcome['status']} after {outcome['ticks']} ticks"
    if outcome["n_violations"]:
        return (f"{outcome['n_violations']} protocol violations, first: "
                f"{outcome['violations'][0]}")
    if golden is None:
        return "no stored fingerprint"
    wrong = [f"{k} {outcome[k]} != stored {golden[k]}"
             for k in ("sha256", "ticks", "publish_calls", "records")
             if outcome[k] != golden[k]]
    return "fingerprint mismatch: " + "; ".join(wrong) if wrong else None


# -- log replay ----------------------------------------------------------------


def replay_dir(out_dir: Path) -> Path:
    return out_dir / "replay_inputs"


def log_path(out_dir: Path, policy: str, seed: int) -> Path:
    # the layout `sweep(out_dir=...)` writes
    return replay_dir(out_dir) / "runs" / f"{policy}-seed{seed}" / "events.jsonl"


def write_replay_inputs(workload: Workload, out_dir: Path) -> None:
    """Set-up of log_replay: simulate the source workload's runs and let
    the sweep write their logs to disk."""
    source = WORKLOADS[workload.source]
    isrusim.sweep(POLICIES, source.seeds, base_config=source.config("fcfs", 0),
                  out_dir=replay_dir(out_dir))


def check_replay_inputs(workload: Workload, out_dir: Path,
                        golden: dict) -> str | None:
    """The written logs must be byte for byte the source's golden logs."""
    for policy, seed in workload.runs():
        path = log_path(out_dir, policy, seed)
        if not path.is_file():
            return f"missing replay input {path}"
        want = golden[workload.source][run_key(policy, seed)]["sha256"]
        if sha256(path.read_bytes()) != want:
            return f"replay input {path} does not match its stored fingerprint"
    return None


def replay_log(out_dir: Path, policy: str, seed: int, tracer=None,
               clock=None) -> dict:
    """Decode one log, verify it and collect its metrics, inside the timing."""
    outcome: dict = {"run": run_key(policy, seed)}
    path = log_path(out_dir, policy, seed)
    if clock is not None:
        clock.restart()
    start = time.perf_counter()
    try:
        log = isrusim.EventLog.load_jsonl(path)
        violations = isrusim.verify_records(log.records)
        report = isrusim.collect_metrics(log.records)
    except Exception as exc:  # a crashing replay is counted, not fatal
        outcome["error"] = f"{type(exc).__name__}: {exc}"
        _timed(outcome, clock, start)
        return outcome
    _timed(outcome, clock, start)
    outcome.update(
        report=report,
        records=len(log),
        n_violations=len(violations),
        violations=[str(v) for v in violations[:3]],
        # a completed run's last stepped tick is its completion tick
        ticks=(report.completion_ticks + 1
               if report.completion_ticks is not None else 0),
    )
    if tracer is not None:
        tracer.counts["events.records"] += len(log)
    return outcome


def check_replay(outcome: dict, golden: dict | None) -> str | None:
    if "error" in outcome:
        return outcome["error"]
    if outcome["n_violations"]:
        return (f"{outcome['n_violations']} protocol violations, first: "
                f"{outcome['violations'][0]}")
    if golden is None:
        return "no stored report digest"
    got = {"report_sha256": digest_json(outcome["report"].to_dict()),
           "records": outcome["records"], "ticks": outcome["ticks"]}
    wrong = [f"{k} {got[k]} != stored {golden[k]}" for k in got
             if got[k] != golden[k]]
    return "replay mismatch: " + "; ".join(wrong) if wrong else None


def summarize(outcomes: list[dict]) -> dict | None:
    """`build_summary` over the reports of a replay pass."""
    reports = [o["report"] for o in outcomes if "report" in o]
    return isrusim.build_summary(reports) if reports else None


# -- one pass ------------------------------------------------------------------


def run_pass(workload: Workload, order: list[tuple[str, int]], golden: dict,
             out_dir: Path, tracer=None,
             clock=None) -> tuple[float, float, list[dict], list[str]]:
    """Run `order` once.  Returns the pass's seconds (corrected by `clock`
    if given) and its raw host seconds, the outcome of each run and the
    failures found by checking them after the pass."""
    if workload.source is None:
        outcomes = [run_simulation(workload, p, s, tracer, clock)
                    for p, s in order]
        timed = outcomes
        check = check_simulation
    else:
        outcomes = [replay_log(out_dir, p, s, tracer, clock) for p, s in order]
        summary_timing: dict = {}
        if clock is not None:
            clock.restart()
        start = time.perf_counter()
        summary = summarize(outcomes)
        _timed(summary_timing, clock, start)
        timed = outcomes + [summary_timing]
        check = check_replay
    seconds = sum(o["seconds"] for o in timed)
    raw_seconds = sum(o["raw_seconds"] for o in timed)

    mine = golden.get(workload.name, {})
    failures = []
    for outcome in outcomes:
        problem = check(outcome, mine.get(outcome["run"]))
        outcome["failure"] = problem
        outcome.pop("report", None)
        if problem is not None:
            failures.append(f"{workload.name} {outcome['run']}: {problem}")
    if workload.source is not None and len(order) == len(workload.runs()):
        if summary is None or digest_json(summary) != mine.get("summary_sha256"):
            failures.append(f"{workload.name}: build_summary output does not "
                            f"match its stored digest")
    return seconds, raw_seconds, outcomes, failures
