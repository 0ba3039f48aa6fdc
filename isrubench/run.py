"""Benchmark of the isrusim simulator, end to end and per module.

Run from the root of a checkout (the directory holding ``src/isrusim``)::

    python3 isrubench/run.py --workload reference --seed 0 --seconds 18 --trace 0
    python3 isrubench/run.py --workload all        # every workload, one table
    python3 isrubench/run.py --write-golden        # re-record golden.json

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-module metrics of
a separate traced pass.  Every run is checked against the golden log
fingerprints in ``golden.json``; a run that raises, stalls, breaks the
protocol or misses its fingerprint counts as failed.

Each workload runs in child processes of its own, one after another:
three set-up probes (import plus building the inputs; ``setup_s`` is their
median; one probe when tracing) and one measuring process, which runs one
untimed warm-up run and then whole passes over the workload's fixed run
list, each in a fresh order, until ``--seconds`` would be exceeded, always
at least two passes.  A
traced run instead makes two traced passes over the first few runs of the
list, between two untraced ones.  Rates are per median pass; on log_replay,
``ticks_per_s`` counts the simulated ticks the replayed logs cover.
Details, provenance and any failure messages go to ``.isrubench_out/`` in
the checkout.

The host's speed changes by up to a factor of two from one stretch of time
to the next, so the end-to-end times, and the rates made from them, are
host seconds corrected for the host's speed as `hostclock.HostClock`
measures it during every run and set-up: the seconds the work would take
on a host where the clock's fixed probe takes ``hostclock.NOMINAL_PROBE_S``.
The plain host seconds are kept in the detail file and the table.  Traced
passes use plain host seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".isrubench_out"
GOLDEN = HERE / "golden.json"

SETUP_PROBES = 3
# Passes are host-speed corrected (hostclock.py), so two already agree
# closely; arena200's second pass (about 15 s) may run past --seconds.
MIN_PASSES = 2
# every child must be done this long after the benchmark starts
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "run_s.p50": "s", "run_s.p90": "s",
    "ticks_per_s": "1/s", "records_per_s": "1/s", "peak_rss_mb": "MB",
}


def _fail(message: str) -> int:
    print(f"isrubench: {message}", file=sys.stderr)
    return 2


# -- child processes -------------------------------------------------------------


def _child_setup(workload_name: str) -> dict:
    """Import the program and build the workload's inputs, timed."""
    import hostclock

    sys.path.insert(0, str(SRC))
    clock = hostclock.HostClock()
    import isrusim  # noqa: F401  (the import is what is timed)
    import workloads as wl
    workload = wl.WORKLOADS[workload_name]
    if workload.source is None:
        inputs = [workload.config(p, s) for p, s in workload.runs()]
    else:
        wl.write_replay_inputs(workload, OUT)
        inputs = workload.runs()
    setup_s, raw_setup_s = clock.lap()
    clock.stop()
    error = None
    if workload.source is not None:
        error = wl.check_replay_inputs(workload, OUT, _load_golden())
    return {"setup_s": setup_s, "raw_setup_s": raw_setup_s,
            "inputs": len(inputs), "error": error}


def _child_measure(workload_name: str, seed: int, seconds: float,
                   trace: bool) -> dict:
    """Warm up, then measure (trace 0) or trace (trace 1) the workload."""
    import gc
    import resource

    import hostclock

    sys.path.insert(0, str(SRC))
    import workloads as wl

    workload = wl.WORKLOADS[workload_name]
    golden = _load_golden()
    orders = wl.run_orders(workload, seed)
    first = next(orders)
    failures: list[str] = []
    if workload.source is not None:
        problem = wl.check_replay_inputs(workload, OUT, golden)
        if problem is not None:
            return {"failures": [problem], "attempted": 1}

    clock = None if trace else hostclock.HostClock()
    warmup_s, _, _, warm_failures = wl.run_pass(workload, first[:1], golden,
                                                OUT, clock=clock)
    failures += warm_failures
    result: dict = {"warmup_s": warmup_s, "warmup_runs": 1}

    if not trace:
        passes, raw_passes, elapsed, outcomes, order_keys = [], [], [], [], []
        begin = time.perf_counter()
        order = first
        while True:
            gc.collect()
            start = time.perf_counter()
            pass_s, raw_s, pass_outcomes, pass_failures = wl.run_pass(
                workload, order, golden, OUT, clock=clock)
            elapsed.append(time.perf_counter() - start)
            passes.append(pass_s)
            raw_passes.append(raw_s)
            outcomes += pass_outcomes
            failures += pass_failures
            order_keys.append([wl.run_key(*r) for r in order])
            if (len(passes) >= MIN_PASSES and time.perf_counter() - begin
                    + statistics.median(elapsed) > seconds):
                break
            order = next(orders)
        clock.stop()
        result.update(
            orders=order_keys,
            pass_seconds=passes,
            raw_pass_seconds=raw_passes,
            host_clock=clock.summary(),
            run_seconds=[o["seconds"] for o in outcomes],
            raw_run_seconds=[o["raw_seconds"] for o in outcomes],
            ticks=sum(o.get("ticks", 0) for o in outcomes),
            records=sum(o.get("records", 0) for o in outcomes),
            attempted=1 + len(outcomes),
            peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        )
    else:
        result.update(_trace(wl, workload, first[:workload.trace_runs], golden,
                             failures))
        result["order"] = [wl.run_key(*r) for r in first[:workload.trace_runs]]
    result["failures"] = failures
    return result


def _trace(wl, workload, subset: list, golden: dict, failures: list) -> dict:
    """Two traced passes over `subset`, between two untraced ones."""
    import gc
    import tracing

    inside_fraction = tracing.calibrate()

    def one_pass(tracer=None) -> float:
        gc.collect()
        if tracer is not None:
            tracer.install()
        try:
            pass_s, _, _, pass_failures = wl.run_pass(workload, subset, golden,
                                                      OUT, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        failures.extend(pass_failures)
        return pass_s

    # untraced passes before and after the traced ones, so a drift in
    # machine speed does not read as tracer cost
    untraced_before = one_pass()
    tracers = [tracing.Tracer(), tracing.Tracer()]
    traced_s = [one_pass(t) for t in tracers]
    untraced_s = (untraced_before + one_pass()) / 2
    for tracer, wall in zip(tracers, traced_s):
        tracer.attribute_overhead(wall, untraced_s, inside_fraction)
    # one file per workload, so repeated runs reuse the space
    tracers[0].write_spans(OUT / "spans" / workload.name)

    metrics = [tracing.layer_metrics(t, w, untraced_s)
               for t, w in zip(tracers, traced_s)]
    exact = [n for n, unit in tracing.PER_LAYER_UNITS.items()
             if unit in tracing.EXACT_UNITS]
    counted = [{**t.call_counts(), **t.counts, **{n: m[n] for n in exact}}
               for t, m in zip(tracers, metrics)]
    drift = {k: [counted[0].get(k), counted[1].get(k)]
             for k in sorted(counted[0].keys() | counted[1].keys())
             if counted[0].get(k) != counted[1].get(k)}
    if drift:
        failures.append(f"counts differ between two traced passes of the same "
                        f"inputs: {drift}")
    layer_self = [t.layer_self() for t in tracers]
    return {
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "tracer_overhead_per_span_s": [t.overhead for t in tracers],
        # counts from the first pass (the second must equal it), times averaged
        "per_layer": {n: metrics[0][n] if n in exact
                      else (metrics[0][n] + metrics[1][n]) / 2
                      for n in tracing.PER_LAYER_UNITS},
        "layer_self_s": {k: (layer_self[0][k] + layer_self[1][k]) / 2
                         for k in layer_self[0]},
        "span_calls": counted[0],
        "untraced_entry_points": tracers[0].missing,
        "attempted": 1 + 4 * len(subset),
    }


def _load_golden() -> dict:
    return json.loads(GOLDEN.read_text())


def _write_golden() -> dict:
    """Run every workload's fixed list once and record what it produced."""
    sys.path.insert(0, str(SRC))
    import workloads as wl

    golden: dict = {}
    for name, workload in wl.WORKLOADS.items():
        entry: dict = {}
        if workload.source is None:
            for policy, seed in workload.runs():
                outcome = wl.run_simulation(workload, policy, seed)
                if "error" in outcome or outcome["status"] != "completed":
                    raise SystemExit(f"{name} {policy}/{seed} did not complete: "
                                     f"{outcome.get('error', outcome.get('status'))}")
                entry[outcome["run"]] = {k: outcome[k] for k in
                                         ("sha256", "ticks", "publish_calls", "records")}
        else:
            wl.write_replay_inputs(workload, OUT)
            outcomes = [wl.replay_log(OUT, p, s) for p, s in workload.runs()]
            for outcome in outcomes:
                if "error" in outcome:
                    raise SystemExit(f"{name} {outcome['run']}: {outcome['error']}")
                entry[outcome["run"]] = {
                    "report_sha256": wl.digest_json(outcome["report"].to_dict()),
                    "records": outcome["records"], "ticks": outcome["ticks"]}
            entry["summary_sha256"] = wl.digest_json(wl.summarize(outcomes))
        golden[name] = entry
        print(f"recorded {name}: {len(workload.runs())} runs", flush=True)
    return golden


# -- the parent process ----------------------------------------------------------


def _spawn(role: str, args: argparse.Namespace, deadline: float) -> dict:
    """Run this script as a child in `role`; its last stdout line is JSON."""
    command = [sys.executable, str(Path(__file__).resolve()), "--role", role,
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError(f"no time left for the {role} child")
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{role} child exited with {proc.returncode}:\n"
                           f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between the samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _end_to_end(setup: list[float], measured: dict) -> dict[str, tuple[float, int]]:
    """Each end-to-end metric as (value, sample count)."""
    passes = measured["pass_seconds"]
    runs = measured["run_seconds"]
    wall = statistics.median(passes)
    # every pass makes the same runs, so a pass's rate is its work over the
    # median pass
    return {
        "setup_s": (statistics.median(setup), len(setup)),
        "wall_s": (wall, len(passes)),
        "run_s.p50": (statistics.median(runs), len(runs)),
        "run_s.p90": (_quantile(runs, 90), len(runs)),
        "ticks_per_s": (measured["ticks"] / len(passes) / wall, len(passes)),
        "records_per_s": (measured["records"] / len(passes) / wall, len(passes)),
        "peak_rss_mb": (measured["peak_rss_kb"] / 1024.0, 1),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _provenance(workload, args: argparse.Namespace) -> dict:
    import workloads as wl

    return {
        "nproc": os.cpu_count(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "loadavg_at_start": list(os.getloadavg()),
        "workload": workload.name,
        "rationale": workload.why,
        "scenario_seeds": list(workload.seeds),
        "policies": list(wl.POLICIES),
        "replays": workload.source,
        "bench_seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _bench_one(workload, args: argparse.Namespace) -> dict:
    """Set-up probes and the measuring child for one workload."""
    deadline = time.monotonic() + DEADLINE_S
    record: dict = {"provenance": _provenance(workload, args)}
    setup, raw_setup, failures = [], [], []
    # a traced run reports no set-up time; one probe builds its inputs
    for _ in range(1 if args.trace else SETUP_PROBES):
        probe = _spawn("setup", args, deadline)
        setup.append(probe["setup_s"])
        raw_setup.append(probe["raw_setup_s"])
        if probe["error"]:
            failures.append(probe["error"])
    measured = _spawn("measure", args, deadline)
    failures += measured.pop("failures")
    record.update(setup_samples=setup, raw_setup_samples=raw_setup,
                  measured=measured, failures=failures)
    if args.trace:
        record["metrics"] = {n: (v, None) for n, v in
                             measured.get("per_layer", {}).items()}
    elif "pass_seconds" in measured:
        record["metrics"] = _end_to_end(setup, measured)
    else:
        record["metrics"] = {}
    record["attempted"] = measured.get("attempted", 1)
    # one message per failed run, plus any failed input or count check
    record["failed"] = min(len(failures), record["attempted"])
    record["correct"] = not failures
    return record


def _units(args: argparse.Namespace) -> dict[str, str]:
    if args.trace:
        import tracing
        return tracing.PER_LAYER_UNITS
    return END_TO_END_UNITS


def _print_table(name: str, record: dict, units: dict[str, str]) -> None:
    prov = record["provenance"]
    print(f"== {name}: {prov['rationale']}")
    print(f"  nproc {prov['nproc']}, {prov['python']}, {prov['cpu_model']}, "
          f"commit {prov['git_commit']}, load {prov['loadavg_at_start']}, "
          f"scenario seeds {prov['scenario_seeds']}")
    for metric, (value, samples) in record["metrics"].items():
        count = "" if samples is None else f"  ({samples} samples)"
        print(f"  {metric:<28} {value:>16.6g} {units[metric]}{count}")
    measured = record["measured"]
    if "raw_pass_seconds" in measured:
        clock = measured["host_clock"]
        print(f"  host seconds: wall {statistics.median(measured['raw_pass_seconds']):.4g}, "
              f"set-up {statistics.median(record['raw_setup_samples']):.4g}; "
              f"{clock['probes']} speed probes, {clock['probe_s.min']:.4g} to "
              f"{clock['probe_s.max']:.4g} s, median {clock['probe_s.p50']:.4g} s "
              f"(nominal {clock['nominal_probe_s']})")
    print(f"  failed_frac                  {record['failed']}/{record['attempted']}")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")
    for name in record["measured"].get("untraced_entry_points", []):
        print(f"  note: {name} no longer exists; its metrics read 0")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true")
    parser.add_argument("--role", choices=("setup", "measure"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "isrusim" / "__init__.py").is_file():
        return _fail(f"no isrusim sources under {SRC}; run from a checkout")
    if args.role == "setup":
        print(json.dumps(_child_setup(args.workload)))
        return 0
    if args.role == "measure":
        print(json.dumps(_child_measure(args.workload, args.seed, args.seconds,
                                        bool(args.trace))))
        return 0
    if args.write_golden:
        GOLDEN.write_text(json.dumps(_write_golden(), indent=1, sort_keys=True) + "\n")
        print(f"wrote {GOLDEN}")
        return 0
    if not GOLDEN.is_file():
        return _fail(f"missing golden data {GOLDEN}")

    sys.path.insert(0, str(SRC))
    import workloads as wl

    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in wl.WORKLOADS for n in names):
        return _fail(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(wl.WORKLOADS)} or all")
    units = _units(args)
    OUT.mkdir(exist_ok=True)
    records = {}
    for name in names:
        one = argparse.Namespace(**{**vars(args), "workload": name})
        try:
            record = _bench_one(wl.WORKLOADS[name], one)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            return _fail(f"{name}: {exc}")
        records[name] = record
        detail = OUT / f"{name}-seed{args.seed}-trace{args.trace}.json"
        detail.write_text(json.dumps(record, indent=1) + "\n")
        _print_table(name, record, units)
        print(f"  detail: {detail.relative_to(ROOT)}")

    prefix = len(names) > 1
    result = {
        "correct": all(r["correct"] for r in records.values()),
        "attempted": sum(r["attempted"] for r in records.values()),
        "failed": sum(r["failed"] for r in records.values()),
        "metrics": {
            (f"{name}.{metric}" if prefix else metric): {"value": value,
                                                          "unit": units[metric]}
            for name, r in records.items()
            for metric, (value, _) in r["metrics"].items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
