"""Span tracing of isrusim from outside the package.

`Tracer.install()` replaces public functions and methods of each isrusim
module, in the namespace they are called from, with wrappers that record a
span (name, start, end, parent) per call and a few counts derived from the
call's arguments and result.  `Tracer.uninstall()` puts the originals back.
The program itself is not changed, and with no tracer installed it runs
exactly as shipped.

A span name is ``<layer>.<function>``; the layer is the isrusim module
whose code the span runs (the site scan lives in ``agents.py`` but tests
world geometry, so it is a ``world`` span).  A layer's self time is the
time its spans were open minus the time their child spans were open.  Each
wrapper costs some time of its own.  The pass is also run untraced, and
`attribute_overhead()` spreads the difference between the two walls over
the spans, split between a span and its parent as `calibrate()` measured
on a no-op function; `layer_self()` then subtracts it, so self times
describe the program rather than the tracer.  Counting hooks are timed
and booked to the ``bench`` layer.

Spans are kept in memory in flat arrays and written out by `write_spans()`:
a JSON header (names, layers, count) plus a binary file holding, in order,
the int32 name ids, int32 parent indices (-1 for a root), float64 starts
and float64 ends, all in host seconds from `time.perf_counter`.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from array import array
from bisect import bisect_left
from collections import Counter
from itertools import accumulate
from pathlib import Path

LAYERS = ("world", "spiral", "pathing", "bus", "agents", "auction", "policy",
          "engine", "events", "verify", "metrics", "bench")

_perf_counter = time.perf_counter


class Tracer:
    """Spans and counts of one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.inclusive: list[float] = []
        self.self_time: list[float] = []
        self.children: list[int] = []
        self.counts: Counter = Counter()
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self._path_prefix: dict[int, tuple[object, list[float]]] = {}
        # (inside, outside): per-span wrapper cost charged to the span
        # itself and to its parent
        self.overhead = (0.0, 0.0)

    # -- spans ---------------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.inclusive.append(0.0)
            self.self_time.append(0.0)
            self.children.append(0)
        return nid

    def open(self, nid: int) -> list:
        stack = self._stack
        index = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(stack[-1][0] if stack else -1)
        self.span_end.append(0.0)
        frame = [index, nid, 0.0, 0.0]
        stack.append(frame)
        start = _perf_counter()
        self.span_start.append(start)
        frame[2] = start
        return frame

    def close(self, frame: list) -> None:
        end = _perf_counter()
        index, nid, start, child_time = frame
        self.span_end[index] = end
        duration = end - start
        stack = self._stack
        stack.pop()
        self.calls[nid] += 1
        self.inclusive[nid] += duration
        self.self_time[nid] += duration - child_time
        if stack:
            parent = stack[-1]
            parent[3] += duration
            self.children[parent[1]] += 1

    def wrap(self, name: str, fn, after=None, before=None):
        """`fn` with a span around each call.  `before(args)` runs ahead of
        the call and its value goes to `after(args, result, value)`, which
        runs after it; the time `after` takes is booked to the benchmark."""
        nid = self.name_id(name)
        open_, close = self.open, self.close

        if after is None:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                frame = open_(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(frame)
        else:
            hook_nid = self.name_id("bench.count_hooks")
            self_time, inclusive = self.self_time, self.inclusive

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                value = before(args) if before is not None else None
                frame = open_(nid)
                try:
                    result = fn(*args, **kwargs)
                    hook_start = _perf_counter()
                    after(args, result, value)
                    # the count is the benchmark's work, not the span's
                    hook_s = _perf_counter() - hook_start
                    frame[3] += hook_s
                    self_time[hook_nid] += hook_s
                    inclusive[hook_nid] += hook_s
                finally:
                    close(frame)
                return result
        return traced

    # -- patching --------------------------------------------------------------

    def _original(self, owner, attr: str):
        """`owner.attr` as stored, or None (noted in `missing`) when a
        change to the program removed it; its metrics then read zero."""
        original = inspect.getattr_static(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        return original

    def patch(self, owner, attr: str, name: str, after=None, before=None) -> None:
        """Replace `owner.attr` by its traced form, keeping static methods
        static."""
        original = self._original(owner, attr)
        if original is None:
            return
        if isinstance(original, staticmethod):
            replacement = staticmethod(self.wrap(name, original.__func__, after, before))
        else:
            replacement = self.wrap(name, original, after, before)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def count_calls(self, owner, attr: str, counter: str) -> None:
        """Replace `owner.attr` by a form that only counts its calls."""
        original = self._original(owner, attr)
        if original is None:
            return
        counts = self.counts

        @functools.wraps(original)
        def counted(*args, **kwargs):
            counts[counter] += 1
            return original(*args, **kwargs)

        self._patches.append((owner, attr, original))
        setattr(owner, attr, counted)

    def install(self) -> "Tracer":
        """Wrap every traced entry point of isrusim."""
        import isrusim
        from isrusim import (agents, auction, bus, engine, events, metrics,
                             pathing, policy, spiral)

        counts = self.counts

        def count_scan(args, found, _):
            world = args[2] if len(args) == 4 else args[1]
            counts["world.scan_site_tests"] += len(world.sites)
            counts["world.scan_found"] += len(found)

        def count_delivered(args, envelopes, _):
            counts["bus.delivered"] += len(envelopes)

        def count_segments(args, point, _):
            counts["pathing.segments_walked"] += self._segments_walked(*args)

        def count_encoded(args, data, _):
            counts["events.encode_bytes"] += len(data)

        def log_length(args):
            return len(args[0].ctx.log.records)

        def count_quiet(args, _, before):
            if len(args[0].ctx.log.records) == before:
                counts["engine.quiet_ticks"] += 1

        original_planner_factory = self._original(engine, "straight_line_planner")

        def traced_planner_factory(arena_side):
            return self.wrap("pathing.plan", original_planner_factory(arena_side))

        # world geometry and the site scan (called from agents)
        self.patch(agents, "scan_swept_segment", "world.scan", count_scan)
        self.patch(agents, "scan_for_sites", "world.scan", count_scan)
        for fn in ("claim_site", "release_site", "transfer_mineral_to_plant"):
            self.patch(agents, fn, f"world.{fn}")
        self.patch(engine, "generate_scenario", "world.generate_scenario")
        # spiral plans (engine builds the scouts' plans; world builds them
        # again, by module attribute, to keep sites out of blind spots)
        self.patch(engine, "build_spiral", "spiral.build_spiral")
        self.patch(spiral, "build_spiral", "spiral.build_spiral")
        # pathing
        self.patch(pathing, "point_along", "pathing.point_along", count_segments)
        self.patch(pathing.PathCursor, "step", "pathing.PathCursor.step")
        if original_planner_factory is not None:
            self._patches.append((engine, "straight_line_planner",
                                  original_planner_factory))
            engine.straight_line_planner = traced_planner_factory
        # bus
        self.patch(bus.BroadcastBus, "publish", "bus.publish")
        self.patch(bus.BroadcastBus, "drain_inbox", "bus.drain_inbox",
                   count_delivered)
        # agents: the step and its phases, and the auction timers
        self.patch(agents.RobotController, "step", "agents.step")
        self.patch(agents.RobotController, "fire_auction_timers",
                   "agents.fire_auction_timers")
        self.patch(agents.RobotController, "_ingest", "agents._ingest")
        # auction (called from agents; select_winner from inside auction)
        for fn in ("open_auction", "record_bid", "handle_ack",
                   "step_auction_timers", "submit_bid", "evaluate_self_utility"):
            self.patch(agents, fn, f"auction.{fn}")
        self.patch(auction, "select_winner", "auction.select_winner")
        # policy
        for method in ("bid_filter", "resolve_wins", "paired_hauler", "parent_of"):
            self.patch(policy.Policy, method, f"policy.{method}")
        # engine
        self.patch(engine.Simulation, "__init__", "engine.Simulation.__init__")
        self.patch(engine.Simulation, "step", "engine.step", count_quiet,
                   log_length)
        self.patch(engine.Simulation, "run", "engine.run")
        # what a tick does besides stepping the controllers, timed directly:
        # a per-tick residue this small drowns in the correction for the
        # controllers' spans
        for check in ("_assert_mineral_conservation", "_goal_reached"):
            self.patch(engine.Simulation, check, "engine.checks")
        self.patch(engine, "run_to_completion", "engine.run_to_completion")
        # events
        self.count_calls(events.EventLog, "append", "events.append_calls")
        self.patch(events.EventLog, "dumps", "events.dumps", count_encoded)
        self.patch(events.EventLog, "dump_jsonl", "events.dump_jsonl")
        self.patch(events.EventLog, "load_jsonl", "events.load_jsonl")
        # verify and metrics, by the names the benchmark and the engine use
        self.patch(isrusim, "verify_records", "verify.verify_records")
        for owner in (isrusim, metrics):
            self.patch(owner, "collect_metrics", "metrics.collect_metrics")
            self.patch(owner, "build_summary", "metrics.build_summary")
        self.patch(isrusim, "sweep", "metrics.sweep")
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def forget_paths(self) -> None:
        """Drop the per-path prefix sums kept for `segments_walked`."""
        self._path_prefix.clear()

    def _segments_walked(self, path, distance: float) -> int:
        """Waypoint segments `point_along(path, distance)` looks at."""
        if distance <= 0.0:
            return 0
        entry = self._path_prefix.get(id(path))
        if entry is None:
            wps = path.waypoints
            lengths = (wps[i].distance_to(wps[i + 1]) for i in range(len(wps) - 1))
            # the path is kept alive with its sums, so its id stays unique
            entry = self._path_prefix[id(path)] = (path, list(accumulate(lengths)))
        prefix = entry[1]
        return min(bisect_left(prefix, distance) + 1, len(prefix))

    # -- results ---------------------------------------------------------------

    def by_name(self, name: str) -> tuple[int, float]:
        """(calls, inclusive seconds) of one span name."""
        nid = self._ids.get(name)
        return (0, 0.0) if nid is None else (self.calls[nid], self.inclusive[nid])

    def _corrected_self(self, nid: int) -> float:
        """Self time net of the estimated wrapper cost.  The estimate is an
        average over all spans, so a name whose true self time is near zero
        can come out below it; it then reads zero."""
        inside, outside = self.overhead
        return max(0.0, self.self_time[nid] - self.calls[nid] * inside
                   - self.children[nid] * outside)

    def attribute_overhead(self, traced_s: float, untraced_s: float,
                           inside_fraction: float) -> None:
        """Charge the traced pass's extra wall time to the tracer: what the
        benchmark's own spans do is not tracer cost, the rest is spread
        evenly over the spans."""
        self.overhead = (0.0, 0.0)
        extra = traced_s - untraced_s - self.layer_self()["bench"]
        per_span = max(0.0, extra) / max(1, len(self.span_start))
        self.overhead = (per_span * inside_fraction,
                         per_span * (1.0 - inside_fraction))

    def layer_self(self) -> dict[str, float]:
        """Self seconds per layer, net of the tracer's own cost."""
        totals = dict.fromkeys(LAYERS, 0.0)
        for nid, name in enumerate(self.names):
            totals[name.split(".", 1)[0]] += self._corrected_self(nid)
        return totals

    def call_counts(self) -> dict[str, int]:
        return {name: self.calls[nid] for nid, name in enumerate(self.names)}

    def write_spans(self, stem: Path) -> None:
        stem.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "names": self.names,
            "layers": [n.split(".", 1)[0] for n in self.names],
            "count": len(self.span_start),
            "binary": stem.name + ".bin",
            "fields": ["name:int32", "parent:int32", "start:float64",
                       "end:float64"],
            "clock": "time.perf_counter, host seconds",
        }
        stem.with_suffix(".json").write_text(json.dumps(header, indent=1) + "\n")
        with open(stem.parent / header["binary"], "wb") as fh:
            for column in (self.span_name, self.span_parent, self.span_start,
                           self.span_end):
                column.tofile(fh)


def calibrate(n: int = 20000) -> float:
    """The share of a span's wrapper cost that lands inside the span.

    On a no-op function, the self time the tracer records is the inside
    part; what a traced call costs beyond a plain call and beyond that is
    the outside part, which lands in the caller's self time.  Median of
    five trials.
    """
    def noop(a, b):
        return None

    shares = []
    for _ in range(5):
        tracer = Tracer()
        traced = tracer.wrap("bench.noop", noop)
        t0 = _perf_counter()
        for i in range(n):
            noop(i, n)
        plain = _perf_counter() - t0
        t0 = _perf_counter()
        for i in range(n):
            traced(i, n)
        cost = _perf_counter() - t0 - plain
        shares.append(min(1.0, tracer.self_time[0] / cost) if cost > 0 else 0.0)
    return sorted(shares)[2]


# Units of the per-layer metrics.  "count" and "ratio" metrics are derived
# from counts only and must repeat exactly for the same inputs; "s", "us",
# "share" and "x" are host-time figures.
PER_LAYER_UNITS: dict[str, str] = {
    "pathing.step_s": "s", "pathing.step_calls": "count",
    "pathing.point_along_calls": "count", "pathing.segments_walked": "count",
    "pathing.plan_calls": "count", "pathing.plan_s": "s",
    "world.scan_s": "s", "world.scan_calls": "count",
    "world.scan_site_tests": "count", "world.scan_hit_ratio": "ratio",
    "world.generate_s": "s", "spiral.build_s": "s",
    "bus.publish_calls": "count", "bus.publish_s": "s",
    "bus.drain_calls": "count", "bus.delivered": "count",
    "bus.useful_ratio": "ratio",
    "agents.step_s": "s", "agents.self_s": "s", "agents.timers_s": "s",
    "agents.ingest_s": "s",
    "auction.self_s": "s", "auction.opened": "count",
    "auction.rounds_per_auction": "ratio", "auction.decline_ratio": "ratio",
    "policy.bid_filter_s": "s", "policy.resolve_wins_s": "s",
    "engine.tick_s": "s", "engine.self_s": "s", "engine.ticks": "count",
    "engine.us_per_tick": "us", "engine.quiet_tick_ratio": "ratio",
    "events.append_calls": "count", "events.encode_s": "s",
    "events.encode_bytes": "count", "events.decode_s": "s",
    "events.records": "count",
    "verify.s": "s", "metrics.collect_s": "s", "metrics.summary_s": "s",
    **{f"{layer}.self_share": "share" for layer in LAYERS if layer != "bench"},
    "trace.overhead": "x",
}
EXACT_UNITS = ("count", "ratio")


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer, traced_wall: float,
                  untraced_wall: float) -> dict[str, float]:
    """Every per-layer metric of one traced pass.  A ratio whose base is
    zero (say, scans on a workload that never scans) reads 0."""
    def calls(name: str) -> int:
        return tracer.by_name(name)[0]

    def seconds(name: str) -> float:
        return tracer.by_name(name)[1]

    c = tracer.counts
    own = tracer.layer_self()
    total_self = sum(own.values())
    ticks = calls("engine.step")
    opened = calls("auction.open_auction")
    values = {
        "pathing.step_s": seconds("pathing.PathCursor.step"),
        "pathing.step_calls": calls("pathing.PathCursor.step"),
        "pathing.point_along_calls": calls("pathing.point_along"),
        "pathing.segments_walked": c["pathing.segments_walked"],
        "pathing.plan_calls": calls("pathing.plan"),
        "pathing.plan_s": seconds("pathing.plan"),
        "world.scan_s": seconds("world.scan"),
        "world.scan_calls": calls("world.scan"),
        "world.scan_site_tests": c["world.scan_site_tests"],
        "world.scan_hit_ratio": _ratio(c["world.scan_found"],
                                       c["world.scan_site_tests"]),
        "world.generate_s": seconds("world.generate_scenario"),
        "spiral.build_s": seconds("spiral.build_spiral"),
        "bus.publish_calls": calls("bus.publish"),
        "bus.publish_s": seconds("bus.publish"),
        "bus.drain_calls": calls("bus.drain_inbox"),
        "bus.delivered": c["bus.delivered"],
        "bus.useful_ratio": _ratio(c["bus.useful"], c["bus.delivered"]),
        "agents.step_s": seconds("agents.step"),
        "agents.self_s": own["agents"],
        "agents.timers_s": seconds("agents.fire_auction_timers"),
        "agents.ingest_s": seconds("agents._ingest"),
        "auction.self_s": own["auction"],
        "auction.opened": opened,
        "auction.rounds_per_auction": _ratio(c["auction.announcements"], opened),
        "auction.decline_ratio": _ratio(c["auction.declines"], c["auction.acks"]),
        "policy.bid_filter_s": seconds("policy.bid_filter"),
        "policy.resolve_wins_s": seconds("policy.resolve_wins"),
        "engine.tick_s": seconds("engine.step"),
        # the tick minus the controllers: conservation and goal checks
        "engine.self_s": seconds("engine.checks"),
        "engine.ticks": ticks,
        "engine.us_per_tick": _ratio(seconds("engine.step"), ticks) * 1e6,
        "engine.quiet_tick_ratio": _ratio(c["engine.quiet_ticks"], ticks),
        "events.append_calls": c["events.append_calls"],
        "events.encode_s": seconds("events.dumps") + seconds("events.dump_jsonl"),
        "events.encode_bytes": c["events.encode_bytes"],
        "events.decode_s": seconds("events.load_jsonl"),
        "events.records": c["events.records"],
        "verify.s": seconds("verify.verify_records"),
        "metrics.collect_s": seconds("metrics.collect_metrics"),
        "metrics.summary_s": seconds("metrics.build_summary"),
        "trace.overhead": _ratio(traced_wall, untraced_wall),
    }
    for layer, self_s in own.items():
        if layer != "bench":
            values[f"{layer}.self_share"] = _ratio(self_s, total_self)
    return values
