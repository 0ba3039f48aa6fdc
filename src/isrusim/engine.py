"""Deterministic tick loop.

Each tick t runs the same fixed phases: the bus delivers the acks of tick
t-1 to inboxes, files the auctions announced or closed at t-1 on the boards
of open auctions, and delivers the winner declarations of tick t -
`win_resolution_window` to their winners' inboxes, the woken robots step in
kind-then-name order (taking their inboxes, acting, messaging, writing
their bids in the auctions on the boards), then, on ticks that are a
multiple of `bid_window`, every robot holding open auctions fires its
auction timers, which read each closing round's bids made before t off the
auction's answers, then the invariants and termination are checked.  An
open auction is one object, in its auctioneer's book and, from the tick
after its announcement, on its board; `state_digest` lists each once, and
the boards by key.  A robot wakes when it has mail (an ack or a win; a bid
is no mail), when the open auctions inside its bid scope change, at its own
dig, load or unload deadline, and when another robot's step changes what it
acts on; any other step of it would change nothing.  A robot woken by its
board alone (an empty inbox, its `wake_tick` still ahead) only bids
(`RobotController._place_bids`), since the rest of its step could change
nothing either.  Only a bidder gets an empty inbox
(`bus.BroadcastBus.deliver`), and before its `wake_tick` its `_act` has
nothing to do, activity by activity: an idle excavator or hauler does
nothing; a courier acts only at its arrival and a digging, loading or
unloading robot only at its deadline, which are its `wake_tick`; an
excavator waiting for a hauler acts once its bucket is emptied, and
`take_bucket` wakes it then.  A standby hauler and a scout bid in nothing.
Nor can its `wake_tick` change: a bidder's `_next_wake` reads only its
activity, deadline and last move, which only `_act` sets.  A courier, on
its way to a site or to the plant, wakes only at its arrival tick; a
standby hauler one tick after the last move of its walk to its spot; a
searching scout only at the tick it first has a site still undiscovered in
scan range, at its spiral's last move, or on mail.  Their poses and
odometry lag in between, so the snapshots, `state_digest` and the `run_end`
record bring every robot up to date first (`RobotController.sync`).  A tick
with no mail and no robot due skips the robot scan.  The checks run at tick
0 and at every tick whose log grew, since every mineral move, discovery and
auction open or close appends a record.  The only randomness in a run is
the scenario generator's seed, so equal configs produce byte-identical
event logs.
"""

from __future__ import annotations

import hashlib
import json
import math
import weakref
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING

from .agents import (
    ExcavatorController,
    HaulerController,
    RobotController,
    RobotState,
    ScoutActivity,
    ExcavatorActivity,
    HaulerActivity,
    ScoutController,
)
from .bus import BroadcastBus
from .events import EventLog
from .policy import Policy, make_policy
from .spiral import build_spiral
from .world import (
    START_CIRCLE_RADIUS,
    InvariantError,
    Point,
    ResourceSite,
    RobotKind,
    ScenarioConfig,
    WorldState,
    generate_scenario,
)

if TYPE_CHECKING:
    from .metrics import MetricsReport


class RunStatus(str, Enum):
    RUNNING = "running"
    COMPLETED = "completed"
    STALLED = "stalled"


@dataclass
class SimContext:
    """Everything an agent may touch during its own step."""

    config: ScenarioConfig
    world: WorldState
    bus: BroadcastBus
    log: EventLog
    policy: Policy
    controllers: dict[str, RobotController] = field(default_factory=dict)
    _site_by_location: dict[Point, ResourceSite] = field(default_factory=dict)

    def site_at(self, loc: list[float]) -> ResourceSite:
        """The site at `loc`, a record's [x, y], which equals its location."""
        site = self._site_by_location.get(tuple(loc))
        if site is None:
            raise ValueError(f"no resource site at {loc}")
        return site


def _start_poses(config: ScenarioConfig, plant: Point) -> list[Point]:
    names = config.robot_names()
    n = len(names)
    poses = []
    for k in range(n):
        angle = 2.0 * math.pi * k / n
        poses.append(Point(plant.x + START_CIRCLE_RADIUS * math.cos(angle),
                           plant.y + START_CIRCLE_RADIUS * math.sin(angle)))
    return poses


class Simulation:
    """One run: world, fleet, bus and event log, advanced tick by tick."""

    def __init__(self, config: ScenarioConfig, snapshots: bool = False):
        self.config = config
        self.snapshots = snapshots
        self.status = RunStatus.RUNNING
        self.tick = 0
        self.completed_tick: int | None = None
        self._finished = False

        plans = build_spiral(config.arena_side, config.cell_side, config.n_scouts)
        world = generate_scenario(config, plans)
        log = EventLog()
        bus = BroadcastBus(log, config.win_resolution_window)
        names = config.robot_names()
        # the bus addresses robots by name, and no message checks one
        if (len({n for n, _ in names}) != len(names)
                or not all(n and isinstance(n, str) for n, _ in names)):
            raise ValueError("robot names must be distinct non-empty strings")
        excavators = [n for n, k in names if k is RobotKind.EXCAVATOR]
        haulers = [n for n, k in names if k is RobotKind.HAULER]
        policy = make_policy(config.policy, excavators, haulers)
        self.ctx = SimContext(
            config=config, world=world, bus=bus, log=log, policy=policy)
        self.ctx._site_by_location = {s.location: s for s in world.sites}

        poses = _start_poses(config, world.plant_location)
        scout_plans = iter(plans)
        for (name, kind), pose in zip(names, poses):
            if kind is RobotKind.SCOUT:
                state = RobotState(name, kind, pose, ScoutActivity.SEARCHING)
                controller: RobotController = ScoutController(
                    state, self.ctx, next(scout_plans))
            elif kind is RobotKind.EXCAVATOR:
                state = RobotState(name, kind, pose, ExcavatorActivity.IDLE)
                controller = ExcavatorController(state, self.ctx)
            else:
                state = RobotState(name, kind, pose, HaulerActivity.IDLE)
                controller = HaulerController(state, self.ctx)
            self.ctx.controllers[name] = controller

        # scouts, then excavators, then haulers; name order within each kind
        self._step_order = [
            self.ctx.controllers[n]
            for kind in (RobotKind.SCOUT, RobotKind.EXCAVATOR, RobotKind.HAULER)
            for n in sorted(n for n, k in names if k is kind)
        ]
        self._named_order = [(c.state.name, c) for c in self._step_order]
        # the earliest wake tick of any robot as of the last tick that
        # stepped a robot; no robot's wake tick changes on the other ticks
        self._wake: float = 0

        log.append({
            "type": "run_start",
            "policy": config.policy,
            "seed": config.seed,
            "arena_side": config.arena_side,
            "n_sites": config.n_sites,
            "n_minerals": config.n_minerals,
            "tick_cap": config.tick_cap,
            "robots": [[n, k.value] for n, k in names],
            "coalition_pairs": [list(p) for p in policy.pairs],
        })

    # -- one tick ----------------------------------------------------------

    def step(self) -> None:
        """Advance one tick: step the woken robots (one woken by its board
        alone only bids), fire the auction timers if `tick` is on the
        `bid_window` cadence, check the invariants and the goal."""
        if self.status is not RunStatus.RUNNING:
            raise RuntimeError("cannot step a finished run")
        tick = self.tick
        records = self.ctx.log.records
        logged = len(records)
        mail = self.ctx.bus.deliver(tick)  # the messages of tick-1
        if mail or self._wake <= tick:
            for name, controller in self._named_order:
                inbox = mail.get(name)
                if inbox or controller.wake_tick <= tick:
                    controller.step(tick, inbox)
                elif inbox is not None:  # only its board changed: bid
                    controller._place_bids(tick)
            self._wake = min([c.wake_tick for c in self._step_order])
        # Winner selection runs on a cadence shared by every auction, so
        # independent auctions select simultaneously: a robot that is best
        # for several tasks receives those wins together, and its policy's
        # choice between them (nearest-first, say) has something to choose.
        bid_window = self.config.bid_window
        if tick % bid_window == 0:
            for controller in self._step_order:
                if controller.book:
                    controller.fire_auction_timers(tick)
        check = tick == 0 or len(records) > logged
        if check:
            self._assert_mineral_conservation()
        if self.snapshots:
            self._emit_snapshots(tick)
        if check and self._goal_reached():
            self.status = RunStatus.COMPLETED
            self.completed_tick = tick
        self.tick = tick + 1

    def _goal_reached(self) -> bool:
        """Every mineral is at the plant and no auction is open.  Every site
        was then dug, hence claimed, auctioned and so discovered."""
        return (self.ctx.world.minerals_at_plant == self.config.n_minerals
                and not any(c.book for c in self._step_order))

    def _assert_mineral_conservation(self) -> None:
        """The minerals at the plant, in buckets and bins, and still on the
        sites add up to what the sites started with."""
        world = self.ctx.world
        surplus = world.minerals_at_plant
        for c in self._step_order:
            surplus += c.state.carried_minerals + (c.bucket is not None)
        for site in world.sites:
            surplus += site.minerals_remaining - site.minerals_initial
        if surplus:
            total = sum(s.minerals_initial for s in world.sites)
            raise InvariantError(
                f"mineral conservation broken at tick {self.tick}: "
                f"{total + surplus} != {total}")

    def _sync(self, tick: int) -> None:
        """Bring the pose and odometry of every robot whose pose lags (a
        courier, a searching scout, a standby hauler on its walk) up to the
        end of `tick`."""
        for controller in self._step_order:
            controller.sync(tick)

    def _emit_snapshots(self, tick: int) -> None:
        self._sync(tick)
        for controller in self._step_order:
            s = controller.state
            self.ctx.log.append({
                "type": "snapshot", "tick": tick, "name": s.name,
                "loc": [s.pose.x, s.pose.y], "activity": s.activity.value,
                "odometry": s.odometry, "carried": s.carried_minerals,
            })

    # -- whole runs ----------------------------------------------------------

    def run(self) -> RunStatus:
        """Step until the mission completes or the tick cap is hit."""
        if self._finished:
            return self.status
        while self.status is RunStatus.RUNNING and self.tick < self.config.tick_cap:
            self.step()
        if self.status is RunStatus.RUNNING:
            self.status = RunStatus.STALLED
        self._finished = True
        self._sync(self.tick - 1)
        world = self.ctx.world
        self.ctx.log.append({
            "type": "run_end",
            "tick": self.completed_tick if self.completed_tick is not None else self.tick,
            "status": self.status.value,
            "minerals_at_plant": world.minerals_at_plant,
            "sites_discovered": sum(1 for s in world.sites if s.discovered),
            "odometry": {s.name: s.odometry for s in
                         (c.state for c in self._step_order)},
        })
        # The context and its controllers reference each other.  A finished
        # run is only read (`sync`, `state_digest`), so the controllers now
        # hold the context weakly: dropping the run frees it and its log at
        # once, without waiting for the cyclic garbage collector.
        ctx = weakref.proxy(self.ctx)
        for controller in self._step_order:
            controller.ctx = ctx
        return self.status

    def state_digest(self) -> str:
        """Process-independent hash of the full simulation state."""
        self._sync(self.tick - 1)
        world = self.ctx.world
        state = {
            "tick": self.tick,
            "status": self.status.value,
            "plant": world.minerals_at_plant,
            "sites": [[s.site_id, s.location.x, s.location.y, s.minerals_remaining,
                       s.discovered, s.claimed_by or ""] for s in world.sites],
            "robots": [[r.name, r.activity.value, r.pose.x, r.pose.y,
                        r.odometry, r.carried_minerals]
                       for r in (c.state for c in self._step_order)],
            "auctions": [[a.auctioneer, a.loc, a.first_tick, a.rounds,
                          sorted(a.answers.items()), a.round_opened_tick,
                          sorted(a.bids.items()), a.winner or ""]
                         for c in self._step_order for a in c.book.values()],
            "boards": [[value, [[a.auctioneer, a.loc] for a in board.values()]]
                       for value, board in self.ctx.bus.boards.items()],
            "messages": self.ctx.bus.messages_published,
        }
        blob = json.dumps(state, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()


@dataclass
class RunResult:
    """Outcome of run_to_completion: status, metrics and the event log."""

    status: RunStatus
    metrics: "MetricsReport"
    log: EventLog
    simulation: Simulation


def run_to_completion(config: ScenarioConfig, snapshots: bool = False) -> RunResult:
    """Run a scenario to Completed or Stalled and collect its metrics.

    A stalled run is a distinguished outcome, not an error; its partial
    metrics are still collected.
    """
    return finish(Simulation(config, snapshots=snapshots))


def finish(sim: Simulation) -> RunResult:
    """`run_to_completion` of a simulation already built."""
    from .metrics import collect_metrics

    status = sim.run()
    report = collect_metrics(sim.ctx.log.records)
    return RunResult(status=status, metrics=report, log=sim.ctx.log, simulation=sim)
