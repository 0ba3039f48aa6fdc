"""Behavior controllers for the three robot kinds.

Scouts sweep their spiral share of the arena, open an excavation auction for
every site their scanner picks up, and keep scouting while those auctions
run.  Excavators win a site, claim it exclusively, and alternate digging one
mineral with waiting for a hauler to carry it off; each dug mineral triggers
exactly one transport allocation.  Haulers fetch minerals from waiting
excavators and empty their single-mineral bin at the plant.

Every cross-robot influence flows through the broadcast bus or through the
shared world during the owner's step, so a run is a single deterministic
thread of execution.  The engine steps a robot only when something can
change for it (see `RobotController.wake_tick`); a step that changes what
another robot acts on outside the bus wakes that robot.  A robot subscribes
to the announcements and closes of the task type it bids on when it is
built, unless its policy lets it bid in none (a coalition-paired hauler);
its step takes the inbox the bus delivers.  A courier (an excavator
traveling to its site, a hauler on its way to a site or to the plant) drives
one straight segment and is busy while it does, so nothing reads its pose on
the way: it wakes at its arrival tick, and mail before then does not move
it.  A standby hauler walks to its spot as a course too, and wakes one tick
after the walk's last move to check that it stands on the spot, or when its
parent claims or releases a site.  A searching scout's spiral is fixed at
set-up and moves like a courier's course: its first step works out the tick
at which it first has each site in scan range (`find_schedule`), and it
wakes only at such a tick of a site still undiscovered, at the spiral's
last move, or on mail.  The moves due since a robot's last step are applied
only when its pose is read (`RobotController.sync`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import islice
from typing import TYPE_CHECKING, Sequence

from .auction import (
    CAPABLE_TASK,
    NEG_INF,
    Auction,
    evaluate_self_utility,
    handle_ack,
    open_auction,
    record_bid,
    select_winner,
    submit_bid,
)
from .bus import (
    Ack,
    Announcement,
    AuctionKey,
    Bid,
    Close,
    Message,
    WinnerDecl,
    auction_key,
)
from .pathing import PathCursor, PathEstimate, estimate_path, make_path
from .spiral import SpiralPlan
from .world import (
    GRID_PAD,
    InvariantError,
    Point,
    ResourceSite,
    RobotKind,
    TaskType,
    _Grid,
    claim_site,
    release_site,
    scan_reach,
    transfer_mineral_to_plant,
)

if TYPE_CHECKING:
    from .engine import SimContext

# A coalition-paired hauler parks this far from its parent's site, on the
# plant side, while waiting for the next mineral.
STANDBY_OFFSET = 2.0


class ScoutActivity(str, Enum):
    SEARCHING = "searching"
    DONE = "done"


class ExcavatorActivity(str, Enum):
    IDLE = "idle"
    TRAVELING = "traveling"
    DIGGING = "digging"
    WAITING_FOR_HAULER = "waiting_for_hauler"


class HaulerActivity(str, Enum):
    IDLE = "idle"
    STANDBY = "standby"
    TO_SITE = "to_site"
    LOADING = "loading"
    TO_PLANT = "to_plant"
    UNLOADING = "unloading"


Activity = ScoutActivity | ExcavatorActivity | HaulerActivity

_AVAILABLE = (ExcavatorActivity.IDLE, HaulerActivity.IDLE, HaulerActivity.STANDBY)
# the courier activities, which travel one straight course to its end
COURIER = (ExcavatorActivity.TRAVELING, HaulerActivity.TO_SITE,
           HaulerActivity.TO_PLANT)
# activities that end at a deadline: a dig, load or unload
_WORKING = (ExcavatorActivity.DIGGING, HaulerActivity.LOADING,
            HaulerActivity.UNLOADING)
_NEVER = math.inf


@dataclass
class RobotState:
    """Pose, activity and odometry of one robot.

    The pose and odometry of a courier, a searching scout or a standby
    hauler on its way to its spot lag between its steps: they hold the last
    move it applied.  The snapshots, `Simulation.state_digest` and the
    `run_end` record bring every robot up to date first, and so do a
    scout's and a standby hauler's own steps (see `RobotController.sync`)."""

    name: str
    kind: RobotKind
    pose: Point
    activity: Activity
    odometry: float = 0.0
    carried_minerals: int = 0

    @property
    def busy(self) -> bool:
        """The availability rule behind the busy-sentinel bid: scouts never
        report busy, excavators are busy unless idle, haulers unless idle or
        standing by."""
        if self.kind is RobotKind.SCOUT:
            return False
        return self.activity not in _AVAILABLE


Find = tuple[int, int, ResourceSite]  # tick, segment, site


def find_schedule(path: PathEstimate, sites: Sequence[ResourceSite],
                  radius: float, speed: float) -> list[Find]:
    """When a scout moving along `path` at `speed`, its first move at tick
    0, finds each site it ever has in scan range, in the order it finds
    them, latest first.

    A site is found on the segment, and at the least arc length A*, where
    `scan_reach` first has it in range: at the first tick whose move ends
    at or past A*, by the running sum `PathCursor.step` keeps; A* == 0 is
    the scan of the spawn point at tick 0 (segment -1).  Within a tick the
    spawn scan comes first, then lower segments, then lower `site_id`.
    Only the sites in the grid cells near a segment are tested."""
    grid = _Grid(2.0 * radius, ((s.location.x, s.location.y, s) for s in sites))
    first: dict[int, tuple[float, int, ResourceSite]] = {}
    for i, (a, b, start, length) in enumerate(zip(
            path.waypoints, path.waypoints[1:], path.prefix, path.segments)):
        for site in grid.near(a, b, radius + GRID_PAD):
            reach = scan_reach(site.location, a, b, length, radius)
            if reach is not None and start + reach < first.get(
                    site.site_id, (math.inf,))[0]:
                first[site.site_id] = (start + reach, i, site)
    finds: list[Find] = []
    total = path.length
    traveled, tick = min(speed, total), 0
    for arc, i, site in sorted(first.values(), key=lambda hit: hit[0]):
        while traveled < arc:
            traveled += min(speed, total - traveled)
            tick += 1
        finds.append((tick, i if arc else -1, site))
    finds.sort(key=lambda find: (find[0], find[1], find[2].site_id), reverse=True)
    return finds


@dataclass
class AuctionView:
    """A bidder's receiver-side picture of someone else's open auction."""

    auctioneer: str
    task_location: Point
    first_tick: int
    rounds_seen: int = 1
    bid_round: int = 0  # last announcement round this robot answered
    last_bid: float | None = None

    @property
    def order_key(self) -> tuple:
        return (self.first_tick, self.auctioneer, self.task_location.as_pair())


class RobotController:
    """Shared machinery: inbox handling, win resolution, bidding, timers."""

    bids_on: TaskType | None = None
    bucket: str | None = None  # only an excavator's bucket holds a mineral

    def __init__(self, state: RobotState, ctx: "SimContext"):
        self.state = state
        self.ctx = ctx
        self.views: dict[AuctionKey, AuctionView] = {}  # oldest first
        self.pending_wins: list[tuple[int, WinnerDecl]] = []
        self.book: dict[AuctionKey, Auction] = {}
        self.cursor: PathCursor | None = None
        self._deadline = 0  # the tick a dig, load or unload ends
        self._next_move = 0  # the tick of the first move along cursor not applied
        self._last_move = -1  # the tick of the last move along cursor
        self._travel_start_odometry = 0.0
        if self.bids_on is not CAPABLE_TASK.get(state.kind):
            raise ValueError(f"{type(self).__name__} cannot drive a "
                             f"{state.kind.value} robot")
        self._bid_scope = ctx.policy.bid_scope(state)
        if self.bids_on is not None and self._bid_scope != 0:
            ctx.bus.subscribe(state.name, self.bids_on)
        # the tick of this robot's next step, unless mail comes first; every
        # robot steps at tick 0
        self.wake_tick: float = 0

    # -- engine hooks --------------------------------------------------

    def step(self, tick: int, inbox: list[Message] | None) -> None:
        """Act on `inbox`, the messages the bus delivers to this robot at
        `tick` (None: no mail), then on its own state."""
        if inbox:
            self._ingest(inbox, tick)
        self._resolve_wins(tick)
        self._act(tick)
        self._place_bids(tick)
        self.wake_tick = self._next_wake(tick)

    def wake(self, tick: int) -> None:
        """Another robot's step at `tick` changed what this robot acts on:
        step it at its next turn in the fixed order, which is this tick if
        it comes later in the order, else the next one."""
        self.wake_tick = min(self.wake_tick, tick)

    def _next_wake(self, tick: int) -> float:
        """The next tick at which a step can change something without mail:
        the end of a course, dig, load or unload, the tick after a standby
        walk's last move, or the tick a pending win matures."""
        activity = self.state.activity
        if activity in COURIER:
            wake: float = self._last_move
        elif activity in _WORKING:
            wake = self._deadline
        elif (activity is HaulerActivity.STANDBY
              and self._next_move <= self._last_move):
            wake = self._last_move + 1  # check that it stands on its spot
        else:
            wake = _NEVER
        if self.pending_wins:
            window = self.ctx.config.timing.win_resolution_window
            wake = min(wake, min(t0 for t0, _ in self.pending_wins) + window - 1)
        return wake

    def fire_auction_timers(self, tick: int) -> None:
        """Close the bidding window of every auction in the book that has no
        winner and whose round opened at least `bid_window` ticks ago.  The
        engine calls this on its `bid_window` cadence ticks only."""
        bid_window = self.ctx.config.timing.bid_window
        for auction in self.book.values():
            if (auction.winner is None
                    and tick >= auction.round_opened_tick + bid_window):
                select_winner(auction, tick, self.ctx.bus)

    # -- message handling ----------------------------------------------

    def _ingest(self, inbox: list[Message], tick: int) -> None:
        """Act on this tick's inbox, which the bus has already addressed:
        announcements and closes of the task type this robot bids on, and
        the bids, acks and winner declarations sent to it, all published
        at tick-1.  An announcement or close reaches every subscriber, so
        it keeps its auction key after the first of them reads it."""
        for msg in inbox:
            cls = type(msg)
            if cls is Bid:
                auction = self.book.get(auction_key(msg))
                if auction is not None:  # the auction may have closed
                    record_bid(auction, msg)
            elif cls is Announcement:
                key = msg.key
                view = self.views.get(key)
                if view is None:
                    self._add_view(key, AuctionView(
                        auctioneer=msg.auctioneer,
                        task_location=msg.task_location,
                        first_tick=tick - 1,
                    ))
                else:
                    view.rounds_seen += 1
            elif cls is WinnerDecl:
                self.pending_wins.append((tick, msg))
            elif cls is Ack:
                key = auction_key(msg)
                auction = self.book.get(key)
                if (auction is not None and type(
                        handle_ack(auction, msg, tick, self.ctx.bus)) is Close):
                    del self.book[key]
            else:  # Close
                self.views.pop(msg.key, None)

    def _add_view(self, key: AuctionKey, view: AuctionView) -> None:
        """Insert a view, keeping `views` oldest-first by `order_key`; the
        rare insert that lands out of order re-sorts the views."""
        last = next(reversed(self.views.values()), None)
        self.views[key] = view
        if last is not None and view.order_key < last.order_key:
            self.views = dict(sorted(self.views.items(),
                                     key=lambda item: item[1].order_key))

    def _resolve_wins(self, tick: int) -> None:
        if not self.pending_wins:
            return
        window = self.ctx.config.timing.win_resolution_window
        ready = [w for t0, w in self.pending_wins if tick >= t0 + window - 1]
        if not ready:
            return
        self.pending_wins = [(t0, w) for t0, w in self.pending_wins
                             if tick < t0 + window - 1]
        accept, declines = self.ctx.policy.resolve_wins(self.state, ready)
        if accept is not None and not self._accept_win(accept, tick):
            declines = declines + [accept]
            accept = None
        if accept is not None:
            self.ctx.bus.publish(Ack(accept.auctioneer, self.state.name,
                                     accept.task_location, accepted=True), tick)
        for declined in declines:
            self.ctx.bus.publish(Ack(declined.auctioneer, self.state.name,
                                     declined.task_location, accepted=False), tick)

    def _accept_win(self, win: WinnerDecl, tick: int) -> bool:
        raise NotImplementedError(f"{self.state.kind} does not take tasks")

    def _place_bids(self, tick: int) -> None:
        """Bid once per announcement round in the oldest views the policy's
        bid scope allows (all of them under nearest).

        Busy-but-capable robots answer too, with the -inf sentinel.  A robot
        whose standing bid is the sentinel corrects it the moment it goes
        idle: it is honestly available now, and waiting for the next
        re-announcement round would misrepresent that.
        """
        busy = self.state.busy
        for view in islice(self.views.values(), self._bid_scope):
            if (view.bid_round < view.rounds_seen
                    or (view.last_bid == NEG_INF and not busy)):
                view.bid_round = view.rounds_seen
                utility = evaluate_self_utility(self.state, view.task_location)
                view.last_bid = utility
                submit_bid(self.state, view.auctioneer, view.task_location,
                           utility, tick, self.ctx.bus)

    def _act(self, tick: int) -> None:
        raise NotImplementedError

    # -- movement helper -------------------------------------------------

    def _advance(self, cursor: PathCursor) -> bool:
        """Move along the cursor at configured speed; True when arrived."""
        pose, moved = cursor.step(self.ctx.config.timing.robot_speed)
        self.state.pose = pose
        self.state.odometry += moved
        return cursor.arrived

    def _set_course(self, goal: Point, first_move: int) -> None:
        """Plan the straight course to `goal`, whose first move is at tick
        `first_move`.  A pose is a start-circle point, a point of a scout's
        spiral or a point on such a course, so this one check of the goal
        keeps every robot inside the arena."""
        side = self.ctx.config.arena_side
        if not (0.0 <= goal.x <= side and 0.0 <= goal.y <= side):
            raise InvariantError(f"{self.state.name} set a course to {goal}, "
                                 f"outside the arena of side {side}")
        path = estimate_path(self.state.pose, goal)
        self.cursor = PathCursor(path)
        self._travel_start_odometry = self.state.odometry
        self._schedule(first_move)

    def _schedule(self, first_move: int) -> None:
        """Start the moves along a fresh cursor at tick `first_move`, and
        find the tick of the last one by replaying `PathCursor.step`'s float
        arithmetic."""
        speed, length = self.ctx.config.timing.robot_speed, self.cursor.path.length
        traveled, arrival = min(speed, length), first_move
        while traveled < length:
            traveled += min(speed, length - traveled)
            arrival += 1
        self._next_move, self._last_move = first_move, arrival

    def sync(self, tick: int) -> None:
        """Apply the moves along the cursor due at or before `tick`, on a
        courier's course, a searching scout's spiral or a standby hauler's
        walk.  All but the last only add the distance moved to the cursor
        and the odometry, as `PathCursor.step` would; the last is a real
        step, which places the pose."""
        last = min(tick, self._last_move)
        if last < self._next_move:
            return
        cursor, speed = self.cursor, self.ctx.config.timing.robot_speed
        length = cursor.path.length
        for _ in range(last - self._next_move):
            moved = min(speed, length - cursor.traveled)
            cursor.traveled += moved
            self.state.odometry += moved
        self._advance(cursor)
        self._next_move = last + 1

    def _travel(self, tick: int) -> bool:
        """On the arrival tick, catch up along the course and return True;
        the distance traveled must equal the estimate the robot bid with
        (the arena has no obstacles).  Before it, do nothing: a busy robot
        bids the sentinel and declines every win, so nothing reads its
        pose."""
        if tick < self._last_move:
            return False
        self.sync(tick)
        if not self.cursor.arrived:
            return False
        traveled = self.state.odometry - self._travel_start_odometry
        estimate = self.cursor.path.length
        if not abs(traveled - estimate) < 1e-6:
            raise InvariantError(
                f"{self.state.name} traveled {traveled} m on a course "
                f"estimated at {estimate} m")
        return True


class ScoutController(RobotController):
    """Sweeps a spiral plan, scanning continuously, auctioning every find.

    Its first move is at tick 0.  Only the ticks in its find schedule can
    find a site, so between them it sleeps like a courier, and each step
    applies the moves it skipped before it takes that tick's finds."""

    def __init__(self, state: RobotState, ctx: "SimContext", plan: SpiralPlan):
        super().__init__(state, ctx)
        self.cursor = PathCursor(make_path((state.pose,) + plan.waypoints))
        self._schedule(0)
        # built by the first step: the sites are final only once the run
        # starts
        self._finds: list[Find] | None = None

    def _next_wake(self, tick: int) -> float:
        """The first find tick after `tick` of a site still undiscovered, or
        the spiral's last move, whichever comes first; passed finds and
        those of discovered sites are dropped."""
        if self.state.activity is ScoutActivity.DONE:
            return _NEVER
        finds = self._finds
        while finds and (finds[-1][0] <= tick or finds[-1][2].discovered):
            finds.pop()
        return min(finds[-1][0], self._last_move) if finds else self._last_move

    def _act(self, tick: int) -> None:
        if self.state.activity is ScoutActivity.DONE:
            return
        if self._finds is None:
            config = self.ctx.config
            self._finds = find_schedule(self.cursor.path, self.ctx.world.sites,
                                        config.scan_radius,
                                        config.timing.robot_speed)
        self.sync(tick)
        found, finds = [], self._finds
        while finds and finds[-1][0] <= tick:
            site = finds.pop()[2]
            if not site.discovered:
                site.discovered = True
                found.append(site)
        self._handle_finds(found, tick)
        if self.cursor.arrived:
            self.state.activity = ScoutActivity.DONE

    def _handle_finds(self, found: list[ResourceSite], tick: int) -> None:
        for site in found:
            self.ctx.log.append({
                "type": "discovery", "tick": tick, "site": site.site_id,
                "scout": self.state.name,
                "loc": [site.location.x, site.location.y],
            })
            open_auction(self.book, self.state.name, TaskType.EXCAVATE,
                         site.location, tick, self.ctx.bus)
        if found:  # the other scout may be waiting for one of these
            for other in self.ctx.controllers.values():
                if (isinstance(other, ScoutController) and other is not self
                        and other._finds is not None):
                    other.wake_tick = other._next_wake(other._next_move - 1)


class ExcavatorController(RobotController):
    """Claims one site at a time; digs minerals and hands each to a hauler."""

    bids_on = TaskType.EXCAVATE

    def __init__(self, state: RobotState, ctx: "SimContext"):
        super().__init__(state, ctx)
        self.site: ResourceSite | None = None
        self.bucket: str | None = None  # mineral id sitting in the bucket
        # the hauler that follows this excavator's site under coalition
        self.paired: str | None = ctx.policy.paired_hauler(state.name)

    def _accept_win(self, win: WinnerDecl, tick: int) -> bool:
        site = self.ctx.site_at(win.task_location)
        if site.claimed_by is not None:
            return False  # someone beat us to the claim: decline instead
        claim_site(self.ctx.world, site.site_id, self.state.name)
        self.ctx.log.append({"type": "claim", "tick": tick,
                             "site": site.site_id, "excavator": self.state.name})
        self.site = site
        self._wake_paired(tick)
        self._set_course(site.location, tick)
        self.state.activity = ExcavatorActivity.TRAVELING
        return True

    def _wake_paired(self, tick: int) -> None:
        """A paired hauler standing by shadows this excavator's site."""
        if self.paired is not None:
            hauler = self.ctx.controllers[self.paired]
            if hauler.state.activity is HaulerActivity.STANDBY:
                hauler.wake(tick)

    def _start_digging(self, tick: int) -> None:
        self.state.activity = ExcavatorActivity.DIGGING
        self._deadline = tick + self.ctx.config.timing.dig_duration

    def _act(self, tick: int) -> None:
        activity = self.state.activity
        if activity is ExcavatorActivity.TRAVELING:
            if self._travel(tick):
                if self.site.minerals_remaining == 0:
                    self._release(tick)
                else:
                    self._start_digging(tick)
        elif activity is ExcavatorActivity.DIGGING:
            if tick >= self._deadline:
                site = self.site
                site.minerals_remaining -= 1
                ordinal = site.minerals_initial - site.minerals_remaining
                self.bucket = f"m{site.site_id}_{ordinal}"
                self.ctx.log.append({"type": "dig", "tick": tick,
                                     "mineral": self.bucket, "site": site.site_id,
                                     "excavator": self.state.name})
                self.state.activity = ExcavatorActivity.WAITING_FOR_HAULER
                self._dispatch_transport(tick)
        elif activity is ExcavatorActivity.WAITING_FOR_HAULER:
            if self.bucket is None:  # a hauler emptied the bucket last tick
                if self.site.minerals_remaining > 0:
                    self._start_digging(tick)
                else:
                    self._release(tick)

    def _dispatch_transport(self, tick: int) -> None:
        """Allocate transport for the bucket: directly to an available paired
        hauler under coalition, otherwise by auction."""
        if self.paired is not None:
            hauler = self.ctx.controllers[self.paired]
            if not hauler.state.busy:
                hauler.assign_transport(self.state.name, self.site.location, tick)
                return
        open_auction(self.book, self.state.name, TaskType.TRANSPORT,
                     self.site.location, tick, self.ctx.bus)

    def take_bucket(self, tick: int) -> str:
        """Called by the loading hauler; empties the bucket into its bin."""
        if self.state.activity is not ExcavatorActivity.WAITING_FOR_HAULER:
            raise InvariantError(
                f"{self.state.name} handed over its bucket while "
                f"{self.state.activity.value}")
        if self.bucket is None:
            raise InvariantError(f"no mineral waiting at {self.state.name}")
        mineral, self.bucket = self.bucket, None
        self.wake(tick)
        return mineral

    def _release(self, tick: int) -> None:
        release_site(self.ctx.world, self.site.site_id, self.state.name)
        self.ctx.log.append({"type": "release", "tick": tick,
                             "site": self.site.site_id,
                             "excavator": self.state.name})
        self.site = None
        self.cursor = None
        self.state.activity = ExcavatorActivity.IDLE
        self._wake_paired(tick)


class HaulerController(RobotController):
    """Carries one mineral at a time from a waiting excavator to the plant."""

    bids_on = TaskType.TRANSPORT

    def __init__(self, state: RobotState, ctx: "SimContext"):
        super().__init__(state, ctx)
        self.parent: str | None = ctx.policy.parent_of(state.name)
        if self.parent is not None:
            state.activity = HaulerActivity.STANDBY
        self.excavator: str | None = None  # whose mineral it fetches or carries
        self.carrying: str | None = None

    def _accept_win(self, win: WinnerDecl, tick: int) -> bool:
        self._begin_transport(win.auctioneer, win.task_location, tick)
        return True

    def assign_transport(self, excavator: str, location: Point, tick: int) -> None:
        """Coalition direct dispatch: no auction, no protocol messages.
        Haulers step after excavators, so the course starts this tick."""
        if self.state.busy:
            raise InvariantError(
                f"{self.state.name} was assigned a transport while "
                f"{self.state.activity.value}")
        self._begin_transport(excavator, location, tick)
        self.wake(tick)

    def _begin_transport(self, excavator: str, location: Point, tick: int) -> None:
        self.sync(tick - 1)  # the standby walk ends where it stands now
        self.excavator = excavator
        self._set_course(location, tick)
        self.state.activity = HaulerActivity.TO_SITE

    def _act(self, tick: int) -> None:
        activity = self.state.activity
        timing = self.ctx.config.timing
        if activity is HaulerActivity.TO_SITE:
            if self._travel(tick):
                self.state.activity = HaulerActivity.LOADING
                self._deadline = tick + timing.load_duration
        elif activity is HaulerActivity.LOADING:
            if tick >= self._deadline:
                excavator = self.ctx.controllers[self.excavator]
                site = excavator.site
                self.carrying = excavator.take_bucket(tick)
                self.state.carried_minerals = 1
                self.ctx.log.append({"type": "load", "tick": tick,
                                     "mineral": self.carrying,
                                     "site": site.site_id,
                                     "excavator": self.excavator,
                                     "hauler": self.state.name})
                self._set_course(self.ctx.world.plant_location, tick + 1)
                self.state.activity = HaulerActivity.TO_PLANT
        elif activity is HaulerActivity.TO_PLANT:
            if self._travel(tick):
                self.state.activity = HaulerActivity.UNLOADING
                self._deadline = tick + timing.unload_duration
        elif activity is HaulerActivity.UNLOADING:
            if tick >= self._deadline:
                transfer_mineral_to_plant(self.ctx.world, self.state)
                self.ctx.log.append({"type": "unload", "tick": tick,
                                     "mineral": self.carrying,
                                     "hauler": self.state.name})
                self.carrying = None
                self.excavator = None
                if self.parent is None:
                    self.state.activity = HaulerActivity.IDLE
                else:
                    self.state.activity = HaulerActivity.STANDBY
                    self._walk(tick + 1)
        elif activity is HaulerActivity.STANDBY:
            self._standby_act(tick)

    def _standby_target(self) -> Point | None:
        """Two meters plant-side of the parent excavator's current site;
        None while the parent has no claim."""
        site = self.ctx.controllers[self.parent].site
        if site is None:
            return None
        return standby_point(site.location, self.ctx.world.plant_location)

    def _standby_act(self, tick: int) -> None:
        """Shadow the parent excavator, woken when it claims or releases a
        site or one tick after the walk's last move: catch up the walk and
        head for the current standby target from there."""
        self.sync(tick - 1)
        self._walk(tick)

    def _walk(self, first_move: int) -> None:
        """Walk to the standby target as a course whose first move is at
        `first_move`, unless one is under way (a walk starts only after a
        claim, and a release ends it), or again when the last move landed
        off the spot.  Hold position, dropping the moves not applied, on
        the spot or while the parent has no claim."""
        target = self._standby_target()
        if target is None or self.state.pose == target:
            self._last_move = self._next_move - 1
        elif self._next_move > self._last_move:
            self._set_course(target, first_move)


def standby_point(site: Point, plant: Point) -> Point:
    """The parking spot for a paired hauler: offset from the site toward
    the plant."""
    d = site.distance_to(plant)
    if d <= STANDBY_OFFSET:
        return plant
    t = STANDBY_OFFSET / d
    return Point(site.x + (plant.x - site.x) * t, site.y + (plant.y - site.y) * t)
