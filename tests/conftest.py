import math
from bisect import bisect_left, bisect_right
from collections import defaultdict

import pytest

from cases import crowded_config, tiny_config
from isrusim import (
    Auction,
    BroadcastBus,
    EventLog,
    Point,
    ScenarioConfig,
    TaskType,
    run_to_completion,
)


def tiny_run(**overrides):
    return run_to_completion(tiny_config(**overrides))


ALT_TIMING = dict(robot_speed=2.0, dig_duration=7, load_duration=3,
                  unload_duration=2, bid_window=4, win_resolution_window=1)


# A valid value other than the default for every scenario key, as written
# in a file or given to its flag, and the value the config must hold.
KEY_SAMPLES = {
    "arena_side": ("30", 30.0),
    "n_scouts": ("1", 1),
    "n_excavators": ("3", 3),
    "n_haulers": ("2", 2),
    "n_sites": ("5", 5),
    "n_minerals": ("70", 70),
    "scan_radius": ("2", 2.0),
    "seed": ("42", 42),
    "policy": ("nearest", "nearest"),
    "tick_cap": ("5000", 5000),
    "robot_speed": ("2", 2.0),
    "dig_duration": ("8", 8),
    "load_duration": ("2", 2),
    "unload_duration": ("9", 9),
    "bid_window": ("4", 4),
    "win_resolution_window": ("2", 2),
}


@pytest.fixture
def small_config() -> ScenarioConfig:
    return tiny_config()


class RunLogs(dict):
    """Event logs of finished runs, keyed by (config, snapshots)."""

    def log(self, config: ScenarioConfig, snapshots: bool = False):
        key = (config, snapshots)
        if key not in self:
            self[key] = run_to_completion(config, snapshots=snapshots).log
        return self[key]


@pytest.fixture(scope="session")
def run_logs() -> RunLogs:
    """One simulation per (config, snapshots) for the whole session, shared
    by the tests that only read a run's log: the acceptance sweep fills it
    with the 60 reference runs it times, and the log fingerprints and the
    codec's differential test read it."""
    return RunLogs()


def auction_of(auctioneer: str, task_type: TaskType, location: Point,
               declared: str | None = None, tick: int = 0) -> Auction:
    """An auction first announced at `tick`, as its auctioneer's book holds
    it, with `declared` its winner: what the bus builds a record from."""
    auction = Auction(auctioneer, task_type, location, tick)
    auction.winner = declared
    return auction


def win_record(auction: Auction) -> dict:
    """The winner record of `auction`, naming `auction.winner`, as a bus of
    its own declares it at tick 0."""
    return BroadcastBus(EventLog(), 1).declare(auction, 0)


def ack_of(auctioneer: str, bidder: str, location: Point, accepted: bool,
           bus: BroadcastBus | None = None, tick: int = 0) -> dict:
    """`bidder`'s verdict on a win of `auctioneer`'s auction at `location`,
    built from the winner record it answers and sent through `bus` (a bus
    of its own by default) at `tick`."""
    if bus is None:
        bus = BroadcastBus(EventLog(), 1)
    win = win_record(auction_of(auctioneer, TaskType.EXCAVATE, location,
                                bidder))
    return bus.ack(win, accepted, tick)


def mail_from_log(records) -> dict[tuple[str, int], list[int]]:
    """(robot, tick) -> the sequence numbers, in order, of the messages of
    tick-1 in the log addressed to the robot, with a `win_resolution_window`
    of 1: the acks sent to it as auctioneer, and the winner declarations
    naming it.  Announcements, closes and bids go to no inbox.  Robots
    without mail at a tick are left out."""
    mail = defaultdict(list)
    for record in records:
        if record["type"] == "msg" and record["variant"] in ("ack", "winner"):
            name = (record["winner"] if record["variant"] == "winner"
                    else record["auctioneer"])
            mail[name, record["tick"] + 1].append(record["seq"])
    return dict(mail)


def segment_distance(p, a, b) -> float:
    """The distance from point p to segment a-b: the reference the scan
    rule (`world.scan_reach`) is tested against."""
    dx, dy = b.x - a.x, b.y - a.y
    norm2 = dx * dx + dy * dy
    if norm2 == 0.0:
        return p.distance_to(a)
    t = max(0.0, min(1.0, ((p.x - a.x) * dx + (p.y - a.y) * dy) / norm2))
    return math.hypot(p.x - (a.x + t * dx), p.y - (a.y + t * dy))


def step_cursor(cursor, speed: float):
    """One tick's move of up to `speed` along `cursor`, worked out apart
    from `pathing`: the distance by its own running sum, the pose by a
    forward scan for the first waypoint at or past it.  Updates the cursor
    and returns (pose, moved): the per-tick oracle that `moves_to` and
    `PathCursor.advance` are checked against."""
    path = cursor.path
    moved = min(speed, path.length - cursor.traveled)
    cursor.traveled += moved
    end, prefix = cursor.traveled, path.prefix
    # the scan resumes at the waypoint the last step placed before, kept on
    # the cursor; any earlier start gives the same waypoint
    k = getattr(cursor, "oracle_next", 0)
    while k < len(prefix) and prefix[k] < end:
        k += 1
    cursor.oracle_next = k
    if k == 0:
        cursor.pose = path.start
    elif k == len(prefix):
        cursor.pose = path.goal
    else:
        a, b = path.waypoints[k - 1], path.waypoints[k]
        t = (end - prefix[k - 1]) / path.segments[k - 1]
        cursor.pose = Point(a.x + (b.x - a.x) * t, a.y + (b.y - a.y) * t)
    return cursor.pose, moved


def step_and_sweep(cursor, speed: float):
    """One `step_cursor(cursor, speed)`: (pose, moved, the pieces of path
    swept), the pieces running from the last pose over every waypoint
    strictly between the arc lengths before and after the move, to the new
    pose."""
    start, a = cursor.traveled, cursor.pose
    pose, moved = step_cursor(cursor, speed)
    prefix, waypoints = cursor.path.prefix, cursor.path.waypoints
    pieces = []
    for k in range(bisect_right(prefix, start), bisect_left(prefix, cursor.traveled)):
        pieces.append((a, waypoints[k]))
        a = waypoints[k]
    pieces.append((a, pose))
    return pose, moved, pieces


def scan_pieces(pieces, sites, radius: float) -> list:
    """The walker's scan: for each piece in turn, the undiscovered sites
    within `radius` of it by `segment_distance`, in site_id order; marks
    them discovered."""
    found = []
    for a, b in pieces:
        x0, x1 = min(a.x, b.x) - radius, max(a.x, b.x) + radius
        y0, y1 = min(a.y, b.y) - radius, max(a.y, b.y) + radius
        hits = sorted((s for s in sites if not s.discovered
                       and x0 <= s.location.x <= x1 and y0 <= s.location.y <= y1
                       and segment_distance(s.location, a, b) <= radius),
                      key=lambda s: s.site_id)
        for site in hits:
            site.discovered = True
        found += hits
    return found


def walk_and_scan(cursor, spawn, sites, radius: float, speed: float):
    """A scout's finds tick by tick, found by walking its path one
    `step_cursor` per tick and scanning the spawn point at tick 0, then
    every swept piece: one list of sites per tick, from tick 0."""
    found = [scan_pieces([(spawn, spawn)], sites, radius)]
    while not cursor.arrived:
        found[-1] += scan_pieces(step_and_sweep(cursor, speed)[2], sites, radius)
        found.append([])
    return found[:-1]
