import math
from bisect import bisect_left, bisect_right
from collections import defaultdict
from types import SimpleNamespace

import pytest

from isrusim import (
    Policy,
    PolicyName,
    RobotKind,
    ScenarioConfig,
    TimingConfig,
    run_to_completion,
)


def tiny_config(**overrides) -> ScenarioConfig:
    """A small arena that completes in a few hundred ticks."""
    base = dict(arena_side=30.0, n_scouts=1, n_excavators=2, n_haulers=3,
                n_sites=2, n_minerals=4, seed=11, policy="fcfs", tick_cap=20_000)
    base.update(overrides)
    return ScenarioConfig(**base)


def crowded_config(**overrides) -> ScenarioConfig:
    """A 2/8/12 fleet in a 30 m arena: heavy auction traffic, and under
    nearest some robots are declared winner of several auctions at once."""
    base = dict(arena_side=30.0, n_scouts=2, n_excavators=8, n_haulers=12,
                n_sites=10, n_minerals=60, seed=0, policy="fcfs",
                tick_cap=20_000)
    base.update(overrides)
    return ScenarioConfig(**base)


def tiny_run(**overrides):
    return run_to_completion(tiny_config(**overrides))


ALT_TIMING = TimingConfig(robot_speed=2.0, dig_duration=7, load_duration=3,
                          unload_duration=2, bid_window=4,
                          win_resolution_window=1)


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


BIDS_ON = {"scout": None, "excavator": "excavate", "hauler": "transport"}


def mail_from_log(records) -> dict[tuple[str, int], list[int]]:
    """(robot, tick) -> the sequence numbers, in order, of the messages of
    tick-1 in the log that the robot acts on: the announcements and closes
    of the task type it bids on, unless its policy lets it bid in none
    (`Policy.bid_scope` is 0: a coalition-paired hauler), the bids and acks
    sent to it as auctioneer, and the winner declarations naming it.
    Robots without mail at a tick are left out."""
    start = records[0]
    robots = start["robots"]
    policy = Policy(PolicyName(start["policy"]),
                    tuple(tuple(pair) for pair in start["coalition_pairs"]))
    bids_on = {}
    for name, kind in robots:
        if policy.bid_scope(SimpleNamespace(name=name, kind=RobotKind(kind))) != 0:
            bids_on[name] = BIDS_ON[kind]
    mail = defaultdict(list)
    for record in records:
        if record["type"] != "msg":
            continue
        variant = record["variant"]
        for name, kind in robots:
            if variant in ("announcement", "close"):
                acts_on = record["task_type"] == bids_on.get(name)
            elif variant == "winner":
                acts_on = record["winner"] == name
            else:  # bid or ack
                acts_on = record["auctioneer"] == name
            if acts_on:
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


def step_and_sweep(cursor, speed: float):
    """One `cursor.step(speed)`: (pose, moved, the pieces of path swept),
    the pieces running from the last pose over every waypoint strictly
    between the arc lengths before and after the move, to the new pose."""
    start, a = cursor.traveled, cursor.pose
    pose, moved = cursor.step(speed)
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
    `PathCursor.step` per tick and scanning the spawn point at tick 0, then
    every swept piece: one list of sites per tick, from tick 0."""
    found = [scan_pieces([(spawn, spawn)], sites, radius)]
    while not cursor.arrived:
        found[-1] += scan_pieces(step_and_sweep(cursor, speed)[2], sites, radius)
        found.append([])
    return found[:-1]
