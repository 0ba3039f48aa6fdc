import copy
import dataclasses
import math
import random
from collections import Counter

import pytest

from conftest import crowded_config, tiny_config, tiny_run

from isrusim import (
    Announcement,
    Point,
    RobotKind,
    RobotState,
    ScenarioConfig,
    Simulation,
    TaskType,
    TimingConfig,
    WinnerDecl,
    generate_scenario,
    run_to_completion,
)
from isrusim import agents
from isrusim.agents import (
    ExcavatorActivity,
    HaulerActivity,
    ScoutActivity,
    scan_swept_segment,
    standby_point,
)
from isrusim.world import ResourceSite, _segment_distance


def world_with_site_at(location: Point):
    world = generate_scenario(ScenarioConfig(n_sites=1, n_minerals=1, seed=0))
    world.sites[0].location = location
    world.sites[0].discovered = False
    return world


def scan_at(pose: Point, world, radius: float) -> list[int]:
    """The scan around a single pose, as a scout makes at its spawn point."""
    return scan_swept_segment(pose, pose, world, radius)


def test_scan_finds_site_within_radius():
    world = world_with_site_at(Point(12, 11))
    found = scan_at(Point(10, 10), world, 2.5)  # distance sqrt(5)
    assert found == [0]
    assert world.sites[0].discovered


def test_scan_misses_site_outside_radius():
    world = world_with_site_at(Point(13, 10))  # distance 3.0
    assert scan_at(Point(10, 10), world, 2.5) == []
    assert not world.sites[0].discovered


def test_scan_skips_already_discovered():
    world = world_with_site_at(Point(12, 11))
    scan_at(Point(10, 10), world, 2.5)
    assert scan_at(Point(10, 10), world, 2.5) == []


def brute_force_scan(a: Point, b: Point, world, radius: float) -> list[int]:
    """The scan rule tested against every site, in site_id order."""
    found = []
    for site in world.sites:
        if not site.discovered and _segment_distance(site.location, a, b) <= radius:
            site.discovered = True
            found.append(site.site_id)
    return found


def scan_both(world, reference, a: Point, b: Point, radius: float) -> list[int]:
    """The grid scan of `world`, checked against the brute-force scan of
    its copy `reference`: the same ids in the same order."""
    found = scan_swept_segment(a, b, world, radius)
    assert found == brute_force_scan(a, b, reference, radius), (a, b)
    return found


ARENA200 = ScenarioConfig(arena_side=200.0, n_sites=40, n_minerals=256,
                          n_scouts=2, n_excavators=8, n_haulers=12, seed=0)


def add_site(world, x: float, y: float) -> None:
    world.sites.append(ResourceSite(len(world.sites), Point(x, y), 1, 1))


def with_border_sites(world, config: ScenarioConfig, count: int):
    """Add sites on the grid's cell borders, vertical, horizontal and at
    corners, spread over the arena."""
    rng = random.Random(7)
    cells, cell = config.grid_cells, config.cell_side
    for _ in range(count):
        x = rng.randrange(cells + 1) * cell
        y = rng.randrange(cells + 1) * cell
        add_site(world, x, rng.uniform(0, config.arena_side))
        add_site(world, rng.uniform(0, config.arena_side), y)
        add_site(world, x, y)
    return world


@pytest.mark.parametrize("speed", (0.7, 1.0, 2.5))
def test_grid_scan_matches_brute_force_along_the_spirals(speed):
    """The scouts' arena200 sweeps at several speeds, spawn scans (zero
    length) included, over the workload's sites and sites on cell borders:
    every scan finds what a test of every site finds, in the same order."""
    config = dataclasses.replace(ARENA200, timing=TimingConfig(robot_speed=speed))
    radius = config.scan_radius
    sim = Simulation(config)
    world = with_border_sites(sim.ctx.world, config, 15)
    reference = copy.deepcopy(world)
    for name in ("scout_1", "scout_2"):
        spawn, cursor = sim.ctx.robots[name].pose, sim.ctx.controllers[name].cursor
        scan_both(world, reference, spawn, spawn, radius)
        while not cursor.arrived:
            for a, b in cursor.step(speed)[2]:
                scan_both(world, reference, a, b, radius)
    found = [s.site_id for s in world.sites if s.discovered]
    assert found == [s.site_id for s in reference.sites if s.discovered]
    assert len(found) > 40


def with_sites_at_the_radius(world, path, radius: float, count: int):
    """Add sites exactly `radius` to the left of points on the path's
    segments, and exactly `radius` past waypoints along the x axis."""
    rng = random.Random(5)
    segments = [(a, b) for a, b in zip(path.waypoints, path.waypoints[1:]) if a != b]
    for a, b in rng.sample(segments, count):
        t, norm = rng.random(), a.distance_to(b)
        x, y = a.x + (b.x - a.x) * t, a.y + (b.y - a.y) * t
        add_site(world, x - (b.y - a.y) / norm * radius,
                 y + (b.x - a.x) / norm * radius)
        add_site(world, b.x + radius, b.y)
    return world


@pytest.mark.parametrize("speed", (0.7, 1.0, 2.5))
def test_scan_windows_hold_every_tick_a_scan_can_find_a_site(speed):
    """The scouts' arena200 sweeps at several speeds, over the workload's
    sites, sites on cell borders and sites exactly scan_radius off the
    spiral: every tick at which a scan of that tick's swept chain, testing
    every site, would find a site lies in one of the scout's windows for
    that site."""
    config = dataclasses.replace(ARENA200, timing=TimingConfig(robot_speed=speed))
    radius = config.scan_radius
    sim = Simulation(config)
    world = with_border_sites(sim.ctx.world, config, 15)
    for name in ("scout_1", "scout_2"):
        with_sites_at_the_radius(world, sim.ctx.controllers[name].cursor.path,
                                 radius, 20)
    hits = 0
    for name in ("scout_1", "scout_2"):
        cursor = sim.ctx.controllers[name].cursor
        windows = {}
        for first, last, site in agents.scan_windows(cursor.path, world, radius,
                                                     speed):
            windows.setdefault(site.site_id, []).append((first, last))
        tick = 0
        while not cursor.arrived:
            for a, b in cursor.step(speed)[2]:
                # a site in range lies in the segment's box grown by radius
                x0, x1 = min(a.x, b.x) - radius, max(a.x, b.x) + radius
                y0, y1 = min(a.y, b.y) - radius, max(a.y, b.y) + radius
                for site in world.sites:
                    p = site.location
                    if (x0 <= p.x <= x1 and y0 <= p.y <= y1
                            and _segment_distance(p, a, b) <= radius):
                        hits += 1
                        assert any(first <= tick <= last for first, last
                                   in windows.get(site.site_id, ())), (
                            name, tick, site.site_id)
            tick += 1
    assert hits > 2 * len(world.sites)


def test_grid_scan_matches_brute_force_at_the_radius_and_on_borders():
    """Sites on cell borders and corners, each probed from exactly
    scan_radius away by a zero-length segment and by a segment passing at
    that distance, and random segments of up to 12 m: the same ids in the
    same order as a test of every site.  Every site is undiscovered again
    before each probe."""
    config, radius = ARENA200, ARENA200.scan_radius
    world = with_border_sites(generate_scenario(config), config, 30)
    reference = copy.deepcopy(world)
    probes = []
    for site in world.sites:
        x, y = site.location.x, site.location.y
        for dx, dy in ((radius, 0.0), (-radius, 0.0), (0.0, radius), (0.0, -radius)):
            probes.append((Point(x + dx, y + dy), Point(x + dx, y + dy)))
        probes.append((Point(x - 3.0, y + radius), Point(x + 3.0, y + radius)))
        probes.append((Point(x - radius, y - 4.0), Point(x - radius, y + 1.0)))
    rng = random.Random(3)
    for _ in range(500):
        a = Point(rng.uniform(0, 200), rng.uniform(0, 200))
        angle, length = rng.uniform(0, 2 * math.pi), rng.uniform(0, 12)
        probes.append((a, Point(a.x + length * math.cos(angle),
                                a.y + length * math.sin(angle))))
    hits = 0
    for a, b in probes:
        for site in world.sites + reference.sites:
            site.discovered = False
        hits += len(scan_both(world, reference, a, b, radius))
    assert hits >= 4 * len(world.sites)


def test_grid_scan_tests_a_small_fraction_of_the_sites(monkeypatch):
    """Work guard: over a reference run the grid scan computes under 1/20
    of the site distances that testing every undiscovered site would."""
    checks = brute = 0
    scan = agents.scan_swept_segment

    def counted_distance(p, a, b):
        nonlocal checks
        checks += 1
        return _segment_distance(p, a, b)

    def counted_scan(a, b, world, radius):
        nonlocal brute
        brute += sum(not site.discovered for site in world.sites)
        return scan(a, b, world, radius)

    monkeypatch.setattr(agents, "_segment_distance", counted_distance)
    monkeypatch.setattr(agents, "scan_swept_segment", counted_scan)
    run_to_completion(ScenarioConfig(seed=0))
    assert 0 < checks < brute / 20, (checks, brute)


def test_busy_rule_per_kind():
    scout = RobotState("scout_1", RobotKind.SCOUT, Point(0, 0),
                       ScoutActivity.SEARCHING)
    assert not scout.busy
    excavator = RobotState("excavator_1", RobotKind.EXCAVATOR, Point(0, 0),
                           ExcavatorActivity.IDLE)
    assert not excavator.busy
    excavator.activity = ExcavatorActivity.WAITING_FOR_HAULER
    assert excavator.busy
    hauler = RobotState("hauler_1", RobotKind.HAULER, Point(0, 0),
                        HaulerActivity.STANDBY)
    assert not hauler.busy
    hauler.activity = HaulerActivity.LOADING
    assert hauler.busy


def test_discovery_announces_same_tick_and_scout_keeps_moving():
    result = tiny_run(seed=2, n_sites=1, n_minerals=1)
    records = result.log.records
    discovery = next(r for r in records if r["type"] == "discovery")
    announcement = next(r for r in records if r["type"] == "msg"
                        and r["variant"] == "announcement")
    assert announcement["tick"] == discovery["tick"]
    # odometry strictly grows right after the find: scouting never pauses
    odometry = result.metrics.per_robot_distance[discovery["scout"]]
    speed = tiny_config().timing.robot_speed
    assert odometry > (discovery["tick"] + 1) * speed * 0.5


def test_two_sites_found_same_tick_give_two_announcements():
    config = tiny_config(n_sites=2, n_minerals=2, seed=4)
    sim = Simulation(config)
    scout = sim.ctx.controllers["scout_1"]
    # drop both sites just ahead of the scout's first sweep segment
    start = scout.cursor.path.waypoints[0]
    nxt = scout.cursor.path.waypoints[1]
    dx = nxt.x - start.x
    dy = nxt.y - start.y
    norm = math.hypot(dx, dy)
    ahead = Point(start.x + dx / norm * 0.5, start.y + dy / norm * 0.5)
    sites = sim.ctx.world.sites
    sites[0].location = Point(ahead.x + 1.0, ahead.y)
    sites[1].location = Point(ahead.x - 1.0, ahead.y)
    sim.ctx._site_by_location = {s.location.as_pair(): s for s in sites}
    sim.step()
    announcements = [r for r in sim.ctx.log.records
                     if r["type"] == "msg" and r["variant"] == "announcement"]
    assert len(announcements) == 2
    assert announcements[0]["loc"] != announcements[1]["loc"]
    assert {tuple(a["loc"]) for a in announcements} == \
        {s.location.as_pair() for s in sites}


def test_scout_goes_done_and_silent():
    result = tiny_run(seed=2, n_sites=1, n_minerals=1)
    assert result.simulation.ctx.robots["scout_1"].activity is ScoutActivity.DONE
    records = result.log.records
    last_close_by_scout = max(r["tick"] for r in records if r["type"] == "msg"
                              and r["variant"] == "close"
                              and r["auctioneer"] == "scout_1")
    scout_messages = [r for r in records if r["type"] == "msg"
                      and (r.get("auctioneer") == "scout_1"
                           or r.get("bidder") == "scout_1")]
    assert max(r["tick"] for r in scout_messages) <= last_close_by_scout
    # scouts never bid in any auction
    assert not any(r.get("bidder") == "scout_1" for r in scout_messages)


def test_mineral_lifecycle_exact_sequence():
    result = tiny_run(seed=5)
    stages: dict[str, list[str]] = {}
    ticks: dict[str, list[int]] = {}
    for r in result.log.records:
        if r["type"] in ("dig", "load", "unload"):
            stages.setdefault(r["mineral"], []).append(r["type"])
            ticks.setdefault(r["mineral"], []).append(r["tick"])
    assert len(stages) == tiny_config().n_minerals
    for mineral, sequence in stages.items():
        assert sequence == ["dig", "load", "unload"]
        assert ticks[mineral] == sorted(ticks[mineral])


def test_three_minerals_mean_three_transport_allocations():
    result = tiny_run(seed=9, n_sites=1, n_minerals=3)
    closes = [r for r in result.log.records
              if r["type"] == "msg" and r["variant"] == "close"
              and r["task_type"] == TaskType.TRANSPORT.value]
    assert len(closes) == 3
    assert len({r["auctioneer"] for r in closes}) == 1  # one digging excavator


def test_claims_never_overlap_and_all_released():
    result = tiny_run(seed=7, n_sites=3, n_minerals=6, n_excavators=3)
    active: dict[int, str] = {}
    for r in result.log.records:
        if r["type"] == "claim":
            assert r["site"] not in active
            active[r["site"]] = r["excavator"]
        elif r["type"] == "release":
            assert active.pop(r["site"]) == r["excavator"]
    assert active == {}


def test_excavator_declines_when_site_already_claimed():
    config = tiny_config(n_sites=1, n_minerals=1)
    sim = Simulation(config)
    site = sim.ctx.world.sites[0]
    site.claimed_by = "excavator_9"
    excavator = sim.ctx.controllers["excavator_1"]
    win = WinnerDecl("scout_1", TaskType.EXCAVATE, site.location, "excavator_1")
    assert excavator._accept_win(win, tick=0) is False
    assert sim.ctx.robots["excavator_1"].activity is ExcavatorActivity.IDLE


def test_carried_minerals_never_exceed_one():
    config = tiny_config(seed=13)
    sim = Simulation(config, snapshots=True)
    sim.run()
    for r in sim.ctx.log.records:
        if r["type"] == "snapshot":
            assert 0 <= r["carried"] <= 1


def test_hauler_round_trip_odometry_lower_bound():
    # task at (80,50), plant at (50,50), haulers starting at the plant:
    # the round trip costs at least 2 x 30 of odometry
    config = ScenarioConfig(n_sites=1, n_minerals=1, seed=29, policy="fcfs")
    sim = Simulation(config)
    site = sim.ctx.world.sites[0]
    site.location = Point(80.0, 50.0)
    sim.ctx._site_by_location = {site.location.as_pair(): site}
    for robot in sim.ctx.robots.values():
        if robot.kind is RobotKind.HAULER:
            robot.pose = sim.ctx.world.plant_location
    status = sim.run()
    assert status.value == "completed"
    hauler = next(r for r in sim.ctx.log.records if r["type"] == "load")["hauler"]
    assert sim.ctx.robots[hauler].odometry >= 60.0 - 1e-9


def test_standby_point_sits_toward_plant():
    p = standby_point(Point(80.0, 50.0), Point(50.0, 50.0))
    assert (p.x, p.y) == (pytest.approx(78.0), pytest.approx(50.0))


def test_paired_hauler_parks_at_standby_offset():
    config = tiny_config(policy="coalition", seed=19, n_excavators=1,
                         n_haulers=3, n_sites=1, n_minerals=2)
    sim = Simulation(config, snapshots=True)
    sim.run()
    pairs = dict(sim.ctx.policy.pairs)
    assert pairs == {"excavator_1": "hauler_1"}
    site = sim.ctx.world.sites[0]
    expected = standby_point(site.location, sim.ctx.world.plant_location)
    parked = [
        r for r in sim.ctx.log.records
        if r["type"] == "snapshot" and r["name"] == "hauler_1"
        and r["activity"] == "standby"
        and math.hypot(r["loc"][0] - expected.x, r["loc"][1] - expected.y) < 1e-6
    ]
    assert parked, "paired hauler never reached its standby spot"


def test_discovery_bias_favors_sites_near_the_plant():
    """Spiraling outward means the first find is never in the outermost ring
    while sites exist further in; empirically it always lies in the
    innermost occupied ring (one ring of slack allowed for scan overlap)."""
    from isrusim.spiral import ring_index

    def site_ring(loc):
        cell = (min(int(loc[0] // 5), 19), min(int(loc[1] // 5), 19))
        return ring_index(cell, 20)

    for seed in range(20):
        sim = Simulation(ScenarioConfig(seed=seed, policy="fcfs"))
        sim.run()
        finds = [r for r in sim.ctx.log.records if r["type"] == "discovery"]
        first_ring = site_ring(min(finds, key=lambda r: r["tick"])["loc"])
        rings = sorted(site_ring(r["loc"]) for r in finds)
        if rings[0] < rings[-1]:
            assert first_ring < rings[-1], f"seed {seed}: outermost found first"
        assert first_ring <= rings[0] + 1


def test_bid_addressed_to_other_auctioneer_is_ignored():
    config = tiny_config(n_sites=1, n_minerals=1)
    sim = Simulation(config)
    from isrusim import Bid
    bus = sim.ctx.bus
    bus.publish(Bid("scout_1", "excavator_2", Point(20.0, 20.0), -3.0), 0)
    sim.step()
    sim.step()
    for name, controller in sim.ctx.controllers.items():
        for auction in controller.book.values():
            assert "excavator_2" not in auction.bids


def test_bid_scope_per_policy():
    """fcfs and coalition let a robot bid in its oldest open auction only,
    so no robot bids twice in one tick, and a coalition-paired hauler never
    bids; nearest lets it bid in all of them, which some robot does at
    once."""
    most_bids = {}
    for policy in ("fcfs", "coalition", "nearest"):
        result = run_to_completion(crowded_config(policy=policy))
        records = result.log.records
        bids = Counter((r["tick"], r["bidder"]) for r in records
                       if r["type"] == "msg" and r["variant"] == "bid")
        most_bids[policy] = max(bids.values())
        paired = {hauler for _, hauler in records[0]["coalition_pairs"]}
        assert not any(bidder in paired for _, bidder in bids), policy
    assert most_bids == {"fcfs": 1, "coalition": 1,
                         "nearest": most_bids["nearest"]}
    assert most_bids["nearest"] > 1


def announce(scout: str, x: float) -> Announcement:
    return Announcement(scout, TaskType.EXCAVATE, Point(x, 5.0))


@pytest.mark.parametrize("policy, bid_in", [
    ("fcfs", [10.0]), ("coalition", [10.0]), ("nearest", [10.0, 25.0, 20.0])])
def test_controller_bids_only_in_its_bid_scope(policy, bid_in):
    """An idle excavator holding three open views bids in the oldest alone
    under fcfs and coalition, in all three under nearest, and in none again
    until a round is fresh."""
    sim = Simulation(tiny_config(policy=policy))
    excavator = sim.ctx.controllers["excavator_1"]
    excavator._ingest([announce("scout_1", 25.0), announce("scout_1", 10.0)], 6)
    excavator._ingest([announce("scout_1", 20.0)], 7)
    log = sim.ctx.log.records
    logged = len(log)
    excavator._place_bids(7)
    excavator._place_bids(8)
    assert [(r["tick"], r["loc"][0]) for r in log[logged:]] == [
        (7, x) for x in bid_in]


def test_views_stay_oldest_first_when_announcements_arrive_out_of_order():
    """An inbox holds one tick's announcements in publish order, which need
    not be the views' order (first tick, auctioneer, location)."""
    excavator = Simulation(tiny_config()).ctx.controllers["excavator_1"]
    excavator._ingest([announce("scout_2", 20.0), announce("scout_1", 25.0),
                       announce("scout_1", 10.0)], 6)
    excavator._ingest([announce("scout_2", 1.0), announce("scout_1", 1.0)], 7)
    assert [v.order_key for v in excavator.views.values()] == [
        (5, "scout_1", (10.0, 5.0)), (5, "scout_1", (25.0, 5.0)),
        (5, "scout_2", (20.0, 5.0)), (6, "scout_1", (1.0, 5.0)),
        (6, "scout_2", (1.0, 5.0))]


def test_depleted_excavator_returns_to_bidding():
    result = tiny_run(seed=37, n_sites=2, n_minerals=2, n_excavators=1)
    records = result.log.records
    releases = [r["tick"] for r in records if r["type"] == "release"]
    assert len(releases) == 2  # one excavator worked both sites
    rebids = [r for r in records if r["type"] == "msg" and r["variant"] == "bid"
              and r["bidder"] == "excavator_1"
              and math.isfinite(r["utility"]) and r["tick"] > releases[0]]
    assert rebids, "idle excavator never bid again after depleting its site"
