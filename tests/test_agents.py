import copy
import dataclasses
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    auction_of,
    crowded_config,
    segment_distance,
    tiny_config,
    tiny_run,
    walk_and_scan,
    win_record,
    world_of,
)

from isrusim import (
    InvariantError,
    Point,
    RobotKind,
    RobotState,
    RunStatus,
    ScenarioConfig,
    Simulation,
    TaskType,
    run_to_completion,
)
from isrusim import agents
from isrusim.agents import (
    COURIER,
    ExcavatorActivity,
    HaulerActivity,
    ScoutActivity,
    find_schedule,
    standby_point,
)
from isrusim.pathing import PathCursor, make_path
from isrusim.world import ResourceSite, scan_reach


def scan_at(pose: Point, site: Point, radius: float) -> float | None:
    """The scan around a single pose, as a scout makes at its spawn point."""
    return scan_reach(site, pose, pose, 0.0, radius)


def test_scan_finds_site_within_radius():
    assert scan_at(Point(10, 10), Point(12, 11), 2.5) == 0.0  # distance sqrt(5)


def test_scan_misses_site_outside_radius():
    assert scan_at(Point(10, 10), Point(13, 10), 2.5) is None  # distance 3.0


def test_scan_skips_already_discovered():
    """Two sites the scout first has in range on the same tick, one of them
    discovered (as by another scout) after its schedule is built: that tick's
    step finds only the other, and no record or message names the first."""
    sim = Simulation(tiny_config(n_sites=2, n_minerals=2, seed=4, tick_cap=400))
    scout = sim.ctx.controllers["scout_1"]
    # the middle of four waypoints in a row, so no turn comes near the sites
    w = scout.cursor.path.waypoints
    i = next(i for i in range(2, len(w) - 2)
             if len({p.x for p in w[i - 1:i + 3]}) == 1
             or len({p.y for p in w[i - 1:i + 3]}) == 1)
    a, b = w[i], w[i + 1]
    mid, norm = Point((a.x + b.x) / 2, (a.y + b.y) / 2), a.distance_to(b)
    sides = ((b.y - a.y) / norm, (a.x - b.x) / norm)  # one meter to the side
    sites = sim.ctx.world.sites
    sites[0].location = Point(mid.x + sides[0], mid.y + sides[1])
    sites[1].location = Point(mid.x - sides[0], mid.y - sides[1])
    sim.ctx._site_by_location = {s.location: s for s in sites}
    sim.step()
    (tick,) = {tick for tick, _, _ in scout._finds}
    assert tick > 0 and len(scout._finds) == 2
    sites[0].discovered = True
    sim.run()
    records = sim.ctx.log.records
    assert [(r["tick"], r["site"]) for r in records
            if r["type"] == "discovery"] == [(tick, 1)]
    site = sites[0].location
    assert not any(r["type"] == "msg" and r["loc"] == [site.x, site.y]
                   for r in records)
    assert scout.state.activity is ScoutActivity.DONE


def probe_scan_reach(p: Point, a: Point, b: Point, radius: float) -> bool:
    """Check `scan_reach` against the distance from p to segment a-b:
    None exactly when that exceeds `radius`, unless the distance lies within
    1e-9 * max(1, radius) of it; otherwise an arc length on the segment
    whose point lies within `radius` (+1e-9) of p.  True when in range."""
    length = a.distance_to(b)
    reach = scan_reach(p, a, b, length, radius)
    distance = segment_distance(p, a, b)
    if abs(distance - radius) > 1e-9 * max(1.0, radius):
        assert (reach is None) == (distance > radius), (p, a, b, radius)
    if reach is None:
        return False
    assert 0.0 <= reach <= length
    t = reach / length if length else 0.0
    point = Point(a.x + (b.x - a.x) * t, a.y + (b.y - a.y) * t)
    assert point.distance_to(p) <= radius + 1e-9, (p, a, b, radius)
    return True


coordinates = st.floats(0.0, 300.0)
points = st.builds(Point, coordinates, coordinates)


@st.composite
def probes(draw):
    """A segment (a zero-length one a tenth of the time), a radius, and a
    point uniform in the arena or a few ulps either side of the radius off
    a point of the segment, at any angle."""
    a = draw(points)
    b = a if draw(st.integers(0, 9)) == 0 else draw(points)
    radius = draw(st.floats(0.1, 10.0))
    t = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    angle = draw(st.floats(0.0, 2.0 * math.pi))
    scale = 1.0 + draw(st.integers(-4, 4)) * 2.0 ** -52
    near = Point(a.x + t * (b.x - a.x) + scale * radius * math.cos(angle),
                 a.y + t * (b.y - a.y) + scale * radius * math.sin(angle))
    return draw(st.sampled_from([near]) | points), a, b, radius


@settings(max_examples=400, derandomize=True, deadline=None)
@given(probe=probes())
def test_scan_reach_is_the_distance_rule(probe):
    probe_scan_reach(*probe)


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
    """The scouts' arena200 sweeps at several speeds, over the workload's
    sites and sites on cell borders and corners: each scout's find schedule
    lists the (tick, site) pairs, in the same order, that walking its
    spiral one `step_cursor` move per tick gives, scanning the spawn point
    and then every swept piece, testing every site by its distance."""
    config = dataclasses.replace(ARENA200, robot_speed=speed)
    radius = config.scan_radius
    sim = Simulation(config)
    world = with_border_sites(sim.ctx.world, config, 15)
    found = 0
    for name in ("scout_1", "scout_2"):
        controller = sim.ctx.controllers[name]
        path = controller.cursor.path
        schedule = [(tick, site.site_id) for tick, _, site
                    in reversed(find_schedule(path, world.sites, radius, speed,
                                              config.tick_cap))]
        walked = walk_and_scan(PathCursor(path), path.start,
                               copy.deepcopy(world.sites), radius, speed)
        assert schedule == [(tick, site.site_id)
                            for tick, sites in enumerate(walked) for site in sites]
        found += len(schedule)
    assert found > 2 * 40


def test_finds_within_a_tick_come_in_scan_order():
    """On an L-shaped path of 10 m legs walked 4 m a tick with a 1 m
    scanner: at tick 0 the spawn scan's find comes first, then those of the
    first leg by site_id, one of them exactly at the move's end; at tick 2
    a site first in range exactly at the corner, on both legs, comes with
    the first leg, before a site of the second leg with a lower site_id.
    The walker agrees."""
    path = make_path([Point(0, 0), Point(10, 0), Point(10, 10)])
    sites = [ResourceSite(i, location, 1, 1) for i, location in enumerate((
        Point(2.5, 0.0),    # first leg, from 1.5 m
        Point(0.0, 0.5),    # the spawn scan
        Point(10.5, 1.5),   # second leg, from 10.63 m
        Point(11.0, 0.0),   # from 10 m: the corner, on either leg
        Point(4.0, 1.0)))]  # from 4 m, where the first move ends
    schedule = [(tick, segment, site.site_id) for tick, segment, site
                in reversed(find_schedule(path, sites, 1.0, 4.0, 10))]
    assert schedule == [(0, -1, 1), (0, 0, 0), (0, 0, 4), (2, 0, 3), (2, 1, 2)]
    walked = walk_and_scan(PathCursor(path), path.start, sites, 1.0, 4.0)
    assert [(tick, site.site_id) for tick, found in enumerate(walked)
            for site in found] == [(tick, site_id) for tick, _, site_id in schedule]


def test_scan_reach_agrees_with_the_distance_at_the_radius_and_on_borders():
    """Sites on cell borders and corners, each probed from exactly
    scan_radius away by a zero-length segment and by a segment passing at
    that distance, and random segments of up to 12 m: `scan_reach` keeps
    the distance rule at every site (`probe_scan_reach`)."""
    config, radius = ARENA200, ARENA200.scan_radius
    world = with_border_sites(world_of(config), config, 30)
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
    hits = sum(probe_scan_reach(site.location, a, b, radius)
               for a, b in probes for site in world.sites)
    assert hits >= 4 * len(world.sites)


def test_grid_scan_tests_a_small_fraction_of_the_sites(monkeypatch):
    """Work guard: on the reference and arena200 scenarios, and on a 20 m
    arena of 0.25 m scan radius, whose spawn legs span about 10 cells, a
    scout's find schedule calls `scan_reach` under 1/20 as often as testing
    every site against every segment of its path would."""
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return scan_reach(*args)

    monkeypatch.setattr("isrusim.world.scan_reach", counted)
    for config in (ScenarioConfig(seed=0), ARENA200,
                   ScenarioConfig(arena_side=20.0, scan_radius=0.25,
                                  n_sites=20, n_minerals=20)):
        sim = Simulation(config)
        sites = sim.ctx.world.sites
        for name in ("scout_1", "scout_2"):
            path = sim.ctx.controllers[name].cursor.path
            calls = 0
            assert find_schedule(path, sites, config.scan_radius,
                                 config.robot_speed, config.tick_cap)
            assert 0 < calls < len(sites) * len(path.segments) / 20, (
                config.arena_side, name, calls, len(sites) * len(path.segments))


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
    speed = tiny_config().robot_speed
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
    sim.ctx._site_by_location = {s.location: s for s in sites}
    sim.step()
    announcements = [r for r in sim.ctx.log.records
                     if r["type"] == "msg" and r["variant"] == "announcement"]
    assert len(announcements) == 2
    assert announcements[0]["loc"] != announcements[1]["loc"]
    assert {tuple(a["loc"]) for a in announcements} == \
        {s.location for s in sites}


def test_scout_goes_done_and_silent():
    result = tiny_run(seed=2, n_sites=1, n_minerals=1)
    scout = result.simulation.ctx.controllers["scout_1"]
    assert scout.state.activity is ScoutActivity.DONE
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


def test_course_outside_arena_is_an_invariant_error():
    """The arena bound is checked once, where a course is set: a goal off
    the map (or NaN) is an InvariantError, so the check also runs under
    `python -O`; a goal on the border is inside."""
    sim = Simulation(tiny_config())
    hauler = sim.ctx.controllers["hauler_1"]
    for goal in (Point(-1.0, 10.0), Point(30.1, 10.0), Point(10.0, -0.1),
                 Point(10.0, 30.5), Point(math.nan, 10.0)):
        with pytest.raises(InvariantError, match="outside the arena of side 30"):
            hauler._set_course(goal, 0)
    hauler._set_course(Point(30.0, 0.0), 0)
    assert hauler.cursor.path.goal == Point(30.0, 0.0)


def test_a_course_cut_short_is_an_invariant_error():
    """A courier whose schedule ends a move before its course does stops
    the run with an InvariantError naming it, also under `python -O`."""
    sim = Simulation(tiny_config())
    while not any(c.state.activity in COURIER for c in sim.ctx.controllers.values()):
        sim.step()
    courier = next(c for c in sim.ctx.controllers.values()
                   if c.state.activity in COURIER)
    assert courier.cursor.path.length > 0.0
    courier._last_move -= 1
    with pytest.raises(InvariantError,
                       match=f"{courier.state.name} made its last move at tick"):
        sim.run()


def test_walks_stop_at_the_tick_cap():
    """No walk is worked out past the tick cap, however slow the robots:
    the scouts' spirals at set-up and their find schedules at tick 0 end
    there, and a 10-tick run at 1e-9 m a tick ends stalled at once."""
    for speed in (1e-3, 1e-9):
        config = ScenarioConfig(seed=0, tick_cap=10, robot_speed=speed)
        sim = Simulation(config)
        for controller in sim.ctx.controllers.values():
            assert controller._last_move - controller._next_move <= config.tick_cap
        sim.step()
        scouts = [c for c in sim.ctx.controllers.values()
                  if c.state.kind is RobotKind.SCOUT]
        assert all(tick <= config.tick_cap for c in scouts for tick, _, _ in c._finds)
        assert sim.run() is RunStatus.STALLED


def test_excavator_cannot_accept_a_claimed_site():
    """A site has one auction per run, so its winner always finds it
    unclaimed; `claim_site` still refuses a second claim, before the
    excavator changes anything."""
    config = tiny_config(n_sites=1, n_minerals=1)
    sim = Simulation(config)
    site = sim.ctx.world.sites[0]
    site.claimed_by = "excavator_9"
    excavator = sim.ctx.controllers["excavator_1"]
    win = win_record(auction_of("scout_1", TaskType.EXCAVATE, site.location,
                                "excavator_1"))
    with pytest.raises(ValueError, match="already claimed by excavator_9"):
        excavator._accept_win(win, tick=0)
    assert excavator.state.activity is ExcavatorActivity.IDLE
    assert excavator.site is None
    assert site.claimed_by == "excavator_9"


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
    sim.ctx._site_by_location = {site.location: site}
    for controller in sim.ctx.controllers.values():
        if controller.state.kind is RobotKind.HAULER:
            controller.state.pose = sim.ctx.world.plant_location
    status = sim.run()
    assert status.value == "completed"
    hauler = next(r for r in sim.ctx.log.records if r["type"] == "load")["hauler"]
    assert sim.ctx.controllers[hauler].state.odometry >= 60.0 - 1e-9


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
    """A bid lives in its own auction's answers: winner selection reads no
    answer to another auctioneer's auction at the same site, and a bid
    record, which goes to no inbox, reaches no auction at all."""
    sim = Simulation(tiny_config(n_sites=1, n_minerals=1))
    bus, loc = sim.ctx.bus, Point(20.0, 20.0)
    mine, theirs = (agents.open_auction({}, scout, TaskType.EXCAVATE, loc, 0, bus)
                    for scout in ("scout_1", "scout_2"))
    bus.bid(mine, "excavator_2", -1.0, 0)
    bus.deliver(1)
    board = bus.boards["excavate"]
    assert board["scout_1", loc] is mine and board["scout_2", loc] is theirs
    mine.answers["excavator_1"] = (1, -9.0, 1)
    theirs.answers["excavator_2"] = (1, -3.0, 1)
    assert agents.select_winner(mine, 2, bus)["winner"] == "excavator_1"
    assert mine.bids == {"excavator_1": -9.0}
    assert agents.select_winner(theirs, 2, bus)["winner"] == "excavator_2"


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


def file_announcements(bus, *ticks):
    """Announce each tick's excavation auctions, (auctioneer, x), at that
    tick and file them on the board, as the next tick's delivery does."""
    for tick, auctions in ticks:
        for scout, x in auctions:
            auction = auction_of(scout, TaskType.EXCAVATE, Point(x, 5.0),
                                 tick=tick)
            bus.post(auction, tick)
        bus.deliver(tick + 1)


@pytest.mark.parametrize("policy, bid_in", [
    ("fcfs", [10.0]), ("coalition", [10.0]), ("nearest", [10.0, 25.0, 20.0])])
def test_controller_bids_only_in_its_bid_scope(policy, bid_in):
    """An idle excavator whose board holds three open auctions bids in the
    oldest alone under fcfs and coalition, in all three under nearest, and
    in none again until a round is fresh."""
    sim = Simulation(tiny_config(policy=policy))
    excavator = sim.ctx.controllers["excavator_1"]
    file_announcements(sim.ctx.bus,
                       (5, [("scout_1", 25.0), ("scout_1", 10.0)]),
                       (6, [("scout_1", 20.0)]))
    log = sim.ctx.log.records
    logged = len(log)
    excavator._place_bids(7)
    excavator._place_bids(8)
    assert [(r["tick"], r["loc"][0]) for r in log[logged:]] == [
        (7, x) for x in bid_in]


def test_board_stays_oldest_first_when_announcements_arrive_out_of_order():
    """One tick's announcements are filed in publish order, which need not
    be the board's order (first tick, auctioneer, location); the board is
    re-sorted in place, so it stays the one the excavator reads."""
    sim = Simulation(tiny_config())
    excavator = sim.ctx.controllers["excavator_1"]
    board = sim.ctx.bus.boards["excavate"]
    file_announcements(sim.ctx.bus,
                       (5, [("scout_2", 20.0), ("scout_1", 25.0),
                            ("scout_1", 10.0)]),
                       (6, [("scout_2", 1.0), ("scout_1", 1.0)]))
    assert excavator.board is board
    assert [(auction.first_tick, *key) for key, auction in board.items()] == [
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
