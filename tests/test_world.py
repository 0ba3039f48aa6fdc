import dataclasses
import hashlib
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from isrusim import (
    Point,
    RobotKind,
    RobotState,
    RunStatus,
    ScenarioConfig,
    ScenarioGenerationError,
    TimingConfig,
    build_spiral,
    generate_scenario,
    run_to_completion,
    transfer_mineral_to_plant,
)
from isrusim.agents import HaulerActivity, find_schedule
from isrusim.pathing import make_path
from isrusim.world import (
    START_CIRCLE_RADIUS,
    ResourceSite,
    _blind_spot_test,
    build_config,
    claim_site,
    parse_scenario_file,
    release_site,
    scan_reach,
)

DATA = Path(__file__).parent / "data"


def test_default_config_matches_reference_scenario():
    cfg = ScenarioConfig()
    assert (cfg.n_scouts, cfg.n_excavators, cfg.n_haulers) == (2, 4, 6)
    assert (cfg.n_sites, cfg.n_minerals) == (10, 64)
    assert cfg.arena_side == 100.0
    assert cfg.scan_radius == 2.5
    assert cfg.grid_cells == 20


@pytest.mark.parametrize("bad", [
    dict(n_scouts=3),
    dict(n_scouts=0),
    dict(n_sites=-1),
    dict(n_minerals=5, n_sites=6),
    dict(n_sites=0, n_minerals=3),
    dict(scan_radius=0.0),
    dict(arena_side=99.0),  # not a multiple of 2*scan_radius
    dict(policy="greedy"),
    dict(tick_cap=0),
])
def test_config_validation_rejects(bad):
    with pytest.raises(ValueError):
        ScenarioConfig(**bad)


@pytest.mark.parametrize("field", ["arena_side", "scan_radius"])
@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_non_finite_config_is_rejected_naming_the_field(field, value):
    with pytest.raises(ValueError, match=f"{field} must be a finite number"):
        ScenarioConfig(**{field: value})


@pytest.mark.parametrize("value", [float("inf"), float("nan")])
def test_non_finite_robot_speed_is_rejected(value):
    with pytest.raises(ValueError, match="robot_speed must be a finite number"):
        TimingConfig(robot_speed=value)


def small_arena(side: float) -> ScenarioConfig:
    return ScenarioConfig(arena_side=side, scan_radius=0.5, n_scouts=1,
                          n_excavators=1, n_haulers=1, n_sites=2, n_minerals=2)


@pytest.mark.parametrize("side", [6.0, 8.0])
def test_arena_smaller_than_the_start_circle_is_rejected(side):
    with pytest.raises(ValueError, match="start circle"):
        small_arena(side)


def test_smallest_arena_holding_the_start_circle_runs():
    assert run_to_completion(small_arena(10.0)).status is RunStatus.COMPLETED


@pytest.mark.parametrize("bad", [
    dict(robot_speed=0.0),
    dict(dig_duration=0),
    dict(bid_window=1),  # one-tick window can never collect a bid
    dict(win_resolution_window=0),
])
def test_timing_validation_rejects(bad):
    with pytest.raises(ValueError):
        TimingConfig(**bad)


def test_generation_is_deterministic():
    cfg = ScenarioConfig(seed=7)
    a, b = generate_scenario(cfg), generate_scenario(cfg)
    assert [s.location for s in a.sites] == [s.location for s in b.sites]
    assert [s.minerals_initial for s in a.sites] == [s.minerals_initial for s in b.sites]


def test_different_seeds_differ():
    a = generate_scenario(ScenarioConfig(seed=1))
    b = generate_scenario(ScenarioConfig(seed=2))
    assert [s.location for s in a.sites] != [s.location for s in b.sites]


def test_default_scenario_composition_and_separations():
    cfg = ScenarioConfig(seed=5)
    world = generate_scenario(cfg)
    assert len(world.sites) == 10
    # 64 mineral objects distributed across the sites, at least one each
    assert sum(s.minerals_initial for s in world.sites) == 64
    assert all(s.minerals_initial >= 1 for s in world.sites)
    assert world.plant_location == Point(50.0, 50.0)
    for i, site in enumerate(world.sites):
        assert site.location.distance_to(world.plant_location) >= 2 * cfg.scan_radius
        assert cfg.scan_radius <= site.location.x <= cfg.arena_side - cfg.scan_radius
        assert cfg.scan_radius <= site.location.y <= cfg.arena_side - cfg.scan_radius
        for other in world.sites[i + 1:]:
            assert site.location.distance_to(other.location) >= cfg.scan_radius


def test_separation_constraints_hold_over_many_seeds():
    for seed in range(30):
        cfg = ScenarioConfig(seed=seed)
        world = generate_scenario(cfg)
        pts = [s.location for s in world.sites]
        assert len(pts) == cfg.n_sites
        assert min(p.distance_to(world.plant_location) for p in pts) >= 5.0


def test_single_site_forced_composition():
    world = generate_scenario(ScenarioConfig(n_sites=1, n_minerals=1, seed=0))
    assert len(world.sites) == 1
    assert world.sites[0].minerals_initial == 1


# The site lists of reference seeds 0-19, arena200 seeds 0-4, arena 300
# seed 0, and every 8th placed config of `config_sample.json`, as the
# generator placed them when it tested each candidate against every sweep
# segment in turn.
SITE_PINS = json.loads((DATA / "site_pins.json").read_text())


def site_digest(world) -> str:
    """sha256 of each site's location and mineral count, in site order."""
    rows = [[s.location.x, s.location.y, s.minerals_initial] for s in world.sites]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


@pytest.mark.parametrize("name", SITE_PINS)
def test_site_lists_are_pinned(name):
    pin = SITE_PINS[name]
    world = generate_scenario(ScenarioConfig(**pin["config"]))
    assert site_digest(world) == pin["sha256"]


def linear_blind_spot(plans, scan_radius, p) -> bool:
    """The blind-spot rule tested against every segment of the sweep."""
    return all(scan_reach(p, a, b, a.distance_to(b), scan_radius) is None
               for plan in plans
               for a, b in zip(plan.waypoints, plan.waypoints[1:]))


def _nudge(value: float, ulps: int) -> float:
    for _ in range(abs(ulps)):
        value = math.nextafter(value, math.copysign(math.inf, ulps))
    return value


@st.composite
def points_near_a_segment(draw, plans, scan_radius) -> Point:
    """A point a few ulps from distance `scan_radius` of a sweep segment:
    off a waypoint in any direction, or off a segment at a right angle."""
    waypoints = draw(st.sampled_from([plan.waypoints for plan in plans
                                      if plan.visit_order]))
    i = draw(st.integers(0, len(waypoints) - 1))
    a, b = waypoints[i], waypoints[min(i + 1, len(waypoints) - 1)]
    t = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    angle = draw(st.sampled_from([0.0, 0.5, 1.0, 1.5]) | st.floats(0.0, 2.0))
    x = a.x + t * (b.x - a.x) + scan_radius * math.cos(angle * math.pi)
    y = a.y + t * (b.y - a.y) + scan_radius * math.sin(angle * math.pi)
    return Point(_nudge(x, draw(st.integers(-4, 4))),
                 _nudge(y, draw(st.integers(-4, 4))))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(data=st.data(), cells=st.integers(1, 24),
       scan_radius=st.floats(0.75, 5.0), n_scouts=st.integers(1, 2))
def test_bucketed_blind_spot_test_agrees_with_the_linear_one(
        data, cells, scan_radius, n_scouts):
    cell = 2.0 * scan_radius
    plans = build_spiral(cells * cell, cell, n_scouts)
    blind = _blind_spot_test(plans, scan_radius)
    coordinate = st.floats(-scan_radius, cells * cell + scan_radius)
    uniform = st.builds(Point, coordinate, coordinate)
    for p in data.draw(st.lists(uniform | points_near_a_segment(plans, scan_radius),
                                min_size=1, max_size=12)):
        assert blind(p) == linear_blind_spot(plans, scan_radius, p), p


@settings(max_examples=150, derandomize=True, deadline=None)
@given(data=st.data(), cells=st.integers(1, 24),
       scan_radius=st.floats(0.75, 5.0), n_scouts=st.integers(1, 2),
       speed=st.floats(0.3, 5.0))
def test_every_point_the_generator_accepts_is_found(
        data, cells, scan_radius, n_scouts, speed):
    """Liveness: a site at a point the blind-spot test accepts for a plan
    is in the find schedule of the scout that sweeps that plan."""
    cell = 2.0 * scan_radius
    plans = build_spiral(cells * cell, cell, n_scouts)
    spawn = Point(cells * scan_radius + START_CIRCLE_RADIUS, cells * scan_radius)
    scouts = [(_blind_spot_test([plan], scan_radius),
               make_path((spawn,) + plan.waypoints)) for plan in plans]
    coordinate = st.floats(-scan_radius, cells * cell + scan_radius)
    uniform = st.builds(Point, coordinate, coordinate)
    for p in data.draw(st.lists(uniform | points_near_a_segment(plans, scan_radius),
                                min_size=1, max_size=12)):
        site = ResourceSite(0, p, 1, 1)
        for blind, path in scouts:
            if not blind(p):
                assert find_schedule(path, [site], scan_radius, speed), p


def test_config_where_no_site_fits_is_rejected_when_built():
    # in a 10 m arena the only point 5 m in from every border is the plant;
    # in a 20 m arena those points are at most 7.1 m from it, under 10 m
    with pytest.raises(ValueError, match="no site can be placed"):
        ScenarioConfig(arena_side=10, scan_radius=5, n_sites=1, n_minerals=1)
    with pytest.raises(ValueError, match="no site can be placed"):
        ScenarioConfig(arena_side=20, scan_radius=5, n_sites=1, n_minerals=1)
    # without sites there is nothing to place
    ScenarioConfig(arena_side=10, scan_radius=5, n_sites=0, n_minerals=0)


def test_config_whose_sites_cannot_keep_apart_is_rejected_when_built():
    # 30 m arena, scan radius 2.5: discs of radius 1.25 about the sites fit
    # 144 times into the room between the inner square and the plant
    ScenarioConfig(arena_side=30, scan_radius=2.5, n_sites=144, n_minerals=144)
    with pytest.raises(ValueError, match="cannot keep scan_radius apart"):
        ScenarioConfig(arena_side=30, scan_radius=2.5, n_sites=145,
                       n_minerals=145)


def test_build_checks_reject_no_config_whose_sites_can_be_placed():
    """400 small-arena configs, each pinned with what happened to it before
    the packing bound: rejected when built, sites placed, or rejected late,
    by `generate_scenario` after its attempts ran out.  The build checks are
    necessary conditions, so no config that placed its sites is rejected.
    The late rejections all stay: those configs have room for their sites,
    and rejection sampling jams before it finds a packing."""
    rows = json.loads((DATA / "config_sample.json").read_text())
    outcomes = {"placed": 0, "late": 0, "rejected": 0}
    for side, radius, n_sites, seed, outcome in rows:
        try:
            ScenarioConfig(arena_side=side, scan_radius=radius,
                           n_sites=n_sites, n_minerals=n_sites, seed=seed)
        except ValueError:
            assert outcome == "rejected", (side, radius, n_sites)
        else:
            assert outcome != "rejected", (side, radius, n_sites)
            outcomes[outcome] += 1
    assert outcomes == {"placed": 277, "late": 72, "rejected": 0}


def test_every_pinned_config_is_still_accepted():
    from test_fingerprints import CASES
    for config, _ in CASES.values():
        assert dataclasses.replace(config) == config


def test_overdense_scenario_rejected():
    # far more sites than the separation rules can fit
    with pytest.raises(ScenarioGenerationError):
        generate_scenario(ScenarioConfig(arena_side=30.0, n_sites=120,
                                         n_minerals=120, seed=0))


def _hauler(carried: int) -> RobotState:
    return RobotState("hauler_1", RobotKind.HAULER, Point(50.0, 50.0),
                      HaulerActivity.UNLOADING, carried_minerals=carried)


def test_transfer_increments_plant_counter():
    world = generate_scenario(ScenarioConfig(seed=3))
    hauler = _hauler(carried=1)
    transfer_mineral_to_plant(world, hauler)
    assert world.minerals_at_plant == 1
    assert hauler.carried_minerals == 0


def test_transfer_with_empty_bin_rejected():
    world = generate_scenario(ScenarioConfig(seed=3))
    with pytest.raises(ValueError):
        transfer_mineral_to_plant(world, _hauler(carried=0))
    assert world.minerals_at_plant == 0  # world unchanged


def test_claim_is_exclusive():
    world = generate_scenario(ScenarioConfig(seed=3))
    claim_site(world, 0, "excavator_1")
    with pytest.raises(ValueError):
        claim_site(world, 0, "excavator_2")
    release_site(world, 0, "excavator_1")
    claim_site(world, 0, "excavator_2")
    with pytest.raises(ValueError):
        release_site(world, 0, "excavator_1")


def test_scenario_file_parse_and_overrides(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text("""
# comment line
arena_side = 50
n_scouts = 1
seed = 42        # inline comment
dig_duration = 8
""")
    values = parse_scenario_file(path)
    cfg = build_config(values, {"seed": 9, "n_haulers": 2})
    assert cfg.arena_side == 50.0
    assert cfg.n_scouts == 1
    assert cfg.seed == 9  # the later mapping wins
    assert cfg.n_haulers == 2
    assert cfg.timing.dig_duration == 8


def test_scenario_file_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("warp_speed = 9\n")
    with pytest.raises(ValueError, match="warp_speed"):
        parse_scenario_file(path)


@pytest.mark.parametrize("data, line_number, reason", [
    (b"seed = 4\narena_side = \xff\n", 2, "invalid start byte"),
    (b"seed = 4\r\n\r\nn_scouts = 1 # caf\xe9\r\n", 3,
     "invalid continuation byte"),
    (b"seed = 4\rpolicy = \xe2\x82", 2, "unexpected end of data"),
])
def test_scenario_file_not_in_utf8_names_its_first_bad_line(
        tmp_path, data, line_number, reason):
    path = tmp_path / "bad.cfg"
    path.write_bytes(data)
    with pytest.raises(ValueError) as caught:
        parse_scenario_file(path)
    assert str(caught.value) == (
        f"{path}:{line_number}: invalid UTF-8 ({reason})")


@pytest.mark.parametrize("break_", ["\f", "\v", "\x1c", "\x1d", "\x1e",
                                    "\x85", "\u2028", "\u2029"])
def test_scenario_file_lines_end_only_at_newlines(tmp_path, break_):
    r"""Only \n, \r\n and \r end a line, as an editor shows them, so the
    number in an error is the same for both kinds of error."""
    path = tmp_path / "breaks.cfg"
    path.write_bytes(f"seed = 1{break_}# c\nzzz\n".encode())
    with pytest.raises(ValueError) as caught:
        parse_scenario_file(path)
    assert str(caught.value) == f"{path}:2: expected 'key = value', got 'zzz'"
    path.write_bytes(f"seed = 1{break_}# c\n".encode() + b"\xff\n")
    with pytest.raises(ValueError) as caught:
        parse_scenario_file(path)
    assert str(caught.value) == f"{path}:2: invalid UTF-8 (invalid start byte)"


# A valid value other than the default for every scenario key, as written
# in a file, and the value the config must hold.
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
TIMING_FIELDS = dataclasses.fields(TimingConfig)
SCENARIO_FIELDS = [f for f in dataclasses.fields(ScenarioConfig)
                   if f.name != "timing"]


@pytest.mark.parametrize("field", [*SCENARIO_FIELDS, *TIMING_FIELDS],
                         ids=lambda f: f.name)
def test_scenario_file_sets_every_config_field(tmp_path, field):
    text, want = KEY_SAMPLES[field.name]
    path = tmp_path / "scenario.cfg"
    path.write_text(f"{field.name} = {text}\n")
    config = build_config(parse_scenario_file(path))
    value = getattr(config.timing if field in TIMING_FIELDS else config,
                    field.name)
    assert value == want != field.default
    assert type(value) is type(field.default)


def test_timing_is_not_a_scenario_key():
    with pytest.raises(ValueError, match="unknown scenario key 'timing'"):
        build_config({"timing": TimingConfig()})


def test_robot_names_order():
    names = ScenarioConfig().robot_names()
    assert names[0] == ("scout_1", RobotKind.SCOUT)
    assert names[2] == ("excavator_1", RobotKind.EXCAVATOR)
    assert names[-1] == ("hauler_6", RobotKind.HAULER)
    assert len(names) == 12
