import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from conftest import crowded_config, step_cursor

from isrusim import (Point, ScenarioConfig, Simulation, agents,
                     build_spiral, estimate_path, pathing)
from isrusim.agents import RobotController
from isrusim.pathing import PathCursor, make_path, moves_to


def test_three_four_five_triangle():
    assert estimate_path(Point(0, 0), Point(3, 4)).length == 5.0


def test_zero_length_path():
    assert estimate_path(Point(10, 10), Point(10, 10)).length == 0.0


def test_full_diagonal():
    length = estimate_path(Point(0, 0), Point(100, 100)).length
    assert length == pytest.approx(100 * math.sqrt(2), abs=1e-9)


def test_endpoints_are_start_and_goal():
    path = estimate_path(Point(1, 2), Point(3, 4))
    assert path.start == Point(1, 2)
    assert path.goal == Point(3, 4)


def test_straight_estimate_never_beats_euclid_and_is_symmetric():
    rng = random.Random(0)
    for _ in range(300):
        a = Point(rng.uniform(0, 100), rng.uniform(0, 100))
        b = Point(rng.uniform(0, 100), rng.uniform(0, 100))
        forward = estimate_path(a, b).length
        assert forward >= a.distance_to(b) - 1e-12
        assert forward == pytest.approx(estimate_path(b, a).length, abs=1e-12)


def test_triangle_inequality():
    rng = random.Random(1)
    for _ in range(300):
        a, b, c = (Point(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(3))
        direct = estimate_path(a, c).length
        detour = estimate_path(a, b).length + estimate_path(b, c).length
        assert direct <= detour + 1e-9


def test_advance_one_unit_along_segment():
    cursor = PathCursor(estimate_path(Point(0, 0), Point(3, 4)))
    assert cursor.advance(1, 1.0, 0.0) == 1.0
    assert (cursor.pose.x, cursor.pose.y) == (pytest.approx(0.6), pytest.approx(0.8))


def test_advance_clamps_final_step():
    cursor = PathCursor(estimate_path(Point(0, 0), Point(5, 0)), traveled=4.7)
    assert cursor.advance(1, 1.0, 0.0) == pytest.approx(0.3)
    assert (cursor.pose.x, cursor.pose.y) == (pytest.approx(5.0), pytest.approx(0.0))
    assert cursor.arrived


def test_cursor_total_odometry_is_exact_sum_of_steps():
    path = make_path([Point(0, 0), Point(5, 0), Point(5, 5), Point(0, 5)])
    cursor = PathCursor(path)
    total = 0.0
    while not cursor.arrived:
        total = cursor.advance(1, 0.7, total)
    assert total == pytest.approx(path.length, abs=1e-12)


def test_cursor_sweeps_across_waypoints():
    path = make_path([Point(0, 0), Point(2, 0), Point(2, 2)])
    cursor = PathCursor(path)
    assert cursor.advance(1, 3.0, 0.0) == 3.0  # crosses the corner mid-move
    assert (cursor.pose.x, cursor.pose.y) == (pytest.approx(2.0), pytest.approx(1.0))


def test_cursor_step_places_midpoint():
    path = make_path([Point(0, 0), Point(10, 0)])
    cursor = PathCursor(path)
    cursor.advance(1, 5.0, 0.0)
    assert cursor.pose == Point(5.0, 0.0)


def test_path_length_is_the_last_arc_length():
    path = make_path([Point(0, 0), Point(0.1, 0), Point(0.1, 0.2), Point(0.3, 0.2)])
    assert path.prefix == (0.0, 0.1, 0.1 + 0.2, 0.1 + 0.2 + 0.2)
    assert path.length == path.prefix[-1]
    assert make_path([Point(1, 1)]).length == 0.0


def reference_walk(waypoints, speed):
    """A plain walker: the pose after each step, found by walking the
    segments from the start and subtracting their lengths."""
    lengths = [a.distance_to(b) for a, b in zip(waypoints, waypoints[1:])]
    marks = [0.0]
    for length in lengths:
        marks.append(marks[-1] + length)

    def pose_at(distance):
        remaining = distance
        for a, b, length in zip(waypoints, waypoints[1:], lengths):
            if 0.0 < remaining <= length:
                t = remaining / length
                return Point(a.x + (b.x - a.x) * t, a.y + (b.y - a.y) * t)
            remaining -= length
        return waypoints[-1] if distance > 0.0 else waypoints[0]

    poses, traveled = [], 0.0
    while traveled < marks[-1]:
        traveled = min(traveled + speed, marks[-1])
        poses.append(pose_at(traveled))
    return poses


def _spiral_paths(n_scouts):
    start = Point(21.3, 26.9)  # off the cell grid, like a scout's spawn pose
    return [make_path((start,) + plan.waypoints)
            for plan in build_spiral(50.0, 5.0, n_scouts)]


_rng = random.Random(7)
DIFFERENTIAL_PATHS = {
    "zero_length_segments": make_path([
        Point(1, 1), Point(1, 1), Point(4, 1), Point(4, 1), Point(4, 1),
        Point(4, 5), Point(0.5, 5), Point(0.5, 5)]),
    "single_waypoint": make_path([Point(2, 3)]),
    "random_polyline": make_path([Point(_rng.uniform(0, 20), _rng.uniform(0, 20))
                                  for _ in range(40)]),
    "spiral_1_scout": _spiral_paths(1)[0],
    "spiral_2_scouts_a": _spiral_paths(2)[0],
    "spiral_2_scouts_b": _spiral_paths(2)[1],
}


@pytest.mark.parametrize("speed", (0.3, 1.0, 1.7, 2.0, 5.0, 12.0))
@pytest.mark.parametrize("name", list(DIFFERENTIAL_PATHS))
def test_cursor_matches_reference_walker(name, speed):
    path = DIFFERENTIAL_PATHS[name]
    expected = reference_walk(path.waypoints, speed)
    cursor = PathCursor(path)
    total, pose = 0.0, path.start
    for ref_pose in expected:
        total = cursor.advance(1, speed, total)
        pose = cursor.pose
        assert pose.distance_to(ref_pose) <= 1e-9
    assert cursor.arrived
    assert total == path.length == cursor.traveled
    assert cursor.advance(1, speed, total) == total
    assert cursor.pose == pose


def _bits(*values: float) -> tuple[str, ...]:
    return tuple(value.hex() for value in values)


def _differential_path(data, speed: float):
    """A path of length 0, of an exact multiple of `speed`, or through
    random waypoints with non-dyadic coordinates, some repeated."""
    shape = data.draw(st.sampled_from(("zero", "multiple", "random")))
    if shape == "zero":
        p = Point(data.draw(st.floats(0, 20)), 1.0 / 3.0)
        return make_path([p] * data.draw(st.integers(1, 3)))
    if shape == "multiple":
        n = data.draw(st.integers(1, 30))
        return make_path([Point(0.1, 0.7), Point(0.1 + n * speed, 0.7)])
    coordinate = st.floats(0, 20) | st.integers(0, 60).map(lambda i: i / 3.0)
    points = data.draw(st.lists(st.builds(Point, coordinate, coordinate),
                                min_size=1, max_size=8))
    return make_path([p for p in points for _ in range(data.draw(st.integers(1, 2)))])


@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=st.data(), speed=st.sampled_from((0.3, 0.7, 1.0, 2.0, 5.0))
       | st.floats(0.3, 5.0))
def test_moves_to_and_advance_match_the_per_tick_stepper(data, speed):
    """Against `step_cursor`, one move per tick: `moves_to` gives the tick
    at which the stepper first reaches each arc length (segment ends among
    them), cut at `most`, and `most` for an arc past the end, which the
    stepper never reaches; and `advance`, in one call or in parts, leaves
    the same bits of traveled, odometry and pose as that many steps."""
    path = _differential_path(data, speed)
    start = data.draw(st.floats(0.0, 1000.0))  # the odometry before the path
    stepper, odometry, trail = PathCursor(path), start, []
    while len(trail) < 3 or not stepper.arrived or trail[-3][0] < path.length:
        odometry += step_cursor(stepper, speed)[1]
        trail.append((stepper.traveled, odometry, stepper.pose.x, stepper.pose.y))

    arcs = sorted(data.draw(st.lists(
        st.sampled_from(path.prefix) | st.floats(0.0, path.length)
        | st.floats(path.length, path.length + 50.0, exclude_min=True),
        min_size=1, max_size=6)))
    ticks = [next((i for i, (traveled, *_) in enumerate(trail) if traveled >= arc),
                  math.inf) for arc in arcs]
    most = data.draw(st.integers(0, len(trail)))
    assert moves_to(path.length, speed, arcs, 10**9) == [min(t, 10**9) for t in ticks]
    assert moves_to(path.length, speed, arcs, most) == [min(t, most) for t in ticks]

    parts = data.draw(st.lists(st.integers(0, len(trail) // 3), min_size=1, max_size=3))
    cursor, odometry, done = PathCursor(path), start, 0
    for part in parts:
        odometry = cursor.advance(part, speed, odometry)
        done += part
        expected = (0.0, start, path.start.x, path.start.y) if done == 0 else trail[done - 1]
        assert _bits(cursor.traveled, odometry, cursor.pose.x, cursor.pose.y) == _bits(
            *expected)


def _rule(length: float, speed: float, traveled: float, moves: int,
          odometry: float) -> tuple[float, float]:
    """The motion rule one move at a time, apart from `pathing`."""
    for _ in range(moves):
        moved = min(speed, length - traveled)
        traveled += moved
        odometry += moved
    return traveled, odometry


@settings(derandomize=True, max_examples=120, deadline=None)
@given(data=st.data(), length=st.floats(0.0, 2000.0),
       speed=st.sampled_from((0.1, 1.0 / 3.0, 0.7)) | st.floats(0.1, 5.0))
def test_long_walks_match_the_plain_rule(data, length, speed):
    """On straight paths of up to 2 km, where most moves are full and summed
    at once, `moves_to` (cut at `most`, mostly inside the run of full moves)
    and `advance` (in parts, from a point mid-course) leave the same bits as
    the rule applied one move at a time."""
    path = make_path([Point(0.1, 0.7), Point(0.1 + length, 0.7)])
    length = path.length
    trail, traveled = [], 0.0
    while len(trail) < 3 or trail[-3] < length:
        traveled = _rule(length, speed, traveled, 1, 0.0)[0]
        trail.append(traveled)
    arcs = sorted(data.draw(st.lists(st.floats(0.0, length) | st.just(length),
                                     min_size=1, max_size=4)))
    ticks = [next(i for i, t in enumerate(trail) if t >= arc) for arc in arcs]
    most = data.draw(st.integers(0, len(trail)))
    assert moves_to(length, speed, arcs, most) == [min(t, most) for t in ticks]

    start = data.draw(st.floats(0.0, length))
    cursor = PathCursor(path, traveled=start)
    expected = (start, data.draw(st.floats(0.0, 1000.0)))
    odometry = expected[1]
    for part in data.draw(st.lists(st.integers(0, len(trail) // 2 + 2),
                                   min_size=1, max_size=3)):
        odometry = cursor.advance(part, speed, odometry)
        expected = _rule(length, speed, expected[0], part, expected[1])
        assert _bits(cursor.traveled, odometry) == _bits(*expected)


def test_a_sum_that_overshoots_its_estimate_is_walked_again():
    """Where adding the speed rounds to a larger step (here 0.125 per move of
    0.1 at 1e15 m), the estimated run of full moves is too long; its last
    move is found not full, and the moves are counted one at a time."""
    length = 1e15 + 10.0
    cursor = PathCursor(make_path([Point(0.0, 0.0), Point(length, 0.0)]),
                        traveled=1e15)
    odometry = cursor.advance(200, 0.1, 0.0)
    assert _bits(cursor.traveled, odometry) == _bits(*_rule(length, 0.1, 1e15, 200, 0.0))
    assert cursor.traveled == length


def test_an_arc_past_the_end_gets_most_at_once():
    """The walk stops at the path's end, so an arc past it is never reached:
    it gets `most` without a move being stepped towards it."""
    assert moves_to(10.0, 1.0, [5.0, 10.0, 11.0, 1e9], 10**9) == [4, 9, 10**9, 10**9]


@pytest.mark.parametrize("speed", [5e-324, 1e-310])
def test_a_subnormal_speed_walks_to_the_cap(speed):
    """A path's length over a subnormal speed overflows to infinity: every
    move is full, and the walk stops at the cap, as the rule says, with no
    count taken of the infinite quotient."""
    assert 30.0 / speed == math.inf
    assert moves_to(30.0, speed, [speed, 30.0], 1000) == [0, 1000]
    cursor = PathCursor(make_path([Point(0.0, 0.0), Point(30.0, 0.0)]))
    odometry = cursor.advance(1000, speed, 0.0)
    assert _bits(cursor.traveled, odometry) == _bits(*_rule(30.0, speed, 0.0,
                                                            1000, 0.0))
    assert 0.0 < cursor.traveled < 30.0


def test_move_ticks_take_no_memory_per_move():
    """`moves_to` keeps no running sum of each full move: at 1e-4 m a tick,
    building a run and its first step (every course's last move and every
    scout's find ticks, up to a million moves each) stay far below the
    8 MB that one float per move of a single walk would take."""
    tracemalloc.start()
    try:
        Simulation(ScenarioConfig(seed=0, tick_cap=10**6, robot_speed=1e-4)).step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_runs_of_full_moves_are_not_stepped(monkeypatch):
    """Over a reference run, each `moves_to` and `advance` call evaluates the
    move rule's clamp `min(speed, ...)` at most once: the full moves are
    summed at once and only the move cut short by the end of the path is
    stepped.  The clamp of `_full_moves`' estimate, `min(most, ...)`, takes
    the int `most` first and is not a move, so it is not counted."""
    mins, worst, moves = 0, 0, 0

    def counted_min(*args):
        nonlocal mins
        mins += type(args[0]) is float
        return min(*args)

    def per_call(function):
        def counted(*args):
            nonlocal worst
            before = mins
            result = function(*args)
            worst = max(worst, mins - before)
            return result
        return counted

    counted_advance = per_call(PathCursor.advance)

    def advance(cursor, n, *args):
        nonlocal moves
        moves += n
        return counted_advance(cursor, n, *args)

    monkeypatch.setattr(pathing, "min", counted_min, raising=False)
    monkeypatch.setattr(agents, "moves_to", per_call(moves_to))
    monkeypatch.setattr(PathCursor, "advance", advance)
    Simulation(ScenarioConfig(seed=0)).run()
    assert moves > 5_000
    assert 0 < worst <= 1


def test_a_sync_places_the_pose_once(monkeypatch):
    """A robot's `sync` makes every move due with one placement of the
    pose, however many moves it applies: a crowded run under coalition,
    whose couriers, scouts and standby walks all catch up."""
    places = 0
    place = pathing._place

    def counted(path, distance):
        nonlocal places
        places += 1
        return place(path, distance)

    sync = RobotController.sync
    applied = []

    def checked_sync(self, tick):
        before, moves = places, self._next_move
        sync(self, tick)
        applied.append(self._next_move - moves)
        assert places - before == (self._next_move > moves)

    monkeypatch.setattr(pathing, "_place", counted)
    monkeypatch.setattr(RobotController, "sync", checked_sync)
    Simulation(crowded_config(policy="coalition", tick_cap=400)).run()
    assert max(applied) > 10
    assert sum(moves > 1 for moves in applied) > 20
