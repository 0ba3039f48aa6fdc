import math
import random
from collections import Counter
from dataclasses import replace

import pytest

from isrusim import Point, build_spiral, estimate_path
from isrusim.pathing import PathCursor, make_path


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
    pose, moved = cursor.step(1.0)
    assert moved == 1.0
    assert (pose.x, pose.y) == (pytest.approx(0.6), pytest.approx(0.8))


def test_advance_clamps_final_step():
    cursor = PathCursor(estimate_path(Point(0, 0), Point(5, 0)), traveled=4.7)
    pose, moved = cursor.step(1.0)
    assert moved == pytest.approx(0.3)
    assert (pose.x, pose.y) == (pytest.approx(5.0), pytest.approx(0.0))
    assert cursor.arrived


def test_cursor_total_odometry_is_exact_sum_of_steps():
    path = make_path([Point(0, 0), Point(5, 0), Point(5, 5), Point(0, 5)])
    cursor = PathCursor(path)
    total = 0.0
    while not cursor.arrived:
        _, moved = cursor.step(0.7)
        total += moved
    assert total == pytest.approx(path.length, abs=1e-12)


def test_cursor_sweeps_across_waypoints():
    path = make_path([Point(0, 0), Point(2, 0), Point(2, 2)])
    cursor = PathCursor(path)
    pose, moved = cursor.step(3.0)  # crosses the corner mid-step
    assert moved == 3.0
    assert (pose.x, pose.y) == (pytest.approx(2.0), pytest.approx(1.0))


def test_cursor_step_places_midpoint():
    path = make_path([Point(0, 0), Point(10, 0)])
    assert PathCursor(path).step(5.0)[0] == Point(5.0, 0.0)


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
        pose, moved = cursor.step(speed)
        total += moved
        assert pose.distance_to(ref_pose) <= 1e-9
    assert cursor.arrived
    assert total == path.length == cursor.traveled
    assert cursor.step(speed) == (pose, 0.0)


def test_cursor_work_is_linear(monkeypatch):
    """Walking a long path measures each segment once and reads a few arc
    lengths per step and per waypoint passed; a cursor that re-walks the
    path from its start would read millions here."""
    counts = Counter()
    distance_to = Point.distance_to

    def counted(self, other):
        counts["distance_to"] += 1
        return distance_to(self, other)

    class CountedPrefix(tuple):
        def __getitem__(self, index):
            counts["prefix"] += 1
            return tuple.__getitem__(self, index)

    monkeypatch.setattr(Point, "distance_to", counted)
    (plan,) = build_spiral(250.0, 5.0, 1)
    path = make_path(plan.waypoints)
    cursor = PathCursor(replace(path, prefix=CountedPrefix(path.prefix)))
    segments = len(path.segments)
    steps = 0
    while not cursor.arrived:
        cursor.step(1.0)
        steps += 1
    assert segments >= 2000
    assert counts["distance_to"] <= segments + 4
    assert counts["prefix"] <= 8 * steps + 2 * segments
