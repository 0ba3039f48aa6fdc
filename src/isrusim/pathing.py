"""Paths as waypoint polylines, and motion along them.

The arena has no obstacles, so a robot's course to a goal is the straight
segment from its pose (`estimate_path`), and the cost it bids for a task is
the straight-line distance to it.  The one polyline with more than two
waypoints is a scout's spiral (`make_path`).

A robot moves along either kind once a tick, by up to its speed; the
distance it has traveled is the running sum of its moves.  This module
holds that rule once: `moves_to` says which move first reaches an arc
length, and `PathCursor.advance` makes a run of moves.  Every move before
the first one cut short by the end of the path adds exactly the speed, so
both sum that run of full moves in C (`_full_moves`), with the same float
additions in the same order as one move at a time, and step only the
moves after it.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import reduce
from itertools import accumulate, repeat
from operator import add
from typing import Sequence

from .world import Point


@dataclass(frozen=True)
class PathEstimate:
    """A planned path: ordered waypoints, the length of each segment between
    them, and the arc length at each waypoint."""

    waypoints: tuple[Point, ...]
    segments: tuple[float, ...]
    # prefix[i] is the arc length from the start to waypoint i, summed one
    # segment at a time; prefix[0] == 0.0
    prefix: tuple[float, ...]

    @property
    def length(self) -> float:
        return self.prefix[-1]

    @property
    def start(self) -> Point:
        return self.waypoints[0]

    @property
    def goal(self) -> Point:
        return self.waypoints[-1]


def make_path(waypoints: Sequence[Point]) -> PathEstimate:
    """Build a PathEstimate whose length is the sum of its segment lengths."""
    if not waypoints:
        raise ValueError("a path needs at least one waypoint")
    pts = tuple(waypoints)
    segments = tuple(a.distance_to(b) for a, b in zip(pts, pts[1:]))
    return PathEstimate(waypoints=pts, segments=segments,
                        prefix=tuple(accumulate(segments, initial=0.0)))


def estimate_path(start: Point, goal: Point) -> PathEstimate:
    """Straight-segment estimate between two in-arena points."""
    return make_path((start, goal))


def _place(path: PathEstimate, distance: float) -> Point:
    """The point at arc length `distance`: on the segment ending at the
    first waypoint whose arc length is >= distance, so a zero-length
    segment is never chosen."""
    k = bisect_left(path.prefix, distance)
    if k == 0:
        return path.start
    if k == len(path.prefix):
        return path.goal
    a, b = path.waypoints[k - 1], path.waypoints[k]
    t = (distance - path.prefix[k - 1]) / path.segments[k - 1]
    return Point(a.x + (b.x - a.x) * t, a.y + (b.y - a.y) * t)


def _full_moves(length: float, speed: float, traveled: float,
                most: int) -> tuple[int, float]:
    """How many of at most `most` moves from `traveled` along a path of
    `length` are full, each adding exactly `speed`, and the distance
    traveled after them.  A move is full while `length - traveled` is not
    below `speed`, and `traveled` only grows, so the full moves come first.

    All but the last of an estimated count, two short of the quotient, are
    summed at once, and the count stands if its last move is full; if not
    (float error as large as a whole move), the count starts over from
    zero.  The moves after it are checked one at a time.  A quotient above
    `most + 2` gives `most` without `int`, which cannot take the infinite
    quotient of a subnormal speed."""
    quotient = (length - traveled) / speed
    k = most if quotient > most + 2 else max(0, min(most, int(quotient) - 2))
    if k:
        before_last = reduce(add, repeat(speed, k - 1), traveled)
        if length - before_last < speed:
            k = 0
        else:
            traveled = before_last + speed
    while k < most and not length - traveled < speed:
        traveled += speed
        k += 1
    return k, traveled


def moves_to(length: float, speed: float, arcs: Sequence[float],
             most: int) -> list[int]:
    """For each arc length in `arcs`, ascending, the index of the first move
    from the start of a path of `length` that ends at or past it, the first
    move being move 0; there is always at least one move.  An arc not
    reached in `most` moves gets `most`, as does, at once, an arc past the
    path's end, where the walk stops.

    An arc reached within the run of full moves is walked to from the one
    before it, an estimated count of moves at once as in `_full_moves`, then
    one move at a time; past the run, the walk goes on one move at a time."""
    full, end = _full_moves(length, speed, 0.0, most + 1)
    done, sum_done = 1, speed  # the first `done` moves end at `sum_done`
    traveled, n = (end, full - 1) if full else (min(speed, length), 0)
    indices = []
    for arc in arcs:
        if arc <= end:
            k = max(0, int((arc - sum_done) / speed) - 2)
            ahead = reduce(add, repeat(speed, k), sum_done)
            if ahead < arc:  # the estimate stands
                done, sum_done = done + k, ahead
            while sum_done < arc:
                sum_done += speed
                done += 1
            indices.append(done - 1)
            continue
        if arc > length:  # never reached: the walk stops at the end
            n = most
        while traveled < arc and n < most:
            traveled += min(speed, length - traveled)
            n += 1
        indices.append(n)
    return indices


@dataclass
class PathCursor:
    """A position along a path: the arc length traveled, summed one move at
    a time so it never drifts, and the pose there."""

    path: PathEstimate
    traveled: float = 0.0
    pose: Point = field(init=False)

    def __post_init__(self) -> None:
        self.pose = _place(self.path, self.traveled)

    @property
    def arrived(self) -> bool:
        return self.traveled >= self.path.length

    def advance(self, moves: int, speed: float, odometry: float) -> float:
        """Make `moves` moves of up to `speed`, adding each to `odometry` in
        turn, and return it; the pose is placed once, after the last.  The
        full moves are summed at once (`_full_moves`), the rest stepped."""
        length = self.path.length
        full, traveled = _full_moves(length, speed, self.traveled, moves)
        odometry = reduce(add, repeat(speed, full), odometry)
        for _ in range(moves - full):
            moved = min(speed, length - traveled)
            traveled += moved
            odometry += moved
        self.traveled = traveled
        self.pose = _place(self.path, traveled)
        return odometry
