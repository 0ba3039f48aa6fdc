"""Paths as waypoint polylines, and motion along them.

The arena has no obstacles, so a robot's course to a goal is the straight
segment from its pose (`estimate_path`), and the cost it bids for a task is
the straight-line distance to it.  The one polyline with more than two
waypoints is a scout's spiral (`make_path`).  `PathCursor` walks either kind
one tick at a time.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate
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


def _place(path: PathEstimate, k: int, distance: float) -> Point:
    """The point at arc length `distance`, given the first waypoint k whose
    arc length is >= distance: on segment k-1, at distance - prefix[k-1]
    from its start.  Zero-length segments are never chosen."""
    if k == 0:
        return path.start
    if k == len(path.prefix):
        return path.goal
    a, b = path.waypoints[k - 1], path.waypoints[k]
    t = (distance - path.prefix[k - 1]) / path.segments[k - 1]
    return Point(a.x + (b.x - a.x) * t, a.y + (b.y - a.y) * t)


@dataclass
class PathCursor:
    """Stateful walker along a path; one `step` per tick.

    Tracks its own arc-length position so repeated float relocation never
    drifts.  It keeps the index of the next waypoint ahead, so a step costs
    the waypoints it passes, not the length of the path.
    """

    path: PathEstimate
    traveled: float = 0.0
    pose: Point = field(init=False)
    # first waypoint whose arc length is >= traveled
    _next: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._seek()

    def _seek(self) -> None:
        """Place the cursor at `traveled` by binary search."""
        self._next = bisect_left(self.path.prefix, self.traveled)
        self.pose = _place(self.path, self._next, self.traveled)

    @property
    def arrived(self) -> bool:
        return self.traveled >= self.path.length

    def step(self, speed: float) -> tuple[Point, float]:
        """Advance by up to `speed`; returns (pose, moved)."""
        moved = min(speed, self.path.length - self.traveled)
        self.traveled += moved
        if moved <= 0.0:  # already arrived
            self._seek()
            return self.pose, moved
        prefix, k, end = self.path.prefix, self._next, self.traveled
        while k < len(prefix) and prefix[k] < end:
            k += 1
        self._next = k
        self.pose = _place(self.path, k, end)
        return self.pose, moved
