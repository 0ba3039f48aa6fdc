"""Mining arena model: geometry, resource sites, scenario configuration.

The arena is a flat square with the processing plant at its center and a
number of resource sites scattered around it.  Each site holds an integer
number of mineral units; one mineral unit is exactly one hauler load.
Scenario generation is a pure function of the configuration (seed included),
which is what makes whole simulation runs replayable bit for bit.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence, get_type_hints

from .events import first_invalid_utf8_line

if TYPE_CHECKING:
    from .spiral import SpiralPlan


class RobotKind(str, Enum):
    SCOUT = "scout"
    EXCAVATOR = "excavator"
    HAULER = "hauler"


class TaskType(str, Enum):
    EXCAVATE = "excavate"
    TRANSPORT = "transport"


class PolicyName(str, Enum):
    FCFS = "fcfs"
    COALITION = "coalition"
    NEAREST = "nearest"


POLICY_NAMES = tuple(name.value for name in PolicyName)

# Sites are kept this many scan radii away from the plant so no site is
# discovered before the scouts actually move.
PLANT_CLEARANCE_FACTOR = 2.0
# Total placement attempts before a configuration is declared over-dense.
MAX_PLACEMENT_ATTEMPTS = 10_000
# Robots start evenly spaced on a circle of this radius around the plant.
START_CIRCLE_RADIUS = 5.0
# Meters added to the reach of both grid lookups, sites near a scout's path
# segment and sweep segments near a site candidate: far above any rounding
# error.
GRID_PAD = 1e-6


class ScenarioGenerationError(ValueError):
    """Raised when sites cannot be placed under the separation rules."""


class InvariantError(RuntimeError):
    """A simulation invariant broke: the program, not its input, is at
    fault.  Raised, not asserted, so the checks also run under `python -O`."""


@dataclass(frozen=True)
class Point:
    """A position in the arena, in simulation meters."""

    x: float
    y: float

    def distance_to(self, other: Point) -> float:
        return math.hypot(self.x - other.x, self.y - other.y)

    def as_pair(self) -> tuple[float, float]:
        return (self.x, self.y)


@dataclass
class ResourceSite:
    """A mineral deposit. At most one excavator may hold a claim on it."""

    site_id: int
    location: Point
    minerals_initial: int
    minerals_remaining: int
    discovered: bool = False
    claimed_by: str | None = None

    def __post_init__(self) -> None:
        if self.minerals_initial < 1:
            raise ValueError("site must start with at least one mineral")
        if not 0 <= self.minerals_remaining <= self.minerals_initial:
            raise ValueError("minerals_remaining out of range")


def _require_finite(config: object, name: str) -> None:
    """Reject NaN and infinities, which compare False against every bound."""
    if not math.isfinite(getattr(config, name)):
        raise ValueError(f"{name} must be a finite number")


@dataclass(frozen=True)
class TimingConfig:
    """Duration constants, all expressed in ticks (speed in meters/tick).

    bid_window must be at least 2: the broadcast bus has a one-tick delivery
    latency in each direction, so a shorter window closes before any bid can
    physically arrive.
    """

    robot_speed: float = 1.0
    dig_duration: int = 20
    load_duration: int = 5
    unload_duration: int = 5
    bid_window: int = 3
    win_resolution_window: int = 1

    def __post_init__(self) -> None:
        _require_finite(self, "robot_speed")
        if self.robot_speed <= 0:
            raise ValueError("robot_speed must be positive")
        for name in ("dig_duration", "load_duration", "unload_duration",
                     "bid_window", "win_resolution_window"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be a positive tick count")
        if self.bid_window < 2:
            raise ValueError("bid_window below 2 can never collect a bid")


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one simulation run (world + fleet + policy)."""

    arena_side: float = 100.0
    n_scouts: int = 2
    n_excavators: int = 4
    n_haulers: int = 6
    n_sites: int = 10
    n_minerals: int = 64
    scan_radius: float = 2.5
    seed: int = 0
    policy: str = "fcfs"
    timing: TimingConfig = field(default_factory=TimingConfig)
    tick_cap: int = 200_000

    def __post_init__(self) -> None:
        _require_finite(self, "arena_side")
        _require_finite(self, "scan_radius")
        if self.arena_side < 2.0 * START_CIRCLE_RADIUS:
            raise ValueError(
                f"arena_side must be at least {2.0 * START_CIRCLE_RADIUS} so the "
                f"robots' start circle fits in the arena")
        if self.n_scouts not in (1, 2):
            raise ValueError("n_scouts must be 1 or 2")
        if self.n_excavators < 1 or self.n_haulers < 1:
            raise ValueError("need at least one excavator and one hauler")
        if self.n_sites < 0:
            raise ValueError("n_sites must be non-negative")
        if self.n_minerals < self.n_sites:
            raise ValueError("every site needs at least one mineral")
        if self.n_sites == 0 and self.n_minerals != 0:
            raise ValueError("minerals require sites to hold them")
        if self.scan_radius <= 0:
            raise ValueError("scan_radius must be positive")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must fit in 64 unsigned bits")
        if self.policy not in POLICY_NAMES:
            raise ValueError(f"policy must be one of {POLICY_NAMES}")
        if self.tick_cap < 1:
            raise ValueError("tick_cap must be positive")
        # Scout coverage divides the arena into square cells of one scan
        # diameter; the arena must tile exactly.
        cells = self.arena_side / self.cell_side
        if abs(cells - round(cells)) > 1e-9 or round(cells) < 1:
            raise ValueError(
                "arena_side must be an exact multiple of 2*scan_radius")
        # A site lies at least scan_radius in from the border and far from
        # the plant (see generate_scenario); the corners of that inner
        # square are its points farthest from the plant.
        inset = self.arena_side / 2.0 - self.scan_radius
        if (self.n_sites > 0 and math.hypot(inset, inset)
                < PLANT_CLEARANCE_FACTOR * self.scan_radius):
            raise ValueError(
                f"no site can be placed: every point scan_radius in from the "
                f"border lies within {PLANT_CLEARANCE_FACTOR:g}*scan_radius "
                f"of the plant")
        # Sites lie at least scan_radius apart, so the discs of radius
        # scan_radius/2 about them are disjoint.  Each lies within that
        # radius of the inner square, and outside the disc of
        # (PLANT_CLEARANCE_FACTOR - 1/2)*scan_radius about the plant, which
        # the check above puts inside that rounded square.  So the discs'
        # areas cannot add up to more than the room between the two.
        half, inner = self.scan_radius / 2.0, 2.0 * inset
        keep_out = PLANT_CLEARANCE_FACTOR * self.scan_radius - half
        room = (inner * inner + 4.0 * inner * half
                + math.pi * (half * half - keep_out * keep_out))
        if self.n_sites > 0 and self.n_sites * math.pi * half * half > room:
            raise ValueError(
                f"{self.n_sites} sites cannot keep scan_radius apart in the "
                f"room the arena leaves them")

    @property
    def cell_side(self) -> float:
        return 2.0 * self.scan_radius

    @property
    def grid_cells(self) -> int:
        """Cells per arena side."""
        return round(self.arena_side / self.cell_side)

    def robot_names(self) -> list[tuple[str, RobotKind]]:
        """All robot names with kinds, in scout/excavator/hauler order."""
        counts = (self.n_scouts, self.n_excavators, self.n_haulers)
        return [(f"{kind.value}_{i + 1}", kind)
                for kind, count in zip(RobotKind, counts) for i in range(count)]


class _Grid:
    """Items bucketed by the grid cell, of side `cell`, of the (x, y) given with
    each; `near` gives those in the cells overlapping a-b's box grown by `reach`."""

    def __init__(self, cell: float, items: Iterable[tuple[float, float, object]]):
        self.cell = cell
        self.buckets: dict[tuple[int, int], list] = {}
        for x, y, item in items:
            self.buckets.setdefault((int(x // cell), int(y // cell)), []).append(item)

    def near(self, a: Point, b: Point, reach: float) -> list:
        cell, buckets = self.cell, self.buckets
        columns = range(int((min(a.x, b.x) - reach) // cell),
                        int((max(a.x, b.x) + reach) // cell) + 1)
        rows = range(int((min(a.y, b.y) - reach) // cell),
                     int((max(a.y, b.y) + reach) // cell) + 1)
        return [item for ix in columns for iy in rows
                for item in buckets.get((ix, iy), ())]


@dataclass
class WorldState:
    """Shared mutable world: sites and plant stock."""

    plant_location: Point
    sites: list[ResourceSite]
    minerals_at_plant: int = 0


def scan_reach(p: Point, a: Point, b: Point, length: float,
               radius: float) -> float | None:
    """The scan rule: how far along segment a-b, of length `length`, a
    scanner of `radius` moving from a first has p in range, by projection
    onto the segment's line; None if it never does."""
    px, py = p.x - a.x, p.y - a.y
    if length == 0.0:
        along, off = 0.0, math.hypot(px, py)
    else:
        dx, dy = b.x - a.x, b.y - a.y
        along = (px * dx + py * dy) / length
        off = abs(px * dy - py * dx) / length
    if off > radius:
        return None
    half = math.sqrt(radius * radius - off * off)
    first = max(0.0, along - half)
    return first if first <= min(length, along + half) else None


def _blind_spot_test(plans: Sequence[SpiralPlan],
                     scan_radius: float) -> Callable[[Point], bool]:
    """Whether no segment the plans sweep ever has a point in scan range
    (`scan_reach`).  Only segments whose midpoints lie within scan_radius
    plus half a segment of it are tested."""
    sweep = [(a, b, a.distance_to(b)) for plan in plans
             for a, b in zip(plan.waypoints, plan.waypoints[1:])]
    grid = _Grid(2.0 * scan_radius, (
        ((a.x + b.x) / 2.0, (a.y + b.y) / 2.0, (a, b, length))
        for a, b, length in sweep))
    reach = (scan_radius + GRID_PAD
             + max((length for _, _, length in sweep), default=0.0) / 2.0)
    return lambda p: all(scan_reach(p, a, b, length, scan_radius) is None
                         for a, b, length in grid.near(p, p, reach))


def generate_scenario(config: ScenarioConfig,
                      plans: Sequence[SpiralPlan] | None = None) -> WorldState:
    """Build the world for a configuration. Pure in the config (seed included).

    Sites are placed by rejection sampling under four rules: at least
    2*scan_radius from the plant, at least scan_radius from every other
    site, at least scan_radius in from the arena boundary, and within scan
    range of the scouts' planned sweep.  The last rule exists because a
    circular scanner of half a cell side leaves small blind wedges at the
    sweep's turns (a cell corner is sqrt(2)/2 cell sides from the cell
    center); a site inside a wedge could never be found and would deadlock
    the mission.  Mineral counts are a uniformly drawn composition of
    n_minerals into n_sites positive parts.

    `plans` are the scouts' coverage plans for the config; None builds them.
    """
    if plans is None:
        from .spiral import build_spiral  # import here: spiral imports this module
        plans = build_spiral(config.arena_side, config.cell_side, config.n_scouts)
    rng = random.Random(config.seed)
    side = config.arena_side
    plant = Point(side / 2.0, side / 2.0)
    margin = config.scan_radius
    plant_clearance = PLANT_CLEARANCE_FACTOR * config.scan_radius
    blind = _blind_spot_test(plans, config.scan_radius)

    locations: list[Point] = []
    attempts = 0
    while len(locations) < config.n_sites:
        if attempts >= MAX_PLACEMENT_ATTEMPTS:
            raise ScenarioGenerationError(
                f"could not place {config.n_sites} sites with the required "
                f"separations after {attempts} attempts (scenario too dense)")
        attempts += 1
        candidate = Point(rng.uniform(margin, side - margin),
                          rng.uniform(margin, side - margin))
        if candidate.distance_to(plant) < plant_clearance:
            continue
        if any(candidate.distance_to(p) < config.scan_radius for p in locations):
            continue
        if blind(candidate):
            continue  # inside a scan blind spot: unreachable by any scout
        locations.append(candidate)

    counts = _mineral_composition(rng, config.n_minerals, config.n_sites)
    sites = [ResourceSite(site_id=i, location=loc,
                          minerals_initial=counts[i], minerals_remaining=counts[i])
             for i, loc in enumerate(locations)]
    return WorldState(plant_location=plant, sites=sites)


def _mineral_composition(rng: random.Random, total: int, parts: int) -> list[int]:
    """Uniform composition of `total` into `parts` parts, each >= 1."""
    if parts == 0:
        return []
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    bounds = [0] + cuts + [total]
    return [bounds[i + 1] - bounds[i] for i in range(parts)]


def transfer_mineral_to_plant(world: WorldState, hauler) -> None:
    """Empty the hauler's bin into the plant. Rejected if the bin is empty."""
    if getattr(hauler, "carried_minerals", 0) < 1:
        raise ValueError(f"{getattr(hauler, 'name', 'hauler')} carries no mineral")
    hauler.carried_minerals -= 1
    world.minerals_at_plant += 1


def claim_site(world: WorldState, site_id: int, excavator: str) -> None:
    """Give `excavator` the exclusive claim on a site."""
    site = world.sites[site_id]
    if site.claimed_by is not None:
        raise ValueError(f"site {site_id} already claimed by {site.claimed_by}")
    site.claimed_by = excavator


def release_site(world: WorldState, site_id: int, excavator: str) -> None:
    site = world.sites[site_id]
    if site.claimed_by != excavator:
        raise ValueError(f"site {site_id} is not claimed by {excavator}")
    site.claimed_by = None


# --- flat key=value scenario files -----------------------------------------

def _value_fields(cls: type) -> dict[str, type]:
    """The int, float and str fields of a config dataclass, with their types."""
    return {name: kind for name, kind in get_type_hints(cls).items()
            if kind in (int, float, str)}


_TIMING_KEYS = _value_fields(TimingConfig)
# Every scenario key and its value type: the fields of ScenarioConfig but
# `timing`, and those of TimingConfig.
SCENARIO_KEYS: dict[str, type] = {**_value_fields(ScenarioConfig), **_TIMING_KEYS}


def parse_scenario_file(path: str | Path) -> dict[str, str]:
    """Parse a flat `key = value` scenario file (# starts a comment)."""
    values: dict[str, str] = {}
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}:{first_invalid_utf8_line(data)}: "
                         f"invalid UTF-8 ({exc.reason})") from exc
    # lines end at \n, \r\n and \r only, as `first_invalid_utf8_line` counts them
    for lineno, raw in enumerate(map(bytes.decode, data.splitlines()), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in SCENARIO_KEYS:
            raise ValueError(f"{path}:{lineno}: unknown scenario key {key!r}")
        values[key] = value
    return values


def build_config(*mappings: Mapping[str, object]) -> ScenarioConfig:
    """Build a ScenarioConfig from layered key/value mappings.

    Later mappings override earlier ones (defaults < file < CLI flags).
    Values may be strings (as parsed from a file) or already-typed.
    """
    merged: dict[str, object] = {}
    for mapping in mappings:
        for key, value in mapping.items():
            if value is not None:
                merged[key] = value

    config_kwargs: dict[str, object] = {}
    timing_kwargs: dict[str, object] = {}
    for key, value in merged.items():
        if key not in SCENARIO_KEYS:
            raise ValueError(f"unknown scenario key {key!r}")
        kwargs = timing_kwargs if key in _TIMING_KEYS else config_kwargs
        kwargs[key] = SCENARIO_KEYS[key](value)
    if timing_kwargs:
        config_kwargs["timing"] = TimingConfig(**timing_kwargs)  # type: ignore[arg-type]
    return ScenarioConfig(**config_kwargs)  # type: ignore[arg-type]
