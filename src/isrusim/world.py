"""Mining arena model: geometry, resource sites, scenario configuration.

The arena is a flat square with the processing plant at its center and a
number of resource sites scattered around it.  Each site holds an integer
number of mineral units; one mineral unit is exactly one hauler load.
Scenario generation is a pure function of the configuration (seed included),
which is what makes whole simulation runs replayable bit for bit.  Where a
path's sweep first has a point in scan range is one lookup, `sweep_reach`,
which the generator and each scout's find schedule both use.

A run's configuration is one flat `ScenarioConfig`, whose typed fields are
the keys of a scenario file and of the CLI's scenario flags (`SCENARIO_KEYS`).
"""

from __future__ import annotations

import json
import math
import numbers
import random
import sys
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import (TYPE_CHECKING, Callable, Mapping, NamedTuple, Sequence,
                    get_type_hints)

from .events import first_invalid_utf8_line

if TYPE_CHECKING:
    from .pathing import PathEstimate
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
# Meters, far above any rounding error, that `sweep_reach` adds to the reach
# of a lookup and to the length up to which it buckets a segment.
GRID_PAD = 1e-6
# Coverage cells per arena side a config may ask for.  Building a run walks
# every cell of the scouts' plans, so its time and memory grow with the
# square of this count.  `Simulation()` with one site at the default scan
# radius, each size in its own process (2-vCPU Xeon, CPython 3.11.7), took
# 0.13 s and 40 MB peak RSS at 200 cells per side, 0.59 s / 107 MB at 400,
# 3.5-4.0 s / 394 MB at 800, 6.6-6.9 s / 625 MB at 1000 and 10.0 s /
# 931 MB at 1200.  The bound, 10^6 cells (arena 5000 m at the default scan
# radius), keeps a build under about 10 s and 1 GB.
MAX_GRID_CELLS = 1000


class ScenarioGenerationError(ValueError):
    """Raised when sites cannot be placed under the separation rules."""


class InvariantError(RuntimeError):
    """A simulation invariant broke: the program, not its input, is at
    fault.  Raised, not asserted, so the checks also run under `python -O`."""


class Point(NamedTuple):
    """A position in the arena, in simulation meters: the (x, y) pair, equal
    to and hashed as `tuple(record["loc"])` of a record naming it."""

    x: float
    y: float

    def distance_to(self, other: Sequence[float]) -> float:
        x, y = self  # cheaper than the NamedTuple field reads
        return math.hypot(x - other[0], y - other[1])


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


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one simulation run: world, fleet, policy and
    timing (durations in ticks, speed in meters per tick).  Every field is
    typed when the config is built (`_typed`)."""

    arena_side: float = 100.0
    n_scouts: int = 2
    n_excavators: int = 4
    n_haulers: int = 6
    n_sites: int = 10
    n_minerals: int = 64
    scan_radius: float = 2.5
    seed: int = 0
    policy: str = "fcfs"
    robot_speed: float = 1.0
    dig_duration: int = 20
    load_duration: int = 5
    unload_duration: int = 5
    # At least 2: an announcement is on the board the tick after it is
    # published, and a bid made then is read only from the tick after, so a
    # shorter window closes before any bid can be read.
    bid_window: int = 3
    # The ticks a winner declaration takes to reach its winner, which
    # resolves every win in its inbox at once.
    win_resolution_window: int = 1
    tick_cap: int = 200_000

    def __post_init__(self) -> None:
        for name, kind in SCENARIO_KEYS.items():
            object.__setattr__(self, name, _typed(name, kind, getattr(self, name)))
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
        if self.robot_speed <= 0:
            raise ValueError("robot_speed must be positive")
        for name in ("dig_duration", "load_duration", "unload_duration",
                     "bid_window", "win_resolution_window"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be a positive tick count")
        if self.bid_window < 2:
            raise ValueError("bid_window below 2 can never collect a bid")
        # Scout coverage divides the arena into square cells of one scan
        # diameter; the arena must tile exactly, in no more than
        # MAX_GRID_CELLS cells per side (an infinite quotient included).
        cells = self.arena_side / self.cell_side
        if cells > MAX_GRID_CELLS + 0.5:
            raise ValueError(
                f"arena_side / (2*scan_radius) is {cells:g} coverage cells "
                f"per side, more than the {MAX_GRID_CELLS} a run may build")
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


def sweep_reach(path: PathEstimate,
                scan_radius: float) -> Callable[[Point], tuple[float, int] | None]:
    """The lookup of where a scanner of `scan_radius` sweeping `path` first
    has a point in range: the least (`prefix[i] + scan_reach(...)`, i) over
    its segments i, or None if none ever has it in range.  Segments of at
    most one cell (to within GRID_PAD), as spiral steps are, are bucketed by
    the cell of their midpoint and tested only from the cells within
    scan_radius + cell/2 + GRID_PAD of the point; longer ones, such as a
    scout's spawn leg, are tested for every point."""
    cell = 2.0 * scan_radius
    waypoints, segments, prefix = path.waypoints, path.segments, path.prefix
    buckets: dict[tuple[int, int], list[int]] = {}
    long: list[int] = []
    for i, (a, b, length) in enumerate(zip(waypoints, waypoints[1:], segments)):
        if length > cell + GRID_PAD:
            long.append(i)
        else:
            buckets.setdefault((int((a.x + b.x) / 2.0 // cell),
                                int((a.y + b.y) / 2.0 // cell)), []).append(i)
    reach = scan_radius + cell / 2.0 + GRID_PAD

    def lookup(p: Point) -> tuple[float, int] | None:
        columns = range(int((p.x - reach) // cell), int((p.x + reach) // cell) + 1)
        rows = range(int((p.y - reach) // cell), int((p.y + reach) // cell) + 1)
        near = [i for ix in columns for iy in rows for i in buckets.get((ix, iy), ())]
        return min(((prefix[i] + arc, i) for i in long + near
                    if (arc := scan_reach(p, waypoints[i], waypoints[i + 1],
                                          segments[i], scan_radius)) is not None),
                   default=None)

    return lookup


def generate_scenario(config: ScenarioConfig,
                      plans: Sequence[SpiralPlan]) -> WorldState:
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

    `plans` are the scouts' coverage plans for the config, as
    `spiral.build_spiral` makes them.
    """
    from .pathing import make_path  # imported here: both import this module
    sweeps = [sweep_reach(make_path(plan.waypoints), config.scan_radius)
              for plan in plans if plan.visit_order]
    rng = random.Random(config.seed)
    side = config.arena_side
    plant = Point(side / 2.0, side / 2.0)
    margin = config.scan_radius
    plant_clearance = PLANT_CLEARANCE_FACTOR * config.scan_radius

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
        if all(lookup(candidate) is None for lookup in sweeps):
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

# Every scenario key and its value type: the fields of ScenarioConfig.
SCENARIO_KEYS: dict[str, type] = get_type_hints(ScenarioConfig)
# The values each type of field takes; a bool is none of them.
_TAKES = {int: numbers.Integral, float: numbers.Real, str: str}


def _typed(name: str, kind: type, value: object) -> object:
    """`value` as a field of type `kind` holds it: an int field takes an
    integer, a str field a str (kept as given: `str()` of a str enum is its
    name), and a float field any finite real number, held as a float so
    that equal configs log equal bytes."""
    if (isinstance(value, _TAKES[kind]) and not isinstance(value, bool)
            and (kind is not float or abs(value) <= sys.float_info.max)):
        return value if kind is str else kind(value)
    want = "a finite number" if kind is float else _a(kind)
    raise ValueError(f"{name} must be {want}, got {value!r}")


def _a(kind: type) -> str:
    return f"{'an' if kind is int else 'a'} {kind.__name__}"


def parse_scenario_file(path: str | Path) -> dict[str, object]:
    """Parse a flat `key = value` scenario file (# starts a comment), or the
    `config` of a run's `run_meta.json`, into values of their fields' types.
    A key set twice is an error, not a silent override, and so is a value
    its field cannot read or hold."""
    values: dict[str, object] = {}
    set_on: dict[str, int] = {}  # key -> the line that set it
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}:{first_invalid_utf8_line(data)}: "
                         f"invalid UTF-8 ({exc.reason})") from exc
    if text.lstrip().startswith("{"):  # no `key = value` line starts so
        try:
            config = json.loads(text).get("config")
            if not isinstance(config, dict):
                raise ValueError("expected a 'config' object")
            for key, value in config.items():
                if key not in SCENARIO_KEYS:
                    raise ValueError(f"unknown scenario key {key!r}")
                config[key] = _typed(key, SCENARIO_KEYS[key], value)
        except (ValueError, RecursionError) as exc:  # RecursionError: nesting
            raise ValueError(f"{path}: {exc}") from None
        return config
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
        if key in set_on:
            raise ValueError(f"{path}:{lineno}: scenario key {key!r} already "
                             f"set on line {set_on[key]}")
        kind = SCENARIO_KEYS[key]
        try:
            read = kind(value)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: {key} must be {_a(kind)}, "
                             f"got {value!r}") from None
        try:  # a float reads "nan" and "1e400", which no field holds
            values[key] = _typed(key, kind, read)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        set_on[key] = lineno
    return values


def build_config(*mappings: Mapping[str, object]) -> ScenarioConfig:
    """Build a ScenarioConfig from layered mappings of typed values, as
    `parse_scenario_file` and the CLI flags give them.

    Later mappings override earlier ones (defaults < file < CLI flags), and
    a None value sets nothing.
    """
    merged = {key: value for mapping in mappings
              for key, value in mapping.items() if value is not None}
    for key in merged:
        if key not in SCENARIO_KEYS:
            raise ValueError(f"unknown scenario key {key!r}")
    return ScenarioConfig(**merged)  # type: ignore[arg-type]
