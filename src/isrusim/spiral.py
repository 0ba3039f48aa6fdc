"""Center-outward spiral coverage plans for the scout robots.

The arena is divided into square cells of one scanning diameter.  A single
scout walks the classic square spiral from the center cell outward, which
visits every cell exactly once, moves only between edge-adjacent cells, and
never returns to an inner ring.  With two scouts, every ring is cut into two
half-ring arcs: scout A sweeps one arc per ring (alternating sweep direction
so consecutive arcs stay edge-adjacent) and scout B runs the 180-degree
point reflection of A's sequence, so the pair progress outward together from
opposite sides while still covering each cell exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .world import Point

Cell = tuple[int, int]


@dataclass
class SpiralPlan:
    """One scout's share of the grid, in visiting order."""

    cell_side: float
    visit_order: tuple[Cell, ...]

    def center_of(self, cell: Cell) -> Point:
        return Point((cell[0] + 0.5) * self.cell_side,
                     (cell[1] + 0.5) * self.cell_side)

    @cached_property
    def waypoints(self) -> tuple[Point, ...]:
        """The cell centers in visiting order, built once per plan."""
        return tuple(self.center_of(c) for c in self.visit_order)


def ring_index(cell: Cell, n: int) -> int:
    """Chebyshev ring of a cell counted from the grid center.

    Works for both parities: the center is the middle cell for odd n and the
    middle 2x2 block for even n (the whole block is ring 0).
    """
    dx = abs(2 * cell[0] - (n - 1))
    dy = abs(2 * cell[1] - (n - 1))
    return max(dx, dy) // 2


def _ring_cells_ccw(r: int, n: int) -> list[Cell]:
    """Cells of ring r in counterclockwise cyclic order (east edge first)."""
    if n % 2 == 1 and r == 0:
        c = (n - 1) // 2
        return [(c, c)]
    lo = (n - 1) // 2 - r
    hi = n - 1 - lo
    cells: list[Cell] = []
    cells += [(hi, y) for y in range(lo, hi + 1)]          # east edge, upward
    cells += [(x, hi) for x in range(hi - 1, lo - 1, -1)]  # north edge, westward
    cells += [(lo, y) for y in range(hi - 1, lo - 1, -1)]  # west edge, downward
    cells += [(x, lo) for x in range(lo + 1, hi)]          # south edge, eastward
    return cells


def _classic_spiral(n: int) -> list[Cell]:
    """Square spiral visiting all n*n cells from the center outward."""
    x = y = (n - 1) // 2
    cells: list[Cell] = [(x, y)]
    directions = ((1, 0), (0, 1), (-1, 0), (0, -1))  # E, N, W, S
    run, d = 1, 0
    while len(cells) < n * n:
        for _ in range(2):
            dx, dy = directions[d]
            for _ in range(run):
                x, y = x + dx, y + dy
                if not (0 <= x < n and 0 <= y < n):
                    raise AssertionError("spiral walked out of the grid")
                cells.append((x, y))
                if len(cells) == n * n:
                    return cells
            d = (d + 1) % 4
        run += 1
    return cells


def _adjacent(a: Cell, b: Cell) -> bool:
    return abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1


def _half_ring_arcs(n: int) -> list[Cell]:
    """Scout A's sequence for the two-scout split: one half arc per ring."""
    max_ring = ring_index((0, 0), n)
    ring0 = _ring_cells_ccw(0, n)
    plan: list[Cell] = ring0[: max(1, len(ring0) // 2)]
    for r in range(1, max_ring + 1):
        cyc = _ring_cells_ccw(r, n)
        size = len(cyc)
        half = size // 2
        prev = plan[-1]
        arc = None
        for direction in (1, -1):
            for offset in range(size):
                if _adjacent(prev, cyc[offset]):
                    arc = [cyc[(offset + direction * i) % size] for i in range(half)]
                    break
            if arc is not None:
                break
        if arc is None:
            raise AssertionError(f"no half-ring arc of ring {r} touches {prev}")
        plan.extend(arc)
    return plan


def _reflect(cell: Cell, n: int) -> Cell:
    return (n - 1 - cell[0], n - 1 - cell[1])


def build_spiral(arena_side: float, cell_side: float,
                 n_scouts: int) -> list[SpiralPlan]:
    """Coverage plans for 1 or 2 scouts over an arena of square cells.

    The union of the returned visit orders covers every grid cell exactly
    once; each individual order only steps between edge-adjacent cells and
    its ring index never decreases.
    """
    if n_scouts not in (1, 2):
        raise ValueError("only 1 or 2 scouts are modeled")
    if cell_side <= 0:
        raise ValueError("cell_side must be positive")
    cells_f = arena_side / cell_side
    n = round(cells_f)
    if abs(cells_f - n) > 1e-9 or n < 1:
        raise ValueError("arena_side must be an exact multiple of cell_side")

    if n_scouts == 1:
        return [SpiralPlan(cell_side=cell_side,
                           visit_order=tuple(_classic_spiral(n)))]

    plan_a = _half_ring_arcs(n)
    # B mirrors A through the grid center; for odd grids the center cell
    # is its own reflection and stays with A alone.
    skip = 1 if n % 2 == 1 else 0
    plan_b = [_reflect(c, n) for c in plan_a[skip:]]
    return [
        SpiralPlan(cell_side=cell_side, visit_order=tuple(plan_a)),
        SpiralPlan(cell_side=cell_side, visit_order=tuple(plan_b)),
    ]
