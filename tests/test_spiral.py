"""Brute-force oracle for the coverage plans: exact partition of the grid,
4-adjacent consecutive steps, and center-outward ring order."""

import numpy as np
import pytest

from isrusim import build_spiral, ring_index


def check_plans(n: int, n_scouts: int) -> None:
    plans = build_spiral(n * 5.0, 5.0, n_scouts)
    assert len(plans) == n_scouts
    all_cells: list = []
    for plan in plans:
        order = plan.visit_order
        all_cells.extend(order)
        assert len(set(order)) == len(order), "a scout revisits a cell"
        for a, b in zip(order, order[1:]):
            assert abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1, \
                f"{a}->{b} not edge-adjacent (grid {n}, scouts {n_scouts})"
        rings = [ring_index(c, n) for c in order]
        assert rings == sorted(rings), \
            f"ring order decreases (grid {n}, scouts {n_scouts})"
    assert sorted(all_cells) == sorted(
        (x, y) for x in range(n) for y in range(n)), \
        f"union is not an exact partition (grid {n}, scouts {n_scouts})"


@pytest.mark.parametrize("n", range(3, 21))
@pytest.mark.parametrize("n_scouts", [1, 2])
def test_plans_cover_grid_exactly(n, n_scouts):
    check_plans(n, n_scouts)


def test_worked_three_by_three_example():
    # 15x15 arena, cell 5, one scout: 9-cell spiral from the center cell
    (plan,) = build_spiral(15.0, 5.0, 1)
    assert plan.visit_order == ((1, 1), (2, 1), (2, 2), (1, 2), (0, 2),
                                (0, 1), (0, 0), (1, 0), (2, 0))


def test_default_arena_has_400_cells():
    plans = build_spiral(100.0, 5.0, 2)
    assert sum(len(p.visit_order) for p in plans) == 400


def test_single_cell_arena():
    (plan,) = build_spiral(5.0, 5.0, 1)
    assert plan.visit_order == ((0, 0),)


def test_two_scouts_progress_outward_together():
    plans = build_spiral(100.0, 5.0, 2)
    a, b = plans
    # b mirrors a through the center, one ring at a time
    for i in range(0, len(b.visit_order), 37):
        ra = ring_index(a.visit_order[i + 1], 20)  # +1: a owns the odd center only on odd grids
        rb = ring_index(b.visit_order[i], 20)
        assert abs(ra - rb) <= 1


def test_rejects_more_than_two_scouts():
    with pytest.raises(ValueError):
        build_spiral(100.0, 5.0, 3)


def test_rejects_non_divisible_arena():
    with pytest.raises(ValueError):
        build_spiral(101.0, 5.0, 1)


def test_center_of_cell():
    (plan,) = build_spiral(15.0, 5.0, 1)
    center = plan.center_of((1, 1))
    assert (center.x, center.y) == (7.5, 7.5)


@pytest.mark.parametrize("n_scouts", [1, 2])
def test_sweep_scans_nearly_all_of_the_arena(n_scouts):
    """A 2.5-radius scanner along the sweep necessarily misses small wedges
    at the turns; those blind pockets must stay a sub-percent sliver of the
    arena (site placement rejects them, so smaller is better)."""
    plans = build_spiral(100.0, 5.0, n_scouts)
    segments = []
    for plan in plans:
        waypoints = plan.waypoints
        segments += [((a.x, a.y), (b.x, b.y))
                     for a, b in zip(waypoints, waypoints[1:])]
    xs = np.arange(2.5, 97.5 + 1e-9, 0.25)
    grid_x, grid_y = np.meshgrid(xs, xs)
    px, py = grid_x.ravel(), grid_y.ravel()
    nearest = np.full(px.shape, np.inf)
    for (ax, ay), (bx, by) in segments:
        dx, dy = bx - ax, by - ay
        t = np.clip(((px - ax) * dx + (py - ay) * dy) / (dx * dx + dy * dy),
                    0.0, 1.0)
        np.minimum(nearest, np.hypot(px - (ax + t * dx), py - (ay + t * dy)),
                   out=nearest)
    uncovered = float((nearest > 2.5).mean())
    assert uncovered < 0.015, f"blind pockets cover {uncovered:.2%} of the arena"


def test_ring_index_even_grid():
    # 20x20: the central 2x2 block is ring 0, the outer shell ring 9
    assert ring_index((9, 9), 20) == 0
    assert ring_index((10, 10), 20) == 0
    assert ring_index((8, 9), 20) == 1
    assert ring_index((0, 0), 20) == 9
    assert ring_index((19, 19), 20) == 9
