"""The transit-tally discrepancy against the two versions before it.

The package's `discrepancy` takes one step per square crossing: it tallies
each transit by its (square, wall, entry interval) bucket, then walks the
grid once per used bucket. Two earlier versions of `flow.discrepancy` are
kept verbatim as references. `reference_discrepancy` works out each square's
exit time from float positions, then merges the two progressions of sub-grid
wall times inside the square, with clamps to keep its indices in range.
`cell_walk_discrepancy` walks the grid-refined origami one unit cell at a
time, holding only the times left to the next column and row wall. All three
count one crossing per square exited, so they must give the same statistic up
to float rounding wherever the orbit meets no singular corner exactly.
"""

import math
import random

from hypothesis import example, given
from hypothesis import strategies as st

from origamis.flow import discrepancy
from origamis.origami import Origami, random_origami, st3, torus

START = 0.31830988618367195  # the fixed start height on the left wall of square 1


def reference_discrepancy(o: Origami, slope: float, crossings: int, grid: int) -> float:
    """Total-variation distance between the empirical visit-time distribution
    of the orbit of slope ``slope`` (direction (1, slope)) and the uniform
    one, over a grid×grid subdivision of every square.

    Floating point on purpose: this is a statistic, not a certificate.
    """
    if crossings < 1 or grid < 1:
        raise ValueError("need crossings >= 1 and grid >= 1")
    if not math.isfinite(slope):
        raise ValueError("slope must be finite")
    g = grid
    inv_g = 1.0 / g
    dy = float(slope)  # direction (1, slope), so time to the x-walls is just distance
    inf = float("inf")
    step_y = inv_g / dy if dy > 0 else (-inv_g / dy if dy < 0 else inf)
    sq, x, y = 1, 0.0, 0.31830988618367195  # fixed generic start height
    cells = [0.0] * (o.n * g * g)
    h_img = o.h.images
    v_img = o.v.images
    vinv = o.v.inverse().images
    total = 0.0
    for _ in range(crossings):
        tx = 1.0 - x
        ty = ((1.0 - y) / dy) if dy > 0 else ((-y) / dy if dy < 0 else inf)
        t_exit = tx if tx <= ty else ty
        # walk the sub-grid walls, merging the two arithmetic progressions
        base = (sq - 1) * g * g
        ix = min(g - 1, int(x * g))
        iy = min(g - 1, int(y * g))
        t_wall_x = (ix + 1) * inv_g - x
        if dy > 0:
            t_wall_y = ((iy + 1) * inv_g - y) / dy
        elif dy < 0:
            t_wall_y = (iy * inv_g - y) / dy
        else:
            t_wall_y = inf
        t0 = 0.0
        while True:
            if t_wall_x < t_wall_y:
                t1 = t_wall_x
            else:
                t1 = t_wall_y
            if t1 >= t_exit:
                cells[base + iy * g + ix] += t_exit - t0
                break
            cells[base + iy * g + ix] += t1 - t0
            t0 = t1
            if t_wall_x <= t_wall_y:
                ix += 1
                t_wall_x += inv_g
                if ix >= g:
                    ix = g - 1
            if t_wall_y <= t0:
                iy += 1 if dy > 0 else -1
                t_wall_y += step_y
                iy = min(g - 1, max(0, iy))
        total += t_exit
        if tx <= ty:
            sq, x = h_img[sq - 1], 0.0
            y = min(max(y + t_exit * dy, 0.0), 1.0)
        else:
            x = min(x + t_exit, 1.0)
            if dy > 0:
                sq, y = v_img[sq - 1], 0.0
            else:
                sq, y = vinv[sq - 1], 1.0
    u = 1.0 / len(cells)
    return 0.5 * sum(abs(c / total - u) for c in cells)


def cell_walk_discrepancy(o: Origami, slope: float, crossings: int, grid: int) -> float:
    """Total-variation distance between the empirical visit-time distribution
    of the orbit of slope ``slope`` (direction (1, slope)) and the uniform
    one, over a grid×grid subdivision of every square.

    Scaled by ``grid``, the subdivision is itself an origami of n·grid² unit
    cells, and the orbit walks it cell to cell (Amanatides–Woo): ``tx`` and
    ``ty`` are the times left to the next column and row wall. Each step
    crosses the nearer wall (the column wall on a tie), gives that time to the
    cell it leaves and resets the crossed wall's time, to 1 for a column and
    1/|slope| for a row. Leaving a square is one crossing; at its corner the
    row wall follows the column wall after zero time, a second crossing.

    Floating point on purpose: this is a statistic, not a certificate.
    """
    if crossings < 1 or grid < 1:
        raise ValueError("need crossings >= 1 and grid >= 1")
    if not math.isfinite(slope):
        raise ValueError("slope must be finite")
    g = grid
    up = slope > 0
    row_time = 1.0 / abs(slope) if slope else math.inf
    y = 0.31830988618367195 * g  # fixed generic start height, in rows
    i, j, sq = 0, int(y), 1
    tx, ty = 1.0, (j + 1 - y if up else y - j) * row_time
    j_entry, j_exit, dj = (0, g - 1, 1) if up else (g - 1, 0, -1)
    step_h = o.h.images
    step_v = (o.v if up else o.v.inverse()).images
    cells = [0.0] * (o.n * g * g)
    while crossings:
        cell = ((sq - 1) * g + j) * g + i
        if tx <= ty:
            cells[cell] += tx
            ty -= tx
            tx = 1.0
            if i == g - 1:
                sq, i = step_h[sq - 1], 0
                crossings -= 1
            else:
                i += 1
        else:
            cells[cell] += ty
            tx -= ty
            ty = row_time
            if j == j_exit:
                sq, j = step_v[sq - 1], j_entry
                crossings -= 1
            else:
                j += dj
    total = sum(cells)
    u = 1.0 / len(cells)
    return 0.5 * sum(abs(c / total - u) for c in cells)


def close(a, b):
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


origamis = st.builds(random_origami, st.integers(1, 8), st.randoms(use_true_random=False))
whole = st.integers(1, 12).map(float)
slopes = st.one_of(
    st.floats(-20, 20),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e6, -1e6, 1e-9]),
    # closed orbits: slopes k and 1/k, either sign
    st.tuples(st.one_of(whole, whole.map(lambda k: 1 / k)), st.sampled_from([1, -1])).map(lambda p: p[0] * p[1]),
)
REFERENCES = (reference_discrepancy, cell_walk_discrepancy)


def agrees_with_references(o, slope, crossings, grid):
    got = discrepancy(o, slope, crossings, grid)
    return all(close(got, ref(o, slope, crossings, grid)) for ref in REFERENCES)


@given(origamis, slopes, st.integers(1, 3000), st.integers(1, 12))
@example(torus(), 1.0, 1, 1)
@example(st3(), (1 + math.sqrt(5)) / 2, 3000, 12)
@example(st3(), -0.0, 200, 3)
@example(st3(), 12.0, 3000, 12)
@example(st3(), -1 / 12, 3000, 12)
def test_agrees_with_reference(o, slope, crossings, grid):
    assert agrees_with_references(o, slope, crossings, grid)


def test_extreme_slopes_agree_with_reference():
    # a row takes 1e-308 (subnormal times) or, for 5e-324, an infinite time
    o = random_origami(6, random.Random(7))
    for slope in (1e308, -1e308, 5e-324, -5e-324, -0.0, 1e-300, 7e15):
        for grid in (1, 5):
            assert agrees_with_references(o, slope, 500, grid)


def corner_routes_differ(o, k, slope):
    """Whether the two orders of crossing the corner that the first k
    horizontal transits end at lead to different squares."""
    v = o.v if slope > 0 else o.v.inverse()
    q = 1
    for _ in range(k - 1):
        q = o.h(q)
    return v(o.h(q)) != o.h(v(q))


@given(origamis, st.integers(1, 12), st.integers(1, 12), st.integers(0, 12), st.integers(1, 3000))
@example(st3(), 10, 1, 10, 3000)
@example(st3(), 7, 3, 0, 3000)
def test_agrees_when_a_transit_ends_at_a_grid_vertex(o, grid, k, m, crossings):
    # after k transits the orbit reaches height m/grid on a right wall; for
    # 0 < m < grid that is a grid vertex, and for m = 0 or grid a corner
    m %= grid + 1
    slope = (m / grid - START) / k
    if m in (0, grid) and corner_routes_differ(o, k, slope):
        # the corner is a cone point, where the flow is undefined, and
        # rounding decides which way each walk leaves it; either way the
        # statistic is one of the limits from the two sides
        got = discrepancy(o, slope, crossings, grid)
        assert any(
            all(math.isclose(got, ref(o, near, crossings, grid), abs_tol=1e-6) for ref in REFERENCES)
            for near in (slope * (1 - 1e-11), slope * (1 + 1e-11))
        )
    else:
        assert agrees_with_references(o, slope, crossings, grid)


def test_a_tie_at_the_first_corner_takes_the_column_wall_first():
    # START + (1 - START) is exactly 1.0, so the first transit ends in the
    # top right corner of square 1, a cone point of St(3); the column wall
    # goes first, the limit of slopes just below
    o, slope = st3(), 1 - START
    assert START + slope == 1.0 and corner_routes_differ(o, 1, slope)
    got = discrepancy(o, slope, 3000, 10)
    below, above = (cell_walk_discrepancy(o, slope * (1 + e), 3000, 10) for e in (-1e-11, 1e-11))
    assert math.isclose(got, below, abs_tol=1e-6) and not math.isclose(got, above, abs_tol=1e-3)
