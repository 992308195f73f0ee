"""The cell-to-cell discrepancy walk against the loop it replaced.

The package's `discrepancy` walks the grid-refined origami one unit cell at
a time, holding only the times left to the next column and row wall.
`reference_discrepancy` is the earlier `flow.discrepancy`, kept verbatim: it
works out each square's exit time from float positions, then merges the two
progressions of sub-grid wall times inside the square, with clamps to keep
its indices in range. Both count one crossing per square exited, so they
must give the same statistic up to float rounding on every input.
"""

import math
import random

from hypothesis import example, given
from hypothesis import strategies as st

from origamis.flow import discrepancy
from origamis.origami import Origami, random_origami, st3, torus

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


def close(a, b):
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


origamis = st.builds(random_origami, st.integers(1, 8), st.randoms(use_true_random=False))
slopes = st.one_of(
    st.floats(-20, 20),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e6, -1e6, 1e-9]),
)


@given(origamis, slopes, st.integers(1, 3000), st.integers(1, 12))
@example(torus(), 1.0, 1, 1)
@example(st3(), (1 + math.sqrt(5)) / 2, 3000, 12)
@example(st3(), -0.0, 200, 3)
def test_agrees_with_reference(o, slope, crossings, grid):
    assert close(discrepancy(o, slope, crossings, grid), reference_discrepancy(o, slope, crossings, grid))


def test_extreme_slopes_agree_with_reference():
    # a row takes 1e-308 (subnormal times) or, for 5e-324, an infinite time
    o = random_origami(6, random.Random(7))
    for slope in (1e308, -1e308, 5e-324, -5e-324):
        for grid in (1, 5):
            assert close(discrepancy(o, slope, 500, grid), reference_discrepancy(o, slope, 500, grid))
