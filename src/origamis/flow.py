"""Straight-line flow on origamis.

The tracer advances square to square on the chord the flow runs along in
each square. A chord is one exact number of the working field (Q, or Q[√d]
for quadratic-irrational data), scaled once per trace to a pair of integers,
so each crossing is a sign test and two integer additions. An orbit is
declared periodic when a square and chord recur, and a singularity hit is a
chord through an exact corner, so verdicts are proofs, not approximations.
Floating point appears only in the empirical discrepancy statistic.

Time along an orbit is parametrized so the velocity is exactly the direction
vector (p, q); geometric length is then (elapsed time)·√(p²+q²).
"""

from __future__ import annotations

import math
import numbers
from bisect import bisect_right
from fractions import Fraction

from ._record import record
from .cylinders import RadicalLength, decomposition_in_direction
from .origami import Origami
from .quadfield import QuadNum, _int_arg, _quad, _sign, in_one_field

Scalar = Fraction | QuadNum


@record
class FlowState:
    """A point of the surface with a direction of travel."""

    square: int
    pos: tuple  # (x, y), 0 <= x, y <= 1, exact scalars
    direction: tuple  # (p, q), exact scalars, not both zero


@record
class TraceResult:
    periodic: bool
    singular: bool
    crossings: int
    total_time: Scalar
    period_time: Scalar | None
    radicand: Scalar  # p² + q²
    events: tuple  # (time, square, x, y) per crossing, when recorded

    def length(self) -> RadicalLength:
        """Exact geometric period length, for rational directions."""
        if not self.periodic:
            raise ValueError("orbit was not found periodic")
        w, r = self.period_time, self.radicand
        if isinstance(r, QuadNum):  # the period and the radicand share its field
            for name, v in (("radicand", r), ("period", w)):
                if not v.is_rational:
                    raise ValueError(f"irrational {name}: the length is not w·√r with w rational")
            w, r = w.a, r.a
        return RadicalLength(w, r)


def _corner_square(o: Origami, sq: int, cx: int, cy: int) -> int:
    """Square whose bottom-left corner is the (cx, cy) corner of sq: cx steps
    by h, then cy steps by v."""
    sq = o.h(sq) if cx else sq
    return o.v(sq) if cy else sq


def trace(
    o: Origami,
    start: FlowState,
    max_crossings: int = 10_000,
    record_events: bool = False,
) -> TraceResult:
    """Follow the straight-line flow from ``start`` until a state recurs, a
    singularity is hit, or ``max_crossings`` edge crossings have happened.

    With x (y) mirrored when p (q) < 0, the flow runs right and up at speeds
    P = |p|, Q = |q|, and u = (1−x)·Q − (1−y)·P is constant along a chord of
    a square and different on every other parallel chord. Its sign says which
    wall the chord reaches first: the vertical one when u < 0, the horizontal
    one when u > 0, the corner when u = 0. Crossing a vertical wall adds Q to
    u, crossing a horizontal one subtracts P. The set-up runs on integers:
    x, y, p and q, read as a + b·√d, are scaled by the lcm D of their eight
    denominators, every set-up test is a ``quadfield._sign`` of such an
    integer pair, and the loop runs on the integers U + V·√d = D²·u. A state
    is a square and a chord, which pins the point where the chord entered the
    square. Two states are kept, not one per crossing: the start, when it lies
    on an entry wall, and the state after the first crossing; the first state
    to recur is one of them. Times come from the wall counts m and j, each by
    one exact division: the m-th vertical wall is reached at (m − x₀)/P and
    the j-th horizontal one at (j − y₀)/Q. Only recorded events use field
    arithmetic.

    Cost: time O(max_crossings); memory O(1), or one event per crossing when
    ``record_events`` is set.
    """
    sq = _int_arg("start.square", start.square)
    _int_arg("max_crossings", max_crossings)
    if max_crossings < 1:
        raise ValueError(f"max_crossings must be at least 1, got {max_crossings}")
    x, y, p, q = in_one_field(*start.pos, *start.direction)
    quad = isinstance(x, QuadNum)
    d = x.d if quad else 2  # every b is 0 on Fraction data, so d is never read
    coeffs = [c for v in (x, y, p, q) for c in ((v.a, v.b) if quad else (v, 0))]
    D = math.lcm(*(c.denominator for c in coeffs))
    xa, xb, ya, yb, pa, pb, qa, qb = [c.numerator * (D // c.denominator) for c in coeffs]
    ps, qs = _sign(pa, pb, d), _sign(qa, qb, d)
    if not ps and not qs:
        raise ValueError("zero direction")
    if min(_sign(xa, xb, d), _sign(D - xa, -xb, d), _sign(ya, yb, d), _sign(D - ya, -yb, d)) < 0:
        raise ValueError(f"position ({x}, {y}) outside the unit square")
    if not 1 <= sq <= o.n:
        raise ValueError(f"square {sq} out of range 1..{o.n}")
    singular = o.singular
    # cx (cy) is 0 or 1 when x (y) lies on a grid line, else None
    cx = None if xb or 0 < xa < D else xa // D
    cy = None if yb or 0 < ya < D else ya // D
    if cx is not None and cy is not None:
        if singular[_corner_square(o, sq, cx, cy) - 1]:
            raise ValueError("flow started at a singular vertex")

    # the square entered across a vertical or a horizontal edge, built only
    # for a coordinate that moves
    right, up = ps > 0, qs > 0
    step_x = (o.h if right else o.h.inverse()).images if ps else ()
    step_y = (o.v if up else o.v.inverse()).images if qs else ()
    # mirrored: x, y become X, Y and p, q become P, Q, still scaled by D
    if ps < 0:
        xa, xb, pa, pb = D - xa, -xb, -pa, -pb
    if qs < 0:
        ya, yb, qa, qb = D - ya, -yb, -qa, -qb

    def ratio(a, b, c, e):  # (a + b·√d)/(c + e·√d) of integers, in the field of the data
        if not quad:
            return Fraction(a, c)
        if e:  # rationalised by the conjugate
            a, b, c = a * c - b * e * d, b * c - a * e, c * c - e * e * d
        return _quad(Fraction(a, c), Fraction(b, c), d)

    radicand = ratio(pa * pa + pb * pb * d + qa * qa + qb * qb * d, 2 * (pa * pb + qa * qb), D * D, 0)
    # D²·u = (D − X)·Q − (D − Y)·P, and the steps D·Q and D·P
    U = (D - xa) * qa - xb * qb * d - (D - ya) * pa + yb * pb * d
    V = (D - xa) * qb - xb * qa - (D - ya) * pb + yb * pa
    Pa, Pb, Qa, Qb = D * pa, D * pb, D * qa, D * qb
    grid_corner = None
    if not ps or not qs:
        # an axis direction crosses one kind of wall only; along a grid line
        # it meets a vertex, the corner of the square entered, at every crossing
        U, V = (1 if qs else -1), 0
        if not ps and cx is not None:
            grid_corner = (cx, int(not up))
        elif not qs and cy is not None:
            grid_corner = (int(not right), cy)
    # every state after a crossing lies on an entry wall; the start is one
    # of them only when it lies on the entry wall of a coordinate that moves.
    # The crossing map is injective on the states a crossing reaches, so when
    # s_j = s_i with i ≥ 2, then s_{j−1} = s_{i−1} recurred first: the first
    # state to recur is the start, when it is kept, or s_1, the state after the
    # first crossing. These two are kept, U None standing for one not (yet) kept.
    kept_start = (ps and not (xa or xb)) or (qs and not (ya or yb))
    sq0, U0, V0 = (sq, U, V) if kept_start else (0, None, 0)
    sq1, U1, V1 = 0, None, 0
    m = j = 0  # vertical and horizontal walls crossed; a corner is both

    def time(s):  # of the crossing just made, whose sign test gave s
        return ratio(m * D - xa, -xb, pa, pb) if s <= 0 else ratio(j * D - ya, -yb, qa, qb)

    if record_events:  # the recorded points keep the field arithmetic
        zero = x - x  # additive zero of the working field
        one = zero + 1
        X, P = (x, p) if ps >= 0 else (one - x, -p)
        Y, Q = (y, q) if qs >= 0 else (one - y, -q)

    events = []
    for crossing in range(1, max_crossings + 1):
        s = _sign(U, V, d)
        if s < 0:
            sq = step_x[sq - 1]
            U += Qa
            V += Qb
            m += 1
        elif s > 0:
            sq = step_y[sq - 1]
            U -= Pa
            V -= Pb
            j += 1
        else:
            m += 1
            j += 1
            if singular[_corner_square(o, sq, int(right), int(up)) - 1]:
                return TraceResult(False, True, crossing, time(s), None, radicand, tuple(events))
            # regular corner: the commutator fixes it, so the horizontal and
            # vertical steps commute there and either order reaches the diagonal
            # square, entered at that same regular corner
            sq = step_y[step_x[sq - 1] - 1]
            U, V = Qa - Pa, Qb - Pb
        if grid_corner and singular[_corner_square(o, sq, *grid_corner) - 1]:
            return TraceResult(False, True, crossing, time(s), None, radicand, tuple(events))
        if record_events:
            t = time(s)
            ex = zero if s <= 0 else X + P * t - m
            ey = zero if s >= 0 else Y + Q * t - j
            events.append((t, sq, ex if p >= 0 else one - ex, ey if q >= 0 else one - ey))
        if U == U1 and V == V1 and sq == sq1:
            m0, j0 = m1, j1
        elif U == U0 and V == V0 and sq == sq0:
            m0 = j0 = 0
        else:
            if U1 is None:
                sq1, U1, V1, m1, j1 = sq, U, V, m, j
            continue
        period = ratio((m - m0) * D, 0, pa, pb) if s <= 0 else ratio((j - j0) * D, 0, qa, qb)
        return TraceResult(True, False, crossing, time(s), period, radicand, tuple(events))
    return TraceResult(False, False, max_crossings, time(s), None, radicand, tuple(events))


@record
class PeriodicityWitness:
    periodic: bool
    cylinder_count: int
    lengths: tuple[RadicalLength, ...]  # one core length per cylinder


def direction_is_periodic(o: Origami, p: int, q: int) -> PeriodicityWitness:
    """Every rational direction on an origami is completely periodic; this
    verifies it constructively, cross-checking each cylinder of the
    decomposition by an exact trace of its core.
    """
    dd = decomposition_in_direction(o, p, q)
    half = Fraction(1, 2)
    for cyl in dd.cylinders:
        s = min(cyl.rows[0])
        res = trace(
            dd.transported,
            FlowState(s, (Fraction(0), half), (Fraction(1), Fraction(0))),
            max_crossings=cyl.width + 1,
        )
        assert res.periodic and res.period_time == cyl.width, (
            f"cylinder core of width {cyl.width} traced to {res}"
        )
    return PeriodicityWitness(True, len(dd.cylinders), dd.lengths)


# -- empirical equidistribution ------------------------------------------------------

# the largest number n·grid² of grid cells `discrepancy` accepts
MAX_CELLS = 10**7


def discrepancy(o: Origami, slope: float, crossings: int, grid: int) -> float:
    """Total-variation distance between the empirical visit-time distribution
    of the orbit of slope ``slope`` (direction (1, slope)) and the uniform
    one, over a grid×grid subdivision of every square.

    The orbit starts in square 1 on the left wall at height
    0.31830988618367195. Mirrored when slope < 0 (v⁻¹ in place of v), it runs
    right and up, so each square crossing is one straight segment entering
    through the left wall at height t or the bottom wall at x = t. A left
    entry exits right at height t + |slope| when that is at most 1 (the column
    wall goes first on a tie), else through the top at x = (1 − t)/|slope|; a
    bottom entry exits through the top at x = t + 1/|slope| when that is below
    1, else right at height (1 − t)·|slope|. Leaving a square is one crossing;
    at a corner the second crossing follows after zero time.

    Transits are tallied by entry interval. The offsets where the segment
    passes a grid vertex, (m − |slope|·k)/grid on the left wall and
    (m − k/|slope|)/grid on the bottom one for 0 ≤ k, m ≤ grid, cut each wall
    into intervals; on one interval the segment crosses the same cells for
    times affine in t. So a crossing is one bisection into its (square, wall,
    interval) bucket, a count and an offset sum, and the exit map; afterwards
    the N transits of each used bucket give every cell N times the time of
    one segment from their mean offset, found by a cell-to-cell walk of that
    segment (Amanatides–Woo) on the grid scaled to unit cells. Rows are
    counted in the mirrored frame, which the statistic does not see.

    Cost: about crossings·log(grid) steps, plus at most
    min(crossings, 2n(grid+1)²) segment walks of about
    grid·(1 + min(|slope|, 1/|slope|)) cells each. Memory: n·grid² cell times
    and a count and an offset sum for each of at most 2n(grid+1)² buckets.
    n·grid² above MAX_CELLS is a ValueError. ``slope`` is an int, a float, a
    Fraction or a QuadNum, read once as a float; a bool or anything else is
    a TypeError.

    Floating point on purpose: this is a statistic, not a certificate.
    """
    _int_arg("crossings", crossings)
    _int_arg("grid", grid)
    if isinstance(slope, bool) or not isinstance(slope, (numbers.Real, QuadNum)):
        raise TypeError(f"slope must be a real number, got {type(slope).__name__} {slope!r}")
    slope = float(slope)  # once, so the loop bisects floats into float breakpoints
    if crossings < 1 or grid < 1:
        raise ValueError("need crossings >= 1 and grid >= 1")
    if not math.isfinite(slope):
        raise ValueError("slope must be finite")
    n, g = o.n, grid
    if n * g * g > MAX_CELLS:
        raise ValueError(f"need n*grid**2 <= {MAX_CELLS} cells, got {n * g * g}")
    s = abs(slope)
    r = 1.0 / s if s else math.inf  # time to rise one square (a row in cell units); across takes 1

    def breakpoints(a):  # a = |slope| on the left wall, 1/|slope| on the bottom wall
        # the wall's own grid points (k = 0), then the offsets that reach a
        # grid vertex k columns or rows on, of which an infinite a has none;
        # only a·k ≤ m ≤ grid lands on the wall, and the m just below a·k is
        # kept so that the filter, not the range, decides the borderline one
        offsets = [m / g for m in range(g + 1)]
        if a < math.inf:
            for k in range(1, g + 1):
                ak = a * k
                if ak > g:
                    break
                offsets += [(m - ak) / g for m in range(max(math.ceil(ak) - 1, 0), g + 1)]
        return sorted(b for b in offsets if 0.0 <= b <= 1.0)

    left_walls, bottom_walls = breakpoints(s), breakpoints(r)
    nl, nb = len(left_walls) + 1, len(bottom_walls) + 1
    left_count, left_sum = [0] * (n * nl), [0.0] * (n * nl)
    bottom_count, bottom_sum = [0] * (n * nb), [0.0] * (n * nb)
    step_h = [x - 1 for x in o.h.images]
    step_v = [x - 1 for x in (o.v.inverse() if slope < 0 else o.v).images]
    y0 = 0.31830988618367195  # fixed generic start height
    t = 1.0 - y0 if slope < 0 else y0
    sq, left = 0, True
    for _ in range(crossings):
        if left:
            k = sq * nl + bisect_right(left_walls, t)
            left_count[k] += 1
            left_sum[k] += t
            e = t + s
            if e <= 1.0:
                sq, t = step_h[sq], e
            else:
                sq, t, left = step_v[sq], (1.0 - t) * r, False
        else:
            k = sq * nb + bisect_right(bottom_walls, t)
            bottom_count[k] += 1
            bottom_sum[k] += t
            e = t + r
            if e < 1.0:
                sq, t = step_v[sq], e
            else:
                sq, t, left = step_h[sq], (1.0 - t) * s, True

    cells = [0.0] * (n * g * g)

    def walk(sq, x, y, w):
        # one segment from (x, y), in cells, to where it leaves square sq; tx
        # and ty are the times left to the next column and row wall, and the
        # nearer one is crossed (the column wall on a tie); an offset of 1 is a
        # corner, a segment of zero time, kept in the last column or row
        i, j = min(int(x), g - 1), min(int(y), g - 1)
        tx, ty = i + 1 - x, (j + 1 - y) * r
        base = sq * g * g
        while True:
            if tx <= ty:
                cells[base + j * g + i] += w * tx
                if i == g - 1:
                    return
                i, ty, tx = i + 1, ty - tx, 1.0
            else:
                cells[base + j * g + i] += w * ty
                if j == g - 1:
                    return
                j, tx, ty = j + 1, tx - ty, r

    for k, w in enumerate(left_count):
        if w:
            walk(k // nl, 0.0, left_sum[k] / w * g, w)
    for k, w in enumerate(bottom_count):
        if w:
            walk(k // nb, bottom_sum[k] / w * g, 0.0, w)
    total = sum(cells)
    u = 1.0 / len(cells)
    return 0.5 * sum(abs(c / total - u) for c in cells)


# -- the sheared staircase of three squares ------------------------------------------


@record
class ShearedSt3:
    """St(3) with its top edge sheared right by x, same gluing pattern.

    The vertical flow splits into the untouched 1×1 cylinder and a width-two
    cylinder whose first-return map to its core circle is the rotation by x.
    """

    x: Scalar

    def __init__(self, x):
        (x,) = in_one_field(x)
        if not (0 <= x < 1):
            raise ValueError(f"shear must lie in [0, 1), got {x}")
        object.__setattr__(self, "x", x)


@record
class ShearReturn:
    periodic_cylinder_length: int  # the 1×1 cylinder's vertical period, always 1
    big_cylinder_rotation: Scalar
    rotation_is_rational: bool

    @property
    def big_cylinder_dense(self) -> bool:
        """Vertical orbits of the sheared cylinder are dense iff the rotation
        number is irrational."""
        return not self.rotation_is_rational

    @property
    def big_cylinder_orbit_length(self) -> int | None:
        """Length of every vertical orbit of the width-two cylinder when the
        rotation p/q is rational: q return trips of height 2; None when dense.
        Unsheared this is 2, the staircase's longer vertical period."""
        if not self.rotation_is_rational:
            return None
        x = self.big_cylinder_rotation
        q = (x.a if isinstance(x, QuadNum) else x).denominator
        return 2 * q


def sheared_st3_return(s: "ShearedSt3 | Scalar") -> ShearReturn:
    if not isinstance(s, ShearedSt3):
        s = ShearedSt3(s)
    x = s.x
    rational = not isinstance(x, QuadNum) or x.is_rational
    return ShearReturn(1, x, rational)
