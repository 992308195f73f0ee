"""Straight-line flow on origamis.

The tracer advances square to square with exact arithmetic (Fractions, or
QuadNums for quadratic-irrational data): an orbit is declared periodic when
an exact state recurs, and a singularity hit is an exact corner coincidence,
so verdicts are proofs, not approximations.  Floating point appears only in
the empirical discrepancy statistic.

Time along an orbit is parametrized so the velocity is exactly the direction
vector (p, q); geometric length is then (elapsed time)·√(p²+q²).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .cylinders import RadicalLength, decomposition_in_direction
from .origami import Origami
from .quadfield import QuadNum, in_one_field

Scalar = Union[Fraction, QuadNum]


@dataclass(frozen=True)
class FlowState:
    """A point of the surface with a direction of travel."""

    square: int
    pos: tuple  # (x, y), 0 <= x, y <= 1, exact scalars
    direction: tuple  # (p, q), exact scalars, not both zero


@dataclass(frozen=True)
class TraceResult:
    periodic: bool
    singular: bool
    crossings: int
    total_time: Scalar
    period_time: Optional[Scalar]
    radicand: Scalar  # p² + q²
    events: tuple  # (time, square, x, y) per crossing, when recorded

    def length(self) -> RadicalLength:
        """Exact geometric period length, for rational directions."""
        if not self.periodic:
            raise ValueError("orbit was not found periodic")
        rad = self.radicand
        if isinstance(rad, QuadNum):
            if not rad.is_rational:
                raise ValueError("irrational radicand: the length is not w·√r with w rational")
            rad = rad.a
        coeff = self.period_time
        if isinstance(coeff, QuadNum):
            if not coeff.is_rational:
                raise ValueError("irrational period: the length is not w·√r with w rational")
            coeff = coeff.a
        if rad.denominator != 1:
            raise ValueError("non-integer radicand")
        return RadicalLength(coeff, rad.numerator)


def _corner_square(o: Origami, sq: int, cx: int, cy: int) -> int:
    """Square whose bottom-left corner is the (cx, cy) corner of sq."""
    if (cx, cy) == (0, 0):
        return sq
    if (cx, cy) == (1, 0):
        return o.h(sq)
    if (cx, cy) == (0, 1):
        return o.v(sq)
    return o.v(o.h(sq))


def trace(
    o: Origami,
    start: FlowState,
    max_crossings: int = 10_000,
    record_events: bool = False,
) -> TraceResult:
    """Follow the straight-line flow from ``start`` until a state recurs, a
    singularity is hit, or ``max_crossings`` edge crossings have happened."""
    if max_crossings < 1:
        raise ValueError(f"max_crossings must be at least 1, got {max_crossings}")
    x, y, p, q = in_one_field(*start.pos, *start.direction)
    if not p and not q:
        raise ValueError("zero direction")
    if not (0 <= x <= 1 and 0 <= y <= 1):
        raise ValueError(f"position ({x}, {y}) outside the unit square")
    sq = start.square
    if not 1 <= sq <= o.n:
        raise ValueError(f"square {sq} out of range 1..{o.n}")
    singular = o.singular
    if x in (0, 1) and y in (0, 1):
        if singular[_corner_square(o, sq, int(x == 1), int(y == 1)) - 1]:
            raise ValueError("flow started at a singular vertex")

    # the square entered across a vertical or a horizontal edge
    step_x = (o.h if p > 0 else o.h.inverse()).images
    step_y = (o.v if q > 0 else o.v.inverse()).images
    zero = x - x  # additive zero of the working field
    one = zero + 1
    walls = (zero, one)
    # moving right (up), the wall ahead is at 1 and the next square is entered
    # at 0; moving left (down), the reverse. The time to a wall is its distance
    # times 1/|speed|, and each speed is inverted once, here.
    right, up = p > 0, q > 0
    enter_x = zero if right else one
    enter_y = zero if up else one
    inv_p = (one / p if right else -one / p) if p else None
    inv_q = (one / q if up else -one / q) if q else None
    time = zero
    radicand = p * p + q * q
    seen = {(sq, x, y): time}
    events = []
    for crossing in range(1, max_crossings + 1):
        if inv_q is None:
            t, hit_x, hit_y = ((one - x) if right else x) * inv_p, True, False
        elif inv_p is None:
            t, hit_x, hit_y = ((one - y) if up else y) * inv_q, False, True
        else:
            tx = ((one - x) if right else x) * inv_p
            ty = ((one - y) if up else y) * inv_q
            if tx == ty:
                t, hit_x, hit_y = tx, True, True
            elif tx < ty:
                t, hit_x, hit_y = tx, True, False
            else:
                t, hit_x, hit_y = ty, False, True
        time = time + t
        # the coordinate that hit a wall is exactly 0 or 1 in the square entered
        if hit_x and hit_y:
            if singular[_corner_square(o, sq, int(right), int(up)) - 1]:
                return TraceResult(False, True, crossing, time, None, radicand, tuple(events))
            # regular corner: the commutator fixes it, so the horizontal and
            # vertical steps commute there and either order reaches the diagonal
            # square, entered at that same regular corner
            sq = step_y[step_x[sq - 1] - 1]
            x, y = enter_x, enter_y
        else:
            if hit_x:
                sq = step_x[sq - 1]
                x, y = enter_x, y + t * q
            else:
                sq = step_y[sq - 1]
                x, y = x + t * p, enter_y
            # a trajectory running along a grid line passes through lattice corners;
            # those are surface vertices and must stop the orbit when singular
            if x in walls and y in walls:
                if singular[_corner_square(o, sq, int(x == one), int(y == one)) - 1]:
                    return TraceResult(False, True, crossing, time, None, radicand, tuple(events))
        state = (sq, x, y)
        if record_events:
            events.append((time, sq, x, y))
        if state in seen:
            return TraceResult(True, False, crossing, time, time - seen[state], radicand, tuple(events))
        seen[state] = time
    return TraceResult(False, False, max_crossings, time, None, radicand, tuple(events))


@dataclass(frozen=True)
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


def discrepancy(o: Origami, slope: float, crossings: int, grid: int) -> float:
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


# -- the sheared staircase of three squares ------------------------------------------


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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
    def big_cylinder_orbit_length(self) -> Optional[int]:
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
