"""Cylinder decompositions of origamis in rational directions.

A horizontal cylinder is a maximal stack of rows (h-cycles) glued top to
bottom across interfaces free of singular vertices; its width is the common
row length, its height the number of rows.  Directions (p, q) are handled by
transporting the surface so that (p, q) becomes horizontal; geometric lengths
then carry the exact radical √(p²+q²).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property

from ._record import record
from .action import SL2ZWord, apply_word, direction_to_horizontal
from .origami import Origami, _horizontal_rows
from .quadfield import QuadNum, _square_part, exact_rational, in_one_field


@record
class Cylinder:
    width: int
    height: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        assert self.width * self.height == sum(len(r) for r in self.rows)

    @property
    def area(self) -> int:
        return self.width * self.height


def horizontal_decomposition(o: Origami) -> list[Cylinder]:
    """Cylinders of the horizontal direction, widest first."""
    # o.singular is cached on o, where a trace of the same surface reads it again
    return _horizontal_cylinders((0, *o.h.images), (0, *o.v.images), o.singular)


def _horizontal_cylinders(h, v, singular) -> list[Cylinder]:
    """Cylinders of the horizontal direction of the pair with move tables h
    and v (see origami._tables) and singular-corner table singular (see
    origami._singular_corners), widest first.

    Each cylinder is walked upwards from its start row (see
    origami._horizontal_rows): a row whose bottom corners are all regular
    continues the cylinder below it, since the regularity forces v to map the
    row below onto it, in the same cyclic order.
    """
    rows, row_of, starts = _horizontal_rows(h, singular)
    cyls = []
    for i in starts:
        members = [i]
        while True:
            top = rows[members[-1]]
            j = row_of[v[top[0]]]
            if j in starts:
                break
            assert {row_of[v[s]] for s in top} == {j}, "regular interface must map onto one row"
            members.append(j)
        widths = {len(rows[k]) for k in members}
        assert len(widths) == 1, "merged rows must share a length"
        row_tuples = tuple(sorted((rows[k] for k in members), key=min))
        cyls.append(Cylinder(widths.pop(), len(members), row_tuples))
    placed = sorted(row_of[r[0]] for c in cyls for r in c.rows)
    assert placed == list(range(len(rows))), "every row lands in exactly one cylinder"
    cyls.sort(key=lambda c: (-c.width, -c.height, c.rows))
    return cyls


@record
class RadicalLength:
    """An exact length w·√r, kept symbolic; r is reduced to a squarefree core.

    A rational radicand a/b is read as w·√(a/b) = (w/b)·√(ab). A radicand
    that is not positive is a ValueError naming it."""

    coefficient: Fraction
    radicand: int

    def __init__(self, coefficient, radicand: int | Fraction):
        w, r = exact_rational(coefficient), radicand
        if type(r) is not int:
            r = exact_rational(r)
            w, r = w / r.denominator, r.numerator * r.denominator
        if r <= 0:
            raise ValueError(f"radicand {radicand} is not positive")
        s = _square_part(r)
        object.__setattr__(self, "coefficient", w * s)
        object.__setattr__(self, "radicand", r // (s * s))

    def __float__(self) -> float:
        return float(self.coefficient) * math.sqrt(self.radicand)

    def __str__(self) -> str:
        if self.radicand == 1:
            return str(self.coefficient)
        root = f"sqrt({self.radicand})"
        return root if self.coefficient == 1 else f"{self.coefficient}*{root}"


@record
class DirectionalDecomposition:
    direction: tuple[int, int]
    word: SL2ZWord
    transported: Origami
    cylinders: tuple[Cylinder, ...]

    @cached_property
    def lengths(self) -> tuple[RadicalLength, ...]:
        p, q = self.direction
        return tuple(RadicalLength(c.width, p * p + q * q) for c in self.cylinders)


def decomposition_in_direction(o: Origami, p: int, q: int) -> DirectionalDecomposition:
    """Cylinders of the direction (p, q), with exact geometric core lengths."""
    w = direction_to_horizontal(p, q)
    transported = apply_word(w, o)
    return DirectionalDecomposition(
        direction=(p, q),
        word=w,
        transported=transported,
        cylinders=tuple(horizontal_decomposition(transported)),
    )


# -- cylinders with exact real side lengths ----------------------------------------


@record
class QuadCylinder:
    width: QuadNum
    height: QuadNum

    def __init__(self, width, height):
        width, height = in_one_field(width, height, rational_d=2)
        if not width > 0 or not height > 0:
            raise ValueError("cylinder sides must be positive")
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "height", height)

    @property
    def modulus(self) -> QuadNum:
        return self.height / self.width

    @property
    def area(self) -> QuadNum:
        return self.width * self.height


def modulus_ratios(cyls: list[QuadCylinder]) -> list[QuadNum]:
    """Ratios modulus(first)/modulus(i), i ≥ 2; these are GL₂⁺-invariants of
    the decomposition's direction."""
    if len(cyls) < 2:
        raise ValueError("need at least two cylinders to form ratios")
    m0 = cyls[0].modulus
    return [m0 / c.modulus for c in cyls[1:]]


def octagon_horizontal_cylinders() -> list[QuadCylinder]:
    """The two horizontal cylinders of the unit-side regular octagon, exactly:
    one 1 tall and 1+√2 long, one 1/√2 tall and 2+√2 long."""
    rt2 = QuadNum.sqrt(2)
    return [
        QuadCylinder(1 + rt2, QuadNum(1, 0, 2)),
        QuadCylinder(2 + rt2, QuadNum(0, Fraction(1, 2), 2)),  # 1/√2 = √2/2
    ]
