"""Cylinder decompositions of origamis in rational directions.

A horizontal cylinder is a maximal stack of rows (h-cycles) glued top to
bottom across interfaces free of singular vertices; its width is the common
row length, its height the number of rows.  Directions (p, q) are handled by
transporting the surface so that (p, q) becomes horizontal; geometric lengths
then carry the exact radical √(p²+q²).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .action import SL2ZWord, apply_word, word_for_matrix
from .origami import Origami
from .perm import cycles
from .quadfield import QuadNum, _square_part


@dataclass(frozen=True)
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
    """Cylinders of the horizontal direction, widest first.

    Rows are the cycles of h. A row whose bottom corners are all regular
    continues the cylinder below it: the regularity forces v to map the row
    below onto it, in the same cyclic order. So each cylinder is walked
    upwards from a row with a singular bottom corner; with no singular corner
    at all (genus one) the surface is one cylinder, walked from any row.
    """
    rows = cycles(o.h)
    row_of = [0] * (o.n + 1)
    for i, r in enumerate(rows):
        for s in r:
            row_of[s] = i
    singular = o.singular
    starts = {i for i, r in enumerate(rows) if any(singular[s - 1] for s in r)} or {0}
    v = o.v.images
    cyls = []
    for i in starts:
        members = [i]
        while True:
            top = rows[members[-1]]
            j = row_of[v[top[0] - 1]]
            if j in starts:
                break
            assert {row_of[v[s - 1]] for s in top} == {j}, "regular interface must map onto one row"
            members.append(j)
        widths = {len(rows[k]) for k in members}
        assert len(widths) == 1, "merged rows must share a length"
        row_tuples = tuple(sorted((rows[k] for k in members), key=min))
        cyls.append(Cylinder(widths.pop(), len(members), row_tuples))
    placed = sorted(row_of[r[0]] for c in cyls for r in c.rows)
    assert placed == list(range(len(rows))), "every row lands in exactly one cylinder"
    cyls.sort(key=lambda c: (-c.width, -c.height, c.rows))
    return cyls


def direction_to_horizontal(p: int, q: int) -> SL2ZWord:
    """A word whose matrix U satisfies U·(p,q)ᵀ = (1,0)ᵀ.

    Extended Euclid gives a, b with a·p + b·q = 1; then [[a, b], [-q, p]]
    works, and the word comes from the continued-fraction decomposition into
    T and S.
    """
    if (p, q) == (0, 0):
        raise ValueError("direction (0, 0)")
    if math.gcd(p, q) != 1:
        raise ValueError(f"direction ({p}, {q}) is not primitive; divide by the gcd")
    a, b = _bezout(p, q)
    return word_for_matrix(((a, b), (-q, p)))


def _bezout(p: int, q: int) -> tuple[int, int]:
    old_r, r = p, q
    old_a, a = 1, 0
    old_b, b = 0, 1
    while r != 0:
        k = old_r // r
        old_r, r = r, old_r - k * r
        old_a, a = a, old_a - k * a
        old_b, b = b, old_b - k * b
    if old_r < 0:
        old_a, old_b = -old_a, -old_b
    return old_a, old_b


@dataclass(frozen=True)
class RadicalLength:
    """An exact length w·√r, kept symbolic; r is reduced to a squarefree core."""

    coefficient: Fraction
    radicand: int

    def __init__(self, coefficient, radicand: int):
        s = _square_part(radicand)
        object.__setattr__(self, "coefficient", Fraction(coefficient) * s)
        object.__setattr__(self, "radicand", radicand // (s * s))

    def __float__(self) -> float:
        return float(self.coefficient) * math.sqrt(self.radicand)

    def __str__(self) -> str:
        if self.radicand == 1:
            return str(self.coefficient)
        root = f"sqrt({self.radicand})"
        return root if self.coefficient == 1 else f"{self.coefficient}*{root}"


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class QuadCylinder:
    width: QuadNum
    height: QuadNum

    def __init__(self, width, height):
        width = width if isinstance(width, QuadNum) else QuadNum(width)
        height = height if isinstance(height, QuadNum) else QuadNum(height)
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
