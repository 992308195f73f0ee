"""L-shaped surfaces L(a,1) over real quadratic fields.

L(a,1) is the union of a bottom rectangle [0,a]×[0,1] and a column of width 1
and height a-1 on its left end, opposite sides glued by translations.  The
``shift`` parameter slides the column left by s while keeping the gluing
pattern, which moves the surface into the two-singularity stratum without
touching its absolute periods. Cut at the x-coordinates of its corners, L is
rectangles glued edge to edge, an origami with stretched squares, and its
stratum is that origami's.

The interesting family has a = (1+√d)/2; then [[1,4a],[0,1]] acts on the two
horizontal cylinders as the 4th and the (d-1)-th power of their Dehn twists,
which is what puts it in the Veech group.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from ._record import record
from .cylinders import QuadCylinder
from .intlattice import _int_arg, rational_hermite_form
from .origami import Origami, Stratum, parse_origami, stratum
from .quadfield import MAX_D, QuadMatrix, QuadNum, _quad, _square_part, in_one_field, minimal_poly_degree


@record
class LSurface:
    a: QuadNum
    shift: QuadNum

    def __init__(self, a, shift=0):
        a, shift = in_one_field(a, shift, rational_d=2)
        if not a > 1:
            raise ValueError(f"need a > 1, got {a}")
        if not (0 <= shift < 1):
            raise ValueError(f"shift must lie in [0, 1), got {shift}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "shift", shift)

    @staticmethod
    def from_discriminant(d: int, shift=0) -> "LSurface":
        """The surface L(a,1) with a = (1+√d)/2; square d gives the rational,
        parallelogram-tiled members of the family."""
        if not 2 <= _int_arg("d", d) <= MAX_D:
            raise ValueError(f"need 2 <= d <= {MAX_D}, got {d}")
        s = _square_part(d)
        core = d // (s * s)  # squarefree, since s² is the largest square dividing d
        if core == 1:
            a = _quad(Fraction(1 + s, 2), Fraction(0), 2)
        else:
            a = _quad(Fraction(1, 2), Fraction(s, 2), core)
        return LSurface(a, shift)

    @cached_property
    def discriminant(self) -> int | None:
        """d with a = (1+√d)/2, i.e. the rational integer (2a-1)²; None when
        a is not of that form."""
        dee = (2 * self.a - 1) ** 2
        if dee.is_integer():
            return int(dee.a)
        return None


def horizontal_cylinders(L: LSurface) -> list[QuadCylinder]:
    """Bottom cylinder a wide and 1 tall, top cylinder 1 wide and a-1 tall;
    the shift slides the top cylinder without changing either."""
    return [QuadCylinder(L.a, 1), QuadCylinder(1, L.a - 1)]


def vertical_cylinders(L: LSurface) -> list[QuadCylinder]:
    """For the unshifted surface the picture is diagonal-symmetric: vertical
    lines over [0,1] close up after 1 + (a-1) = a, those over [1,a] after 1,
    so these are the horizontal cylinders."""
    if L.shift != 0:
        raise ValueError("vertical cylinders are only computed for the unshifted surface")
    return horizontal_cylinders(L)


def twist_powers(L: LSurface, t) -> tuple[int, int] | None:
    """Dehn-twist powers (bottom, top) realized by the shear [[1,t],[0,1]].

    The shear twists a cylinder of width w and height h by t·h/w core circles
    per height; here the heights are 1 and a-1 against widths a and 1, giving
    t/a and t·(a-1).  The pair is returned exactly when both counts are
    integers, which is when the shear lies in the Veech group.
    """
    t = in_one_field(t, L.a, rational_d=2)[0]
    if not t > 0:
        raise ValueError(f"need t > 0, got {t}")
    k_bottom = t / L.a
    k_top = t * (L.a - 1)
    if k_bottom.is_integer() and k_top.is_integer():
        return int(k_bottom.a), int(k_top.a)
    return None


def veech_generators(L: LSurface) -> tuple[QuadMatrix, QuadMatrix]:
    """The parabolic pair A = [[1,4a],[0,1]] and B = [[1,0],[4a,1]];
    only available for a = (1+√d)/2, where both shears act by full twists."""
    if L.discriminant is None:
        raise ValueError(f"a = {L.a} is not of the form (1+sqrt(d))/2")
    t = 4 * L.a
    assert twist_powers(L, t) == (4, L.discriminant - 1)
    return QuadMatrix(1, t, 0, 1), QuadMatrix(1, 0, t, 1)


@record
class TraceFieldReport:
    generator_trace: QuadNum
    degree: int
    field: str


def trace_field(L: LSurface) -> TraceFieldReport:
    """Trace field of L(a,1) read off the product of the two parabolic
    generators, whose trace is 2+16a²."""
    A, B = veech_generators(L)
    tr = (A * B).trace()
    assert tr == 2 + 16 * L.a * L.a
    degree = minimal_poly_degree(tr).degree
    field = "Q" if degree == 1 else f"Q[sqrt({tr.d})]"
    return TraceFieldReport(tr, degree, field)


@record
class PeriodLattice:
    """A ℤ-module in Q[√d]², generated over ℤ⁴ in the basis {1,√d} of each
    coordinate; (denominator, rows) is a canonical Hermite presentation, so
    equality of records is equality of modules."""

    denominator: int
    basis: tuple[tuple[int, int, int, int], ...]

    def __str__(self) -> str:
        rows = ", ".join(str(r) for r in self.basis)
        return f"(1/{self.denominator})·span{{{rows}}}"


def absolute_period_lattice(L: LSurface) -> PeriodLattice:
    """ℤ-module spanned by the holonomies (a,0), (1,0), (0,1), (0,a-1) of the
    four core curves; the shift never enters, which is the whole point of the
    shifted variant."""
    a = L.a
    gens = [
        (a.a, a.b, Fraction(0), Fraction(0)),
        (Fraction(1), Fraction(0), Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(0), a.a - 1, a.b),
    ]
    den, rows = rational_hermite_form(gens)
    return PeriodLattice(den, tuple(tuple(r) for r in rows))


# -- stratum of the (possibly shifted) L ------------------------------------------


def _rectangle_tiling(L: LSurface) -> Origami:
    """L cut at the x-coordinates of its corners: rectangles glued edge to
    edge, which is an origami with stretched squares (h(r) is the rectangle
    right of r, v(r) the one on top). Every corner is a right angle, as in a
    square, so the cone points are the commutator cycles.

    Unshifted, the rectangles are the bottom [0,1] and [1,a] (1, 2) and the
    column over [0,1] (3): St(3). For 0 < s < 1 they are the bottom [0,1-s],
    [1-s,a-s] and [a-s,a] (1, 2, 3) and the column over [-s,0] and [0,1-s]
    (4, 5), each of positive width for every a > 1. The column stands on 1
    and its top over [0,1-s] is glued to 1's bottom; every other top is glued
    to its own bottom, and each row closes up by the translation across it.
    """
    if L.shift == 0:
        return parse_origami("3; h=(1,2); v=(1,3)")
    return parse_origami("5; h=(1,2,3)(4,5); v=(1,5)")


def lshape_stratum(L: LSurface) -> Stratum:
    """Exact cone-angle census of the (possibly shifted) L, read off its
    rectangle tiling: unshifted surfaces land in H(2), and every shift
    0 < s < 1 splits the 6π point into two 4π points (H(1,1)).
    """
    strat = stratum(_rectangle_tiling(L))
    assert strat == (Stratum([2]) if L.shift == 0 else Stratum([1, 1]))
    return strat
