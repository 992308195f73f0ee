"""L-shaped surfaces L(a,1) over real quadratic fields.

L(a,1) is the union of a bottom rectangle [0,a]×[0,1] and a column of width 1
and height a-1 on its left end, opposite sides glued by translations.  The
``shift`` parameter slides the column left by s while keeping the gluing
pattern, which moves the surface into the two-singularity stratum without
touching its absolute periods.

The interesting family has a = (1+√d)/2; then [[1,4a],[0,1]] acts on the two
horizontal cylinders as the 4th and the (d-1)-th power of their Dehn twists,
which is what puts it in the Veech group.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

from .cylinders import QuadCylinder
from .intlattice import rational_hermite_form
from .origami import Stratum
from .quadfield import QuadMatrix, QuadNum, _square_part, in_one_field, minimal_poly_degree


@dataclass(frozen=True)
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
        if d < 2:
            raise ValueError(f"need d >= 2, got {d}")
        s = _square_part(d)
        core = d // (s * s)
        if core == 1:
            a = QuadNum(Fraction(1 + s, 2), 0, 2)
        else:
            a = QuadNum(Fraction(1, 2), Fraction(s, 2), core)
        return LSurface(a, shift)

    @cached_property
    def discriminant(self) -> Optional[int]:
        """d with a = (1+√d)/2, i.e. the rational integer (2a-1)²; None when
        a is not of that form."""
        dee = (2 * self.a - 1) ** 2
        if dee.is_integer():
            return int(dee.a)
        return None


def horizontal_cylinders(L: LSurface) -> list[QuadCylinder]:
    """Bottom cylinder a wide and 1 tall, top cylinder 1 wide and a-1 tall;
    the shift slides the top cylinder without changing either."""
    one = QuadNum(1, 0, L.a.d)
    return [QuadCylinder(L.a, one), QuadCylinder(one, L.a - 1)]


def vertical_cylinders(L: LSurface) -> list[QuadCylinder]:
    """For the unshifted surface the picture is diagonal-symmetric: vertical
    lines over [0,1] close up after 1 + (a-1) = a, those over [1,a] after 1."""
    if L.shift != 0:
        raise ValueError("vertical cylinders are only computed for the unshifted surface")
    one = QuadNum(1, 0, L.a.d)
    return [QuadCylinder(one + (L.a - 1), one), QuadCylinder(one, L.a - 1)]


def twist_powers(L: LSurface, t) -> Optional[tuple[int, int]]:
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
    one = QuadNum(1, 0, L.a.d)
    zero = QuadNum(0, 0, L.a.d)
    return (
        QuadMatrix(one, t, zero, one),
        QuadMatrix(one, zero, t, one),
    )


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class PeriodLattice:
    """A ℤ-module in Q[√d]², generated over ℤ⁴ in the basis {1,√d} of each
    coordinate; (denominator, rows) is a canonical Hermite presentation, so
    equality of dataclasses is equality of modules."""

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


# -- stratum of the (possibly shifted) polygon --------------------------------------
#
# The L is two rectangles with edges, split at the gluing breakpoints, glued
# pairwise by translations.  Walking e -> next(twin(e)) around a corner visits
# one circular sector per step, so the total angle of a vertex class is the
# sum of the interior angles at the origins of the directed edges in one walk
# orbit.  All angles here are multiples of π/2, counted in quarter turns.


def _quarter_turns(u, w) -> int:
    cross = u[0] * w[1] - u[1] * w[0]
    dot = u[0] * w[0] + u[1] * w[1]
    if cross > 0:
        return 1
    if cross == 0 and dot > 0:
        return 2
    if cross < 0:
        return 3
    raise ValueError("slit corner (angle 2π) in a rectangle complex")


def _walk_cone_angles(polygons, gluings) -> list[int]:
    """Cone angles, in quarter turns, of the vertex classes of a glued
    rectangle complex.  ``polygons``: lists of ccw corner points (exact
    scalars); ``gluings``: pairs of directed edges (poly, edge_index).

    Zero-length edges (breakpoints that coincide with a corner) are dropped
    with their partners before the walk."""
    keep = [[i for i in range(len(pts)) if pts[i] != pts[(i + 1) % len(pts)]] for pts in polygons]
    index = [{i: k for k, i in enumerate(kept)} for kept in keep]
    gluings = [
        ((pa, index[pa][ia]), (pb, index[pb][ib]))
        for (pa, ia), (pb, ib) in gluings
        if ia in index[pa] and ib in index[pb]
    ]
    polygons = [[pts[i] for i in kept] for pts, kept in zip(polygons, keep)]
    nedges = {p: len(polygons[p]) for p in range(len(polygons))}
    twin = {}
    for e1, e2 in gluings:
        for (pa, ia), (pb, ib) in ((e1, e2), (e2, e1)):
            pts = polygons[pa]
            qts = polygons[pb]
            va = (
                pts[(ia + 1) % nedges[pa]][0] - pts[ia][0],
                pts[(ia + 1) % nedges[pa]][1] - pts[ia][1],
            )
            vb = (
                qts[(ib + 1) % nedges[pb]][0] - qts[ib][0],
                qts[(ib + 1) % nedges[pb]][1] - qts[ib][1],
            )
            assert va[0] == -vb[0] and va[1] == -vb[1], "glued edges must be antiparallel"
            twin[(pa, ia)] = (pb, ib)
    all_edges = {(p, i) for p in range(len(polygons)) for i in range(nedges[p])}
    assert set(twin) == all_edges, "every boundary edge needs a gluing partner"

    def interior_angle(p, i):
        pts = polygons[p]
        m = nedges[p]
        prev_dir = (pts[i][0] - pts[i - 1][0], pts[i][1] - pts[i - 1][1])
        cur_dir = (pts[(i + 1) % m][0] - pts[i][0], pts[(i + 1) % m][1] - pts[i][1])
        return _quarter_turns(prev_dir, cur_dir)

    angles = []
    todo = set(all_edges)
    while todo:
        e = todo.pop()
        quarters = interior_angle(*e)
        p, i = twin[e]
        nxt = (p, (i + 1) % nedges[p])
        while nxt != e:
            todo.discard(nxt)
            quarters += interior_angle(*nxt)
            p, i = twin[nxt]
            nxt = (p, (i + 1) % nedges[p])
        assert quarters % 4 == 0, "vertex angles must be whole multiples of 2π"
        angles.append(quarters)
    return angles


def _lshape_complex(a: QuadNum, s: QuadNum):
    zero = QuadNum(0, 0, a.d)
    one = QuadNum(1, 0, a.d)
    # the column sits over [-s, 1-s]; every gluing is in place up to a shift
    # by the full width a, so vertical lines over [0, 1-s] and [a-s, a] run
    # through both rectangles while those over [1-s, a-s] close after height 1;
    # at s = 0 the edges over [a-s, a] and [-s, 0] have length zero, and the
    # walk drops them, which leaves the unshifted L
    R = [
        (zero, zero),
        (one - s, zero),
        (a - s, zero),
        (a, zero),
        (a, one),
        (a - s, one),
        (one - s, one),
        (zero, one),
    ]
    C = [(-s, one), (zero, one), (one - s, one), (one - s, a), (zero, a), (-s, a)]
    gluings = [
        ((0, 0), (1, 3)),  # bottom [0, 1-s] ~ column top [0, 1-s]
        ((0, 1), (0, 5)),  # bottom [1-s, a-s] ~ rectangle top [1-s, a-s]
        ((0, 2), (0, 4)),  # bottom [a-s, a] ~ rectangle top [a-s, a]
        ((0, 6), (1, 1)),  # rectangle top [0, 1-s] ~ column bottom, in place
        ((1, 0), (1, 4)),  # column bottom [-s, 0] ~ column top [-s, 0]
        ((0, 3), (0, 7)),  # f1: right side ~ left side of the bottom rectangle
        ((1, 2), (1, 5)),  # f2: column right ~ column left
    ]
    return [R, C], gluings


def lshape_stratum(L: LSurface) -> Stratum:
    """Exact cone-angle census of the (possibly shifted) L polygon.

    Unshifted surfaces land in H(2); a generic shift splits the 6π point into
    two 4π points (H(1,1)); the finitely many shifts where they recombine are
    refused rather than misreported.
    """
    polygons, gluings = _lshape_complex(L.a, L.shift)
    angles = _walk_cone_angles(polygons, gluings)
    orders = [q // 4 - 1 for q in angles]
    strat = Stratum([k for k in orders if k > 0])
    if L.shift == 0:
        assert strat == Stratum([2])
    elif strat != Stratum([1, 1]):
        raise ValueError(
            f"shift {L.shift} makes the singularities collide (stratum {strat}); "
            "use a generic shift"
        )
    return strat
