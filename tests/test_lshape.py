from fractions import Fraction as F
from math import gcd, isqrt, lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

from origamis.lshape import (
    LSurface,
    PeriodLattice,
    _rectangle_tiling,
    absolute_period_lattice,
    horizontal_cylinders,
    lshape_stratum,
    trace_field,
    twist_powers,
    veech_generators,
    vertical_cylinders,
)
from origamis.intlattice import exact_rational, hermite_form, rational_hermite_form
from origamis.origami import Stratum, vertex_cycles
from origamis.quadfield import MAX_D, QuadNum, minimal_poly_degree

DS = (2, 3, 5, 7, 13)


class TestConstruction:
    def test_golden(self):
        L = LSurface.from_discriminant(5)
        assert L.a == QuadNum(F(1, 2), F(1, 2), 5)
        assert L.discriminant == 5

    def test_square_discriminant_is_rational(self):
        L = LSurface.from_discriminant(9)
        assert L.a == 2 and L.discriminant == 9

    def test_non_squarefree_discriminant(self):
        L = LSurface.from_discriminant(12)  # (1+2√3)/2
        assert L.a == QuadNum(F(1, 2), 1, 3) and L.discriminant == 12

    def test_validation(self):
        with pytest.raises(ValueError):
            LSurface(1)  # need a > 1
        with pytest.raises(ValueError):
            LSurface(2, shift=1)
        with pytest.raises(ValueError):
            LSurface.from_discriminant(1)

    def test_discriminant_bound(self):
        assert LSurface.from_discriminant(MAX_D).a == (1 + 10**9) / F(2)  # 10¹⁸ is a square
        assert LSurface.from_discriminant(999_999_999_999_999_989).a.d == 999_999_999_999_999_989
        for bad in (MAX_D + 1, 10**24 + 7):
            with pytest.raises(ValueError, match=f"need 2 <= d <= {MAX_D}, got {bad}"):
                LSurface.from_discriminant(bad)

    def test_generic_a_has_no_discriminant(self):
        assert LSurface(1 + QuadNum.sqrt(2)).discriminant is None


class TestCylinders:
    def test_golden_l(self):
        L = LSurface.from_discriminant(5)
        cyls = horizontal_cylinders(L)
        assert cyls[0].width == L.a and cyls[0].height == 1
        assert cyls[1].width == 1 and cyls[1].height == QuadNum(F(-1, 2), F(1, 2), 5)

    def test_rational_case_matches_st3(self):
        cyls = horizontal_cylinders(LSurface(2))
        assert [(c.width, c.height) for c in cyls] == [(2, 1), (1, 1)]

    def test_area_additivity(self):
        for d in DS:
            L = LSurface.from_discriminant(d)
            total = horizontal_cylinders(L)[0].area + horizontal_cylinders(L)[1].area
            assert total == 2 * L.a - 1

    def test_shift_does_not_change_them(self):
        a = horizontal_cylinders(LSurface.from_discriminant(5))
        b = horizontal_cylinders(LSurface.from_discriminant(5, F(2, 7)))
        assert a == b

    def test_diagonal_symmetry(self):
        for d in DS:
            L = LSurface.from_discriminant(d)
            h = {(c.width, c.height) for c in horizontal_cylinders(L)}
            v = {(c.width, c.height) for c in vertical_cylinders(L)}
            assert h == v

    def test_vertical_needs_no_shift(self):
        with pytest.raises(ValueError):
            vertical_cylinders(LSurface.from_discriminant(5, F(1, 3)))


class TestTwists:
    def test_full_twist_pair(self):
        for d in DS:
            L = LSurface.from_discriminant(d)
            assert twist_powers(L, 4 * L.a) == (4, d - 1)

    def test_twist_identity_oracle(self):
        # 4a(a-1) = d-1 because (2a-1)² = d, expanded exactly
        for d in DS:
            a = LSurface.from_discriminant(d).a
            assert 4 * a * (a - 1) == (2 * a - 1) ** 2 - 1 == d - 1

    def test_unit_shear_is_not_a_twist(self):
        assert twist_powers(LSurface.from_discriminant(5), 1) is None

    def test_rational_case(self):
        assert twist_powers(LSurface(2), 2) == (1, 2)

    def test_positive_t_required(self):
        with pytest.raises(ValueError):
            twist_powers(LSurface(2), 0)


class TestVeechGenerators:
    def test_d5_expansion(self):
        A, B = veech_generators(LSurface.from_discriminant(5))
        assert A.m12 == QuadNum(2, 2, 5)  # 4a = 2 + 2√5
        assert A.m11 == 1 and A.m21 == 0 and A.m22 == 1
        assert B.m21 == QuadNum(2, 2, 5)

    def test_d2_expansion(self):
        A, _ = veech_generators(LSurface.from_discriminant(2))
        assert A.m12 == QuadNum(2, 2, 2)

    def test_unit_determinants(self):
        for d in DS:
            A, B = veech_generators(LSurface.from_discriminant(d))
            assert A.det() == 1 and B.det() == 1

    def test_unsupported_form_rejected(self):
        with pytest.raises(ValueError, match="form"):
            veech_generators(LSurface(1 + QuadNum.sqrt(2)))


class TestTraceField:
    def test_quadratic_family(self):
        for d in DS:
            L = LSurface.from_discriminant(d)
            tf = trace_field(L)
            assert tf.generator_trace == 2 + 16 * L.a * L.a
            assert tf.generator_trace.b != 0  # √d coefficient survives
            assert tf.degree == 2 and tf.field == f"Q[sqrt({d})]"

    def test_trace_via_matrix_product(self):
        L = LSurface.from_discriminant(5)
        A, B = veech_generators(L)
        assert (A * B).trace() == trace_field(L).generator_trace

    def test_square_discriminant_gives_q(self):
        tf = trace_field(LSurface(2))
        assert tf.generator_trace == 66
        assert tf.degree == 1 and tf.field == "Q"

    def test_degree_matches_minimal_poly(self):
        for d in DS:
            tf = trace_field(LSurface.from_discriminant(d))
            assert minimal_poly_degree(tf.generator_trace).degree == tf.degree


class TestPeriodLattice:
    def test_rational_case_is_z2(self):
        lat = absolute_period_lattice(LSurface(2))
        assert lat == PeriodLattice(1, ((1, 0, 0, 0), (0, 0, 1, 0)))

    def test_golden_reduction(self):
        # oracle: subtracting (1,0) from (a,0) leaves an equivalent generating set
        a = LSurface.from_discriminant(5).a
        expected_gens = [
            (F(1), F(0), F(0), F(0)),
            (a.a - 1, a.b, F(0), F(0)),
            (F(0), F(0), F(1), F(0)),
            (F(0), F(0), a.a - 1, a.b),
        ]
        den, rows = rational_hermite_form(expected_gens)
        got = absolute_period_lattice(LSurface.from_discriminant(5))
        assert got == PeriodLattice(den, tuple(tuple(r) for r in rows))

    def test_shift_invariance(self):
        for d in DS:
            base = absolute_period_lattice(LSurface.from_discriminant(d))
            for k in range(1, 11):
                shifted = LSurface.from_discriminant(d, F(k, 11))
                assert absolute_period_lattice(shifted) == base


def reference_rational_hermite_form(rows):
    """rational_hermite_form as it was, ending in a division of den and the
    basis by their gcd g; den is the lcm of the denominators, so g is 1."""
    rows = [[exact_rational(x) for x in r] for r in rows]
    den = 1
    for r in rows:
        for x in r:
            den = lcm(den, x.denominator)
    ints = [[int(x * den) for x in r] for r in rows]
    basis = hermite_form(ints)
    # normalize the denominator
    g = den
    for r in basis:
        for x in r:
            g = gcd(g, x)
    if g > 1:
        den //= g
        basis = [tuple(x // g for x in r) for r in basis]
    return den, basis


@st.composite
def rational_rows(draw):
    cols = draw(st.sampled_from([2, 4]))
    entry = st.fractions(min_value=-50, max_value=50, max_denominator=60)
    return draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), max_size=5))


@given(rational_rows())
def test_rational_hermite_form_matches_its_gcd_normalising_reference(rows):
    assert rational_hermite_form(rows) == reference_rational_hermite_form(rows)


# The polygon corner walk below is a cone-angle census of the L as two glued
# polygons that shares no code with the origami engine: the oracle that the
# rectangle tiling's commutator cycles are checked against. It glues the
# polygons edge by edge and asserts that glued edges are antiparallel, that
# every edge has a partner and that every vertex angle is a whole turn.


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
    zero = a - a
    one = zero + 1
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


class TestCornerWalkOracle:
    """The polygon corner walk and the commutator convention must agree on
    origamis: each commutator cycle of length ℓ is one walk orbit of angle
    2πℓ.  Dual-route check of both implementations."""

    @staticmethod
    def _square_complex(o):
        from origamis.quadfield import QuadNum

        zero, one = QuadNum(0, 0, 2), QuadNum(1, 0, 2)
        square = [(zero, zero), (one, zero), (one, one), (zero, one)]
        polygons = [square] * o.n
        gluings = []
        for s in range(1, o.n + 1):
            gluings.append(((s - 1, 1), (o.h(s) - 1, 3)))  # right ~ left of h(s)
            gluings.append(((s - 1, 2), (o.v(s) - 1, 0)))  # top ~ bottom of v(s)
        return polygons, gluings

    def test_fixtures(self):
        from origamis.origami import st3, st4, torus, vertex_cycles

        for o in (torus(), st3(), st4()):
            angles = sorted(_walk_cone_angles(*self._square_complex(o)))
            expected = sorted(4 * len(c) for c in vertex_cycles(o))
            assert angles == expected

    def test_random_origamis(self):
        import random

        from origamis.origami import random_origami, vertex_cycles

        rng = random.Random(99)
        for _ in range(40):
            o = random_origami(rng.randint(1, 7), rng)
            angles = sorted(_walk_cone_angles(*self._square_complex(o)))
            expected = sorted(4 * len(c) for c in vertex_cycles(o))
            assert angles == expected


def shifted_grid():
    """L(a, s) for every shift k/den, den <= 12, of four rational a, and for
    a = (1+√d)/2 shifts with and without a √d part, some near a - 1."""
    for a in (F(3, 2), 2, F(7, 3), 9):
        for den in range(2, 13):
            for k in range(1, den):
                yield LSurface(a, F(k, den))
    for d in (2, 3, 5, 7, 9, 13, 17):
        a = LSurface.from_discriminant(d).a
        shifts = {F(k, 7) for k in range(1, 7)} | {a - 1 - F(k, 4) for k in range(-4, 8)}
        shifts |= {QuadNum(F(k, 5), F(j, 9), a.d) for k in range(-5, 6) for j in range(-3, 4)}
        yield from (LSurface(a, s) for s in shifts if 0 < s < 1)


@st.composite
def l_shapes(draw):
    """L(a, s) with a > 1 and 0 <= s < 1, over Q or over Q[√d]: t·(√d - ⌊√d⌋)
    lies in [0, t)."""
    d = draw(st.sampled_from(DS))
    m = isqrt(d)
    unit = st.integers(1, 30).flatmap(lambda q: st.integers(0, q - 1).map(lambda p: F(p, q)))  # [0, 1)
    r, t = draw(unit), draw(unit)
    irrational = QuadNum(-m * t, t, d)
    s = draw(st.sampled_from((r, irrational, (r + irrational) / 2)))
    width = draw(st.fractions(min_value=F(1, 30), max_value=8, max_denominator=30))
    a = 1 + width + draw(st.integers(0, 4)) * irrational
    return LSurface(a, s)


class TestRectangleTiling:
    """The rectangle tiling's vertices, a whole turn for each square of a
    commutator cycle, are the corner walk's vertex classes, angle for angle;
    the walk checks its own gluing as it goes."""

    @staticmethod
    def _agree(L):
        tiling = sorted(4 * len(c) for c in vertex_cycles(_rectangle_tiling(L)))
        assert tiling == sorted(_walk_cone_angles(*_lshape_complex(L.a, L.shift))), L

    def test_unshifted(self):
        for d in (2, 3, 5, 7, 9, 13, 17):
            self._agree(LSurface.from_discriminant(d))
        for a in (F(3, 2), 2, F(7, 3), 9):
            self._agree(LSurface(a))

    def test_shifted_grid(self):
        for L in shifted_grid():
            self._agree(L)

    @given(l_shapes())
    def test_random_l_shapes(self, L):
        self._agree(L)

    @pytest.mark.parametrize(
        "shift, edges",
        [
            (0, {1: (0, 0, 6), 2: (0, 1, 5), 3: (1, 1, 3)}),
            (F(1, 3), {1: (0, 0, 6), 2: (0, 1, 5), 3: (0, 2, 4), 4: (1, 0, 4), 5: (1, 1, 3)}),
        ],
    )
    def test_tops_are_glued_as_in_the_walks_complex(self, shift, edges):
        # rectangle r is (polygon, bottom edge, top edge) of _lshape_complex,
        # and v(r) is the rectangle whose bottom edge is glued to r's top edge
        L = LSurface.from_discriminant(5, shift)
        gluings = _lshape_complex(L.a, L.shift)[1]
        partner = dict(gluings) | {e2: e1 for e1, e2 in gluings}
        above = {(p, bottom): r for r, (p, bottom, _) in edges.items()}
        o = _rectangle_tiling(L)
        assert o.n == len(edges)
        for r, (p, _, top) in edges.items():
            assert o.v(r) == above[partner[(p, top)]], r


class TestStratum:
    def test_unshifted_is_h2(self):
        for d in DS:
            assert lshape_stratum(LSurface.from_discriminant(d)) == Stratum([2])
        assert lshape_stratum(LSurface(2)) == Stratum([2])

    def test_shifted_is_h11(self):
        for d in DS:
            for k in (1, 4, 10):
                L = LSurface.from_discriminant(d, F(k, 11))
                assert lshape_stratum(L) == Stratum([1, 1])

    def test_every_shift_on_a_grid_is_h11(self):
        for L in shifted_grid():
            assert lshape_stratum(L) == Stratum([1, 1]), L

    def test_quadratic_shift(self):
        L = LSurface.from_discriminant(5, QuadNum(-2, 1, 5))  # √5 - 2
        assert lshape_stratum(L) == Stratum([1, 1])
