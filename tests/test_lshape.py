from fractions import Fraction as F
from math import gcd, lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

from origamis.lshape import (
    LSurface,
    PeriodLattice,
    absolute_period_lattice,
    horizontal_cylinders,
    lshape_stratum,
    trace_field,
    twist_powers,
    veech_generators,
    vertical_cylinders,
)
from origamis.intlattice import hermite_form, rational_hermite_form
from origamis.origami import Stratum
from origamis.quadfield import MAX_D, QuadNum, exact_rational, minimal_poly_degree

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
        from origamis.lshape import _walk_cone_angles
        from origamis.origami import st3, st4, torus, vertex_cycles

        for o in (torus(), st3(), st4()):
            angles = sorted(_walk_cone_angles(*self._square_complex(o)))
            expected = sorted(4 * len(c) for c in vertex_cycles(o))
            assert angles == expected

    def test_random_origamis(self):
        import random

        from origamis.lshape import _walk_cone_angles
        from origamis.origami import random_origami, vertex_cycles

        rng = random.Random(99)
        for _ in range(40):
            o = random_origami(rng.randint(1, 7), rng)
            angles = sorted(_walk_cone_angles(*self._square_complex(o)))
            expected = sorted(4 * len(c) for c in vertex_cycles(o))
            assert angles == expected


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
        # the corners of the complex keep their order for all 0 < s < 1, so
        # the singularities never collide
        for a in (F(3, 2), 2, F(7, 3), 9):
            for den in range(2, 13):
                for k in range(1, den):
                    assert lshape_stratum(LSurface(a, F(k, den))) == Stratum([1, 1]), (a, k, den)
        for d in (2, 3, 5, 7, 9, 13, 17):
            a = LSurface.from_discriminant(d).a
            shifts = {F(k, 7) for k in range(1, 7)} | {a - 1 - F(k, 4) for k in range(-4, 8)}
            shifts |= {QuadNum(F(k, 5), F(j, 9), a.d) for k in range(-5, 6) for j in range(-3, 4)}
            for s in shifts:
                if 0 < s < 1:
                    assert lshape_stratum(LSurface(a, s)) == Stratum([1, 1]), (d, s)

    def test_quadratic_shift(self):
        L = LSurface.from_discriminant(5, QuadNum(-2, 1, 5))  # √5 - 2
        assert lshape_stratum(L) == Stratum([1, 1])
