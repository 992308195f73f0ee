from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from origamis.quadfield import QuadMatrix, QuadNum, minimal_poly_degree

PHI = QuadNum(F(1, 2), F(1, 2), 5)
RT2 = QuadNum.sqrt(2)

rationals = st.builds(F, st.integers(-50, 50), st.integers(1, 12))


def quadnums(d=5):
    return st.tuples(rationals, rationals).map(lambda ab: QuadNum(ab[0], ab[1], d))


class TestArithmetic:
    def test_sqrt2_squares_to_2(self):
        assert RT2 * RT2 == 2

    def test_division_rationalizes(self):
        # oracle: (1+√2)(-1+√2) = 1, so 1/(1+√2) = -1+√2
        got = QuadNum(1, 0, 2) / (1 + RT2)
        assert got == QuadNum(-1, 1, 2)
        assert got * (1 + RT2) == 1

    def test_conjugate_sum(self):
        assert PHI + PHI.conjugate() == 1

    def test_conjugates(self):
        assert QuadNum(3, 0, 2).conjugate() == 3
        assert PHI.conjugate() == QuadNum(F(1, 2), F(-1, 2), 5)
        assert QuadNum(0, -2, 3).conjugate() == QuadNum(0, 2, 3)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            PHI / QuadNum(0, 0, 5)

    def test_incompatible_fields(self):
        with pytest.raises(ValueError):
            RT2 + QuadNum.sqrt(3)

    def test_rationals_mix_across_fields(self):
        assert QuadNum(2, 0, 7) + RT2 == QuadNum(2, 1, 2)

    def test_non_squarefree_rejected_with_hint(self):
        with pytest.raises(ValueError, match="squarefree"):
            QuadNum(0, 1, 8)
        with pytest.raises(ValueError):
            QuadNum(0, 1, 9)

    def test_ordering_mixed_signs(self):
        assert QuadNum(-1, 1, 2) > 0  # √2 > 1
        assert QuadNum(3, -2, 2) > 0  # 3 > 2√2
        assert QuadNum(2, -2, 2) < 0  # 2 < 2√2
        assert PHI > 1 and PHI < 2


class TestFieldAxioms:
    @given(quadnums(), quadnums(), quadnums())
    def test_associativity_and_distributivity(self, x, y, z):
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z

    @given(quadnums())
    def test_inverses(self, x):
        if x:
            assert x / x == 1
            assert (1 / x) * x == 1
        assert x + (-x) == 0

    @given(quadnums(), quadnums())
    def test_conjugation_is_a_homomorphism(self, x, y):
        assert (x * y).conjugate() == x.conjugate() * y.conjugate()
        assert (x + y).conjugate() == x.conjugate() + y.conjugate()

    @given(quadnums())
    def test_norm_identity(self, x):
        norm = x * x.conjugate()
        assert norm == x.a * x.a - x.b * x.b * x.d


class TestMinimalPoly:
    def test_rational(self):
        mp = minimal_poly_degree(QuadNum(5, 0, 2))
        assert mp.degree == 1 and mp.coeffs == (F(-5), F(1))

    def test_sqrt2(self):
        mp = minimal_poly_degree(RT2)
        assert mp.degree == 2 and mp.coeffs == (F(-2), F(0), F(1))

    def test_golden_ratio(self):
        # oracle: expand (x-φ)(x-φ̄) = x² - x - 1
        mp = minimal_poly_degree(PHI)
        assert mp.degree == 2 and mp.coeffs == (F(-1), F(-1), F(1))
        assert mp(PHI) == 0


class TestMatrices:
    def test_identity_trace(self):
        assert QuadMatrix.identity(5).trace() == 2

    def test_parabolic_product(self):
        # [[1,4a],[0,1]]·[[1,0],[4a,1]] = [[1+16a², 4a],[4a, 1]]
        a = PHI
        t = 4 * a
        A = QuadMatrix(1, t, 0, 1)
        B = QuadMatrix(1, 0, t, 1)
        prod = A * B
        assert prod.m11 == 1 + 16 * a * a
        assert prod.m12 == t and prod.m21 == t and prod.m22 == 1
        assert prod.trace() == 2 + 16 * a * a

    def test_unipotent_det(self):
        assert QuadMatrix(1, 4 * PHI, 0, 1).det() == 1

    @given(st.lists(quadnums(), min_size=8, max_size=8))
    def test_trace_commutes(self, entries):
        A = QuadMatrix(*entries[:4])
        B = QuadMatrix(*entries[4:])
        assert (A * B).trace() == (B * A).trace()

    def test_incompatible_d(self):
        with pytest.raises(ValueError):
            QuadMatrix(RT2, 0, 0, QuadNum.sqrt(3))


class TestText:
    @given(quadnums())
    def test_round_trip(self, x):
        assert QuadNum.parse(str(x)) == x

    @given(quadnums(3))
    def test_round_trip_other_field(self, x):
        assert QuadNum.parse(str(x)) == x

    def test_documented_format(self):
        assert QuadNum.parse("1/2 + 1/2*sqrt(5)") == PHI
        assert QuadNum.parse("-3/4") == QuadNum(F(-3, 4), 0, 2)
        assert QuadNum.parse("sqrt(2)") == RT2
        assert QuadNum.parse("-sqrt(2)") == -RT2
        # regression: a fraction coefficient must not shed digits into a
        # phantom rational term ("1/10*sqrt(5)" once parsed as 1/1 + 0·√5)
        assert QuadNum.parse("1/10*sqrt(5)") == QuadNum(0, F(1, 10), 5)

    def test_garbage_rejected(self):
        for bad in ("", "sqrt()", "1 +", "sqrt(8)", "one"):
            with pytest.raises(ValueError):
                QuadNum.parse(bad)
