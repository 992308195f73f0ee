import re
from decimal import Decimal, localcontext
from fractions import Fraction as F
from math import isqrt

import pytest
from hypothesis import given
from hypothesis import strategies as st

from origamis.quadfield import MAX_D, QuadMatrix, QuadNum, _square_part, minimal_poly_degree

PHI = QuadNum(F(1, 2), F(1, 2), 5)
RT2 = QuadNum.sqrt(2)

rationals = st.builds(F, st.integers(-50, 50), st.integers(1, 12))


def quadnums(d=5):
    return st.tuples(rationals, rationals).map(lambda ab: QuadNum(ab[0], ab[1], d))


FIELDS = (2, 3, 5, 13)


@st.composite
def field_pairs(draw):
    """Two numbers of one Q[√d]; either may be a rational carrying another d."""
    d = draw(st.sampled_from(FIELDS))

    def one():
        x = draw(quadnums(d))
        return QuadNum(x.a, 0, draw(st.sampled_from(FIELDS))) if draw(st.booleans()) else x

    return one(), one()


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

    def test_radicand_bound(self):
        # trial division to d^(1/3) stays under 10⁶ steps
        assert QuadNum.sqrt(999_999_999_999_999_989).d == 999_999_999_999_999_989  # an 18-digit prime
        for bad in (MAX_D + 1, 10**24 + 7):
            with pytest.raises(ValueError, match=f"d must satisfy 2 <= d <= {MAX_D}, got {bad}"):
                QuadNum.sqrt(bad)
        with pytest.raises(ValueError, match="d must satisfy 2 <= d <="):
            QuadNum.parse("1 + sqrt(1000000000000000000000007)")

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

    @pytest.mark.parametrize("text", ["3/2*sqrt(5)", "-3/2*sqrt(5)", "sqrt(7)", "-sqrt(7)"])
    def test_pure_roots_round_trip(self, text):
        x = QuadNum.parse(text)
        assert x.a == 0 and str(x) == text and QuadNum.parse(str(x)) == x

    def test_garbage_rejected(self):
        for bad in ("", "sqrt()", "1 +", "sqrt(8)", "one"):
            with pytest.raises(ValueError):
                QuadNum.parse(bad)

    @pytest.mark.parametrize("text", ["1/0", "1/0*sqrt(5)", "1/0 + sqrt(5)", "1 + 2/00*sqrt(5)"])
    def test_a_zero_denominator_is_a_parse_error(self, text):
        # it was a bare ZeroDivisionError, "Fraction(1, 0)", naming no input
        with pytest.raises(ValueError, match=rf"^cannot parse QuadNum: {re.escape(repr(text))}$"):
            QuadNum.parse(text)


class TestValidation:
    @pytest.mark.parametrize(
        "d, error", [(4, ValueError), (1, ValueError), (0, ValueError), (True, TypeError), (2.0, TypeError)]
    )
    def test_public_constructor_checks_d(self, d, error):
        with pytest.raises(error):
            QuadNum(1, 0, d)

    @pytest.mark.parametrize("k", [True, False, 1.0, -1], ids=repr)
    def test_powers_are_non_negative_ints(self, k):
        # a bool or a float is no int, as everywhere in the package; a negative int is out of range
        if type(k) is int:
            error, message = ValueError, "^only non-negative integer powers$"
        else:
            error, message = TypeError, rf"^exponent must be an int, got {type(k).__name__} {k!r}$"
        with pytest.raises(error, match=message):
            QuadNum(1, 1, 5) ** k

    def test_mixed_irrational_fields_do_not_compare(self):
        for op in ("__lt__", "__le__", "__gt__", "__ge__"):
            with pytest.raises(ValueError, match="incompatible"):
                getattr(RT2, op)(QuadNum.sqrt(3))
        assert RT2 != QuadNum.sqrt(3)


class TestForeignOperands:
    def test_float_over_quadnum_is_a_type_error(self):
        # regression: __rtruediv__ once returned NotImplemented / self and recursed
        with pytest.raises(TypeError, match="'float' and 'QuadNum'"):
            1.5 / RT2

    def test_float_minus_quadnum_names_the_float_first(self):
        with pytest.raises(TypeError, match="'float' and 'QuadNum'"):
            1.5 - RT2

    def test_quadnum_and_float(self):
        for op in (lambda: RT2 / 1.5, lambda: RT2 - 1.5, lambda: RT2 + 1.5, lambda: RT2 * 1.5):
            with pytest.raises(TypeError, match="'QuadNum' and 'float'"):
                op()
        with pytest.raises(TypeError):
            RT2 < 1.5

    def test_reflected_int_and_fraction_operands(self):
        assert 1 - RT2 == QuadNum(1, -1, 2)
        assert F(1, 2) / RT2 == QuadNum(0, F(1, 4), 2)
        assert 3 / QuadNum(3, 0, 7) == 1
        assert 2 / (1 + RT2) == QuadNum(-2, 2, 2)


class TestHash:
    def test_rational_quadnums_hash_like_their_fraction(self):
        assert 3 in {QuadNum(3)}
        assert QuadNum(3) in {3}
        assert F(1, 2) in {QuadNum(F(1, 2), 0, 5)}
        assert QuadNum(F(1, 2), 0, 5) in {F(1, 2)}
        assert QuadNum(F(1, 2), 0, 5) in {QuadNum(F(1, 2), 0, 13)}
        assert QuadNum(F(1, 2), 0, 13) in {QuadNum(F(1, 2), 0, 5)}

    def test_irrationals_of_different_fields_stay_apart(self):
        assert len({QuadNum(1, 1, 2), QuadNum(1, 1, 3), QuadNum(1, 0, 2), QuadNum(1, 0, 3), 1}) == 3

    @given(rationals, st.sampled_from(FIELDS), st.sampled_from(FIELDS))
    def test_rational_hash_is_the_fraction_hash(self, a, d, e):
        assert hash(QuadNum(a, 0, d)) == hash(a) == hash(QuadNum(a, 0, e))
        assert {QuadNum(a, 0, d): 1}[a] == 1 and {a: 1}[QuadNum(a, 0, e)] == 1

    @given(field_pairs())
    def test_equal_numbers_hash_equal(self, xy):
        x, y = xy
        if x == y:
            assert hash(x) == hash(y)


def _decimal(x):
    """a + b·√d to the context's precision, by Decimal alone."""
    if not isinstance(x, QuadNum):
        x = QuadNum(x)
    a = Decimal(x.a.numerator) / Decimal(x.a.denominator)
    b = Decimal(x.b.numerator) / Decimal(x.b.denominator)
    return a + b * Decimal(x.d).sqrt()


class TestOrderAgainstDecimal:
    """The order of Q[√d] against 100-digit decimals. The coefficients are
    small, so two different numbers differ far above the rounding error."""

    @staticmethod
    def _agree(x, y):
        with localcontext() as ctx:
            ctx.prec = 100
            dx, dy = _decimal(x), _decimal(y)
        assert (x < y, x <= y, x > y, x >= y, x == y, x != y) == (
            dx < dy, dx <= dy, dx > dy, dx >= dy, dx == dy, dx != dy
        )

    @given(field_pairs())
    def test_pairs_in_one_field(self, xy):
        self._agree(*xy)

    @given(st.sampled_from(FIELDS).flatmap(quadnums), st.one_of(rationals, st.integers(-9, 9)))
    def test_against_plain_rationals(self, x, r):
        self._agree(x, r)
        self._agree(x, x + r)

    @pytest.mark.parametrize("d", FIELDS)
    def test_near_ties(self, d):
        # p - q·√d for the convergents p/q of √d: a² and b²·d differ by one
        # part in q², and the sign alternates
        m0 = isqrt(d)
        m, den, a = 0, 1, m0
        p_prev, p, q_prev, q = 1, m0, 0, 1
        near = []
        for _ in range(30):
            near.append(QuadNum(p, -q, d))
            m = den * a - m
            den = (d - m * m) // den
            a = (m0 + m) // den
            p_prev, p = p, a * p + p_prev
            q_prev, q = q, a * q + q_prev
        assert {x < 0 for x in near} == {True, False}
        for x in near:
            self._agree(x, 0)
            self._agree(x, -x)
        for x, y in zip(near, near[1:]):
            self._agree(x, y)
            self._agree(x, y + F(1, 10**12))


def _same_fields(r):
    """r equals the public construction QuadNum(r.a, r.b, r.d), field by field."""
    c = QuadNum(r.a, r.b, r.d)
    assert type(r) is QuadNum and (type(r.a), type(r.b), type(r.d)) == (F, F, int)
    assert (r.a, r.b, r.d) == (c.a, c.b, c.d)


class TestTrustedResults:
    @given(field_pairs(), st.one_of(rationals, st.integers(-9, 9)))
    def test_operation_results_are_normalised(self, xy, r):
        x, y = xy
        results = [x + y, x - y, x * y, -x, x.conjugate(), x + r, r + x, x - r, r - x, x * r, r * x, x ** 3]
        if y:
            results.append(x / y)
        if r:
            results.append(x / r)
        if x:
            results.append(r / x)
        for res in results:
            _same_fields(res)


def _square_part_by_trial_to_sqrt(d):
    """The square part by trial division of k² up to √d, the previous loop."""
    s = 1
    k = 2
    while k * k <= d:
        while d % (k * k) == 0:
            d //= k * k
            s *= k
        k += 1
    return s


class TestSquarePart:
    def test_matches_trial_division_to_the_square_root(self):
        assert all(_square_part(d) == _square_part_by_trial_to_sqrt(d) for d in range(-3, 100_000))

    @pytest.mark.parametrize("p", [10_007, 65_521, 99_991])
    @pytest.mark.parametrize("c", [1, 2, 3, 6, 7, 10_009, 4 * 3])
    def test_large_prime_squares(self, p, c):
        # the cofactor left after trial division is p², p²·c or p·c with p above its cube root
        assert _square_part(p * p * c) == _square_part_by_trial_to_sqrt(p * p * c)
        assert _square_part(p * c) == _square_part_by_trial_to_sqrt(p * c)

    def test_fifteen_digit_radicands(self):
        p, q = 1_000_003, 999_983  # primes
        assert _square_part(100_000_000_000_031) == 1  # prime
        assert _square_part(p * q) == 1
        assert _square_part(p * p) == p
        assert _square_part(7 * p * p) == p
        assert _square_part(4 * 9 * p * q) == 6
