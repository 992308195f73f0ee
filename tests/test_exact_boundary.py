"""The exact-scalar boundary of the public API.

Every public function or constructor that takes exact scalars accepts ints,
Fractions and QuadNums only: a float, a bool, a string or a Decimal is a
TypeError naming its type, never a value read off its binary expansion.
Values from two quadratic fields are a ValueError at the call, naming both.
The flow's counts (a start square, a crossing bound, a grid) and the
components p and q of a rational direction take ints only: anything else, a
bool included, is a TypeError naming the argument. `discrepancy`'s slope is
a real number read once as a float; a bool, a string or a Decimal is a
TypeError naming it.
"""

import re
from decimal import Decimal
from fractions import Fraction as F

import pytest

from origamis.action import (
    SL2ZWord,
    T_WORD,
    act_point,
    direction_to_horizontal,
    geodesic_endpoints,
    horocycle_data,
    slope_cusp,
    torus_point,
    transport_direction,
    transport_point,
)
from origamis.cylinders import QuadCylinder, RadicalLength, decomposition_in_direction
from origamis.flow import FlowState, ShearedSt3, direction_is_periodic, discrepancy, sheared_st3_return, trace
from origamis.intlattice import hermite_form, rational_hermite_form
from origamis.lshape import LSurface, twist_powers
from origamis.origami import Origami
from origamis.perm import Permutation
from origamis.quadfield import QuadMatrix, QuadNum, exact_rational

ST3 = Origami(Permutation((2, 1, 3)), Permutation((3, 2, 1)))
RT2 = QuadNum.sqrt(2)
RT5 = QuadNum.sqrt(5)
GOLDEN = LSurface.from_discriminant(5)

# each takes the bad value where a number near 1/2 would be accepted
ENTRY_POINTS = {
    "QuadNum a": lambda x: QuadNum(x),
    "QuadNum b": lambda x: QuadNum(1, x, 5),
    "QuadMatrix": lambda x: QuadMatrix(1, x, 0, 1),
    "QuadCylinder width": lambda x: QuadCylinder(x, 1),
    "QuadCylinder height": lambda x: QuadCylinder(RT2, x),
    "LSurface a": lambda x: LSurface(x),
    "LSurface shift": lambda x: LSurface(2, x),
    "from_discriminant shift": lambda x: LSurface.from_discriminant(5, x),
    "twist_powers": lambda x: twist_powers(GOLDEN, x),
    "trace position": lambda x: trace(ST3, FlowState(1, (x, F(1, 3)), (1, 2))),
    "trace direction": lambda x: trace(ST3, FlowState(1, (F(1, 3), F(1, 5)), (1, x))),
    "ShearedSt3": lambda x: ShearedSt3(x),
    "sheared_st3_return": lambda x: sheared_st3_return(x),
    "geodesic_endpoints": lambda x: geodesic_endpoints(((2, x), (1, 1))),
    "horocycle_data": lambda x: horocycle_data(((1, 0), (x, 1))),
    "torus_point": lambda x: torus_point((1, 0), (x, 1)),
    "RadicalLength": lambda x: RadicalLength(x, 2),
    "RadicalLength radicand": lambda x: RadicalLength(1, x),
    "rational_hermite_form": lambda x: rational_hermite_form([(x, 0), (0, 1)]),
    "hermite_form": lambda x: hermite_form([(x, 1), (2, 0)]),
    "act_point x": lambda x: act_point("T", ST3.h.images, 1, x, F(1, 4)),
    "act_point y": lambda x: act_point("S", ST3.h.images, 1, F(1, 4), x),
    "transport_point": lambda x: transport_point(T_WORD, ST3, 1, x, F(1, 4)),
    "transport_point, empty word": lambda x: transport_point(SL2ZWord(), ST3, 1, x, F(1, 4)),
    "transport_direction": lambda x: transport_direction(T_WORD, x, 1),
    "transport_direction, empty word": lambda x: transport_direction(SL2ZWord(), x, 1),
}

BAD = [0.5, True, "1/2", Decimal("0.5")]


@pytest.mark.parametrize("bad", BAD, ids=lambda x: type(x).__name__)
@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_inexact_input_is_a_type_error(name, bad):
    with pytest.raises(TypeError, match=type(bad).__name__):
        ENTRY_POINTS[name](bad)


# each takes the bad value where the int 2 would be accepted
INT_ARGS = {
    "start.square": lambda k: trace(ST3, FlowState(k, (F(1, 3), F(1, 5)), (1, 2))),
    "max_crossings": lambda k: trace(ST3, FlowState(1, (F(1, 3), F(1, 5)), (1, 2)), k),
    "crossings": lambda k: discrepancy(ST3, 1.618, k, 10),
    "grid": lambda k: discrepancy(ST3, 1.618, 10, k),
    "p": lambda k: direction_is_periodic(ST3, k, 1),
    "q": lambda k: direction_is_periodic(ST3, 1, k),
}

BAD_INTS = [2.0, True, F(2), "2", Decimal(2)]


@pytest.mark.parametrize("bad", BAD_INTS, ids=lambda x: type(x).__name__)
@pytest.mark.parametrize("name", sorted(INT_ARGS))
def test_flow_counts_take_ints_only(name, bad):
    with pytest.raises(TypeError, match=rf"^{re.escape(name)} must be an int, got {type(bad).__name__} "):
        INT_ARGS[name](bad)


@pytest.mark.parametrize("name", sorted(INT_ARGS))
def test_flow_counts_accept_ints(name):
    INT_ARGS[name](2)


def test_flow_counts_are_checked_before_any_work():
    # each call is also wrong, or long, in a way its other arguments would report
    with pytest.raises(TypeError, match="start.square"):
        trace(ST3, FlowState(1.0, (F(2), F(0)), (0, 0)), 0)
    with pytest.raises(TypeError, match="max_crossings"):
        trace(ST3, FlowState(1, (F(2), F(0)), (0, 0)), -1.0)
    with pytest.raises(TypeError, match="crossings"):
        discrepancy(ST3, float("nan"), True, 10**9)
    with pytest.raises(TypeError, match="grid"):
        discrepancy(ST3, 1.618, 10**12, True)


DIRECTION_TAKERS = {
    "direction_to_horizontal": lambda p, q: direction_to_horizontal(p, q),
    "decomposition_in_direction": lambda p, q: decomposition_in_direction(ST3, p, q),
    "direction_is_periodic": lambda p, q: direction_is_periodic(ST3, p, q),
    "slope_cusp": lambda p, q: slope_cusp(ST3, p, q),
}


@pytest.mark.parametrize("name", sorted(DIRECTION_TAKERS))
def test_direction_components_take_ints_only(name):
    # (True, 0) once passed as the direction (1, 0) and was recorded as
    # (True, False); a float or a Fraction failed in math.gcd without a name
    call = DIRECTION_TAKERS[name]
    with pytest.raises(TypeError, match=r"^p must be an int, got bool True$"):
        call(True, 0)
    with pytest.raises(TypeError, match=r"^q must be an int, got float 1\.0$"):
        call(1, 1.0)
    with pytest.raises(TypeError, match=r"^p must be an int, got Fraction "):
        call(F(1), 2)
    assert call(1, 0) is not None


@pytest.mark.parametrize("bad", [True, False, "1.618", Decimal("1.618"), None], ids=repr)
def test_discrepancy_slope_is_a_real_number(bad):
    with pytest.raises(TypeError, match=rf"^slope must be a real number, got {type(bad).__name__} "):
        discrepancy(ST3, bad, 10, 3)


@pytest.mark.parametrize("slope", [2, -3, F(1, 3), F(-7, 5), (1 + RT5) / 2])
def test_discrepancy_reads_an_exact_slope_as_its_float(slope):
    assert discrepancy(ST3, slope, 2000, 7) == discrepancy(ST3, float(slope), 2000, 7)


@pytest.mark.parametrize("bad", [0, -3, F(-1, 2)], ids=str)
def test_radical_length_radicand_is_positive(bad):
    with pytest.raises(ValueError, match=f"^radicand {bad} is not positive$"):
        RadicalLength(1, bad)


def test_radical_length_reads_a_rational_radicand():
    # (1/2)·√(8/9) = (1/2)·√72/9 = √2/3; an int radicand gives the same length
    assert RadicalLength(F(1, 2), F(8, 9)) == RadicalLength(F(1, 3), 2) == RadicalLength(F(1, 6), 8)
    assert str(RadicalLength(3, F(1, 4))) == "3/2"


def test_exact_rational_keeps_a_fraction_as_it_is():
    x = F(1, 3)
    assert exact_rational(x) is x
    assert type(exact_rational(3)) is F and exact_rational(3) == 3


def test_hermite_form_takes_ints_only():
    # its callers scale rationals to ints first; a Fraction entry is refused
    # like a float, not truncated by int()
    with pytest.raises(TypeError, match="Fraction"):
        hermite_form([(F(1, 2), 1), (2, 0)])
    assert hermite_form([(1, 1), (2, 0)]) == [(1, 1), (0, 2)]


TWO_FIELDS = {
    "LSurface": lambda: LSurface(GOLDEN.a, RT2 / 4),
    "twist_powers": lambda: twist_powers(GOLDEN, 4 * RT2),
    "QuadCylinder": lambda: QuadCylinder(RT2, RT5),
    "QuadMatrix": lambda: QuadMatrix(RT2, 0, 0, RT5),
    "trace": lambda: trace(ST3, FlowState(1, (RT2 / 4, F(1, 3)), (RT5, 1))),
}


@pytest.mark.parametrize("name", sorted(TWO_FIELDS))
def test_two_fields_are_refused_at_the_call(name):
    with pytest.raises(ValueError, match=r"two fields, Q\[sqrt\(2\)\] and Q\[sqrt\(5\)\]"):
        TWO_FIELDS[name]()


class TestPlacement:
    """Where the replaced coercers disagreed, one rule holds: the values of a
    call share a field, and a rational value takes the field of its
    irrational partner, or d = 2 when it has none."""

    def test_rational_shift_joins_the_field_of_a(self):
        L = LSurface(GOLDEN.a, F(1, 3))
        assert L.shift == F(1, 3) and L.shift.d == 5

    def test_rational_a_joins_the_field_of_the_shift(self):
        L = LSurface(2, RT5 / 5)
        assert L.a == 2 and L.a.d == 5

    def test_rational_quadnum_without_partner_is_over_2(self):
        L = LSurface(QuadNum(3, 0, 5))
        assert L.a == 3 and L.a.d == 2 and L.shift.d == 2

    def test_cylinder_sides_share_a_field(self):
        c = QuadCylinder(1, RT5)
        assert c.width == 1 and c.width.d == 5

    def test_rational_quadnum_of_another_field_is_moved(self):
        # a rational is the same number in every field
        res = trace(ST3, FlowState(1, (QuadNum(F(1, 2), 0, 3), F(1, 3)), (RT5, 1)), 3, record_events=True)
        assert {e[2].d for e in res.events} | {e[3].d for e in res.events} == {5}

    def test_matrix_d_names_the_field_of_rational_entries(self):
        assert QuadMatrix.identity(5).d == 5
        assert QuadMatrix(1, 0, 0, 1).d == 2
        assert QuadMatrix(RT5, 0, 0, 1, d=5).d == 5
        with pytest.raises(ValueError, match=r"Q\[sqrt\(2\)\], not in the given Q\[sqrt\(3\)\]"):
            QuadMatrix(RT2, 0, 0, 1, d=3)
