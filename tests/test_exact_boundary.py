"""The exact-scalar boundary of the public API.

Every public function or constructor that takes exact scalars accepts ints,
Fractions and QuadNums only: a float, a bool, a string or a Decimal is a
TypeError naming its type, never a value read off its binary expansion.
Values from two quadratic fields are a ValueError at the call, naming both.
"""

from decimal import Decimal
from fractions import Fraction as F

import pytest

from origamis.action import geodesic_endpoints, horocycle_data, torus_point
from origamis.cylinders import QuadCylinder, RadicalLength
from origamis.flow import FlowState, ShearedSt3, sheared_st3_return, trace
from origamis.intlattice import rational_hermite_form
from origamis.lshape import LSurface, twist_powers
from origamis.origami import Origami
from origamis.perm import Permutation
from origamis.quadfield import QuadMatrix, QuadNum

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
    "rational_hermite_form": lambda x: rational_hermite_form([(x, 0), (0, 1)]),
}

BAD = [0.5, True, "1/2", Decimal("0.5")]


@pytest.mark.parametrize("bad", BAD, ids=lambda x: type(x).__name__)
@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_inexact_input_is_a_type_error(name, bad):
    with pytest.raises(TypeError, match=type(bad).__name__):
        ENTRY_POINTS[name](bad)


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
