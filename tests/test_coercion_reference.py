"""`in_one_field` against the three coercers it replaced, kept verbatim.

`reference_coerce_scalars` was flow's `_coerce_scalars` (used by `trace` and
`ShearedSt3`), `reference_as_quad` was lshape's `_as_quad` (used by
`LSurface` and `twist_powers`, and the same rule as `QuadCylinder`'s), and
`reference_matrix_entries` was the field detection in `QuadMatrix.__init__`.
On values of one field (ints, Fractions, and QuadNums over one d, rational
or not) each caller now gives the repr the old coercer gave. Where the old
coercers disagreed with each other, `tests/test_exact_boundary.py` pins the
one rule that replaced them.
"""

from fractions import Fraction
from fractions import Fraction as F
from math import isqrt

from hypothesis import assume, given
from hypothesis import strategies as st

from origamis.cylinders import QuadCylinder
from origamis.flow import ShearedSt3
from origamis.lshape import LSurface, twist_powers
from origamis.quadfield import QuadMatrix, QuadNum, _coerce, in_one_field


def reference_coerce_scalars(*vals):
    """Bring positions and directions into one exact field."""
    ds = {v.d for v in vals if isinstance(v, QuadNum) and not v.is_rational}
    if len(ds) > 1:
        raise ValueError(f"mixed quadratic fields {sorted(ds)} in flow data")
    if ds:
        d = ds.pop()
        return tuple(v if isinstance(v, QuadNum) else QuadNum(Fraction(v), 0, d) for v in vals)
    return tuple(v.a if isinstance(v, QuadNum) else Fraction(v) for v in vals)


def reference_as_quad(x) -> QuadNum:
    return x if isinstance(x, QuadNum) else QuadNum(Fraction(x), 0, 2)


def reference_matrix_entries(m11, m12, m21, m22, d=None):
    entries = [m11, m12, m21, m22]
    ds = {e.d for e in entries if isinstance(e, QuadNum) and e.b != 0}
    if d is not None:
        ds.add(d)
    if len(ds) > 1:
        raise ValueError(f"incompatible fields in matrix entries: {sorted(ds)}")
    dd = ds.pop() if ds else 2
    coerced = []
    for e in entries:
        c = _coerce(e, dd)
        if c is NotImplemented:
            raise TypeError(f"bad matrix entry {e!r}")
        coerced.append(QuadNum(c.a, c.b, dd) if c.b == 0 else c)
    return tuple(coerced)


def reference_twist_powers(L, t):
    t = reference_as_quad(t)
    if not t > 0:
        raise ValueError(f"need t > 0, got {t}")
    k_bottom = t / L.a
    k_top = t * (L.a - 1)
    if k_bottom.is_integer() and k_top.is_integer():
        return int(k_bottom.a), int(k_top.a)
    return None


FIELDS = (2, 3, 5, 13)
rationals = st.builds(F, st.integers(-20, 20), st.integers(1, 8))
nonzero = rationals.filter(bool)


def scalars(d):
    """An int, a Fraction, or a QuadNum over d, rational or not."""
    return st.one_of(
        st.integers(-9, 9),
        rationals,
        rationals.map(lambda r: QuadNum(r, 0, d)),
        st.tuples(rationals, nonzero).map(lambda ab: QuadNum(ab[0], ab[1], d)),
    )


def one_field(size):
    return st.sampled_from(FIELDS).flatmap(lambda d: st.lists(scalars(d), min_size=size, max_size=size))


def _outcome(fn, *args):
    try:
        return repr(fn(*args))
    except ValueError:
        return "ValueError"


@given(st.integers(1, 5).flatmap(one_field))
def test_flow_data_match_coerce_scalars(vals):
    assert repr(in_one_field(*vals)) == repr(reference_coerce_scalars(*vals))


@given(one_field(1))
def test_shear_matches_coerce_scalars(vals):
    (x,) = reference_coerce_scalars(*vals)
    expected = repr(x) if 0 <= x < 1 else "ValueError"
    assert _outcome(lambda: ShearedSt3(*vals).x) == expected


@given(one_field(4), st.booleans())
def test_matrix_entries_match_the_detection_loop(vals, name_the_field):
    irrational = [v.d for v in vals if isinstance(v, QuadNum) and v.b]
    d = (irrational[0] if irrational else 13) if name_the_field else None
    got = QuadMatrix(*vals, d=d).entries()
    assert repr(got) == repr(reference_matrix_entries(*vals, d=d))


def lshape_values(d, low, high):
    """Exact scalars x with low <= x < high: Fractions, ints, and QuadNums
    over d, rational or not."""
    m = isqrt(d)
    rational = st.integers(1, 8).flatmap(lambda q: st.integers(low * q, high * q - 1).map(lambda p: F(p, q)))
    return st.one_of(
        rational,
        rational.filter(lambda r: r.denominator == 1).map(int),
        rational.map(lambda r: QuadNum(r, 0, d)),
        # r·(√d − ⌊√d⌋) lies in [0, r)
        rational.filter(lambda r: r > 0).map(lambda r: low + QuadNum(-m * r, r, d) / high),
    )


@st.composite
def lshape_args(draw):
    """(a, shift) of one field; a rational partner of an irrational value is a
    QuadNum over its d, and with no irrational value every QuadNum is over 2,
    the inputs on which `_as_quad` already gave one field."""
    d = draw(st.sampled_from(FIELDS))
    a = draw(lshape_values(d, 2, 9))
    shift = draw(lshape_values(d, 0, 1))
    if any(isinstance(v, QuadNum) and v.b for v in (a, shift)):
        a, shift = (v if isinstance(v, QuadNum) else QuadNum(v, 0, d) for v in (a, shift))
    else:
        a, shift = (QuadNum(v.a) if isinstance(v, QuadNum) else v for v in (a, shift))
    return a, shift


@given(lshape_args())
def test_lsurface_matches_as_quad(args):
    a, shift = args
    L = LSurface(a, shift)
    assert (repr(L.a), repr(L.shift)) == (repr(reference_as_quad(a)), repr(reference_as_quad(shift)))


@given(lshape_args())
def test_cylinder_matches_as_quad(args):
    assume(args[1] != 0)  # cylinder sides are positive
    c = QuadCylinder(*args)
    assert (repr(c.width), repr(c.height)) == tuple(repr(reference_as_quad(v)) for v in args)


@given(st.sampled_from(FIELDS), st.data())
def test_twist_powers_match_the_reference(disc, data):
    L = LSurface.from_discriminant(disc)
    d = L.a.d
    t = data.draw(st.one_of(scalars(d), st.integers(1, 16).map(lambda k: k * L.a)))
    assert _outcome(twist_powers, L, t) == _outcome(reference_twist_powers, L, t)
