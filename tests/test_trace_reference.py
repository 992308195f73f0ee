"""The chord-invariant trace loop against an older loop that moves the point.

The package's `trace` keeps, per crossing, only the chord of the square the
flow runs on, as an integer pair, and rebuilds times and points from wall
counts. `reference_trace` is an earlier `flow.trace`, kept verbatim: it
divides by the direction at every crossing, moves both coordinates and makes
two ordered comparisons. The package's `trace` must return the same result,
events, time types and field included, on every input, and raise the same
error where it raises. The strategies cover generic starts, axis directions,
directions through lattice corners, and starts on a wall (the one the flow
enters by or the one it leaves by), with axis directions along a grid line;
one test follows a quadratic direction for 2 000 recorded crossings. The
reference keeps every state in a dict, and `trace` keeps two: the start,
when it lies on an entry wall, and the state after the first crossing.
Explicit examples pin both ways an orbit can close, and a rational orbit
whose period is over 2 000 crossings.
`_coerce_scalars` is the flow module's scalar coercion of the reference's
version, kept verbatim with it so that the reference loop is whole.
"""

from fractions import Fraction
from fractions import Fraction as F
from math import floor, isqrt

from hypothesis import given
from hypothesis import strategies as st

from origamis.flow import FlowState, TraceResult, _corner_square, trace
from origamis.origami import Origami, st3, torus
from origamis.perm import Permutation
from origamis.quadfield import QuadNum
from strategies import transitive_origamis


def _coerce_scalars(*vals):
    """Bring positions and directions into one exact field."""
    ds = {v.d for v in vals if isinstance(v, QuadNum) and not v.is_rational}
    if len(ds) > 1:
        raise ValueError(f"mixed quadratic fields {sorted(ds)} in flow data")
    if ds:
        d = ds.pop()
        return tuple(v if isinstance(v, QuadNum) else QuadNum(Fraction(v), 0, d) for v in vals)
    return tuple(v.a if isinstance(v, QuadNum) else Fraction(v) for v in vals)


def reference_trace(o, start, max_crossings=10_000, record_events=False):
    if max_crossings < 1:
        raise ValueError(f"max_crossings must be at least 1, got {max_crossings}")
    x, y, p, q = _coerce_scalars(*start.pos, *start.direction)
    if not p and not q:
        raise ValueError("zero direction")
    if not (0 <= x <= 1 and 0 <= y <= 1):
        raise ValueError(f"position ({x}, {y}) outside the unit square")
    sq = start.square
    if not 1 <= sq <= o.n:
        raise ValueError(f"square {sq} out of range 1..{o.n}")
    singular = o.singular
    if x in (0, 1) and y in (0, 1):
        if singular[_corner_square(o, sq, int(x == 1), int(y == 1)) - 1]:
            raise ValueError("flow started at a singular vertex")

    # the square entered across a vertical or a horizontal edge
    step_x = (o.h if p > 0 else o.h.inverse()).images
    step_y = (o.v if q > 0 else o.v.inverse()).images
    zero = x - x  # additive zero of the working field
    time = zero
    radicand = p * p + q * q
    seen = {(sq, x, y): time}
    events = []
    for crossing in range(1, max_crossings + 1):
        tx = ((1 - x) / p) if p > 0 else ((-x) / p if p < 0 else None)
        ty = ((1 - y) / q) if q > 0 else ((-y) / q if q < 0 else None)
        if tx is None:
            t, hit_x, hit_y = ty, False, True
        elif ty is None:
            t, hit_x, hit_y = tx, True, False
        elif tx < ty:
            t, hit_x, hit_y = tx, True, False
        elif ty < tx:
            t, hit_x, hit_y = ty, False, True
        else:
            t, hit_x, hit_y = tx, True, True
        x, y, time = x + t * p, y + t * q, time + t
        if hit_x and hit_y:
            cx, cy = int(p > 0), int(q > 0)
            if singular[_corner_square(o, sq, cx, cy) - 1]:
                return TraceResult(False, True, crossing, time, None, radicand, tuple(events))
            # regular corner: the commutator fixes it, so the horizontal and
            # vertical steps commute there and either order reaches the diagonal square
            sq = step_y[step_x[sq - 1] - 1]
            x, y = 1 - x + zero, 1 - y + zero
        elif hit_x:
            sq = step_x[sq - 1]
            x = zero if p > 0 else 1 + zero
        else:
            sq = step_y[sq - 1]
            y = zero if q > 0 else 1 + zero
        # a trajectory running along a grid line passes through lattice corners;
        # those are surface vertices and must stop the orbit when singular
        if x in (0, 1) and y in (0, 1):
            if singular[_corner_square(o, sq, int(x == 1), int(y == 1)) - 1]:
                return TraceResult(False, True, crossing, time, None, radicand, tuple(events))
        state = (sq, x, y)
        if record_events:
            events.append((time, sq, x, y))
        if state in seen:
            return TraceResult(True, False, crossing, time, time - seen[state], radicand, tuple(events))
        seen[state] = time
    return TraceResult(False, False, max_crossings, time, None, radicand, tuple(events))


def _outcome(fn, o, start, m):
    try:
        return repr(fn(o, start, m, record_events=True))
    except ValueError as exc:
        return f"ValueError: {exc}"


origamis = transitive_origamis(9)


FIELDS = (2, 3, 5, 13)
unit_rationals = st.integers(1, 12).flatmap(lambda m: st.integers(0, m).map(lambda k: F(k, m)))
small_rationals = st.builds(F, st.integers(-6, 6), st.integers(1, 6))
crossing_bounds = st.one_of(st.integers(1, 6), st.integers(1, 80))


def unit_quads(d):
    """Points of [0, 1] in Q[√d]: a rational, or r·(√d − ⌊√d⌋) with r in [0, 1]."""
    m = isqrt(d)
    return st.one_of(
        unit_rationals.map(lambda r: QuadNum(r, 0, d)),
        unit_rationals.map(lambda r: QuadNum(-m * r, r, d)),
    )


@st.composite
def fraction_starts(draw, o):
    p, q = draw(st.tuples(st.integers(-5, 5), st.integers(-5, 5)).filter(lambda pq: pq != (0, 0)))
    pos = (draw(unit_rationals), draw(unit_rationals))
    return FlowState(draw(st.integers(1, o.n)), pos, (F(p), F(q)))


@st.composite
def quad_starts(draw, o):
    d = draw(st.sampled_from(FIELDS))
    coef = st.tuples(small_rationals, small_rationals).map(lambda ab: QuadNum(ab[0], ab[1], d))
    p, q = draw(st.tuples(coef, coef).filter(lambda pq: pq[0] or pq[1]))
    pos = (draw(unit_quads(d)), draw(unit_quads(d)))
    return FlowState(draw(st.integers(1, o.n)), pos, (p, q))


@st.composite
def axis_starts(draw, o):
    """p = 0 or q = 0, with Fraction or Q[√d] data."""
    d = draw(st.sampled_from(FIELDS))
    speed = draw(st.sampled_from((F(1), F(-3, 2), QuadNum(0, 1, d), QuadNum(1, -1, d))))
    direction = (speed, 0) if draw(st.booleans()) else (0, speed)
    pos = (draw(unit_quads(d)), draw(unit_quads(d)))
    return FlowState(draw(st.integers(1, o.n)), pos, direction)


@st.composite
def corner_starts(draw, o):
    """A Q[√d] multiple c·(u, v) of a rational direction from a rational point
    of the line through a lattice corner, so the orbit meets corners and can
    end at a singular one."""
    d = draw(st.sampled_from(FIELDS))
    u, v = draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(lambda uv: uv != (0, 0)))
    c = QuadNum(draw(small_rationals), draw(small_rationals.filter(bool)), d)
    s = draw(unit_rationals)
    pos = (s * u - floor(s * u), s * v - floor(s * v))
    return FlowState(draw(st.integers(1, o.n)), pos, (c * u, c * v))


@st.composite
def wall_starts(draw, o):
    """One coordinate exactly 0 or 1, so the start lies on the wall the flow
    enters by or on the one it leaves by; an axis direction runs along that
    grid line."""
    d = draw(st.sampled_from(FIELDS))
    wall = draw(st.sampled_from((F(0), F(1))))
    other = draw(unit_quads(d))
    speed = st.one_of(small_rationals.filter(bool), st.sampled_from((QuadNum(0, 1, d), QuadNum(1, -1, d))))
    kind = draw(st.sampled_from(("oblique", "vertical", "horizontal")))
    if kind == "vertical":
        return FlowState(draw(st.integers(1, o.n)), (wall, other), (0, draw(speed)))
    if kind == "horizontal":
        return FlowState(draw(st.integers(1, o.n)), (other, wall), (draw(speed), 0))
    direction = (draw(speed), draw(speed))
    pos = (wall, other) if draw(st.booleans()) else (other, wall)
    return FlowState(draw(st.integers(1, o.n)), pos, direction)


# pairwise coprime denominators up to 10¹², so that the common denominator D
# of a start is the product of its four
COPRIME_DENOMINATORS = (7, 2**39, 3**25, 1_000_003, 1_000_000_007, 999_999_999_989, 999_999_999_961)


@st.composite
def coprime_starts(draw, o):
    """x, y, p and q with four different denominators from COPRIME_DENOMINATORS,
    each numerator free, so the position may lie on a wall or a corner."""
    dx, dy, dp, dq = draw(st.permutations(COPRIME_DENOMINATORS))[:4]
    x, y = F(draw(st.integers(0, dx)), dx), F(draw(st.integers(0, dy)), dy)
    speed = st.integers(-5, 5).flatmap(lambda k: st.integers(k * 10**12 - 10**12, k * 10**12 + 10**12))
    p, q = draw(st.tuples(speed, speed).filter(lambda pq: pq != (0, 0)))
    return FlowState(draw(st.integers(1, o.n)), (x, y), (F(p, dp), F(q, dq)))


@st.composite
def split_denominator_starts(draw, o):
    """Q[√d] data whose rational and √d parts have different (coprime)
    denominators: p and q are r + s·√d, and x and y are (r + s·(√d − ⌊√d⌋))/2
    with r and s in [0, 1]."""
    d = draw(st.sampled_from(FIELDS))
    m = isqrt(d)
    da, db = draw(st.permutations(COPRIME_DENOMINATORS))[:2]
    part = st.integers(-3, 3).map(lambda k: F(k * da + 1, da) if k else F(0))
    root = st.integers(-3, 3).map(lambda k: F(k * db - 1, db) if k else F(0))
    coef = st.tuples(part, root).map(lambda ab: QuadNum(ab[0], ab[1], d))
    p, q = draw(st.tuples(coef, coef).filter(lambda pq: pq[0] or pq[1]))

    def unit():
        r, s = F(draw(st.integers(0, da)), da), F(draw(st.integers(0, db)), db)
        return QuadNum((r - s * m) / 2, s / 2, d)

    return FlowState(draw(st.integers(1, o.n)), (unit(), unit()), (p, q))


@st.composite
def far_wall_starts(draw, o):
    """A negative direction from the x = 1 or the y = 1 wall, which the
    mirroring turns into the wall the flow enters by; Fraction or Q[√d] data,
    the other coordinate free (a corner included) and the other speed of any
    sign, zero included."""
    d = draw(st.sampled_from(FIELDS))
    back = st.one_of(
        small_rationals.filter(lambda r: r < 0),
        st.sampled_from((QuadNum(0, -1, d), QuadNum(1, -1, d), QuadNum(F(-1, 3), F(1, 7), d))),
    )
    other_speed = st.one_of(small_rationals, st.sampled_from((QuadNum(0, 1, d), QuadNum(1, -1, d))))
    other = draw(unit_quads(d))
    if draw(st.booleans()):
        return FlowState(draw(st.integers(1, o.n)), (F(1), other), (draw(back), draw(other_speed)))
    return FlowState(draw(st.integers(1, o.n)), (other, F(1)), (draw(other_speed), draw(back)))


def _check(data, starts):
    o = data.draw(origamis)
    start = data.draw(starts(o))
    m = data.draw(crossing_bounds)
    assert _outcome(trace, o, start, m) == _outcome(reference_trace, o, start, m)


@given(st.data())
def test_fraction_data_matches_the_reference(data):
    _check(data, fraction_starts)


@given(st.data())
def test_quadratic_data_matches_the_reference(data):
    _check(data, quad_starts)


@given(st.data())
def test_axis_directions_match_the_reference(data):
    _check(data, axis_starts)


@given(st.data())
def test_corner_directions_match_the_reference(data):
    _check(data, corner_starts)


@given(st.data())
def test_wall_starts_match_the_reference(data):
    _check(data, wall_starts)


@given(st.data())
def test_coprime_denominators_match_the_reference(data):
    _check(data, coprime_starts)


@given(st.data())
def test_split_denominators_match_the_reference(data):
    _check(data, split_denominator_starts)


@given(st.data())
def test_negative_directions_from_the_far_walls_match_the_reference(data):
    _check(data, far_wall_starts)


def test_bad_bound_matches_the_reference():
    o = Origami(Permutation((2, 1)), Permutation((1, 2)))
    start = FlowState(1, (F(1, 3), F(1, 5)), (F(1), F(2)))
    for m in (0, -1):
        assert _outcome(trace, o, start, m) == _outcome(reference_trace, o, start, m)


def test_quadratic_singular_end_matches_the_reference():
    # St(3) = h (1 2), v (1 3): one cone point of angle 6π. From the centre
    # of a square, the direction (√2, √2) runs through lattice corners only.
    rt2 = QuadNum.sqrt(2)
    o = Origami(Permutation((2, 1, 3)), Permutation((3, 2, 1)))
    ends = set()
    for sq in range(1, 4):
        for u, v in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            start = FlowState(sq, (F(1, 2), F(1, 2)), (u * rt2, v * rt2))
            got = trace(o, start, 50, record_events=True)
            assert repr(got) == repr(reference_trace(o, start, 50, record_events=True))
            assert got.radicand == 4 and got.total_time.b != 0
            ends.add(got.singular)
    assert ends == {True}


def test_long_quadratic_orbit_matches_the_reference_event_by_event():
    # 2 000 crossings of two quadratic slopes, where the chord pair (U, V)
    # grows with every crossing and no state recurs
    o = Origami(Permutation((2, 3, 4, 5, 1)), Permutation((1, 3, 2, 5, 4)))
    for start in (
        FlowState(2, (F(1, 3), F(2, 7)), (F(1), QuadNum(0, 1, 5))),
        FlowState(4, (F(0), F(5, 9)), (QuadNum(-1, 1, 2), F(-2, 3))),
    ):
        got = trace(o, start, 2000, record_events=True)
        assert repr(got) == repr(reference_trace(o, start, 2000, record_events=True))
        assert (got.periodic, got.singular, got.crossings, len(got.events)) == (False, False, 2000, 2000)


def test_a_corner_start_closes_on_the_state_after_the_first_crossing():
    # (0, 0) in direction (1, −1) lies on the wall y = 0 the flow leaves by, so
    # its state never recurs; the orbit closes on the first crossing's state
    start = FlowState(1, (F(0), F(0)), (F(1), F(-1)))
    got = trace(torus(), start, 2, record_events=True)
    assert repr(got) == repr(reference_trace(torus(), start, 2, record_events=True))
    assert (got.periodic, got.crossings, got.period_time) == (True, 2, 1)


def test_a_start_on_an_entry_wall_closes_on_itself():
    # from the left wall of square 2 of St(3), the direction (2, 3) is back at
    # its start after 5 crossings, one time unit: the period is the whole time
    start = FlowState(2, (F(0), F(2, 7)), (F(2), F(3)))
    got = trace(st3(), start, 100, record_events=True)
    assert repr(got) == repr(reference_trace(st3(), start, 100, record_events=True))
    assert (got.periodic, got.crossings) == (True, 5)
    assert got.period_time == got.total_time == 1


def test_a_long_rational_orbit_matches_the_reference_event_by_event():
    # the direction (401, −333) on five squares closes after 2 203 crossings
    o = Origami(Permutation((2, 3, 4, 5, 1)), Permutation((1, 3, 2, 5, 4)))
    start = FlowState(2, (F(1, 3), F(2, 7)), (F(401), F(-333)))
    got = trace(o, start, 3000, record_events=True)
    assert repr(got) == repr(reference_trace(o, start, 3000, record_events=True))
    assert (got.periodic, got.singular, got.crossings, got.period_time) == (True, False, 2203, 3)
