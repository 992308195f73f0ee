"""The division-free trace loop against the loop it replaced.

`reference_trace` is the previous `flow.trace`, kept verbatim: it divides by
the direction at every crossing, moves both coordinates and makes two ordered
comparisons. The package's `trace` must return the same result, events
included, on every input, and raise the same error where it raises.
`_coerce_scalars` is the flow module's scalar coercion of the same version,
kept verbatim with it so that the reference loop is whole.
"""

from fractions import Fraction
from fractions import Fraction as F
from math import floor, isqrt

from hypothesis import given
from hypothesis import strategies as st

from origamis.flow import FlowState, TraceResult, _corner_square, trace
from origamis.origami import Origami
from origamis.perm import Permutation
from origamis.quadfield import QuadNum


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


def _transitive(h, v) -> bool:
    seen = {1}
    todo = [1]
    while todo:
        s = todo.pop()
        for t in (h[s - 1], v[s - 1]):
            if t not in seen:
                seen.add(t)
                todo.append(t)
    return len(seen) == len(h)


@st.composite
def origamis(draw):
    n = draw(st.integers(1, 9))
    while True:
        h = tuple(draw(st.permutations(range(1, n + 1))))
        v = tuple(draw(st.permutations(range(1, n + 1))))
        if _transitive(h, v):
            return Origami(Permutation(h), Permutation(v))


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


def _check(data, starts):
    o = data.draw(origamis())
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
