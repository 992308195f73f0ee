import math
import random
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from origamis.action import apply_word, direction_to_horizontal, transport_direction, transport_point
from origamis.cylinders import RadicalLength, decomposition_in_direction
from origamis.flow import (
    MAX_CELLS,
    FlowState,
    ShearedSt3,
    direction_is_periodic,
    discrepancy,
    sheared_st3_return,
    trace,
)
from origamis.origami import random_origami, st3, st4, torus
from origamis.quadfield import QuadNum

GOLDEN = (1 + math.sqrt(5)) / 2


class TestTrace:
    def test_torus_diagonal(self):
        r = trace(torus(), FlowState(1, (F(1, 3), F(0)), (F(1), F(1))))
        assert r.periodic and r.period_time == 1
        assert str(r.length()) == "sqrt(2)"

    def test_st3_vertical_periods(self):
        r2 = trace(st3(), FlowState(2, (F(1, 2), F(0)), (F(0), F(1))))
        assert r2.periodic and str(r2.length()) == "1"
        r1 = trace(st3(), FlowState(1, (F(1, 2), F(0)), (F(0), F(1))))
        assert r1.periodic and str(r1.length()) == "2"

    def test_st3_diagonal_length(self):
        r = trace(st3(), FlowState(1, (F(0), F(1, 2)), (F(1), F(1))))
        assert r.periodic and str(r.length()) == "3*sqrt(2)"

    def test_singular_orbit_detected(self):
        # up the left edge of square 1 runs into the 6π cone point
        r = trace(st3(), FlowState(1, (F(0), F(1, 2)), (F(0), F(1))))
        assert r.singular and not r.periodic

    def test_regular_vertex_passthrough(self):
        r = trace(torus(), FlowState(1, (F(0), F(1, 2)), (F(0), F(1))))
        assert r.periodic and str(r.length()) == "1"

    def test_diagonal_through_regular_corner(self):
        r = trace(torus(), FlowState(1, (F(0), F(0)), (F(1), F(1))))
        assert r.periodic and str(r.length()) == "sqrt(2)"

    def test_start_at_singular_vertex_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            trace(st3(), FlowState(1, (F(0), F(0)), (F(1), F(1))))

    def test_start_off_the_surface_rejected(self):
        with pytest.raises(ValueError, match=r"position \(3/2, 1/3\) outside the unit square"):
            trace(st3(), FlowState(1, (F(3, 2), F(1, 3)), (F(1), F(2))))
        for sq in (0, 4):
            with pytest.raises(ValueError, match=rf"^square {sq} out of range 1\.\.3$"):
                trace(st3(), FlowState(sq, (F(1, 2), F(1, 3)), (F(1), F(2))))

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError):
            trace(torus(), FlowState(1, (F(1, 2), F(1, 2)), (F(0), F(0))))

    def test_irrational_slope_never_recurs(self):
        rt2 = QuadNum.sqrt(2)
        r = trace(torus(), FlowState(1, (F(0), F(0)), (QuadNum(1, 0, 2), rt2)), max_crossings=60)
        assert not r.periodic and not r.singular and r.crossings == 60

    def test_negative_direction(self):
        r = trace(st3(), FlowState(1, (F(1, 2), F(1)), (F(0), F(-1))))
        assert r.periodic and r.period_time == 2

    @pytest.mark.parametrize(
        "o, start",
        [
            (st3(), FlowState(1, (F(1, 3), F(2, 7)), (F(1), QuadNum(0, 1, 5)))),
            (torus(), FlowState(1, (F(1, 3), F(2, 7)), (F(999999), F(1000000)))),
        ],
        ids=["quadratic St(3)", "torus (999999, 1000000)"],
    )
    def test_a_long_trace_keeps_constant_memory(self, o, start):
        # two states are kept, not one per crossing: a trace that keeps every
        # state peaks at 23-26 MB on these
        tracemalloc.start()
        try:
            r = trace(o, start, 100_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (r.periodic, r.singular, r.crossings) == (False, False, 100_000)
        assert peak < 64 * 1024, f"peak {peak} bytes"

    def test_diagonal_steps_match_the_four_way_reference(self):
        # from a square centre, a diagonal direction passes through a corner at
        # every crossing; the reference steps with the four composite cases
        def reference(o, sq, p, q):
            h, v, hi, vi = o.h, o.v, o.h.inverse(), o.v.inverse()
            c = o.commutator
            entered = []
            while True:
                corner = {(1, 1): v(h(sq)), (1, -1): h(sq), (-1, 1): v(sq), (-1, -1): sq}[(p, q)]
                if c(corner) != corner:
                    return entered, True
                if p > 0:
                    sq = v(h(sq)) if q > 0 else vi(h(sq))
                else:
                    sq = hi(v(sq)) if q > 0 else hi(vi(sq))
                if sq in entered:
                    return entered + [sq], False
                entered.append(sq)

        rng = random.Random(11)
        singular = traced = 0
        for _ in range(160):
            o = random_origami(rng.randint(1, 9), rng)
            for sq in range(1, o.n + 1):
                for p, q in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                    r = trace(o, FlowState(sq, (F(1, 2), F(1, 2)), (F(p), F(q))), record_events=True)
                    entered, hit = reference(o, sq, p, q)
                    assert [e[1] for e in r.events] == entered
                    assert (r.singular, r.periodic) == (hit, not hit)
                    singular += hit
                    traced += 1
        assert traced > 2000 and 0 < singular < traced


class TestLength:
    """length() is period·√(p² + q²) as w·√r, w rational and r a squarefree
    int, whenever the direction is rational."""

    def test_fractional_direction(self):
        # p² + q² = 1/9 + 1/4 = 13/36, so the length is 12·√13/6
        r = trace(st3(), FlowState(1, (F(1, 7), F(1, 3)), (F(1, 3), F(1, 2))))
        assert (r.periodic, r.period_time, r.radicand) == (True, 12, F(13, 36))
        assert r.length() == RadicalLength(2, 13) and str(r.length()) == "2*sqrt(13)"

    def test_rational_direction_from_a_quadratic_start(self):
        rt2 = QuadNum.sqrt(2)
        r = trace(st3(), FlowState(1, (rt2 / 6, F(1, 3)), (1, 2)))
        assert isinstance(r.radicand, QuadNum) and str(r.length()) == "sqrt(5)"

    @pytest.mark.parametrize(
        "direction, error",
        [((QuadNum.sqrt(2), QuadNum.sqrt(2)), "irrational period"),
         ((1 + QuadNum.sqrt(2), 1 + QuadNum.sqrt(2)), "irrational radicand")],
        ids=["sqrt2-sqrt2", "1+sqrt2-1+sqrt2"],
    )
    def test_irrational_direction_has_no_rational_length(self, direction, error):
        r = trace(st3(), FlowState(1, (F(1, 6), F(1, 3)), direction))
        assert r.periodic
        with pytest.raises(ValueError, match=f"^{error}: the length is not"):
            r.length()

    def test_non_periodic_result_has_no_length(self):
        r = trace(torus(), FlowState(1, (F(0), F(0)), (F(1), QuadNum.sqrt(2))), max_crossings=20)
        with pytest.raises(ValueError, match="orbit was not found periodic"):
            r.length()


class TestPeriodicity:
    def test_st3_45_degrees(self):
        w = direction_is_periodic(st3(), 1, 1)
        assert w.periodic and w.cylinder_count == 1
        assert [str(x) for x in w.lengths] == ["3*sqrt(2)"]

    def test_st3_vertical(self):
        w = direction_is_periodic(st3(), 0, 1)
        assert sorted(str(x) for x in w.lengths) == ["1", "2"]

    def test_torus_any_slope(self):
        w = direction_is_periodic(torus(), 3, 5)
        assert [str(x) for x in w.lengths] == ["sqrt(34)"]

    def test_trace_period_matches_cylinder_width(self):
        for o, p, q in ((st3(), 0, 1), (st4(), 0, 1), (st4(), 1, 1)):
            dd = decomposition_in_direction(o, p, q)
            widths = {c.width for c in dd.cylinders}
            for cyl in dd.cylinders:
                s = min(cyl.rows[0])
                r = trace(dd.transported, FlowState(s, (F(0), F(1, 2)), (F(1), F(0))))
                assert r.periodic and r.period_time in widths


def _point_reps(o, sq, x, y):
    """All (square, x, y) representatives of one surface point."""
    seen = {(sq, x, y)}
    frontier = [(sq, x, y)]
    while frontier:
        s, a, b = frontier.pop()
        cands = []
        if a == 0:
            cands.append((o.h.inverse()(s), a + 1, b))
        if a == 1:
            cands.append((o.h(s), a - 1, b))
        if b == 0:
            cands.append((o.v.inverse()(s), a, b + 1))
        if b == 1:
            cands.append((o.v(s), a, b - 1))
        for c in cands:
            if c not in seen:
                seen.add(c)
                frontier.append(c)
    return seen


class TestTransportConsistency:
    @pytest.mark.parametrize("p,q", [(1, 1), (1, 2), (2, 1), (1, -2)])
    @pytest.mark.parametrize("make", [st3, st4])
    def test_events_match_transported_trace(self, make, p, q):
        o = make()
        w = direction_to_horizontal(p, q)
        o2 = apply_word(w, o)
        pp, qq = transport_direction(w, p, q)
        assert (pp, qq) in ((1, 0), (-1, 0))
        x0, y0 = F(1, 3), F(1, 7)
        o2b, s2, x2, y2 = transport_point(w, o, 1, x0, y0)
        assert o2b == o2
        r1 = trace(o, FlowState(1, (x0, y0), (F(p), F(q))), 300, record_events=True)
        r2 = trace(o2, FlowState(s2, (x2, y2), (F(pp), F(qq))), 25, record_events=True)
        timeline = [(F(0), 1, x0, y0)] + [e for e in r1.events]

        def original_position(tau):
            # the original orbit closed up; fold later times back by its period
            while r1.periodic and tau > r1.total_time:
                tau -= r1.period_time
            assert tau <= r1.total_time
            last = timeline[0]
            for e in timeline:
                if e[0] <= tau:
                    last = e
                else:
                    break
            t, s, a, b = last
            return s, a + (tau - t) * p, b + (tau - t) * q

        for tau, s2e, x2e, y2e in r2.events:
            s, a, b = original_position(tau)
            _, ts, tx, ty = transport_point(w, o, s, a, b)
            assert _point_reps(o2, ts, tx, ty) & _point_reps(o2, s2e, x2e, y2e), (
                f"at time {tau}: transported ({ts},{tx},{ty}) vs traced ({s2e},{x2e},{y2e})"
            )


class TestShearedSt3:
    def test_no_shear(self):
        r = sheared_st3_return(0)
        assert r.periodic_cylinder_length == 1
        assert r.big_cylinder_rotation == 0 and r.rotation_is_rational
        assert not r.big_cylinder_dense
        # unsheared, the model must reproduce the staircase's vertical periods
        assert r.big_cylinder_orbit_length == 2
        direct = trace(st3(), FlowState(1, (F(1, 2), F(0)), (F(0), F(1))))
        assert direct.period_time == r.big_cylinder_orbit_length

    def test_half_shear(self):
        r = sheared_st3_return(F(1, 2))
        assert r.big_cylinder_rotation == F(1, 2) and r.rotation_is_rational
        assert r.big_cylinder_orbit_length == 4  # divides 2·circumference

    def test_third_shear(self):
        r = sheared_st3_return(ShearedSt3(F(1, 3)))
        assert r.big_cylinder_rotation == F(1, 3) and not r.big_cylinder_dense
        assert r.big_cylinder_orbit_length == 6

    def test_quadratic_shear_is_dense(self):
        x = QuadNum(-1, 1, 2)  # √2 - 1
        r = sheared_st3_return(x)
        assert not r.rotation_is_rational and r.big_cylinder_dense
        assert r.periodic_cylinder_length == 1

    def test_shear_range_validated(self):
        with pytest.raises(ValueError):
            ShearedSt3(F(3, 2))
        with pytest.raises(ValueError):
            ShearedSt3(-1)


class TestDiscrepancy:
    def test_golden_slope_equidistributes(self):
        assert discrepancy(torus(), GOLDEN, 20_000, 10) < 0.02

    def test_rational_slope_does_not(self):
        assert discrepancy(torus(), 1.0, 20_000, 10) > 0.1

    def test_against_midpoint_sampling_oracle(self):
        # same statistic estimated by sampling the torus orbit at fixed steps
        slope, crossings, g = GOLDEN, 20_000, 10
        duration = crossings / (1 + slope)  # rough total time, enough samples
        samples = 200_000
        dt = duration / samples
        x0, y0 = 0.0, 0.31830988618367195
        cells = [0.0] * (g * g)
        for k in range(samples):
            t = k * dt
            ix = min(g - 1, int(((x0 + t) % 1.0) * g))
            iy = min(g - 1, int(((y0 + t * slope) % 1.0) * g))
            cells[iy * g + ix] += 1
        u = 1.0 / (g * g)
        oracle = 0.5 * sum(abs(c / samples - u) for c in cells)
        got = discrepancy(torus(), slope, crossings, g)
        assert abs(got - oracle) < 0.02

    def test_st3_irrational_slope(self):
        assert discrepancy(st3(), math.sqrt(2), 20_000, 10) < 0.05

    def test_quadratic_slope_decay_rate(self):
        # regression-style: D(N) stays under C/√N with C fitted at the small end
        small = discrepancy(torus(), GOLDEN, 5_000, 10)
        big = discrepancy(torus(), GOLDEN, 80_000, 10)
        assert big < small
        assert big < 1.5 * small * math.sqrt(5_000 / 80_000)

    def test_rational_slope_does_not_decay(self):
        assert discrepancy(torus(), 1.0, 80_000, 10) > 0.1

    def test_benchmarked_value(self):
        # the value the benchmark's flow workload checks (perfbench/pinned.json)
        got = discrepancy(st3(), GOLDEN, 10**5, 10)
        assert math.isclose(got, 0.0013552236109744503, rel_tol=1e-9)

    @given(
        st.builds(random_origami, st.integers(1, 8), st.randoms(use_true_random=False)),
        st.integers(1, 12),
        st.sampled_from([0.0, -0.0]),
        st.integers(1, 40),
    )
    def test_horizontal_orbit_in_closed_form(self, o, grid, slope, laps):
        # the orbit is one horizontal line through the h-cycle of square 1, of
        # length l; after whole laps its l·grid cells hold equal time and the
        # other cells none, so the distance from uniform is 1 - l/(n·grid)
        length, sq = 1, o.h(1)
        while sq != 1:
            length, sq = length + 1, o.h(sq)
        got = discrepancy(o, slope, laps * length, grid)
        assert abs(got - (1 - length / (o.n * grid))) <= 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            discrepancy(torus(), 1.0, 0, 10)

    def test_a_grid_beyond_the_cell_bound_is_refused(self):
        # refused before the cell list of n·grid² floats is allocated
        assert MAX_CELLS == 10**7
        with pytest.raises(ValueError, match="cells, got 1000000000000"):
            discrepancy(torus(), GOLDEN, 10, 10**6)
