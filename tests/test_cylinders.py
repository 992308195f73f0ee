"""Cylinder decompositions; the horizontal one against its image-tuple reference.

`reference_horizontal_decomposition` is `horizontal_decomposition` as it was
before it read move tables, kept verbatim: the table-level core must give the
same cylinders, widths, heights, rows and order alike.
"""

import random
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from origamis.action import direction_to_horizontal, transport_direction
from origamis.cylinders import (
    Cylinder,
    QuadCylinder,
    _horizontal_cylinders,
    decomposition_in_direction,
    horizontal_decomposition,
    modulus_ratios,
    octagon_horizontal_cylinders,
)
from origamis.origami import Origami, _singular_corners, random_origami, st3, torus
from origamis.perm import Permutation, cycles
from origamis.quadfield import QuadNum


def reference_horizontal_decomposition(o: Origami) -> list[Cylinder]:
    """Cylinders of the horizontal direction, widest first.

    Rows are the cycles of h. A row whose bottom corners are all regular
    continues the cylinder below it: the regularity forces v to map the row
    below onto it, in the same cyclic order. So each cylinder is walked
    upwards from a row with a singular bottom corner; with no singular corner
    at all (genus one) the surface is one cylinder, walked from any row.
    """
    rows = cycles(o.h)
    row_of = [0] * (o.n + 1)
    for i, r in enumerate(rows):
        for s in r:
            row_of[s] = i
    singular = o.singular
    starts = {i for i, r in enumerate(rows) if any(singular[s - 1] for s in r)} or {0}
    v = o.v.images
    cyls = []
    for i in starts:
        members = [i]
        while True:
            top = rows[members[-1]]
            j = row_of[v[top[0] - 1]]
            if j in starts:
                break
            assert {row_of[v[s - 1]] for s in top} == {j}, "regular interface must map onto one row"
            members.append(j)
        widths = {len(rows[k]) for k in members}
        assert len(widths) == 1, "merged rows must share a length"
        row_tuples = tuple(sorted((rows[k] for k in members), key=min))
        cyls.append(Cylinder(widths.pop(), len(members), row_tuples))
    placed = sorted(row_of[r[0]] for c in cyls for r in c.rows)
    assert placed == list(range(len(rows))), "every row lands in exactly one cylinder"
    cyls.sort(key=lambda c: (-c.width, -c.height, c.rows))
    return cyls


class TestHorizontal:
    def test_st3(self):
        cyls = horizontal_decomposition(st3())
        assert [(c.width, c.height) for c in cyls] == [(2, 1), (1, 1)]

    def test_torus(self):
        assert [(c.width, c.height) for c in horizontal_decomposition(torus())] == [(1, 1)]

    def test_single_row_with_singular_top(self):
        o = Origami(Permutation.parse("(1,2,3)", 3), Permutation.parse("(1,2)", 3))
        assert [(c.width, c.height) for c in horizontal_decomposition(o)] == [(3, 1)]

    def test_stacked_torus_merges_rows(self):
        o = Origami(Permutation.identity(2), Permutation((2, 1)))
        assert [(c.width, c.height) for c in horizontal_decomposition(o)] == [(1, 2)]

    @given(st.integers(1, 7), st.integers(0, 10**6))
    def test_cylinders_partition_the_squares(self, n, seed):
        o = random_origami(n, random.Random(seed))
        cyls = horizontal_decomposition(o)
        assert sum(c.area for c in cyls) == n
        covered = sorted(s for c in cyls for row in c.rows for s in row)
        assert covered == list(range(1, n + 1))

    @given(st.integers(1, 12), st.integers(0, 10**6))
    def test_table_core_matches_the_image_tuple_reference(self, n, seed):
        o = random_origami(n, random.Random(seed))
        want = reference_horizontal_decomposition(o)
        h, v = (0, *o.h.images), (0, *o.v.images)
        got = _horizontal_cylinders(h, v, _singular_corners(h, v))
        assert [(c.width, c.height, c.rows) for c in got] == [(c.width, c.height, c.rows) for c in want]
        assert horizontal_decomposition(o) == want


class TestDirectionTransport:
    def test_horizontal_is_identity(self):
        assert direction_to_horizontal(1, 0).gens == ()

    def test_vertical_quarter_turn(self):
        w = direction_to_horizontal(0, 1)
        assert w.matrix == ((0, 1), (-1, 0))

    def test_word_maps_direction_to_horizontal(self):
        for p in range(-6, 7):
            for q in range(-6, 7):
                if gcd(p, q) != 1:
                    continue
                w = direction_to_horizontal(p, q)
                (a, b), (c, d) = w.matrix
                assert (a * p + b * q, c * p + d * q) == (1, 0)
                assert a * d - b * c == 1
                # the realized point maps transport it to ±horizontal
                assert transport_direction(w, p, q) in ((1, 0), (-1, 0))

    def test_bad_directions(self):
        with pytest.raises(ValueError):
            direction_to_horizontal(0, 0)
        with pytest.raises(ValueError):
            direction_to_horizontal(2, 2)


class TestDirectional:
    def test_st3_diagonal(self):
        dd = decomposition_in_direction(st3(), 1, 1)
        assert [(c.width, c.height) for c in dd.cylinders] == [(3, 1)]
        assert [str(x) for x in dd.lengths] == ["3*sqrt(2)"]

    def test_st3_vertical(self):
        dd = decomposition_in_direction(st3(), 0, 1)
        assert sorted(c.width for c in dd.cylinders) == [1, 2]

    def test_torus_every_direction(self):
        for p, q in ((1, 0), (0, 1), (1, 1), (2, 3), (-3, 5)):
            dd = decomposition_in_direction(torus(), p, q)
            assert [(c.width, c.height) for c in dd.cylinders] == [(1, 1)]

    def test_length_simplifies_square_radicands(self):
        dd = decomposition_in_direction(torus(), 3, 4)
        assert str(dd.lengths[0]) == "5"

    @given(st.integers(1, 6), st.integers(0, 10**6))
    def test_area_is_direction_invariant(self, n, seed):
        rng = random.Random(seed)
        o = random_origami(n, rng)
        p, q = 0, 0
        while gcd(p, q) != 1:
            p, q = rng.randint(-4, 4), rng.randint(-4, 4)
        dd = decomposition_in_direction(o, p, q)
        assert sum(c.area for c in dd.cylinders) == n


class TestModuli:
    def test_octagon_data(self):
        cyls = octagon_horizontal_cylinders()
        rt2 = QuadNum.sqrt(2)
        assert cyls[0].width == 1 + rt2 and cyls[0].height == 1
        assert cyls[1].width == 2 + rt2 and cyls[1].height == 1 / rt2

    def test_octagon_modulus_and_ratio(self):
        cyls = octagon_horizontal_cylinders()
        assert cyls[0].modulus == QuadNum(-1, 1, 2)  # 1/(1+√2) = √2-1
        assert modulus_ratios(cyls) == [QuadNum(2, 0, 2)]

    def test_octagon_area(self):
        # unit-side regular octagon has area 2(1+√2)
        total = sum((c.area for c in octagon_horizontal_cylinders()), QuadNum(0, 0, 2))
        assert total == QuadNum(2, 2, 2)

    def test_equal_cylinders(self):
        c = QuadCylinder(QuadNum(3, 1, 2), QuadNum(1, 0, 2))
        assert modulus_ratios([c, c]) == [QuadNum(1, 0, 2)]

    def test_st3_as_quad(self):
        cyls = [QuadCylinder(2, 1), QuadCylinder(1, 1)]
        assert modulus_ratios(cyls) == [QuadNum(F(1, 2), 0, 2)]

    def test_needs_two(self):
        with pytest.raises(ValueError):
            modulus_ratios([QuadCylinder(1, 1)])

    def test_scale_invariance(self):
        cyls = octagon_horizontal_cylinders()
        lam = QuadNum(3, 2, 2)
        scaled = [QuadCylinder(c.width * lam, c.height * lam) for c in cyls]
        assert modulus_ratios(scaled) == modulus_ratios(cyls)

    def test_positive_sides_required(self):
        with pytest.raises(ValueError):
            QuadCylinder(QuadNum(-1, 0, 2), QuadNum(1, 0, 2))
