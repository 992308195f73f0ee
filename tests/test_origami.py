import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from origamis.origami import (
    Origami,
    Stratum,
    _singular_corners,
    canonical_form,
    genus,
    is_reduced,
    parse_origami,
    period_lattice,
    random_origami,
    relabel,
    same_surface,
    st3,
    st4,
    stratum,
    stratum_dim_abelian,
    stratum_dim_quadratic,
    torus,
    vertex_cycles,
)
from origamis.perm import Permutation, compose, cycles


def small_origamis(max_n=6):
    def build(nhv):
        n, h, v = nhv
        return (Permutation(tuple(h)), Permutation(tuple(v)))

    return (
        st.integers(2, max_n)
        .flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.permutations(list(range(1, n + 1))),
                st.permutations(list(range(1, n + 1))),
            )
        )
        .map(build)
        .filter(lambda hv: _is_connected(*hv))
        .map(lambda hv: Origami(*hv))
    )


def _is_connected(h, v):
    from origamis.perm import is_transitive

    return is_transitive([h, v])


class TestConstruction:
    def test_torus(self):
        t = torus()
        assert t.n == 1 and genus(t) == 1

    def test_st3_is_the_staircase(self):
        o = st3()
        assert (o.h, o.v) == (Permutation((2, 1, 3)), Permutation((3, 2, 1)))

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError, match="transitiv"):
            Origami(Permutation.identity(2), Permutation.identity(2))

    def test_degree_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            Origami(Permutation.identity(1), Permutation.identity(2))

    def test_text_round_trip(self):
        for o in (torus(), st3(), st4()):
            assert parse_origami(o.to_text()) == o
        assert parse_origami("3; h=(1,2); v=(1,3)") == st3()
        assert parse_origami("3; h=[2,1,3]; v=[3,2,1]") == st3()

    def test_bad_text(self):
        for bad in ("3; h=(1,2)", "x; h=(1,2); v=(1,3)", "3; h=(1,2); w=(1,3)"):
            with pytest.raises(ValueError):
                parse_origami(bad)


class TestVertices:
    def test_torus_is_flat(self):
        assert vertex_cycles(torus()) == [(1,)]

    def test_st3_single_6pi_vertex(self):
        # hand evaluation of the commutator: c(1)=2, c(2)=3, c(3)=1
        assert vertex_cycles(st3()) == [(1, 2, 3)]

    def test_st4_two_4pi_vertices(self):
        cyc = vertex_cycles(st4())
        assert sorted(len(c) for c in cyc) == [2, 2]


class TestGenusAndStratum:
    def test_genus_values(self):
        assert genus(torus()) == 1
        assert genus(st3()) == 2
        two_square_torus = Origami(Permutation((2, 1)), Permutation.identity(2))
        assert genus(two_square_torus) == 1

    def test_strata(self):
        assert stratum(st3()) == Stratum([2])
        assert stratum(st4()) == Stratum([1, 1])
        assert stratum(torus()) == Stratum([])
        assert str(stratum(torus())) == "H(0)"

    def test_stratum_parse(self):
        assert Stratum.parse("H(2)") == Stratum([2])
        assert Stratum.parse("H(1,1)") == Stratum([1, 1])
        assert Stratum.parse("H(0)") == Stratum([])

    @pytest.mark.parametrize("orders", [[1], [3], [2, 1], [1, 1, 1]])
    def test_odd_order_sum_is_no_stratum(self, orders):
        with pytest.raises(ValueError, match="odd sum"):
            Stratum(orders)
        with pytest.raises(ValueError, match="odd sum"):
            Stratum.parse("H(" + ",".join(map(str, orders)) + ")")

    def test_stratum_genus(self):
        assert [Stratum(o).genus for o in ([], [2], [1, 1], [4], [3, 1], [1] * 6)] == [1, 2, 2, 3, 3, 4]

    @given(small_origamis())
    def test_order_sum_and_euler_agreement(self, o):
        s = stratum(o)
        assert sum(s.orders) == 2 * genus(o) - 2

    @given(small_origamis())
    def test_invariants_are_conjugation_invariant(self, o):
        rng = random.Random(o.n * 1000 + o.h.images[0])
        g = Permutation(tuple(rng.sample(range(1, o.n + 1), o.n)))
        o2 = relabel(o, g)
        assert genus(o2) == genus(o)
        assert stratum(o2) == stratum(o)
        assert is_reduced(o2) == is_reduced(o)

    @given(small_origamis(max_n=12))
    def test_singular_corners_are_the_commutator_cycles_longer_than_one(self, o):
        # Origami.singular reads the corner table off the image tuples; the
        # commutator permutation is the oracle
        c = o.commutator.images
        assert o.singular == tuple(c[s - 1] != s for s in range(1, o.n + 1))

    @given(st.integers(1, 12).flatmap(lambda n: st.tuples(*[st.permutations(range(1, n + 1))] * 2)))
    def test_singular_corners_from_the_forward_tables_match_the_commutator_cycles(self, pair):
        # any pair, transitive or not: a corner is singular iff its cycle of
        # h∘v∘h⁻¹∘v⁻¹ is longer than one
        h, v = (Permutation(tuple(p)) for p in pair)
        want = [False] * h.degree
        for c in cycles(compose(h, compose(v, compose(h.inverse(), v.inverse())))):
            for s in c:
                want[s - 1] = len(c) > 1
        assert _singular_corners((0, *h.images), (0, *v.images)) == tuple(want)

    def test_one_commutator_cycle_list_per_call(self, monkeypatch):
        from origamis import origami

        calls = []
        monkeypatch.setattr(origami, "cycles", lambda p: calls.append(p) or cycles(p))
        for fn in (stratum, period_lattice):
            calls.clear()
            fn(st4())  # a fresh surface, so nothing is cached yet
            assert len(calls) == 1, fn.__name__


class TestStratumDimensions:
    def test_h2_and_h11(self):
        assert stratum_dim_abelian([2], 2) == 4
        assert stratum_dim_abelian([1, 1], 2) == 5

    def test_h0_counts_one_marked_point(self):
        assert stratum_dim_abelian([], 1) == 2
        assert stratum_dim_abelian([0], 1) == 2

    def test_principal_stratum(self):
        for g in range(2, 7):
            assert stratum_dim_abelian([1] * (2 * g - 2), g) == 4 * g - 3

    def test_quadratic_principal(self):
        for g in range(2, 7):
            assert stratum_dim_quadratic([1] * (4 * g - 4), g) == 6 * g - 6

    def test_abelian_orders_have_no_poles(self):
        # -2 + 4 = 2g - 2 with g = 2, but an abelian differential has no poles
        with pytest.raises(ValueError):
            stratum_dim_abelian([-2, 4], 2)
        with pytest.raises(ValueError):
            stratum_dim_abelian([-1, 1], 1)

    def test_quadratic_poles_are_simple(self):
        with pytest.raises(ValueError):
            stratum_dim_quadratic([-3, -1], 0)
        with pytest.raises(ValueError):
            stratum_dim_quadratic([-2, 2], 1)
        assert stratum_dim_quadratic([-1, -1, -1, -1], 0) == 2

    def test_empty_quadratic_strata(self):
        # Masur–Smillie (Comment. Math. Helv. 68, 1993); marked points
        # (order 0) do not make a stratum non-empty
        for orders, g in (([], 1), ([0, 0], 1), ([1, -1], 1), ([4], 2), ([3, 1], 2), ([0, 1, 3], 2)):
            with pytest.raises(ValueError, match="empty"):
                stratum_dim_quadratic(orders, g)
        assert stratum_dim_quadratic([2, -1, -1], 1) == 3
        assert stratum_dim_quadratic([2, 2], 2) == 4

    def test_inconsistent_orders(self):
        with pytest.raises(ValueError):
            stratum_dim_abelian([2], 3)
        with pytest.raises(ValueError):
            stratum_dim_quadratic([1, 1], 2)


class TestCanonicalForm:
    def test_torus_fixed(self):
        assert canonical_form(torus()) == torus()

    def test_orbit_invariance(self):
        rng = random.Random(7)
        for _ in range(25):
            o = random_origami(rng.randint(2, 7), rng)
            g = Permutation(tuple(rng.sample(range(1, o.n + 1), o.n)))
            assert canonical_form(relabel(o, g)) == canonical_form(o)

    def test_known_equivalence(self):
        # conjugating by (2 3) swaps the two staircase encodings
        a = Origami(Permutation.parse("(1,3)", 3), Permutation.parse("(1,2)", 3))
        b = st3()
        assert same_surface(a, b)
        assert canonical_form(a) == canonical_form(b)

    def test_inequivalent_pair(self):
        other = Origami(Permutation.parse("(1,2)", 3), Permutation.parse("(1,2,3)", 3))
        assert not same_surface(other, st3())


def _loop_holonomies(o, max_len):
    """Oracle: holonomies of all closed walks from square 1 of bounded length,
    by plain breadth-first enumeration over the four moves."""
    moves = [
        (o.h, (1, 0)),
        (o.h.inverse(), (-1, 0)),
        (o.v, (0, 1)),
        (o.v.inverse(), (0, -1)),
    ]
    found = set()
    frontier = [(1, 0, 0)]
    for _ in range(max_len):
        nxt = []
        for sq, dx, dy in frontier:
            for mv, (ex, ey) in moves:
                state = (mv(sq), dx + ex, dy + ey)
                nxt.append(state)
                if state[0] == 1:
                    found.add((state[1], state[2]))
        # crude dedup to keep the search tractable
        frontier = list(set(nxt))
    return found


class TestReduced:
    def test_torus(self):
        assert is_reduced(torus())
        assert period_lattice(torus()) == [(1, 0), (0, 1)]

    def test_two_square_torus_is_not(self):
        o = Origami(Permutation((2, 1)), Permutation.identity(2))
        assert not is_reduced(o)
        assert period_lattice(o) == [(2, 0), (0, 1)]
        # oracle: no bounded closed walk has odd horizontal holonomy
        assert all(dx % 2 == 0 for dx, dy in _loop_holonomies(o, 6))

    def test_st3_is_reduced(self):
        assert is_reduced(st3())
        # oracle: exhibit loops of holonomy (1,0) and (0,1) by brute force
        loops = _loop_holonomies(st3(), 6)
        assert (1, 0) in loops and (0, 1) in loops

    def test_vertical_double_torus(self):
        o = Origami(Permutation.identity(2), Permutation((2, 1)))
        assert period_lattice(o) == [(1, 0), (0, 2)]
