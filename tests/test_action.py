import random
from fractions import Fraction as F
from math import gcd, inf, log2

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from origamis.action import (
    S_WORD,
    SL2ZWord,
    T_WORD,
    apply_word,
    direction_to_horizontal,
    geodesic_endpoints,
    horocycle_data,
    in_veech_group,
    orbit,
    slope_cusp,
    torus_point,
    transport_direction,
    transport_point,
    word_for_matrix,
)
from origamis.cylinders import _horizontal_cylinders
from origamis.origami import (
    Origami,
    _singular_corners,
    canonical_form,
    random_origami,
    relabel,
    same_surface,
    st3,
    st4,
    torus,
)
from origamis.perm import Permutation, compose
from origamis.quadfield import exact_rational
from strategies import transitive_origamis

_INVERSE_LETTER = {"T": "T^-1", "T^-1": "T", "S": "S^-1", "S^-1": "S"}


def free_reduce(w: SL2ZWord) -> SL2ZWord:
    """w with each adjacent letter pair g g⁻¹ cancelled, as in the free group."""
    out: list[str] = []
    for g in w.gens:
        if out and out[-1] == _INVERSE_LETTER[g]:
            out.pop()
        else:
            out.append(g)
    return SL2ZWord(tuple(out))


# the generator formulas written with compose/inverse, sharing no code with apply_word
_GEN_ORACLE = {
    "T": lambda o: Origami(o.h, compose(o.v, o.h.inverse())),
    "T^-1": lambda o: Origami(o.h, compose(o.v, o.h)),
    "S": lambda o: Origami(o.v, o.h.inverse()),
    "S^-1": lambda o: Origami(o.v.inverse(), o.h),
}


class TestActionFormulas:
    def test_T_shears_the_staircase(self):
        # T·St(3) is the vertically 3-periodic 3-square surface
        img = apply_word(T_WORD, st3())
        assert img == Origami(Permutation.parse("(1,2)", 3), Permutation.parse("(1,2,3)", 3))
        assert not same_surface(img, st3())

    def test_T_squared_stabilizes(self):
        assert same_surface(apply_word(T_WORD, apply_word(T_WORD, st3())), st3())

    def test_S_stabilizes(self):
        assert same_surface(apply_word(S_WORD, st3()), st3())

    def test_S_has_order_four(self):
        rng = random.Random(3)
        for _ in range(20):
            o = random_origami(rng.randint(1, 6), rng)
            img = o
            for _ in range(4):
                img = apply_word(S_WORD, img)
            assert img == o
            assert apply_word(T_WORD, apply_word(SL2ZWord(("T^-1",)), o)) == o

    def test_transport_point_through_S_and_T_inverse(self):
        # by hand on St(3), h = (1,2): T⁻¹ shears (1/4, 1/2) in square 1 past
        # x = 0 into h⁻¹(1) = 2 at x = 3/4, and S turns (3/4, 1/2) to (1/2, 1/4)
        w = SL2ZWord(("S", "T^-1"))
        moved = transport_point(w, st3(), 1, F(1, 4), F(1, 2))
        assert moved == (apply_word(w, st3()), 2, F(1, 2), F(1, 4))
        assert transport_point(w.inverse(), *moved) == (st3(), 1, F(1, 4), F(1, 2))

    def test_minus_identity_trivial_in_genus_two(self):
        # every enumerated surface of genus <= 2 is fixed by the half turn
        from origamis.catalog import canonical_origamis
        from origamis.origami import genus

        flagged = 0
        for n in range(1, 6):
            for o in canonical_origamis(n):
                flipped = Origami(o.h.inverse(), o.v.inverse())
                fixed = same_surface(flipped, o)
                if genus(o) <= 2:
                    assert fixed
                elif not fixed:
                    flagged += 1
        assert flagged > 0  # genus-3 surfaces moved by the half turn do exist

        # orbit() skips the -I key in genus <= 2; check the half turn with the
        # full key on larger surfaces: seeded H(2) L-shapes and random genus 2
        rng = random.Random(2024)
        samples = []
        for n in range(9, 15):
            arm = rng.randrange(2, n)
            h = Permutation.from_cycles([tuple(range(1, arm + 1))], n)
            v = Permutation.from_cycles([(1, *range(arm + 1, n + 1))], n)
            g = list(range(1, n + 1))
            rng.shuffle(g)
            samples.append(relabel(Origami(h, v), Permutation(tuple(g))))
        while len(samples) < 6 + 12:
            o = random_origami(rng.choice((7, 8)), rng)
            if genus(o) == 2:
                samples.append(o)
        for o in samples:
            assert genus(o) == 2
            assert same_surface(Origami(o.h.inverse(), o.v.inverse()), o)
            rep = orbit(o)
            assert not rep.minus_id_nontrivial
            for r in rep.representatives[:: max(1, rep.index // 20)]:
                assert same_surface(Origami(r.h.inverse(), r.v.inverse()), r)

    def test_minus_id_flag_reported(self):
        moved = Origami(Permutation.parse("(2,3,5,4)", 5), Permutation.parse("(1,2)(4,5)", 5))
        rep = orbit(moved)
        assert rep.minus_id_nontrivial
        assert not orbit(st3()).minus_id_nontrivial

    def test_not_reduced_input_is_flagged(self):
        o = Origami(Permutation((2, 1)), Permutation.identity(2))
        assert not orbit(o).input_reduced

    def test_quaternion_origami_has_full_modular_group(self):
        # squares labeled by the unit quaternions, h = ·i, v = ·j: the classic
        # genus-3 surface whose Veech group is all of SL2(Z)
        o = Origami(
            Permutation.parse("(1,2,3,4)(5,8,7,6)", 8),
            Permutation.parse("(1,5,3,7)(2,6,4,8)", 8),
        )
        from origamis.origami import genus, period_lattice, stratum

        assert genus(o) == 3 and str(stratum(o)) == "H(1,1,1,1)"
        assert period_lattice(o) == [(2, 0), (0, 2)]
        rep = orbit(o)
        assert rep.index == 1 and rep.cusp_widths() == (1,)
        assert (rep.e2, rep.e3, rep.curve_genus) == (1, 1, 0)
        assert in_veech_group(o, T_WORD) and in_veech_group(o, S_WORD)
        assert not rep.input_reduced  # its absolute periods span only 2Z²

    @given(st.integers(1, 9), st.integers(0, 10**6))
    def test_apply_word_matches_composed_formulas(self, n, seed):
        rng = random.Random(seed)
        o = random_origami(n, rng)
        w = SL2ZWord(tuple(rng.choice(tuple(_GEN_ORACLE)) for _ in range(rng.randint(0, 12))))
        expected = o
        for g in reversed(w.gens):
            expected = _GEN_ORACLE[g](expected)
        assert apply_word(w, o) == expected


def _assert_short_word(p, q):
    """word_for_matrix of an SL₂(ℤ) matrix with first column (p, q) gives
    that matrix, with O(log max(|p|, |q|)) S letters."""
    if q:
        a = pow(p, -1, abs(q))  # a·p + b·q = 1
        M = ((p, -((1 - a * p) // q)), (q, a))
    else:
        M = ((p, 0), (0, p))
    word = word_for_matrix(M)
    assert word.matrix == M
    s_letters = sum(g in ("S", "S^-1") for g in word.gens)
    assert s_letters <= 1.5 * log2(max(abs(p), abs(q)) + 1) + 4


def _t_letters(p, q):
    """The T letters of the column word of (p, q): the sum of the quotients
    of Euclid on |p|, |q|. Bounding it keeps a drawn word short."""
    a, c, total = abs(p), abs(q), 0
    while c:
        total += a // c
        a, c = c, a % c
    return total


def reference_act_direction(gen: str, p, q):
    """Direction transform realized by the point maps (S acts as the clockwise
    rotation, i.e. the matrix [[0,1],[-1,0]]); p and q are exact rationals."""
    p, q = exact_rational(p), exact_rational(q)
    if gen == "T":
        return (p + q, q)
    if gen == "T^-1":
        return (p - q, q)
    if gen == "S":
        return (q, -p)
    if gen == "S^-1":
        return (-q, p)
    raise ValueError(f"unknown generator {gen!r}")


def reference_transport_direction(w: SL2ZWord, p, q):
    """action.transport_direction as it was before it read the word's matrix:
    one reference_act_direction (the deleted action.act_direction) per letter."""
    p, q = exact_rational(p), exact_rational(q)  # also for the empty word
    for g in reversed(w.gens):
        p, q = reference_act_direction(g, p, q)
    return p, q


class TestWords:
    def test_generator_matrices(self):
        assert T_WORD.matrix == ((1, 1), (0, 1))
        assert S_WORD.matrix == ((0, -1), (1, 0))
        assert (S_WORD * S_WORD).matrix == ((-1, 0), (0, -1))

    def test_word_for_matrix_round_trip(self):
        rng = random.Random(5)
        mats = [((1, 0), (0, 1)), ((0, -1), (1, 0)), ((-1, 0), (0, -1)), ((2, 1), (1, 1))]
        for _ in range(40):
            w = SL2ZWord(tuple(rng.choice(["T", "T^-1", "S", "S^-1"]) for _ in range(rng.randint(0, 9))))
            mats.append(w.matrix)
        for M in mats:
            assert word_for_matrix(M).matrix == M

    def test_non_unimodular_rejected(self):
        with pytest.raises(ValueError):
            word_for_matrix(((2, 0), (0, 1)))

    # first columns whose words have short T-runs: with floored quotients the
    # first three took |p| Euclid steps (as many S letters); the last two are
    # consecutive Fibonacci and Pell numbers, whose quotients are all 1 and 2
    LARGE_COLUMNS = [(10**4, -9999), (-10**4, 9999), (1000, -999), (37889062373143906, 23416728348467685),
                     (299713796309065, 124145519261542)]

    @pytest.mark.parametrize("p, q", LARGE_COLUMNS)
    def test_euclid_takes_logarithmically_many_steps(self, p, q):
        _assert_short_word(p, q)

    @given(st.integers(-10**4, 10**4), st.integers(-10**4, 10**4))
    def test_euclid_steps_on_random_columns(self, p, q):
        if gcd(p, q) == 1:
            _assert_short_word(p, q)

    @given(st.integers(-10**30, 10**30), st.integers(-10**30, 10**30))
    def test_direction_to_horizontal_on_large_columns(self, p, q):
        # a column and its primitive part have the same word: divide, do not filter
        g = gcd(p, q)
        assume(g and _t_letters(p, q) <= 2000)
        p, q = p // g, q // g
        w = direction_to_horizontal(p, q)
        (a, b), (c, d) = w.matrix
        assert (a * p + b * q, c * p + d * q) == (1, 0)
        s_letters = sum(g in ("S", "S^-1") for g in w.gens)
        assert s_letters <= 1.5 * log2(max(abs(p), abs(q))) + 4

    @given(
        st.lists(st.sampled_from(("T", "T^-1", "S", "S^-1")), max_size=40),
        st.integers(-50, 50) | st.builds(F, st.integers(-50, 50), st.integers(1, 9)),
        st.integers(-50, 50) | st.builds(F, st.integers(-50, 50), st.integers(1, 9)),
    )
    def test_transport_direction_matches_the_letter_by_letter_loop(self, gens, p, q):
        w = SL2ZWord(tuple(gens))
        assert transport_direction(w, p, q) == reference_transport_direction(w, p, q)

    def test_free_reduction(self):
        w = SL2ZWord(("T", "T^-1", "S", "S^-1", "S", "T"))
        assert free_reduce(w).gens == ("S", "T")

    def test_inverse(self):
        w = SL2ZWord(("T", "S"))
        assert free_reduce(w * w.inverse()).gens == ()


class TestVeechMembership:
    def test_st3(self):
        assert in_veech_group(st3(), T_WORD**2)
        assert not in_veech_group(st3(), T_WORD)
        assert in_veech_group(st3(), S_WORD)

    def test_torus(self):
        assert in_veech_group(torus(), T_WORD)
        assert in_veech_group(torus(), S_WORD)

    def test_free_reduction_invariance(self):
        rng = random.Random(1)
        o = st3()
        for _ in range(25):
            gens = tuple(rng.choice(["T", "T^-1", "S", "S^-1"]) for _ in range(rng.randint(1, 8)))
            padded = gens + ("T", "T^-1")
            w1, w2 = SL2ZWord(gens), SL2ZWord(padded)
            assert in_veech_group(o, w1) == in_veech_group(o, free_reduce(w2)) == in_veech_group(o, w2)


class TestOrbit:
    def test_torus_report(self):
        rep = orbit(torus())
        assert rep.index == 1
        assert rep.cusp_widths() == (1,)
        assert (rep.e2, rep.e3, rep.curve_genus) == (1, 1, 0)

    def test_st3_report(self):
        rep = orbit(st3())
        assert rep.index == 3
        assert rep.cusp_widths() == (2, 1)
        assert tuple(sorted((c.cylinder_count for c in rep.cusps), reverse=True)) == (2, 1)
        assert (rep.e2, rep.e3, rep.curve_genus) == (1, 0, 0)
        assert rep.input_reduced and not rep.minus_id_nontrivial

    def test_closure_contains_T_image(self):
        rep = orbit(st3())
        img = canonical_form(apply_word(T_WORD, st3()))
        assert any(same_surface(r, img) for r in rep.representatives)

    def test_st4_orbit_consistency(self):
        rep = orbit(st4())
        assert sum(c.width for c in rep.cusps) == rep.index
        assert rep.curve_genus >= 0

    def test_cusp_widths_by_direct_T_iteration(self):
        # independent route: iterate T on St(3) and measure the cycle length
        o = canonical_form(st3())
        img = canonical_form(apply_word(T_WORD, o))
        width = 1
        while not same_surface(img, o):
            img = canonical_form(apply_word(T_WORD, img))
            width += 1
        assert width == 2  # the cusp of St(3) at infinity

    @given(st.integers(2, 6), st.integers(0, 10**6))
    def test_widths_sum_to_index(self, n, seed):
        o = random_origami(n, random.Random(seed))
        rep = orbit(o)
        assert sum(c.width for c in rep.cusps) == rep.index
        assert rep.curve_genus >= 0


def _assert_cusp_cylinder_counts(o):
    """Each cusp's cylinder_count is the horizontal cylinder count of its
    least member, the first of its members in key order."""
    rep = orbit(o)
    least = {}
    for key, c in rep.members:
        least.setdefault(c, key)
    assert sorted(least) == list(range(len(rep.cusps)))
    for c, key in least.items():
        h, v = ((0, *images) for images in key)
        assert rep.cusps[c].cylinder_count == len(_horizontal_cylinders(h, v, _singular_corners(h, v)))


class TestCuspCylinders:
    @given(transitive_origamis(8))
    def test_cylinder_counts_of_the_least_members(self, o):
        _assert_cusp_cylinder_counts(o)

    # these orbits have 432 to 11 664 members; a drawn ten-square surface can
    # have 150 000 (random_origami(10, Random(4))), too many for a drawn example
    @pytest.mark.parametrize("n, seed", [(9, 1), (9, 6), (10, 3), (10, 7)])
    def test_cylinder_counts_at_nine_and_ten_squares(self, n, seed):
        _assert_cusp_cylinder_counts(random_origami(n, random.Random(seed)))


class TestCosetTable:
    @given(st.integers(2, 6), st.integers(0, 10**6))
    def test_start_point_invariance(self, n, seed):
        rng = random.Random(seed)
        o = random_origami(n, rng)
        w = SL2ZWord(tuple(rng.choice(("T", "T^-1", "S", "S^-1")) for _ in range(rng.randint(0, 10))))
        g = Permutation(tuple(rng.sample(range(1, n + 1), n)))
        assert orbit(relabel(apply_word(w, o), g)) == orbit(o)

    @given(st.integers(2, 6), st.integers(0, 10**6))
    def test_elliptic_points_by_direct_membership(self, n, seed):
        rep = orbit(random_origami(n, random.Random(seed)))
        assert rep.e2 == sum(in_veech_group(r, S_WORD) for r in rep.representatives)
        assert rep.e3 == sum(in_veech_group(r, SL2ZWord(("S", "T"))) for r in rep.representatives)

    @given(st.integers(2, 6), st.integers(0, 10**6))
    def test_member_keys_and_cusps(self, n, seed):
        rep = orbit(random_origami(n, random.Random(seed)))
        assert [m[0] for m in rep.members] == sorted(m[0] for m in rep.members)
        assert len(rep.representatives) == len(rep.members) == rep.index
        for r, (key, c) in zip(rep.representatives, rep.members):
            flipped = Origami(r.h.inverse(), r.v.inverse())
            assert r == Origami(Permutation(key[0]), Permutation(key[1]))
            assert key == (r.h.images, r.v.images)
            minus = canonical_form(flipped)
            assert key <= (minus.h.images, minus.v.images)
            # -I is central, so it moves every member or none
            assert rep.minus_id_nontrivial == (minus != r)
            # the cusp's width is the T-period of the member, up to -I
            img, width = apply_word(T_WORD, r), 1
            while not (same_surface(img, r) or same_surface(img, flipped)):
                img, width = apply_word(T_WORD, img), width + 1
            assert rep.cusps[c].width == width


class TestSlopeCusp:
    def test_axis_directions_are_two_cylinder(self):
        assert slope_cusp(st3(), 1, 0).cylinder_count == 2
        assert slope_cusp(st3(), 0, 1).cylinder_count == 2

    def test_diagonal_is_one_cylinder(self):
        assert slope_cusp(st3(), 1, 1).cylinder_count == 1

    def test_parity_rule(self):
        rep = orbit(st3())
        for p in range(0, 6):
            for q in range(0, 6):
                if gcd(p, q) != 1:
                    continue
                want = 2 if (p - q) % 2 else 1
                assert slope_cusp(st3(), p, q, rep).cylinder_count == want

    def test_invalid_directions(self):
        with pytest.raises(ValueError):
            slope_cusp(st3(), 0, 0)
        with pytest.raises(ValueError):
            slope_cusp(st3(), 2, 4)

    def test_report_of_another_orbit_is_a_value_error(self):
        with pytest.raises(ValueError, match="not the orbit of o"):
            slope_cusp(st3(), 1, 1, report=orbit(st4()))

    @given(st.integers(2, 5), st.integers(0, 10**6))
    def test_cusp_count_matches_decomposition(self, n, seed):
        from origamis.cylinders import decomposition_in_direction

        rng = random.Random(seed)
        o = canonical_form(random_origami(n, rng))
        rep = orbit(o)
        p, q = 0, 0
        while gcd(p, q) != 1:
            p, q = rng.randint(-4, 4), rng.randint(-4, 4)
        direct = len(decomposition_in_direction(o, p, q).cylinders)
        assert slope_cusp(o, p, q, rep).cylinder_count == direct


class TestHyperbolicHelpers:
    def test_geodesic_endpoints(self):
        assert geodesic_endpoints(((1, 0), (0, 1))) == (0, inf)
        assert geodesic_endpoints(((1, 1), (0, 1))) == (1, inf)
        assert geodesic_endpoints(((2, 1), (1, 1))) == (F(1, 2), 1)

    def test_geodesic_validation(self):
        with pytest.raises(ValueError):
            geodesic_endpoints(((1, 0), (0, -1)))
        with pytest.raises(ValueError):
            geodesic_endpoints(((0, 1), (0, 1)))

    def test_horocycle(self):
        h = horocycle_data(((1, 0), (1, 1)))
        assert h.endpoint == 1 and h.apogee == (1, 1) and not h.based_at_infinity
        h2 = horocycle_data(((0, -1), (1, 0)))
        assert h2.endpoint == 0 and h2.apogee == (0, 1)

    def test_horocycle_at_infinity(self):
        h = horocycle_data(((1, 1), (0, 1)))
        assert h.based_at_infinity and h.endpoint == inf and h.apogee is None

    def test_horocycle_validation(self):
        with pytest.raises(ValueError):
            horocycle_data(((2, 0), (0, 1)))

    def test_torus_points(self):
        assert torus_point((1, 0), (0, 1)) == (0, 1)
        assert torus_point((1, 0), (F(1, 3), 2)) == (F(1, 3), 2)
        assert torus_point((0, 1), (-1, 0)) == (0, 1)
        assert torus_point((2, 1), (F(1, 2), 3)) == (F(4, 5), F(11, 10))
        assert all(type(x) is F for x in torus_point((1, 0), (0, 1)))

    def test_torus_point_validation(self):
        with pytest.raises(ValueError):
            torus_point((1, 0), (2, 0))
        with pytest.raises(ValueError):
            torus_point((0, 1), (1, 0))  # negatively oriented
