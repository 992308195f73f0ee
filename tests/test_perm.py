import pytest
from hypothesis import given
from hypothesis import strategies as st

from origamis.catalog import _transitive_pair
from origamis.perm import Permutation, compose, conjugate, cycles, is_transitive


def P(text, n=None):
    return Permutation.parse(text, n)


def perms(max_degree=8):
    return st.integers(1, max_degree).flatmap(
        lambda n: st.permutations(list(range(1, n + 1))).map(lambda im: Permutation(tuple(im)))
    )


def same_degree_pairs(max_degree=8):
    return st.integers(1, max_degree).flatmap(
        lambda n: st.tuples(
            st.permutations(list(range(1, n + 1))).map(lambda im: Permutation(tuple(im))),
            st.permutations(list(range(1, n + 1))).map(lambda im: Permutation(tuple(im))),
        )
    )


class TestCompose:
    def test_identity_neutral(self):
        assert compose(Permutation.identity(3), Permutation.identity(3)) == Permutation.identity(3)

    def test_involution(self):
        t = P("(1,2)", 2)
        assert compose(t, t) == Permutation.identity(2)

    def test_right_factor_acts_first(self):
        # direct evaluation: p(q(1))=p(3)=3, p(q(2))=p(2)=1, p(q(3))=p(1)=2
        p, q = P("(1,2)", 3), P("(1,3)", 3)
        assert compose(p, q) == Permutation((3, 1, 2))
        assert compose(p, q) == P("(1,3,2)", 3)

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            compose(Permutation.identity(2), Permutation.identity(3))


class TestCycles:
    def test_identity(self):
        assert cycles(Permutation.identity(3)) == [(1,), (2,), (3,)]

    def test_transposition_with_fixed_point(self):
        assert cycles(Permutation((2, 1, 3))) == [(1, 2), (3,)]

    def test_three_cycle(self):
        assert cycles(Permutation((2, 3, 1))) == [(1, 2, 3)]


class TestConjugate:
    def test_by_identity(self):
        t = P("(1,2)", 3)
        assert conjugate(t, Permutation.identity(3)) == t

    def test_relabeling(self):
        # g p g^{-1} with p=(1 2), g=(2 3): direct evaluation gives (1 3)
        assert conjugate(P("(1,2)", 3), P("(2,3)", 3)) == P("(1,3)", 3)

    def test_self_conjugation(self):
        c = P("(1,2,3)", 3)
        assert conjugate(c, c) == c


class TestTransitive:
    def test_two_transpositions(self):
        assert is_transitive([P("(1,2)", 3), P("(1,3)", 3)])

    def test_identities_are_not(self):
        assert not is_transitive([Permutation.identity(2), Permutation.identity(2)])

    def test_st4_pair(self):
        assert is_transitive([P("(1,2)(3,4)", 4), P("(1,2,3,4)", 4)])

    def test_degree_zero_is_not(self):
        # no point to start from: the empty surface is not connected
        assert not is_transitive([Permutation(()), Permutation(())])

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            is_transitive([])

    @given(same_degree_pairs(7))
    def test_against_reachability_oracle(self, pair):
        p, q = pair
        n = p.degree
        # oracle: closure of {1} under both generators and their inverses
        reach = {1}
        frontier = [1]
        gens = [p, q, p.inverse(), q.inverse()]
        while frontier:
            i = frontier.pop()
            for g in gens:
                j = g(i)
                if j not in reach:
                    reach.add(j)
                    frontier.append(j)
        assert is_transitive([p, q]) == (len(reach) == n)
        assert _transitive_pair(p.images, q.images) == (len(reach) == n)


class TestProperties:
    @given(perms())
    def test_identity_is_neutral(self, p):
        e = Permutation.identity(p.degree)
        assert compose(p, e) == p == compose(e, p)

    @given(perms())
    def test_inverse(self, p):
        assert compose(p, p.inverse()) == Permutation.identity(p.degree)

    @given(same_degree_pairs())
    def test_conjugation_preserves_cycle_type(self, pair):
        p, g = pair
        assert conjugate(p, g).cycle_type() == p.cycle_type()

    @given(perms())
    def test_cycle_lengths_sum_to_degree(self, p):
        assert sum(len(c) for c in cycles(p)) == p.degree


class TestText:
    def test_parse_one_line(self):
        assert P("[2,1,3]") == Permutation((2, 1, 3))

    def test_parse_cycles_with_fixed_point(self):
        assert P("(1,2)(3)", 3) == Permutation((2, 1, 3))

    def test_identity_round_trip(self):
        e = Permutation.identity(4)
        assert str(e) == "()"
        assert P(str(e), 4) == e

    @given(perms())
    def test_str_round_trip(self, p):
        assert P(str(p), p.degree) == p

    def test_bad_text(self):
        with pytest.raises(ValueError):
            P("(1,2")
        with pytest.raises(ValueError):
            P("[1,1]")
        with pytest.raises(ValueError):
            P("()")  # identity requires a degree
