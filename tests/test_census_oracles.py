"""The census against closed formulas that share no code with it.

Mass formula (Eskin–Okounkov): a square-tiled surface with n squares is a
transitive pair (h, v) in S_n × S_n up to simultaneous conjugation, and the
conjugacy class of o has n!/|Aut(o)| pairs. So Σ 1/|Aut(o)| over the census
is a_n/n!, where a_n counts the transitive pairs: every pair splits into the
orbit of 1 (k squares, C(n−1, k−1) ways to pick them) and a free rest,
a_n = n!² − Σ_{k<n} C(n−1, k−1)·a_k·((n−k)!)².

H(2) count: every surface in H(2) covers a reduced one through one of the
σ(k) sublattices of index k in ℤ², so their number is Σ_{k|n} σ(k)·P(n/k),
with P(m) = (3/8)(m−2)m²∏_{p|m}(1−p⁻²) reduced surfaces for m ≥ 3
(Hubert–Lelièvre; Eskin–Masur–Schmoll) and P(1) = P(2) = 0.
"""

from fractions import Fraction
from math import comb, factorial

import pytest

from origamis.catalog import canonical_origamis, enumerate_origamis

SLOW_N = pytest.param(8, marks=pytest.mark.slow)


def transitive_pairs(n: int) -> int:
    a = [0]
    for m in range(1, n + 1):
        a.append(factorial(m) ** 2 - sum(comb(m - 1, k - 1) * a[k] * factorial(m - k) ** 2 for k in range(1, m)))
    return a[n]


def relabelled(h: tuple[int, ...], v: tuple[int, ...], root: int):
    """(h, v) with the squares renamed 1, 2, ... in the order a breadth-first
    search from root over h and v first meets them."""
    name = {root: 1}
    queue = [root]
    for s in queue:
        for t in (h[s - 1], v[s - 1]):
            if t not in name:
                name[t] = len(name) + 1
                queue.append(t)
    assert len(name) == len(h), "the pair is transitive"
    new_h, new_v = [0] * len(h), [0] * len(h)
    for s, i in name.items():
        new_h[i - 1], new_v[i - 1] = name[h[s - 1]], name[v[s - 1]]
    return tuple(new_h), tuple(new_v)


def automorphisms(h: tuple[int, ...], v: tuple[int, ...]) -> int:
    """|Aut(h, v)|: the automorphisms act freely on the squares, and one takes
    square 1 to r exactly when the search from r relabels (h, v) as the search
    from 1 does."""
    first = relabelled(h, v, 1)
    return sum(relabelled(h, v, r) == first for r in range(1, len(h) + 1))


def reduced_h2(m: int) -> Fraction:
    if m < 3:
        return Fraction(0)
    value = Fraction(3, 8) * (m - 2) * m * m
    for p in range(2, m + 1):
        if m % p == 0 and all(p % q for q in range(2, p)):
            value *= 1 - Fraction(1, p * p)
    return value


def h2_count(n: int) -> int:
    total = sum(sum(d for d in range(1, k + 1) if k % d == 0) * reduced_h2(n // k) for k in range(1, n + 1) if n % k == 0)
    assert total.denominator == 1
    return int(total)


def test_the_oracles_give_the_published_values():
    assert [Fraction(transitive_pairs(n), factorial(n)) for n in range(1, 8)] == [
        1, Fraction(3, 2), Fraction(13, 3), Fraction(71, 4), Fraction(461, 5), Fraction(1149, 2), Fraction(29093, 7)
    ]
    assert [h2_count(n) for n in range(1, 9)] == [0, 0, 3, 9, 27, 45, 90, 135]


@pytest.mark.parametrize("n", [*range(1, 8), SLOW_N])
def test_mass_formula(n):
    mass = sum(Fraction(1, automorphisms(o.h.images, o.v.images)) for o in canonical_origamis(n))
    assert mass == Fraction(transitive_pairs(n), factorial(n))


@pytest.mark.parametrize("n", [*range(1, 8), SLOW_N])
def test_h2_count(n):
    assert len(enumerate_origamis(n, "H(2)")) == h2_count(n)
