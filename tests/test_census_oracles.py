"""The census against closed formulas that share no code with it.

Mass formula (Eskin–Okounkov): a square-tiled surface with n squares is a
transitive pair (h, v) in S_n × S_n up to simultaneous conjugation, and the
conjugacy class of o has n!/|Aut(o)| pairs. So Σ 1/|Aut(o)| over the census
is a_n/n!, where a_n counts the transitive pairs: every pair splits into the
orbit of 1 (k squares, C(n−1, k−1) ways to pick them) and a free rest,
a_n = n!² − Σ_{k<n} C(n−1, k−1)·a_k·((n−k)!)².

There are a_n/(n−1)! transitive pairs labelled by a breadth-first search
from square 1, since the labellings of a pair that fix square 1 act freely;
`reference_pairs`, the census's earlier generator, builds each of them once.
The census builds only those whose square 1 is in an h-cycle of least class
(its length, or 4 for four and more), since only those can be their own
canonical key. The number of classes is OEIS A057005; the census stops
when its orbits hold them all, counted by Liskovets' formula, which is
checked here against the published values.

H(2) count: every surface in H(2) covers a reduced one through one of the
σ(k) sublattices of index k in ℤ², so their number is Σ_{k|n} σ(k)·P(n/k),
with P(m) = (3/8)(m−2)m²∏_{p|m}(1−p⁻²) reduced surfaces for m ≥ 3
(Hubert–Lelièvre; Eskin–Masur–Schmoll) and P(1) = P(2) = 0.
"""

import gc
from fractions import Fraction
from itertools import permutations
from math import comb, factorial
from types import FunctionType

import pytest

from origamis import catalog
from origamis.action import OrbitReport
from origamis.catalog import canonical_origamis, enumerate_origamis
from origamis.origami import _canonical_key, _tables

SLOW_N = pytest.param(8, marks=pytest.mark.slow)
A057005 = [1, 3, 7, 26, 97, 624, 4163, 34470, 314493, 3202839, 35704007]


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


@pytest.mark.parametrize("n", [*range(1, 8), SLOW_N, pytest.param(9, marks=pytest.mark.slow)])
def test_class_count(n):
    assert len(canonical_origamis(n)) == A057005[n - 1]


def test_liskovets_formula_gives_the_published_class_counts():
    assert [catalog._class_count(n) for n in range(1, 12)] == A057005


def reference_pairs(n: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every transitive pair labelled by the BFS from square 1, once each, in
    the order the census's earlier generator (kept verbatim) builds them."""
    maps = [[0] * (n + 1) for _ in range(4)]  # h, h⁻¹, v, v⁻¹: maps[k ^ 1] inverts maps[k]
    last = 4 * n  # slot 4(s-1) + k holds maps[k][s]

    def pairs(slot: int, used: int):
        while slot < last and maps[slot & 3][(slot >> 2) + 1]:
            slot += 1  # filled by an earlier choice, through its inverse slot
        if slot == last:
            yield tuple(maps[0][1:]), tuple(maps[2][1:])
            return
        s, k = (slot >> 2) + 1, slot & 3
        if s > used:  # the queue ran dry before n squares: not transitive
            return
        fwd, back = maps[k], maps[k ^ 1]
        for t in range(1, min(used + 1, n) + 1):
            if not back[t]:
                fwd[s], back[t] = t, s
                yield from pairs(slot + 1, max(used, t))
                fwd[s] = back[t] = 0

    return list(pairs(0, 1))


def h_class(h: tuple[int, ...], s: int) -> int:
    """The length of the h-cycle through square s, or 4 if it is longer."""
    length, t = 1, h[s - 1]
    while t != s and length < 4:
        length, t = length + 1, h[t - 1]
    return length


def square_one_of_least_class(h: tuple[int, ...]) -> bool:
    return h_class(h, 1) == min(h_class(h, s) for s in range(1, len(h) + 1))


@pytest.mark.parametrize("n", range(1, 8))
def test_each_labelled_pair_is_built_once(n, monkeypatch):
    built = []

    def key(h, hinv, v, vinv, **options):
        assert options == {"bfs_labelled": True}
        # the census passes its live move tables: record a copy of the pair
        built.append((tuple(h[1:]), tuple(v[1:])))
        return _canonical_key(h, hinv, v, vinv, **options)

    monkeypatch.setattr(catalog, "_canonical_key", key)
    canonical_origamis(n)
    reference = reference_pairs(n)
    assert len(reference) == transitive_pairs(n) // factorial(n - 1)
    # exactly the reference pairs whose square 1 has least class, in the reference's order
    assert built == [(h, v) for h, v in reference if square_one_of_least_class(h)]
    assert len(set(built)) == len(built)
    assert len(built) == [1, 3, 9, 47, 227, 1651, 11415][n - 1]
    assert all(searched_in_label_order(h, v) for h, v in built)
    assert all(_canonical_key(*_tables(h, v)) != (h, v) for h, v in set(reference) - set(built))


@pytest.mark.parametrize("n", range(1, 6))
def test_the_build_order_is_the_generations(n, monkeypatch):
    built = []

    def key(h, hinv, v, vinv, **options):
        built.append((tuple(h[1:]), tuple(v[1:])))
        return _canonical_key(h, hinv, v, vinv, **options)

    monkeypatch.setattr(catalog, "_canonical_key", key)
    canonical_origamis(n)
    orders = [catalog._build_order(pair) for pair in built]
    assert () not in orders
    assert orders == sorted(set(orders))
    # every other pair in S_n × S_n, transitive or not, labelled by the search or not
    everything = {(h, v) for h in permutations(range(1, n + 1)) for v in permutations(range(1, n + 1))}
    assert all(catalog._build_order(pair) == () for pair in everything - set(built))


@pytest.mark.parametrize("n", range(1, 8))
def test_the_census_tests_only_the_pairs_no_orbit_has_placed(n, monkeypatch):
    tested = []

    def key(h, hinv, v, vinv, **options):
        if options.get("bfs_labelled"):  # the census's -I keys are plain searches
            tested.append((tuple(h[1:]), tuple(v[1:])))
        return _canonical_key(h, hinv, v, vinv, **options)

    monkeypatch.setattr(catalog, "_canonical_key", key)
    entries = enumerate_origamis(n)
    by_census = tested.copy()
    tested.clear()
    keys = {(o.h.images, o.v.images) for o in canonical_origamis(n)}
    assert len(by_census) == [1, 1, 2, 11, 10, 212, 648][n - 1]
    assert len(tested) == [1, 3, 9, 47, 227, 1651, 11415][n - 1]
    # the census tests a subsequence of the generation's pairs and stops at the
    # last orbit's seed; in the prefix of the generation it ran, the pairs it
    # skips are canonical keys, and the keys it tests are one seed per orbit
    rest = iter(tested)
    assert all(pair in rest for pair in by_census)
    assert by_census[-1] in keys
    ran = tested[: tested.index(by_census[-1]) + 1]
    assert set(ran) - set(by_census) <= keys
    assert len(keys.intersection(by_census)) == len({e.orbit_id for e in entries})


def test_an_orbit_member_the_generation_never_builds_is_caught(monkeypatch):
    # h a 3-cycle with h(1) = 3: the breadth-first search from square 1 names
    # h(1) square 2, so the generation never builds this pair
    extra = ((3, 1, 2), (1, 2, 3))
    orbit = catalog.orbit

    def padded(o):
        report = orbit(o)
        fields = {name: getattr(report, name) for name in OrbitReport.__match_args__}
        return OrbitReport(**{**fields, "members": (*report.members, (extra, 0))})

    monkeypatch.setattr(catalog, "orbit", padded)
    with pytest.raises(AssertionError, match="orbit members missing from the enumeration"):
        enumerate_origamis(3)


@pytest.mark.parametrize("n", range(2, 8))
def test_an_orbit_member_dropped_from_each_report_is_caught(n, monkeypatch):
    # the dropped key is not placed, so the generation tests it, finds it
    # canonical and seeds its orbit a second time. That puts back members it
    # has built, which come before the stop, and the count passes c_n unless
    # it lands on c_n exactly (as at n = 3)
    orbit = catalog.orbit

    def dropped(o):
        report = orbit(o)
        seed = (o.h.images, o.v.images)
        last = max((k for k, _ in report.members if k != seed), default=None)  # a member other than the seed
        fields = {name: getattr(report, name) for name in OrbitReport.__match_args__}
        return OrbitReport(**{**fields, "members": tuple(m for m in report.members if m[0] != last)})

    monkeypatch.setattr(catalog, "orbit", dropped)
    with pytest.raises(AssertionError):
        enumerate_origamis(n)


@pytest.mark.parametrize("n", range(2, 8))
def test_a_report_without_its_seed_is_caught(n, monkeypatch):
    # the first seed is the first canonical pair built, so the census stops on
    # it with the named fault, not a bare KeyError from taking it out of unbuilt
    orbit = catalog.orbit

    def dropped(o):
        report = orbit(o)
        seed = (o.h.images, o.v.images)
        fields = {name: getattr(report, name) for name in OrbitReport.__match_args__}
        return OrbitReport(**{**fields, "members": tuple(m for m in report.members if m[0] != seed)})

    monkeypatch.setattr(catalog, "orbit", dropped)
    with pytest.raises(AssertionError, match="orbit members missing from the enumeration"):
        enumerate_origamis(n)


def test_a_key_two_orbits_place_is_caught(monkeypatch):
    # at n = 4 the orbits, in seed order, hold 6, 9, 4, 6 and 1 surfaces. A
    # member of the second orbit copied into the first report is counted
    # twice, so the count reaches c_4 = 26 at the fourth seed, and the last
    # orbit would be left out; the copy still waits when the second orbit
    # places it again
    orbit = catalog.orbit
    seeds, reports = [], []

    def recorded(o):
        seeds.append((o.h.images, o.v.images))
        reports.append(orbit(o))
        return reports[-1]

    monkeypatch.setattr(catalog, "orbit", recorded)
    enumerate_origamis(4)
    assert [len(r.members) for r in reports] == [6, 9, 4, 6, 1]
    assert not any(r.minus_id_nontrivial for r in reports)
    copy = max(m for m in reports[1].members if m[0] != seeds[1])  # a member built after its seed

    def copied(o):
        report = orbit(o)
        if (o.h.images, o.v.images) != seeds[0]:
            return report
        fields = {name: getattr(report, name) for name in OrbitReport.__match_args__}
        return OrbitReport(**{**fields, "members": (*report.members, copy)})

    monkeypatch.setattr(catalog, "orbit", copied)
    with pytest.raises(AssertionError, match="orbit members missing from the enumeration"):
        enumerate_origamis(4)


@pytest.mark.parametrize("n", range(1, 8))
def test_a_class_count_the_orbits_do_not_reach_is_caught(n, monkeypatch):
    # the generation runs to its end without a stop, and the count falls short by one
    monkeypatch.setattr(catalog, "_class_count", lambda n: A057005[n - 1] + 1)
    with pytest.raises(AssertionError, match=f"the orbits hold {A057005[n - 1]} surfaces"):
        enumerate_origamis(n)


def test_a_stopped_generation_frees_its_closure():
    # with the collector off, only breaking the closure's cycle frees it
    gc.collect()
    gc.disable()
    try:
        enumerate_origamis(5)  # stops at the 18th of 227 pairs
        left = [f for f in gc.get_objects()
                if type(f) is FunctionType and f.__qualname__ == "_orderly_generation.<locals>.pairs"]
    finally:
        gc.enable()
    assert not left


def searched_in_label_order(h: tuple[int, ...], v: tuple[int, ...]) -> bool:
    """Whether a breadth-first search from square 1 over the moves h, h⁻¹, v,
    v⁻¹, in that order, meets the squares as 1, 2, ..., n."""
    h_inv = {t: s for s, t in enumerate(h, start=1)}
    v_inv = {t: s for s, t in enumerate(v, start=1)}
    met = [1]
    for s in met:
        for t in (h[s - 1], h_inv[s], v[s - 1], v_inv[s]):
            if t not in met:
                met.append(t)
    return met == list(range(1, len(h) + 1))
