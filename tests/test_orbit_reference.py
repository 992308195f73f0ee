"""`orbit` against the T/S coset-table search it replaced.

The reference below is the breadth-first search that applied T and S to
every projective class, 1 + 2·index canonical keys per orbit, with the
pair-returning `reference_proj_key` that computed the -I key of every member.
The search under test runs on S and S∘T, whose relations S² = (S∘T)³ = -I
close a whole 2-cycle of s from one computed image and a whole 3-cycle of S∘T
from two, and decides -I once per orbit. Every OrbitReport field must agree
(members without the reference's -I column), the census must label exactly
the reference's -I keys, and the number of keys is exact:
1 + (index + e2)/2 + (2·index + e3)/3.

The reference acts on image tuples with `_act` and `_inverse` as they were
before the search moved to move tables, kept verbatim below, so it shares no
action code with the package; the package's `_act` on move tables must give
the same images, with inverse tables that invert them.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from origamis import action
from origamis.action import Cusp, OrbitReport, _proj_key, orbit
from origamis.catalog import canonical_origamis, enumerate_origamis
from origamis.origami import Origami, _canonical_key, _tables, genus, is_reduced, random_origami, st3, st4
from origamis.perm import Permutation


def _inverse(p: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(p)
    for i, j in enumerate(p, start=1):
        inv[j - 1] = i
    return tuple(inv)


def _act(g: str, h: tuple[int, ...], v: tuple[int, ...]):
    """Image tuples of (h, v) under the generator g."""
    if g == "T":
        return h, tuple([v[j - 1] for j in _inverse(h)])
    if g == "S":
        return v, _inverse(h)
    if g == "T^-1":
        return h, tuple([v[j - 1] for j in h])
    return _inverse(v), h  # S^-1; SL2ZWord admits no other generator


def reference_proj_key(h: tuple[int, ...], v: tuple[int, ...], half_turn_trivial: bool):
    """Canonical keys of (h, v) and of -I·(h, v) = (h⁻¹, v⁻¹), least first.

    The first key names the projective class {o, -I·o}. When -I fixes o the
    two keys are one object, so an orbit table stores no second copy. With
    half_turn_trivial (genus ≤ 2, where -I is the hyperelliptic involution)
    the second key is not computed.
    """
    k1 = _canonical_key(*_tables(h, v))
    if half_turn_trivial:
        return k1, k1
    k2 = _canonical_key(*_tables(_inverse(h), _inverse(v)))
    if k1 == k2:
        return k1, k1
    return (k1, k2) if k1 < k2 else (k2, k1)


def reference_orbit(o: Origami) -> OrbitReport:
    """The T/S coset-table search, with its report code; members are
    (projective key, -I key, cusp index) triples."""
    from origamis.cylinders import horizontal_decomposition

    # genus is SL2(Z)-invariant, so one test covers every member
    half_turn_trivial = genus(o) <= 2
    keys = [reference_proj_key(o.h.images, o.v.images, half_turn_trivial)]  # (key, -I key) per element
    position = {keys[0][0]: 0}
    t: list[int] = []
    s: list[int] = []
    for (h, v), _ in keys:  # keys grows while the loop runs: this is the BFS queue
        for images, g in ((t, "T"), (s, "S")):
            pair = reference_proj_key(*_act(g, h, v), half_turn_trivial)
            j = position.get(pair[0])
            if j is None:
                j = position[pair[0]] = len(keys)
                keys.append(pair)
            images.append(j)
    index = len(keys)
    order = sorted(range(index), key=lambda i: keys[i][0])

    # cusps: the cycles of t, each walked from its least key
    cycles = []
    walked = [False] * index
    for i in order:
        cyc = []
        j = i
        while not walked[j]:
            walked[j] = True
            cyc.append(j)
            j = t[j]
        if cyc:
            cycles.append(cyc)
    cycles.sort(key=len, reverse=True)
    cusp_of = [0] * index
    for c, cyc in enumerate(cycles):
        for i in cyc:
            cusp_of[i] = c
    cusps = tuple(
        Cusp(len(cyc), len(horizontal_decomposition(Origami(*map(Permutation, keys[cyc[0]][0])))))
        for cyc in cycles
    )

    assert sum(c.width for c in cusps) == index, "cusp widths must partition the orbit"
    e2 = sum(1 for i in range(index) if s[i] == i)
    e3 = sum(1 for i in range(index) if s[t[i]] == i)
    g = Fraction(1) + Fraction(index, 12) - Fraction(e2, 4) - Fraction(e3, 3) - Fraction(len(cusps), 2)
    assert g.denominator == 1 and g >= 0, f"bad curve genus {g}"
    return OrbitReport(
        index=index,
        cusps=cusps,
        e2=e2,
        e3=e3,
        curve_genus=int(g),
        input_reduced=is_reduced(o),
        minus_id_nontrivial=any(k != minus_k for k, minus_k in keys),
        members=tuple((*keys[i], cusp_of[i]) for i in order),
    )


def one_per_orbit(n: int) -> list[Origami]:
    """The least surface of every n-square orbit."""
    seen: set = set()
    firsts = []
    for o in canonical_origamis(n):
        key = (o.h.images, o.v.images)
        if key in seen:
            continue
        firsts.append(o)
        seen.update(k for m in reference_orbit(o).members for k in m[:2])
    return firsts


ORBIT_FIRSTS = [o for n in range(1, 7) for o in one_per_orbit(n)]
# n = 2..9, two seeds each; the larger ones have genus 3 or more
RANDOM = [random_origami(n, random.Random(seed)) for n in range(2, 10) for seed in (1, 3)]
SURFACES = ORBIT_FIRSTS + RANDOM


def _fields(report: OrbitReport) -> dict:
    """Every field but members, whose columns are compared separately."""
    return {f: getattr(report, f) for f in OrbitReport.__dataclass_fields__ if f != "members"}


@pytest.mark.parametrize("o", SURFACES, ids=lambda o: o.to_text())
def test_every_report_field_matches_the_reference(o):
    got, want = orbit(o), reference_orbit(o)
    assert _fields(got) == _fields(want)  # minus_id_nontrivial among them
    assert got.members == tuple((key, c) for key, _, c in want.members)


@pytest.fixture(scope="module")
def census_orbits():
    """For each n ≤ 6, the canonical texts the census labels with each orbit id."""
    labelled = {}
    for n in range(1, 7):
        for e in enumerate_origamis(n):
            labelled.setdefault(e.orbit_id, set()).add(e.origami)
    return labelled


@pytest.mark.parametrize("o", ORBIT_FIRSTS, ids=lambda o: o.to_text())
def test_the_census_labels_the_reference_minus_id_keys(o, census_orbits):
    texts = {Origami(*map(Permutation, k)).to_text() for m in reference_orbit(o).members for k in m[:2]}
    assert census_orbits[min(texts)] == texts


def test_the_surfaces_cover_both_half_turn_cases():
    assert any(genus(o) > 2 for o in SURFACES)
    assert any(reference_orbit(o).minus_id_nontrivial for o in ORBIT_FIRSTS)
    assert any(reference_orbit(o).minus_id_nontrivial for o in RANDOM)


@given(st.integers(1, 12), st.integers(0, 10**6))
def test_one_pass_key_is_the_least_key_of_both_orientations(n, seed):
    o = random_origami(n, random.Random(seed))
    h, v = o.h.images, o.v.images
    both = min(_canonical_key(*_tables(h, v)), _canonical_key(*_tables(_inverse(h), _inverse(v))))
    assert _canonical_key(*_tables(h, v), True) == both


@pytest.mark.parametrize("o", [st3(), st4(), *RANDOM], ids=lambda o: o.to_text())
def test_key_count_is_one_per_s_pair_and_two_per_u_triple(o, monkeypatch):
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return _proj_key(*args)

    monkeypatch.setattr(action, "_proj_key", counted)
    r = orbit(o)
    assert calls == 1 + (r.index + r.e2) // 2 + (2 * r.index + r.e3) // 3
    assert (r.index + r.e2) % 2 == 0 and (2 * r.index + r.e3) % 3 == 0


GENERATORS = ("T", "T^-1", "S", "S^-1")


@given(st.integers(1, 12), st.integers(0, 10**6), st.lists(st.sampled_from(GENERATORS), max_size=12))
def test_act_on_move_tables_matches_the_image_tuple_reference(n, seed, word):
    # every generator on its own, then a random word, one step at a time
    o = random_origami(n, random.Random(seed))
    for gens in ([g] for g in GENERATORS):
        check_steps(o.h.images, o.v.images, gens)
    check_steps(o.h.images, o.v.images, word)


def check_steps(h, v, gens):
    """Step the reference on image tuples and _act on move tables side by side."""
    tables = _tables(h, v)
    for g in gens:
        h, v = _act(g, h, v)
        tables = action._act(g, *tables)
        assert (tables[0][1:], tables[2][1:]) == (h, v), g
        for p, inv in (tables[:2], tables[2:]):
            assert p[0] == inv[0] == 0, g
            assert all(inv[p[s]] == s == p[inv[s]] for s in range(1, len(h) + 1)), g
