"""`orbit` against the T/S coset-table search it replaced.

The reference below is the breadth-first search that applied T and S to
every projective class, 1 + 2·index canonical keys per orbit. The search
under test runs on S and S∘T, whose relations S² = (S∘T)³ = -I close a whole
2-cycle of s from one computed image and a whole 3-cycle of S∘T from two.
Every OrbitReport field must agree, and the number of keys is exact:
1 + (index + e2)/2 + (2·index + e3)/3.
"""

import random
from fractions import Fraction

import pytest

from origamis import action
from origamis.action import Cusp, OrbitReport, _act, _proj_key, orbit
from origamis.catalog import canonical_origamis
from origamis.origami import Origami, genus, is_reduced, random_origami, st3, st4
from origamis.perm import Permutation


def reference_orbit(o: Origami) -> OrbitReport:
    """The T/S coset-table search, with its report code."""
    from origamis.cylinders import horizontal_decomposition

    # genus is SL2(Z)-invariant, so one test covers every member
    half_turn_trivial = genus(o) <= 2
    keys = [_proj_key(o.h.images, o.v.images, half_turn_trivial)]  # (key, -I key) per element
    position = {keys[0][0]: 0}
    t: list[int] = []
    s: list[int] = []
    for (h, v), _ in keys:  # keys grows while the loop runs: this is the BFS queue
        for images, g in ((t, "T"), (s, "S")):
            pair = _proj_key(*_act(g, h, v), half_turn_trivial)
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
    return {f: getattr(report, f) for f in OrbitReport.__dataclass_fields__}


@pytest.mark.parametrize("o", SURFACES, ids=lambda o: o.to_text())
def test_every_report_field_matches_the_reference(o):
    assert _fields(orbit(o)) == _fields(reference_orbit(o))


def test_the_surfaces_cover_both_half_turn_cases():
    assert any(genus(o) > 2 for o in SURFACES)
    assert any(reference_orbit(o).minus_id_nontrivial for o in SURFACES)


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
