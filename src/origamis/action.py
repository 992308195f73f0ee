"""The SL₂(ℤ)-action on origamis: orbits, Veech groups, cusps, elliptic points.

Action formulas, fixed by the package's worked fixtures (``_act`` holds the
only copy, on the move tables (h, h⁻¹, v, v⁻¹) of origami._tables, so no step
rebuilds an inverse):

    T:   (h, v) -> (h, v∘h⁻¹)          (horizontal shear)
    T⁻¹: (h, v) -> (h, v∘h)
    S:   (h, v) -> (v, h⁻¹)            (quarter rotation)
    S⁻¹: (h, v) -> (v⁻¹, h)

With these, T·St(3) is the other three-square surface, T²·St(3) ≅ St(3) and
S·St(3) ≅ St(3), as they must be.

Words carry their integer matrix with the generator matrices
T = [[1,1],[0,1]] and S = [[0,-1],[1,0]].  The realized quarter rotation is
the clockwise one, i.e. S up to the central element -I; all membership and
orbit computations here are projective (-I is identified away), which is
exact for genus ≤ 2 and flagged otherwise in OrbitReport. Words are built
by one Euclid, _column_word, on a primitive column: direction_to_horizontal
runs it on the direction, word_for_matrix on the matrix's first column.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from functools import cached_property

from ._record import record
from .intlattice import _int_arg, exact_rational
from .origami import Origami, _canonical_key, _horizontal_rows, _singular_corners, _tables, genus, is_reduced
from .perm import Permutation, _cycles

INFINITY = math.inf

_GEN_MATS = {
    "T": ((1, 1), (0, 1)),
    "T^-1": ((1, -1), (0, 1)),
    "S": ((0, -1), (1, 0)),
    "S^-1": ((0, 1), (-1, 0)),
}
_INVERSE_GEN = {"T": "T^-1", "T^-1": "T", "S": "S^-1", "S^-1": "S"}


def _mat_mul2(A, B):
    return (
        (A[0][0] * B[0][0] + A[0][1] * B[1][0], A[0][0] * B[0][1] + A[0][1] * B[1][1]),
        (A[1][0] * B[0][0] + A[1][1] * B[1][0], A[1][0] * B[0][1] + A[1][1] * B[1][1]),
    )


@record
class SL2ZWord:
    """A word in the generators T, T⁻¹, S, S⁻¹, applied right-to-left."""

    gens: tuple[str, ...] = ()

    def __post_init__(self):
        for g in self.gens:
            if g not in _GEN_MATS:
                raise ValueError(f"unknown generator {g!r}")

    @cached_property
    def matrix(self) -> tuple[tuple[int, int], tuple[int, int]]:
        M = ((1, 0), (0, 1))
        for g in self.gens:
            M = _mat_mul2(M, _GEN_MATS[g])
        return M

    def __mul__(self, other: "SL2ZWord") -> "SL2ZWord":
        return SL2ZWord(self.gens + other.gens)

    def inverse(self) -> "SL2ZWord":
        return SL2ZWord(tuple(_INVERSE_GEN[g] for g in reversed(self.gens)))

    def __pow__(self, k: int) -> "SL2ZWord":
        if k < 0:
            return self.inverse() ** (-k)
        return SL2ZWord(self.gens * k)

    def __str__(self) -> str:
        return " ".join(self.gens) if self.gens else "1"


T_WORD = SL2ZWord(("T",))
S_WORD = SL2ZWord(("S",))


def _column_word(a: int, c: int) -> tuple[str, ...]:
    """The generators, as a word, whose matrix maps the primitive column
    (a, c) to (1, 0).

    Euclid on the column: T-powers shrink the top entry mod the bottom one,
    S⁻¹ swaps the rows; what remains is (±1, 0), and -I = S⁻². Quotients round
    toward zero, the classical Euclid on |a|, |c| in O(log) steps; floored,
    they would shrink |c| by one per step after S⁻¹ flips a sign.
    """
    gens: list[str] = []  # left factors applied to the column, in application order
    while c != 0:
        q = abs(a) // abs(c)
        if (a < 0) != (c < 0):
            q = -q
        if q:
            a -= q * c  # T^-q
            gens.extend(["T^-1" if q > 0 else "T"] * abs(q))
        a, c = c, -a  # S^-1
        gens.append("S^-1")
    if a == -1:
        gens.extend(["S^-1", "S^-1"])
    gens.reverse()  # the last factor applied is the leftmost letter
    return tuple(gens)


def direction_to_horizontal(p: int, q: int) -> SL2ZWord:
    """A word whose matrix U satisfies U·(p,q)ᵀ = (1,0)ᵀ: Euclid on the
    column (p, q). p and q must be ints, not bools."""
    _int_arg("p", p)
    _int_arg("q", q)
    if (p, q) == (0, 0):
        raise ValueError("direction (0, 0)")
    if math.gcd(p, q) != 1:
        raise ValueError(f"direction ({p}, {q}) is not primitive; divide by the gcd")
    word = SL2ZWord(_column_word(p, q))
    (a, b), (c, d) = word.matrix
    assert (a * p + b * q, c * p + d * q) == (1, 0)
    return word


def word_for_matrix(M) -> SL2ZWord:
    """A word in T, S whose matrix equals M exactly (M in SL₂(ℤ)).

    The column word U of M's first column gives U·M = T^k, so M = U⁻¹·T^k.
    """
    a, b = M[0]
    c, d = M[1]
    if a * d - b * c != 1:
        raise ValueError(f"matrix {M} is not in SL2(Z)")
    column = SL2ZWord(_column_word(a, c))
    (_, k), _ = _mat_mul2(column.matrix, M)
    word = column.inverse() * T_WORD**k
    assert word.matrix == (tuple(M[0]), tuple(M[1]))
    return word


# -- the action ------------------------------------------------------------------


def _act(g: str, h, hinv, v, vinv):
    """Move tables of the image of (h, v) under the generator g; the new
    inverses are compositions of the old tables, and an S step only permutes
    them."""
    if g == "T":
        return h, hinv, tuple([v[j] for j in hinv]), tuple([h[j] for j in vinv])
    if g == "S":
        return v, vinv, hinv, h
    if g == "T^-1":
        return h, hinv, tuple([v[j] for j in h]), tuple([hinv[j] for j in vinv])
    return vinv, v, h, hinv  # S^-1; SL2ZWord admits no other generator


def _act_word(w: SL2ZWord, tables):
    """Move tables of the image under w of the pair with these move tables:
    one _act per letter, the rightmost first."""
    for g in reversed(w.gens):
        tables = _act(g, *tables)
    return tables


def apply_word(w: SL2ZWord, o: Origami) -> Origami:
    h, _, v, _ = _act_word(w, _tables(o.h.images, o.v.images))
    return Origami(Permutation(h[1:]), Permutation(v[1:]))


# -- point transport (used to cross-check flow against the action) ----------------


def act_point(gen: str, h: tuple[int, ...], sq: int, x, y):
    """Image of the point (sq, x, y) under one generator, on the new surface;
    h is the image tuple of the horizontal gluing of the surface acted on.

    T shears each square and re-cuts at x = 1; S rotates clockwise. Points on
    a cut line get the representative lying in the square named first below.
    x and y are exact rationals (int or Fraction).
    """
    x, y = exact_rational(x), exact_rational(y)
    if gen == "T":
        if x + y < 1:
            return (sq, x + y, y)
        return (h[sq - 1], x + y - 1, y)
    if gen == "T^-1":
        if x >= y:
            return (sq, x - y, y)
        return (h.index(sq) + 1, x - y + 1, y)
    if gen == "S":
        return (sq, y, 1 - x)
    if gen == "S^-1":
        return (sq, 1 - y, x)
    raise ValueError(f"unknown generator {gen!r}")


def transport_point(w: SL2ZWord, o: Origami, sq: int, x, y):
    """Push (sq, x, y) through the whole word; returns (surface, sq, x, y)."""
    x, y = exact_rational(x), exact_rational(y)  # also for the empty word
    tables = _tables(o.h.images, o.v.images)
    for g in reversed(w.gens):
        sq, x, y = act_point(g, tables[0][1:], sq, x, y)
        tables = _act(g, *tables)
    return Origami(Permutation(tables[0][1:]), Permutation(tables[2][1:])), sq, x, y


def transport_direction(w: SL2ZWord, p, q):
    """The direction (p, q) as the point maps of w move it: w's matrix times
    (p, q), negated once per S letter, since the point maps realize S as the
    clockwise quarter turn -S."""
    p, q = exact_rational(p), exact_rational(q)  # also for the empty word
    (a, b), (c, d) = w.matrix
    if sum(g[0] == "S" for g in w.gens) % 2:
        a, b, c, d = -a, -b, -c, -d
    return a * p + b * q, c * p + d * q


# -- orbits ------------------------------------------------------------------------


def _proj_key(h, hinv, v, vinv, half_turn_trivial: bool):
    """The key of the projective class of the pair with move tables (h, h⁻¹,
    v, v⁻¹): the lesser canonical key of (h, v) and -I·(h, v) = (h⁻¹, v⁻¹) in
    one search, or with half_turn_trivial that of (h, v). A function of its
    own because the benchmark's action.proj_key.calls row and the orbit
    key-count test count its calls."""
    return _canonical_key(h, hinv, v, vinv, not half_turn_trivial)


@record
class Cusp:
    width: int
    cylinder_count: int


@record
class OrbitReport:
    index: int
    cusps: tuple[Cusp, ...]
    e2: int
    e3: int
    curve_genus: int
    input_reduced: bool
    minus_id_nontrivial: bool
    # one (projective key, index into cusps) per representative, sorted by key
    members: tuple[tuple[tuple, int], ...]

    @cached_property
    def representatives(self) -> tuple[Origami, ...]:
        """The canonical form of each member, in the order of members."""
        return tuple(Origami(*map(Permutation, key)) for key, _ in self.members)

    def cusp_widths(self) -> tuple[int, ...]:
        return tuple(sorted((c.width for c in self.cusps), reverse=True))


def orbit(o: Origami) -> OrbitReport:
    """The orbit of o under SL₂(ℤ)/±I as a coset table.

    PSL₂(ℤ) is the free product of ⟨S⟩ ≅ ℤ/2 and ⟨S∘T⟩ ≅ ℤ/3 (S² = (S∘T)³ =
    -I). A breadth-first search on the generators S and S∘T (T first) keeps
    their images as index lists s and u. One computed S-image closes a
    2-cycle of s and two computed S∘T-images close a 3-cycle of u, so the
    search computes 1 + (index + e2)/2 + (2·index + e3)/3 projective keys.
    Then t = s∘u, since S·(S∘T) = -I·T. Cusps are the cycles of t (width =
    cycle length, decoration = horizontal cylinder count of the least
    member); e2 and e3 count the fixed points of s and of u = s∘t; the curve
    genus comes from the index formula 1 + index/12 - e2/4 - e3/3 - cusps/2
    for subgroups of the modular group.

    -I is central, so it fixes one member iff it fixes all: it is decided
    once, on o (in genus ≤ 2 it is the hyperelliptic involution).

    The search steps on move tables: each element keeps the tables of the
    labelled surface that first reached it until it is dequeued, so only the
    queue holds tables, and no step rebuilds them from a key. The second S∘T
    step steps on from the S∘T-image just computed.
    """
    h, hinv, v, vinv = _tables(o.h.images, o.v.images)
    key = _proj_key(h, hinv, v, vinv, True)
    half_turn_trivial = genus(o) <= 2
    if not half_turn_trivial:  # -I·o = (h⁻¹, v⁻¹): the lesser of the two keys names the class
        other = _canonical_key(hinv, h, vinv, v)
        half_turn_trivial = key == other
        key = min(key, other)
    keys = [key]  # one projective key per element
    position = {key: 0}
    reps = [(h, hinv, v, vinv)]  # an element's move tables while it is queued, then None
    s: list[int | None] = [None]
    u: list[int | None] = [None]

    def place(tables):
        """Index of the projective class of the pair with these move tables,
        added to the table, with the tables, if new."""
        key = _proj_key(*tables, half_turn_trivial)
        j = position.get(key)
        if j is None:
            j = position[key] = len(keys)
            keys.append(key)
            reps.append(tables)
            s.append(None)
            u.append(None)
        return j

    for i, tables in enumerate(reps):  # reps grows while the loop runs: this is the BFS queue
        reps[i] = None
        if s[i] is not None and u[i] is not None:
            continue
        if s[i] is None:
            j = place(_act("S", *tables))
            assert s[j] is None or s[j] == i, "S is an involution on projective classes"
            s[i], s[j] = j, i
        if u[i] is None:
            image = _act("S", *_act("T", *tables))
            j = place(image)
            if j == i:
                u[i] = i
            else:
                k = place(_act("S", *_act("T", *image)))
                assert u[j] is None and u[k] is None, "S∘T has order 3 on projective classes"
                u[i], u[j], u[k] = j, k, i
    index = len(keys)
    t = u  # t = s∘u, written over u, which is not read again
    for i, j in enumerate(u):
        t[i] = s[j]
    order = sorted(range(index), key=keys.__getitem__)
    rank = [0] * index  # rank[i]: the place of keys[i] in key order, from 1
    for r, i in enumerate(order, 1):
        rank[i] = r

    # cusps: the cycles of t relabelled by key rank, so each starts at its
    # least key and they come in the order of those, widest first
    cycles = sorted(_cycles([rank[t[i]] for i in order]), key=len, reverse=True)
    cusp_of = [0] * (index + 1)  # by rank
    for c, cyc in enumerate(cycles):
        for r in cyc:
            cusp_of[r] = c
    cusps = []
    for cyc in cycles:  # one cylinder per start row, counted on the least member
        h, v = ((0, *images) for images in keys[order[cyc[0] - 1]])
        cusps.append(Cusp(len(cyc), len(_horizontal_rows(h, _singular_corners(h, v))[2])))
    cusps = tuple(cusps)

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
        minus_id_nontrivial=not half_turn_trivial,
        members=tuple((keys[i], cusp_of[r]) for r, i in enumerate(order, 1)),
    )


def in_veech_group(o: Origami, w: SL2ZWord) -> bool:
    """Whether the word's matrix stabilizes o (projectively: up to -I)."""
    half_turn_trivial = genus(o) <= 2
    tables = _tables(o.h.images, o.v.images)
    return _proj_key(*tables, half_turn_trivial) == _proj_key(*_act_word(w, tables), half_turn_trivial)


@record
class SlopeCusp:
    cusp_index: int
    cylinder_count: int
    width: int


def slope_cusp(o: Origami, p: int, q: int, report: OrbitReport | None = None) -> SlopeCusp:
    """Which cusp of the Teichmüller curve the direction (p, q) escapes into.

    Transports the direction to horizontal and looks the transported surface
    up in the member table of orbit(o); a report of another orbit lacks it.
    """
    word = direction_to_horizontal(p, q)  # rejects a bad direction before any orbit work
    if report is None:
        report = orbit(o)
    key = _proj_key(*_act_word(word, _tables(o.h.images, o.v.images)), not report.minus_id_nontrivial)
    i = bisect_left(report.members, (key,))
    if i == len(report.members) or report.members[i][0] != key:
        raise ValueError("the report is not the orbit of o: the transported surface is not among its members")
    cusp_index = report.members[i][1]
    cusp = report.cusps[cusp_index]
    return SlopeCusp(cusp_index, cusp.cylinder_count, cusp.width)


# -- hyperbolic helpers for the Teichmüller disk of the torus ----------------------


def geodesic_endpoints(A):
    """Endpoints at infinity (b/a, d/c) of the hyperbolic geodesic traced by
    the diagonal flow applied to A; a zero denominator gives the point ∞."""
    (a, b), (c, d) = A
    a, b, c, d = map(exact_rational, (a, b, c, d))
    if a * d - b * c <= 0:
        raise ValueError("need det A > 0")
    if a == 0 and c == 0:
        raise ValueError("zero first column")
    first = b / a if a != 0 else INFINITY
    second = d / c if c != 0 else INFINITY
    return first, second


@record
class HorocycleData:
    endpoint: object  # Fraction or ∞
    apogee: tuple | None  # (x, y) of the topmost point, None when based at ∞
    based_at_infinity: bool = False


def horocycle_data(A) -> HorocycleData:
    """Base point d/c and apogee (d/c, 1/c²) of the horocycle traced by the
    unipotent flow applied to A ∈ SL₂(ℝ); c = 0 means the horocycle is the
    horizontal line based at ∞."""
    (a, b), (c, d) = A
    a, b, c, d = map(exact_rational, (a, b, c, d))
    if a * d - b * c != 1:
        raise ValueError("need det A = 1")
    if c == 0:
        return HorocycleData(INFINITY, None, based_at_infinity=True)
    return HorocycleData(d / c, (d / c, 1 / (c * c)))


def torus_point(u, v) -> tuple[Fraction, Fraction]:
    """Point (Re, Im) of the upper half-plane representing the torus with
    lattice basis (u, v): the ratio z(v)/z(u) for a positively oriented
    basis, exactly."""
    ux, uy = map(exact_rational, u)
    vx, vy = map(exact_rational, v)
    det = ux * vy - uy * vx
    if det == 0:
        raise ValueError("colinear basis vectors")
    if det < 0:
        raise ValueError("basis is negatively oriented")
    norm = ux * ux + uy * uy
    return (vx * ux + vy * uy) / norm, det / norm
