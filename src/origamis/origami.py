"""Square-tiled surfaces and their intrinsic invariants.

An origami is a pair of permutations (h, v) of the squares 1..n: h(s) is the
square glued to the right of s, v(s) the square glued on top. The pair must
act transitively, otherwise the surface is disconnected.

Corner convention: the bottom-left corner of square s represents a surface
vertex; two corners coincide exactly when their squares lie in the same cycle
of the commutator c = h∘v∘h⁻¹∘v⁻¹ (composition right-to-left as everywhere in
this package). A cycle of length ℓ is a cone point of angle 2πℓ.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property

from .intlattice import hermite_form
from .perm import Permutation, compose, conjugate, cycles, is_transitive


@dataclass(frozen=True)
class Stratum:
    """Multiset of positive cone-point orders, sorted decreasingly.

    The empty tuple denotes H(0), the flat tori.
    """

    orders: tuple[int, ...]

    def __init__(self, orders=()):
        orders = tuple(sorted((k for k in orders if k != 0), reverse=True))
        if any(k < 0 for k in orders):
            raise ValueError(f"negative cone order in {orders}")
        object.__setattr__(self, "orders", orders)

    @property
    def genus(self) -> int:
        total = sum(self.orders)
        if total % 2:
            raise ValueError(f"order sum {total} is odd")
        return 1 + total // 2

    def __str__(self) -> str:
        if not self.orders:
            return "H(0)"
        return "H(" + ",".join(map(str, self.orders)) + ")"

    @staticmethod
    def parse(text: str) -> "Stratum":
        text = text.strip()
        if not (text.startswith("H(") and text.endswith(")")):
            raise ValueError(f"not a stratum: {text!r}")
        body = text[2:-1]
        return Stratum(tuple(int(t) for t in body.split(",")) if body else ())


@dataclass(frozen=True)
class Origami:
    h: Permutation
    v: Permutation

    def __post_init__(self):
        if self.h.degree != self.v.degree:
            raise ValueError(
                f"degree mismatch: h has {self.h.degree} squares, v has {self.v.degree}"
            )
        if not is_transitive([self.h, self.v]):
            raise ValueError("(h, v) does not act transitively: the surface is disconnected")

    @property
    def n(self) -> int:
        return self.h.degree

    @cached_property
    def commutator(self) -> Permutation:
        return compose(self.h, compose(self.v, compose(self.h.inverse(), self.v.inverse())))

    @cached_property
    def square_vertex(self) -> tuple[int, ...]:
        """square_vertex[s-1] = index into vertex_cycles(self) of the cycle
        owning the bottom-left corner of s."""
        owner = [0] * self.n
        for idx, c in enumerate(vertex_cycles(self)):
            for s in c:
                owner[s - 1] = idx
        return tuple(owner)

    @cached_property
    def singular(self) -> tuple[bool, ...]:
        """singular[s-1] says whether the bottom-left corner of s is a cone
        point, i.e. whether its commutator cycle is longer than one."""
        c = self.commutator.images
        return tuple(c[s - 1] != s for s in range(1, self.n + 1))

    def to_text(self) -> str:
        return f"{self.n}; h={self.h}; v={self.v}"

    def __str__(self) -> str:
        return self.to_text()


def parse_origami(text: str) -> Origami:
    parts = [p.strip() for p in text.split(";")]
    if len(parts) != 3:
        raise ValueError(f"expected 'n; h=...; v=...', got {text!r}")
    try:
        n = int(parts[0])
    except ValueError:
        raise ValueError(f"bad square count {parts[0]!r}") from None
    perms = {}
    for part in parts[1:]:
        if "=" not in part:
            raise ValueError(f"missing '=' in {part!r}")
        name, val = (t.strip() for t in part.split("=", 1))
        if name not in ("h", "v"):
            raise ValueError(f"unknown field {name!r}, expected h or v")
        perms[name] = Permutation.parse(val, n)
    if set(perms) != {"h", "v"}:
        raise ValueError("need both h= and v=")
    return Origami(perms["h"], perms["v"])


# -- fixtures ------------------------------------------------------------------


def torus() -> Origami:
    return Origami(Permutation.identity(1), Permutation.identity(1))


def st3() -> Origami:
    return Origami(Permutation.from_cycles([(1, 2)], 3), Permutation.from_cycles([(1, 3)], 3))


def st4() -> Origami:
    return Origami(
        Permutation.from_cycles([(1, 2), (3, 4)], 4),
        Permutation.from_cycles([(1, 2, 3, 4)], 4),
    )


# -- invariants ------------------------------------------------------------------


def vertex_cycles(o: Origami) -> list[tuple[int, ...]]:
    """Cycles of the commutator; one cycle of length ℓ per vertex, angle 2πℓ."""
    return cycles(o.commutator)


def genus(o: Origami) -> int:
    V = len(vertex_cycles(o))
    assert (o.n - V) % 2 == 0, "n - V must be even"
    return 1 + (o.n - V) // 2


def stratum(o: Origami) -> Stratum:
    vertices = vertex_cycles(o)
    s = Stratum(len(c) - 1 for c in vertices)
    assert sum(s.orders) == o.n - len(vertices), "order sum must be 2g - 2 = n - V"
    return s


def stratum_dim_abelian(orders, g: int) -> int:
    """Complex dimension 2g + n - 1 of an abelian stratum, with H(0) counted
    as one marked regular point (n = 1). Orders are ≥ 0: an abelian
    differential has no poles, and 0 is a marked point."""
    orders = [k for k in orders if k != 0]
    if any(k < 0 for k in orders):
        raise ValueError(f"abelian orders must be >= 0, got {orders}")
    n = len(orders) if orders else 1
    if sum(orders) != 2 * g - 2:
        raise ValueError(f"orders {orders} do not sum to 2g-2 = {2 * g - 2}")
    return 2 * g + n - 1


def stratum_dim_quadratic(orders, g: int) -> int:
    """Complex dimension 2g + n - 2 of a stratum of non-square quadratic
    differentials (one parameter less: some side pair is glued with a
    half-turn, and is then determined by the others). Poles are simple:
    orders are ≥ -1. Q(∅) and Q(1,-1) in genus 1 and Q(4) and Q(3,1) in
    genus 2 are empty (Masur–Smillie, 1993), with or without marked points."""
    orders = list(orders)
    if any(k < -1 for k in orders):
        raise ValueError(f"quadratic orders must be >= -1, got {orders}")
    if sum(orders) != 4 * g - 4:
        raise ValueError(f"orders {orders} do not sum to 4g-4 = {4 * g - 4}")
    if sorted(k for k in orders if k != 0) in ([], [-1, 1], [4], [1, 3]):
        raise ValueError(f"the quadratic stratum with orders {orders} is empty")
    return 2 * g + len(orders) - 2


# -- canonical form --------------------------------------------------------------


def _canonical_key(h_img: tuple[int, ...], v_img: tuple[int, ...], minus_id: bool = False) -> tuple:
    """Lexicographically least relabeled (h, v) over all BFS roots.

    BFS from each square over the moves (h, h⁻¹, v, v⁻¹), relabeling squares
    in discovery order, makes the relabeling canonical given the root; taking
    the minimum over roots kills the root choice. Equality of keys is exactly
    simultaneous-conjugation equivalence.

    With minus_id the roots of -I·(h, v) = (h⁻¹, v⁻¹) join the loop, and the
    key is the lesser of the keys of (h, v) and (h⁻¹, v⁻¹).

    The h-key entry of a square is known as soon as it leaves the queue, so a
    root is dropped at the first entry where its h-key exceeds the best one,
    and stops comparing once it falls below; v-keys are compared only when
    the h-keys tie.
    """
    n = len(h_img)
    h = (0, *h_img)
    v = (0, *v_img)
    hinv = [0] * (n + 1)
    vinv = [0] * (n + 1)
    for i in range(1, n + 1):
        hinv[h[i]] = i
        vinv[v[i]] = i
    orientations = [(h, hinv, v, vinv), (hinv, h, vinv, v)] if minus_id else [(h, hinv, v, vinv)]
    best_h = best_v = None
    for h, hinv, v, vinv in orientations:
        for root in range(1, n + 1):
            label = [0] * (n + 1)
            label[root] = 1
            order = [root]
            push = order.append
            h_key = []
            tied = best_h is not None  # the h-prefix so far equals best_h's
            for s in order:  # order grows while the loop runs: this is the BFS queue
                nb = h[s]
                e = label[nb]
                if not e:
                    e = label[nb] = len(order) + 1
                    push(nb)
                if tied:
                    b = best_h[len(h_key)]
                    if e != b:
                        if e > b:
                            break
                        tied = False
                h_key.append(e)
                for nb in (hinv[s], v[s], vinv[s]):
                    if not label[nb]:
                        label[nb] = len(order) + 1
                        push(nb)
            else:
                v_key = [label[v[s]] for s in order]
                if not tied or v_key < best_v:
                    best_h, best_v = h_key, v_key
    return tuple(best_h), tuple(best_v)


def canonical_form(o: Origami) -> Origami:
    h_one, v_one = _canonical_key(o.h.images, o.v.images)
    return Origami(Permutation(h_one), Permutation(v_one))


def same_surface(o1: Origami, o2: Origami) -> bool:
    """Equality up to simultaneous relabeling of the squares."""
    return _canonical_key(o1.h.images, o1.v.images) == _canonical_key(o2.h.images, o2.v.images)


def relabel(o: Origami, g: Permutation) -> Origami:
    return Origami(conjugate(o.h, g), conjugate(o.v, g))


# -- period lattice ---------------------------------------------------------------


def period_lattice(o: Origami) -> list[tuple[int, int]]:
    """Hermite basis of the absolute period lattice inside ℤ².

    The 1-skeleton of the square complex has the vertex cycles as nodes; each
    square contributes its bottom edge (holonomy (1,0), from the corner of s
    to the corner of h(s)) and its left edge (holonomy (0,1), from the corner
    of s to the corner of v(s)). Fundamental cycles of a spanning tree
    surject onto H₁ of the surface, so their holonomies generate the lattice.
    """
    owner = o.square_vertex
    nverts = max(owner) + 1
    edges = []  # (from_vertex, to_vertex, dx, dy)
    for s in range(1, o.n + 1):
        edges.append((owner[s - 1], owner[o.h(s) - 1], 1, 0))
        edges.append((owner[s - 1], owner[o.v(s) - 1], 0, 1))
    adj = [[] for _ in range(nverts)]
    for a, b, dx, dy in edges:
        adj[a].append((b, dx, dy))
        adj[b].append((a, -dx, -dy))
    # spanning tree potentials: pot[w] = holonomy of the BFS tree path root -> w
    pot = [None] * nverts
    pot[0] = (0, 0)
    order = [0]
    for a in order:  # order grows while the loop runs: this is the BFS queue
        x, y = pot[a]
        for b, dx, dy in adj[a]:
            if pot[b] is None:
                pot[b] = (x + dx, y + dy)
                order.append(b)
    assert len(order) == nverts, "surface is connected, so the tree spans"
    # tree edges give (0, 0), which hermite_form drops
    gens = [(dx + pot[a][0] - pot[b][0], dy + pot[a][1] - pot[b][1]) for a, b, dx, dy in edges]
    return [(r[0], r[1]) for r in hermite_form(gens)]


def is_reduced(o: Origami) -> bool:
    """Whether the absolute period lattice is all of ℤ² (primitivity)."""
    return period_lattice(o) == [(1, 0), (0, 1)]


# -- random surfaces (for experiments and property tests) -------------------------


def random_origami(n: int, rng: random.Random | None = None) -> Origami:
    rng = rng or random.Random()
    while True:
        h = list(range(1, n + 1))
        v = list(range(1, n + 1))
        rng.shuffle(h)
        rng.shuffle(v)
        hp, vp = Permutation(tuple(h)), Permutation(tuple(v))
        if is_transitive([hp, vp]):
            return Origami(hp, vp)
