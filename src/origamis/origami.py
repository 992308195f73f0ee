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
from functools import cached_property

from ._record import record
from .intlattice import hermite_form
from .perm import Permutation, _cycle_text, compose, conjugate, cycles, is_transitive


@record
class Stratum:
    """Multiset of positive cone-point orders, sorted decreasingly.

    The empty tuple denotes H(0), the flat tori. The orders sum to 2g - 2, so
    an odd sum is no abelian stratum.
    """

    orders: tuple[int, ...]

    def __init__(self, orders=()):
        orders = tuple(sorted((k for k in orders if k != 0), reverse=True))
        if any(k < 0 for k in orders):
            raise ValueError(f"negative cone order in {orders}")
        if sum(orders) % 2:
            raise ValueError(f"cone orders {orders} have an odd sum, not 2g-2")
        object.__setattr__(self, "orders", orders)

    @property
    def genus(self) -> int:
        return 1 + sum(self.orders) // 2

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


@record
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
        return _singular_corners((0, *self.h.images), (0, *self.v.images))

    def to_text(self) -> str:
        return _pair_text(self.n, _cycle_text(self.h.images), _cycle_text(self.v.images))

    def __str__(self) -> str:
        return self.to_text()


def _pair_text(n: int, h_text: str, v_text: str) -> str:
    """The text form "n; h=…; v=…" of an n-square pair whose permutations
    have the _cycle_text forms h_text and v_text."""
    return f"{n}; h={h_text}; v={v_text}"


def parse_origami(text: str) -> Origami:
    parts = [p.strip() for p in text.split(";")]
    if len(parts) != 3:
        raise ValueError(f"expected 'n; h=...; v=...', got {text!r}")
    try:
        n = int(parts[0])
    except ValueError:
        raise ValueError(f"bad square count {parts[0]!r}") from None
    if n < 1:
        raise ValueError(f"square count must be at least 1, got {n}")
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


_LIVE_ROOTS = 64  # roots refined side by side: a key search holds O(64·n) labels


def _tables(h_img: tuple[int, ...], v_img: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The move tables (h, h⁻¹, v, v⁻¹) of a pair of image tuples: each is
    indexed by square and has 0 at entry 0, so p∘q is tuple([p[j] for j in q])."""
    n = len(h_img)
    hinv = [0] * (n + 1)
    vinv = [0] * (n + 1)
    for s, (a, b) in enumerate(zip(h_img, v_img), 1):
        hinv[a] = s
        vinv[b] = s
    return (0, *h_img), tuple(hinv), (0, *v_img), tuple(vinv)


def _singular_corners(h, v) -> tuple[bool, ...]:
    """Entry s-1 says whether the bottom-left corner of s is a cone point, read
    off the forward move tables h and v without building the commutator: with
    s = v(h(r)), the commutator h∘v∘h⁻¹∘v⁻¹ fixes s iff h(v(r)) = v(h(r))."""
    out = [False] * (len(h) - 1)
    for r in range(1, len(h)):
        s = v[h[r]]
        out[s - 1] = h[v[r]] != s
    return tuple(out)


def _horizontal_rows(h, singular) -> tuple[list[tuple[int, ...]], list[int], set[int]]:
    """The rows of the pair with forward move table h and singular-corner table
    singular: the cycles of h, each starting at its least square, in the order
    of those; the row of each square (entry 0 unused); and the start rows, the
    rows with a singular bottom corner, or row 0 when there is none (genus
    one). A row whose bottom corners are all regular continues the cylinder
    below it, so each horizontal cylinder has one start row, its bottom one."""
    n = len(h) - 1
    rows = []
    row_of = [-1] * (n + 1)
    for first in range(1, n + 1):  # a row's least square meets it first
        row = []
        s = first
        while row_of[s] < 0:
            row_of[s] = len(rows)
            row.append(s)
            s = h[s]
        if row:
            rows.append(tuple(row))
    starts = {i for i, r in enumerate(rows) if any(singular[s - 1] for s in r)} or {0}
    return rows, row_of, starts


def _canonical_key(h, hinv, v, vinv, minus_id: bool = False, bfs_labelled: bool = False) -> tuple:
    """Lexicographically least relabeled (h, v) over all BFS roots, as a pair
    of image tuples.

    (h, h⁻¹, v, v⁻¹) are the move tables of the pair (see _tables), tuples or
    lists; they are only read, and the key holds no reference to them, so a
    caller may go on changing a list it passed. BFS from each square over the
    moves (h, h⁻¹, v, v⁻¹), relabeling squares in discovery order, makes the
    relabeling canonical given the root; taking the minimum over roots kills
    the root choice. Equality of keys is exactly simultaneous-conjugation
    equivalence. (h, v) must act transitively.

    With minus_id the roots of -I·(h, v) = (h⁻¹, v⁻¹), whose move tables are
    (h⁻¹, h, v⁻¹, v), join the search, and the key is the lesser of the keys
    of (h, v) and (h⁻¹, v⁻¹).

    A root's class is the length of its h-cycle, or 4 for four and more. The
    BFS from a root meets h(r), h⁻¹(r), v(r), v⁻¹(r) first, so its h-key
    starts (1, …), (2, 1, …), (2, 3, …) or (2, e, …) with e ≥ 4 by its class,
    and only the roots of the least class start; h⁻¹ has the cycles of h, so
    this holds for both orientations. The roots are refined in lockstep, one
    h-key entry per step (the entry of a square is known as soon as it leaves
    its root's BFS queue), and only the roots at the least entry go on; each
    root carries its own move tables, so with minus_id the roots of both
    orientations race in one lockstep. A lone root runs on by itself,
    comparing entries only while it ties the known key, and v-keys are read
    only for the roots tied on the whole h-key. At most _LIVE_ROOTS roots are
    live at once: the roots run in batches, and the least key so far competes
    in each batch as a known key, which ends the batch at the first entry
    where all its roots fall behind it.

    bfs_labelled promises that (h, v) is labelled by this BFS from square 1,
    so that root's key is the input itself: it is the known key from the
    start and root 1 is skipped. The other roots race the input alone, so
    they run one at a time, in root order, each as a lone root, and the
    search returns the key of the first one that beats it, cut at the entry
    where it does (an h-key prefix and an empty v-key, or a whole key when
    the h-keys tie). Only the roots of square 1's class or a lesser one
    start: the others lose to the input by entry 1. The result equals the
    image tuples of (h, v) exactly when the input is its canonical key, and
    is less otherwise: the census's test of orderly generation.
    """
    n = len(h) - 1
    names = tuple(range(1, n + 1))  # labels, one int object each, shared by all roots
    squares = range(1, n + 1)
    orientations = ((h, hinv, v, vinv), (hinv, h, vinv, v))
    if bfs_labelled:  # the roots of square 1's class or a lesser one, in root order
        if h[1] == 1:
            start = [r for r in squares if h[r] == r]
        elif h[h[1]] == 1:
            start = [r for r in squares if h[h[r]] == r]
        elif h[h[h[1]]] == 1:
            start = [r for r in squares if h[h[h[r]]] == r or h[h[r]] == r]
        else:
            start = squares
        roots = start[1:]  # root 1 of (h, v) gives the input
        best_h, best_v = list(h[1:]), list(v[1:])  # copies: the key keeps no reference to the input
        step = 1
    else:  # the roots of the least class
        start = (
            [r for r in squares if h[r] == r]
            or [r for r in squares if h[h[r]] == r]
            or [r for r in squares if h[h[h[r]]] == r]
            or squares
        )
        roots = start
        best_h = best_v = None
        step = _LIVE_ROOTS
    first = len(roots)  # roots[j] is a root of (h⁻¹, v⁻¹) when j ≥ first
    if minus_id:
        roots = [*roots, *start]
    for k in range(0, len(roots), step):
        known = best_h  # the key to beat while the roots tie it, else None
        i = 0
        H, Hinv, V, Vinv = orientations[k >= first]
        if bfs_labelled:  # one root races the input
            r = roots[k]
            label = [0] * (n + 1)
            label[r] = 1
            order = [r]
        else:
            live = []
            for j in range(k, min(k + step, len(roots))):
                if j == first:
                    H, Hinv, V, Vinv = orientations[1]
                r = roots[j]
                label = [0] * (n + 1)
                label[r] = 1
                live.append((label, [r], H, Hinv, V, Vinv))
            while len(live) > 1 and i < n:  # refine side by side, one h-key entry per step
                # the known key competes as one more root, at entry b
                b = m = known[i] if known is not None else n + 1
                tied = []
                for root in live:
                    label, order, H, Hinv, V, Vinv = root
                    s = order[i]
                    nb = H[s]
                    e = label[nb]
                    if not e:
                        e = label[nb] = names[len(order)]
                        order.append(nb)
                    nb = Hinv[s]
                    if not label[nb]:
                        label[nb] = names[len(order)]
                        order.append(nb)
                    nb = V[s]
                    if not label[nb]:
                        label[nb] = names[len(order)]
                        order.append(nb)
                    nb = Vinv[s]
                    if not label[nb]:
                        label[nb] = names[len(order)]
                        order.append(nb)
                    if e < m:
                        m = e
                        tied = [root]
                    elif e == m:
                        tied.append(root)
                if m < b:
                    known = None
                live = tied
                i += 1
            if not live:  # the known key beat every root of the batch
                continue
            # one root left runs on alone; several left tie on the whole h-key
            label, order, H, Hinv, V, Vinv = live[0]
        for i in range(i, n):  # a lone root, comparing only while tied with the known key
            s = order[i]
            nb = H[s]
            e = label[nb]
            if not e:
                e = label[nb] = names[len(order)]
                order.append(nb)
            if known is not None and e != known[i]:
                if e > known[i]:
                    break
                if bfs_labelled:  # this root beats the input: cut its key here
                    return (*known[:i], e), ()
                known = None
            nb = Hinv[s]
            if not label[nb]:
                label[nb] = names[len(order)]
                order.append(nb)
            nb = V[s]
            if not label[nb]:
                label[nb] = names[len(order)]
                order.append(nb)
            nb = Vinv[s]
            if not label[nb]:
                label[nb] = names[len(order)]
                order.append(nb)
        else:  # the roots left tie on the whole h-key, and with the known key if any
            if bfs_labelled:  # the lone root that raced the input
                live = [(label, order, H, Hinv, V, Vinv)]
            h_key = [label[H[s]] for s in order]
            for label, order, H, Hinv, V, Vinv in live:
                v_key = [label[V[s]] for s in order]
                if known is None or v_key < best_v:
                    if bfs_labelled:
                        return tuple(h_key), tuple(v_key)
                    best_h = known = h_key
                    best_v = v_key
    return tuple(best_h), tuple(best_v)


def canonical_form(o: Origami) -> Origami:
    h_one, v_one = _canonical_key(*_tables(o.h.images, o.v.images))
    return Origami(Permutation(h_one), Permutation(v_one))


def same_surface(o1: Origami, o2: Origami) -> bool:
    """Equality up to simultaneous relabeling of the squares."""
    k1, k2 = (_canonical_key(*_tables(o.h.images, o.v.images)) for o in (o1, o2))
    return k1 == k2


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
