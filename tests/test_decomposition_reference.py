"""Horizontal cylinders and the period lattice against the routines they replaced.

`reference_horizontal_decomposition` (a union-find over rows) and
`reference_period_lattice` (a spanning tree grown until it stops growing) are
the previous package versions, kept verbatim. The package's results must equal
them on every input, cylinder order and Hermite basis included.
"""

from hypothesis import given

from origamis.cylinders import Cylinder, horizontal_decomposition
from origamis.intlattice import hermite_form
from origamis.origami import Origami, period_lattice, vertex_cycles
from origamis.perm import Permutation, cycles
from strategies import transitive_origamis


def reference_horizontal_decomposition(o: Origami) -> list[Cylinder]:
    """Cylinders of the horizontal direction, widest first.

    Rows are the cycles of h. A row R merges with the row above it exactly
    when every bottom-left corner of v(s), s in R, is a regular vertex; the
    regularity forces v to intertwine the cyclic order, so the merged row is
    a single h-cycle of the same length.
    """
    rows = cycles(o.h)
    row_of = {}
    for i, r in enumerate(rows):
        for s in r:
            row_of[s] = i
    vcycles = vertex_cycles(o)
    owner = o.square_vertex
    singular = {s: len(vcycles[owner[s - 1]]) > 1 for s in range(1, o.n + 1)}

    parent = list(range(len(rows)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, r in enumerate(rows):
        if all(not singular[o.v(s)] for s in r):
            above = {row_of[o.v(s)] for s in r}
            assert len(above) == 1, "regular interface must map onto one row"
            ra, rb = find(i), find(above.pop())
            if ra != rb:
                parent[ra] = rb
    groups: dict[int, list[int]] = {}
    for i in range(len(rows)):
        groups.setdefault(find(i), []).append(i)
    cyls = []
    for members in groups.values():
        widths = {len(rows[i]) for i in members}
        assert len(widths) == 1, "merged rows must share a length"
        row_tuples = tuple(sorted((rows[i] for i in members), key=min))
        cyls.append(Cylinder(widths.pop(), len(members), row_tuples))
    cyls.sort(key=lambda c: (-c.width, -c.height, c.rows))
    return cyls


def reference_period_lattice(o: Origami) -> list[tuple[int, int]]:
    """Hermite basis of the absolute period lattice inside ℤ².

    The 1-skeleton of the square complex has the vertex cycles as nodes; each
    square contributes its bottom edge (holonomy (1,0), from the corner of s
    to the corner of h(s)) and its left edge (holonomy (0,1), from the corner
    of s to the corner of v(s)). Fundamental cycles of a spanning tree
    surject onto H₁ of the surface, so their holonomies generate the lattice.
    """
    owner = o.square_vertex
    nverts = len(vertex_cycles(o))
    edges = []  # (from_vertex, to_vertex, (dx, dy))
    for s in range(1, o.n + 1):
        edges.append((owner[s - 1], owner[o.h(s) - 1], (1, 0)))
        edges.append((owner[s - 1], owner[o.v(s) - 1], (0, 1)))
    # spanning tree potentials: pot[w] = holonomy of the tree path root -> w
    pot: dict[int, tuple[int, int]] = {0: (0, 0)}
    in_tree = [False] * len(edges)
    grew = True
    while grew:
        grew = False
        for i, (a, b, (dx, dy)) in enumerate(edges):
            if a in pot and b not in pot:
                pot[b] = (pot[a][0] + dx, pot[a][1] + dy)
                in_tree[i] = True
                grew = True
            elif b in pot and a not in pot:
                pot[a] = (pot[b][0] - dx, pot[b][1] - dy)
                in_tree[i] = True
                grew = True
    assert len(pot) == nverts, "surface is connected, so the tree spans"
    gens = []
    for i, (a, b, (dx, dy)) in enumerate(edges):
        if not in_tree[i]:
            gens.append((dx + pot[a][0] - pot[b][0], dy + pot[a][1] - pot[b][1]))
    return [(r[0], r[1]) for r in hermite_form(gens)]


origamis = transitive_origamis(12)


@given(origamis)
def test_horizontal_decomposition_matches_the_union_find(o):
    assert horizontal_decomposition(o) == reference_horizontal_decomposition(o)


@given(origamis)
def test_period_lattice_matches_the_grown_tree(o):
    assert period_lattice(o) == reference_period_lattice(o)


@given(origamis)
def test_singular_corners_match_the_vertex_cycles(o):
    vcycles = vertex_cycles(o)
    owner = o.square_vertex
    assert o.singular == tuple(len(vcycles[owner[s - 1]]) > 1 for s in range(1, o.n + 1))


def test_torus_covers_have_one_cylinder_and_no_singular_corner():
    # genus one: no bottom corner is singular, so no row starts a cylinder
    for h, v in [((2, 3, 1), (1, 2, 3)), ((2, 1, 4, 3), (3, 4, 1, 2)), ((1, 2, 3), (2, 3, 1))]:
        o = Origami(Permutation(h), Permutation(v))
        assert not any(o.singular)
        assert horizontal_decomposition(o) == reference_horizontal_decomposition(o)
        assert len(horizontal_decomposition(o)) == 1
