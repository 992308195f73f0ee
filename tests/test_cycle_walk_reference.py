"""The one cycle walk, `perm._cycles`, against the walks it replaced.

`reference_cycles`, `reference_cycle_text` and `reference_horizontal_rows`
are the previous package versions of `perm.cycles`, `perm._cycle_text` and
`origami._horizontal_rows`, each walking its permutation's cycles by hand,
kept verbatim, the first under a new name. The package's results must equal
them on every permutation of 0 to 12 points, the identity included, with the
images given as a tuple or as a list.
"""

from hypothesis import example, given
from hypothesis import strategies as st

from origamis.origami import _horizontal_rows, _singular_corners
from origamis.perm import Permutation, _cycle_text, _cycles, cycles


def reference_cycles(p: Permutation) -> list[tuple[int, ...]]:
    """Disjoint cycles covering 1..n, fixed points included, each cycle starting
    at its least element, cycles ordered by least element."""
    images = p.images
    seen = [False] * (len(images) + 1)
    out = []
    for start, j in enumerate(images, start=1):
        if seen[start]:
            continue
        c = [start]  # the least point of its cycle: the walk meets only later ones
        while j != start:
            c.append(j)
            seen[j] = True
            j = images[j - 1]
        out.append(tuple(c))
    return out


def reference_cycle_text(images: tuple[int, ...]) -> str:
    """The cycles of length two and more of the permutation with one-line
    images, as cycles() orders them; "()" for the identity."""
    seen = [False] * (len(images) + 1)
    parts = []
    for start, j in enumerate(images, start=1):
        if seen[start] or j == start:
            continue
        c = [start]  # the least point of its cycle: the walk meets only later ones
        while j != start:
            c.append(j)
            seen[j] = True
            j = images[j - 1]
        parts.append("(" + ",".join(map(str, c)) + ")")
    return "".join(parts) or "()"


def reference_horizontal_rows(h, singular) -> tuple[list[tuple[int, ...]], list[int], set[int]]:
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


def images(n: int):
    return st.permutations(range(1, n + 1)).map(tuple)


permutations = st.integers(0, 12).flatmap(images)
# two permutations of one degree, and a singular-corner table that need not come from them
rows_inputs = st.integers(0, 12).flatmap(
    lambda n: st.tuples(images(n), images(n), st.lists(st.booleans(), min_size=n, max_size=n).map(tuple)))


@given(permutations)
@example(())
@example((1,))
@example(tuple(range(1, 13)))
@example((2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 1))
def test_cycles_and_texts_match_the_hand_walks(p):
    want = reference_cycles(Permutation(p))
    assert cycles(Permutation(p)) == want
    assert _cycles(p) == _cycles(list(p)) == want
    assert _cycle_text(p) == _cycle_text(list(p)) == reference_cycle_text(p)


@given(rows_inputs)
@example(((), (), ()))
@example(((1, 2, 3), (1, 2, 3), (False,) * 3))
@example(((2, 3, 1), (1, 2, 3), (False,) * 3))
def test_horizontal_rows_match_the_hand_walk(case):
    h_images, v_images, singular = case
    h, v = (0, *h_images), (0, *v_images)
    for table in (singular, _singular_corners(h, v)):  # any table, and the pair's own
        want = reference_horizontal_rows(h, table)
        assert _horizontal_rows(h, table) == want
        assert _horizontal_rows(list(h), table) == want


def test_the_walks_are_compared_on_more_than_fixed_points():
    # a walk that returned only fixed points would agree on the identity
    assert _cycles((3, 1, 2, 5, 4, 6)) == [(1, 3, 2), (4, 5), (6,)]
    assert _cycle_text([3, 1, 2, 5, 4, 6]) == "(1,3,2)(4,5)"
    assert _horizontal_rows((0, 2, 1, 3), (False, True, False)) == ([(1, 2), (3,)], [-1, 0, 0, 1], {0})
