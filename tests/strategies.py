"""Hypothesis strategies shared by the test files: transitive pairs (h, v),
built without redrawing, and the origamis made from them."""

from hypothesis import strategies as st

from origamis.origami import Origami
from origamis.perm import Permutation


def reached(h, v) -> set:
    """The squares that h and v reach from square 1."""
    seen = {1}
    todo = [1]
    while todo:
        s = todo.pop()
        for t in (h[s - 1], v[s - 1]):
            if t not in seen:
                seen.add(t)
                todo.append(t)
    return seen


def joined(h, v):
    """v with images swapped until (h, v) is transitive. Swapping the images
    of squares a and b in two components joins their v-cycles, and so the
    components, so each swap leaves one component fewer."""
    v = list(v)
    while True:
        met = reached(h, v)
        if len(met) == len(h):
            return tuple(v)
        b = min(set(range(1, len(h) + 1)) - met)
        v[0], v[b - 1] = v[b - 1], v[0]


@st.composite
def transitive_pairs(draw, max_n=12, min_n=1):
    # joined, not filtered: the simplest draw (h = v = id) is then a
    # transitive pair for every n, not a rejection
    n = draw(st.integers(min_n, max_n))
    h = tuple(draw(st.permutations(range(1, n + 1))))
    return h, joined(h, draw(st.permutations(range(1, n + 1))))


def transitive_origamis(max_n):
    """Origamis of 1 to max_n squares."""
    return transitive_pairs(max_n).map(lambda pair: Origami(Permutation(pair[0]), Permutation(pair[1])))
