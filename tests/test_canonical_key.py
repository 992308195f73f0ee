"""The early-abort canonical key against the all-roots reference it replaced.

`reference_key` is the previous `origami._canonical_key`, kept verbatim: it
finishes a BFS from every root and compares whole keys. The package's key must
equal it on every input, not just induce the same equivalence.

With bfs_labelled, on a pair labelled by the BFS from square 1, the key
stops at the first root that beats the input; it must equal the input exactly
when the reference key does.
"""

from itertools import permutations, product

from hypothesis import given
from hypothesis import strategies as st

from origamis.origami import _canonical_key


def reference_key(h_img: tuple[int, ...], v_img: tuple[int, ...]) -> tuple:
    """Lexicographically least relabeled (h, v) over all BFS roots.

    BFS from each square over the moves (h, h⁻¹, v, v⁻¹), relabeling squares
    in discovery order, makes the relabeling canonical given the root; taking
    the minimum over roots kills the root choice. Equality of keys is exactly
    simultaneous-conjugation equivalence.
    """
    n = len(h_img)
    hinv = [0] * (n + 1)
    vinv = [0] * (n + 1)
    for i, j in enumerate(h_img, start=1):
        hinv[j] = i
    for i, j in enumerate(v_img, start=1):
        vinv[j] = i
    best = None
    for root in range(1, n + 1):
        label = {root: 1}
        order = [root]
        qi = 0
        while qi < len(order):
            s = order[qi]
            qi += 1
            for nb in (h_img[s - 1], hinv[s], v_img[s - 1], vinv[s]):
                if nb not in label:
                    label[nb] = len(order) + 1
                    order.append(nb)
        key = (
            tuple(label[h_img[s - 1]] for s in order),
            tuple(label[v_img[s - 1]] for s in order),
        )
        if best is None or key < best:
            best = key
    return best


def _transitive(h, v) -> bool:
    seen = {1}
    todo = [1]
    while todo:
        s = todo.pop()
        for t in (h[s - 1], v[s - 1]):
            if t not in seen:
                seen.add(t)
                todo.append(t)
    # h and v are bijections of a finite set, so forward closure is the orbit
    return len(seen) == len(h)


def test_exhaustive_small_degrees():
    checked = 0
    for n in range(1, 6):
        perms = list(permutations(range(1, n + 1)))
        for h, v in product(perms, perms):
            if _transitive(h, v):
                assert _canonical_key(h, v) == reference_key(h, v), (h, v)
                checked += 1
    # transitive pairs in S_n², n = 1..5 (the count behind the mass formula)
    assert checked == 1 + 3 + 26 + 426 + 11064


def bfs_relabelled(h, v, root):
    """(h, v) with the squares renamed 1, 2, ... in the order a breadth-first
    search from root over the moves h, h⁻¹, v, v⁻¹ first meets them."""
    h_inv = {t: s for s, t in enumerate(h, start=1)}
    v_inv = {t: s for s, t in enumerate(v, start=1)}
    name = {root: 1}
    queue = [root]
    for s in queue:
        for t in (h[s - 1], h_inv[s], v[s - 1], v_inv[s]):
            if t not in name:
                name[t] = len(name) + 1
                queue.append(t)
    new_h, new_v = [0] * len(h), [0] * len(h)
    for s, i in name.items():
        new_h[i - 1], new_v[i - 1] = name[h[s - 1]], name[v[s - 1]]
    return tuple(new_h), tuple(new_v)


def test_early_exit_keeps_exactly_the_reference_keys_up_to_five_squares():
    labelled = set()
    for n in range(1, 6):
        perms = list(permutations(range(1, n + 1)))
        for h, v in product(perms, perms):
            if _transitive(h, v):
                labelled.update(bfs_relabelled(h, v, root) for root in range(1, n + 1))
    kept = {pair for pair in labelled if _canonical_key(*pair, bfs_labelled=True) == pair}
    assert kept == {reference_key(*pair) for pair in labelled}
    # the BFS-labelled pairs a_n/(n-1)! and the classes (OEIS A057005), n = 1..5
    assert (len(labelled), len(kept)) == (1 + 3 + 13 + 71 + 461, 1 + 3 + 7 + 26 + 97)


@st.composite
def transitive_pairs(draw, max_n=12):
    n = draw(st.integers(1, max_n))
    while True:
        h = tuple(draw(st.permutations(range(1, n + 1))))
        v = tuple(draw(st.permutations(range(1, n + 1))))
        if _transitive(h, v):
            return h, v


@given(transitive_pairs())
def test_random_pairs_up_to_twelve_squares(pair):
    h, v = pair
    assert _canonical_key(h, v) == reference_key(h, v)


@given(transitive_pairs(), st.randoms(use_true_random=False))
def test_relabelled_pairs_get_the_same_key(pair, rnd):
    # symmetric inputs (many roots reaching the least key) exercise the tie path
    h, v = pair
    n = len(h)
    g = list(range(1, n + 1))
    rnd.shuffle(g)
    h2 = [0] * n
    v2 = [0] * n
    for i in range(1, n + 1):
        h2[g[i - 1] - 1] = g[h[i - 1] - 1]
        v2[g[i - 1] - 1] = g[v[i - 1] - 1]
    assert _canonical_key(tuple(h2), tuple(v2)) == reference_key(h, v)


@given(transitive_pairs(max_n=10), st.data())
def test_early_exit_verdict_on_bfs_labelled_pairs(pair, data):
    # a random root gives a non-canonical labelling most of the time, the
    # canonical key's own root a canonical one
    h, v = pair
    root = data.draw(st.integers(0, len(h)))
    h, v = _canonical_key(h, v) if root == 0 else bfs_relabelled(h, v, root)
    early = _canonical_key(h, v, bfs_labelled=True)
    assert (early == (h, v)) == (_canonical_key(h, v) == (h, v)) == (reference_key(h, v) == (h, v))
    assert early <= (h, v)
