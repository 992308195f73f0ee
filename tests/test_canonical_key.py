"""The lockstep canonical key against the all-roots reference it replaced.

`reference_key` is an earlier `origami._canonical_key`, kept verbatim: it
finishes a BFS from every root and compares whole keys. The package's key must
equal it on every input, not just induce the same equivalence; with minus_id
it must equal the lesser reference key of (h, v) and (h⁻¹, v⁻¹).

With bfs_labelled, on a pair labelled by the BFS from square 1, the key
stops at the first root, in root order, that beats the input, cut at the entry
where it does; it must equal the input exactly when the reference key does.

The symmetric inputs (torus grids, cyclic covers) tie on every root, so the
larger ones run more than one batch of live roots to the end.

The census builds only the pairs whose square 1 lies in an h-cycle of least
class (its length, or 4 for four and more). The lemma behind that is checked
here on the key alone: the canonical h-key starts as the least class present
dictates.
"""

import random
import tracemalloc
from itertools import permutations, product

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from origamis.origami import _canonical_key, _tables
from strategies import joined, reached, transitive_pairs


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
    # h and v are bijections of a finite set, so forward closure is the orbit
    return len(reached(h, v)) == len(h)


def test_exhaustive_small_degrees():
    checked = 0
    for n in range(1, 6):
        perms = list(permutations(range(1, n + 1)))
        for h, v in product(perms, perms):
            if _transitive(h, v):
                assert _canonical_key(*_tables(h, v)) == reference_key(h, v), (h, v)
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
    kept = {pair for pair in labelled if _canonical_key(*_tables(*pair), bfs_labelled=True) == pair}
    assert kept == {reference_key(*pair) for pair in labelled}
    # the BFS-labelled pairs a_n/(n-1)! and the classes (OEIS A057005), n = 1..5
    assert (len(labelled), len(kept)) == (1 + 3 + 13 + 71 + 461, 1 + 3 + 7 + 26 + 97)


@given(transitive_pairs())
def test_random_pairs_up_to_twelve_squares(pair):
    h, v = pair
    assert _canonical_key(*_tables(h, v)) == reference_key(h, v)


def relabelled(h, v, rnd):
    """(h, v) conjugated by a random relabelling of the squares."""
    n = len(h)
    g = list(range(1, n + 1))
    rnd.shuffle(g)
    h2 = [0] * n
    v2 = [0] * n
    for i in range(1, n + 1):
        h2[g[i - 1] - 1] = g[h[i - 1] - 1]
        v2[g[i - 1] - 1] = g[v[i - 1] - 1]
    return tuple(h2), tuple(v2)


@given(transitive_pairs(), st.randoms(use_true_random=False))
def test_relabelled_pairs_get_the_same_key(pair, rnd):
    # symmetric inputs (many roots reaching the least key) exercise the tie path
    h, v = pair
    assert _canonical_key(*_tables(*relabelled(h, v, rnd))) == reference_key(h, v)


def inverse(p):
    inv = [0] * len(p)
    for i, j in enumerate(p, start=1):
        inv[j - 1] = i
    return tuple(inv)


def reference_projective_key(h, v):
    """The lesser reference key of (h, v) and -I·(h, v) = (h⁻¹, v⁻¹)."""
    return min(reference_key(h, v), reference_key(inverse(h), inverse(v)))


def test_minus_id_exhaustive_small_degrees():
    checked = 0
    for n in range(1, 6):
        perms = list(permutations(range(1, n + 1)))
        for h, v in product(perms, perms):
            if _transitive(h, v):
                assert _canonical_key(*_tables(h, v), minus_id=True) == reference_projective_key(h, v), (h, v)
                checked += 1
    assert checked == 1 + 3 + 26 + 426 + 11064


@given(transitive_pairs(), st.randoms(use_true_random=False))
def test_minus_id_on_random_and_relabelled_pairs(pair, rnd):
    h, v = pair
    want = reference_projective_key(h, v)
    assert _canonical_key(*_tables(h, v), minus_id=True) == want
    assert _canonical_key(*_tables(*relabelled(h, v, rnd)), minus_id=True) == want


def reference_bfs_labelled(h, v, minus_id=False):
    """The key the search returns on a BFS-labelled (h, v): that of the first
    root, in root order, whose key is less than (h, v), cut after the first
    h-key entry where it is less, or whole when the h-keys tie; (h, v) itself
    when no root beats it. The roots are 2..n of (h, v), then, with minus_id,
    1..n of (h⁻¹, v⁻¹). The key of a root is the pair relabelled by the BFS
    from it."""
    rivals = [bfs_relabelled(h, v, root) for root in range(2, len(h) + 1)]
    if minus_id:
        rivals += [bfs_relabelled(inverse(h), inverse(v), root) for root in range(1, len(h) + 1)]
    for h_key, v_key in rivals:
        if (h_key, v_key) < (h, v):
            for j, (e, b) in enumerate(zip(h_key, h)):
                if e != b:
                    return h_key[: j + 1], ()
            return h_key, v_key
    return h, v


def test_early_exit_returns_the_first_beating_root_up_to_five_squares():
    labelled = set()
    for n in range(1, 6):
        perms = list(permutations(range(1, n + 1)))
        for h, v in product(perms, perms):
            if _transitive(h, v):
                labelled.update(bfs_relabelled(h, v, root) for root in range(1, n + 1))
    for pair in labelled:
        assert _canonical_key(*_tables(*pair), bfs_labelled=True) == reference_bfs_labelled(*pair), pair
        assert _canonical_key(*_tables(*pair), True, True) == reference_bfs_labelled(*pair, minus_id=True), pair


@st.composite
def pairs_by_h_cycle_type(draw, max_n=12):
    """A transitive pair whose h has cycles of drawn lengths 1..5 on shuffled
    squares, so that the classes mix often."""
    n = draw(st.integers(1, max_n))
    squares = draw(st.permutations(range(1, n + 1)))
    h = [0] * n
    start = 0
    while start < n:
        length = draw(st.integers(1, min(5, n - start)))
        cycle = squares[start : start + length]
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            h[a - 1] = b
        start += length
    while True:
        v = tuple(draw(st.permutations(range(1, n + 1))))
        if _transitive(h, v):
            return tuple(h), v


@given(transitive_pairs(max_n=10) | pairs_by_h_cycle_type(), st.data())
def test_early_exit_verdict_on_bfs_labelled_pairs(pair, data):
    # a random root gives a non-canonical labelling most of the time, the
    # canonical key's own root a canonical one; pairs with mixed h-cycle
    # classes put square 1 in a 2- or 3-cycle with a lesser class elsewhere,
    # whose roots race the input too
    h, v = pair
    root = data.draw(st.integers(0, len(h)))
    h, v = _canonical_key(*_tables(h, v)) if root == 0 else bfs_relabelled(h, v, root)
    early = _canonical_key(*_tables(h, v), bfs_labelled=True)
    assert (early == (h, v)) == (_canonical_key(*_tables(h, v)) == (h, v)) == (reference_key(h, v) == (h, v))
    assert early == reference_bfs_labelled(h, v)
    assert _canonical_key(*_tables(h, v), True, True) == reference_bfs_labelled(h, v, minus_id=True)


@st.composite
def pairs_with_a_fixed_point_of_h_off_square_one(draw, max_n=10):
    """A BFS-labelled pair whose h fixes some square but not square 1."""
    n = draw(st.integers(3, max_n))  # on two squares h fixes both or neither
    h, v = draw(transitive_pairs(min_n=n, max_n=n))
    h = list(h)
    if h == sorted(h):  # no square moves: swap two
        h[0], h[1] = 2, 1
    elif all(h[s - 1] != s for s in range(1, n + 1)):  # none is fixed: take 1 out of its cycle
        h[h.index(1)], h[0] = h[0], 1
    h = tuple(h)
    moved = [s for s in range(1, n + 1) if h[s - 1] != s]
    return bfs_relabelled(h, joined(h, v), draw(st.sampled_from(moved)))


@given(pairs_with_a_fixed_point_of_h_off_square_one())
def test_bfs_labelled_pairs_beaten_by_a_fixed_point(pair):
    # a fixed point of h starts its h-key with 1, and square 1 starts it with
    # 2: the input is never canonical, and only the roots before the first
    # fixed point can beat it sooner in root order
    h, v = pair
    early = _canonical_key(*_tables(h, v), bfs_labelled=True)
    assert early < (h, v)
    assert early == reference_bfs_labelled(h, v)
    assert _canonical_key(*_tables(h, v)) == reference_key(h, v) < (h, v)


def h_cycle_lengths(h):
    lengths, seen = [], set()
    for s in range(1, len(h) + 1):
        length, t = 0, s
        while t not in seen:
            seen.add(t)
            length, t = length + 1, h[t - 1]
        if length:
            lengths.append(length)
    return lengths


# the BFS from a root meets h(r), h⁻¹(r), v(r), v⁻¹(r) first, in that order,
# so the h-key from a root on an h-cycle of length 1, 2, 3 or at least 4
# starts (1, …), (2, 1, …), (2, 3, …) or (2, e, …) with e ≥ 4: only the roots
# of the least class can give the canonical key
H_KEY_START = {1: (1,), 2: (2, 1), 3: (2, 3)}


def h_key_starts_as_its_class_dictates(h_key, least_class):
    if least_class == 4:
        return h_key[0] == 2 and h_key[1] >= 4
    start = H_KEY_START[least_class]
    return h_key[: len(start)] == start


@given(pairs_by_h_cycle_type() | transitive_pairs())
@example(((2, 1, 4, 5, 3), (3, 4, 5, 1, 2)))  # a 2-cycle and a 3-cycle: (2, 1, …)
@example(((2, 3, 1, 5, 6, 7, 4), (2, 3, 4, 5, 6, 7, 1)))  # a 3-cycle and a 4-cycle: (2, 3, …)
def test_canonical_h_key_starts_as_the_least_h_cycle_class_dictates(pair):
    h, v = pair
    least_class = min(min(h_cycle_lengths(h)), 4)
    # h⁻¹ has the cycles of h, so the minus_id key starts the same way
    for minus_id in (False, True):
        h_key, _ = _canonical_key(*_tables(h, v), minus_id=minus_id)
        assert h_key_starts_as_its_class_dictates(h_key, least_class), (h_key, least_class, minus_id)


def torus_grid(a, b):
    """The a×b torus cut into unit squares, numbered row by row: every
    translation is an automorphism, so every root gives the least key."""
    h = tuple(r * a + (c + 1) % a + 1 for r in range(b) for c in range(a))
    v = tuple((r + 1) % b * a + c + 1 for r in range(b) for c in range(a))
    return h, v


def cyclic_cover(n, k):
    """h = (1 2 … n) and v = h^k: a cyclic cover of the torus, again with a
    transitive group of automorphisms."""
    h = tuple(s % n + 1 for s in range(1, n + 1))
    v = tuple((s - 1 + k) % n + 1 for s in range(1, n + 1))
    return h, v


@pytest.mark.parametrize(
    "pair",
    [torus_grid(a, b) for a, b in [(1, 1), (2, 1), (1, 3), (3, 4), (8, 8), (5, 13), (9, 8), (10, 13)]]
    + [cyclic_cover(n, k) for n, k in [(2, 1), (7, 0), (7, 3), (65, 1), (70, 9), (130, 0), (130, 129)]]
    # h = id: every square is a fixed point of h, so all 130 roots start
    + [cyclic_cover(130, 0)[::-1], cyclic_cover(65, 2)[::-1]],
)
def test_symmetric_pairs_where_every_root_ties(pair):
    h, v = pair
    assert _canonical_key(*_tables(h, v)) == reference_key(h, v)
    assert _canonical_key(*_tables(h, v), minus_id=True) == reference_projective_key(h, v)
    # a BFS labelling of a pair with a transitive automorphism group is canonical
    key = bfs_relabelled(h, v, 1)
    assert _canonical_key(*_tables(*key), bfs_labelled=True) == key == _canonical_key(*_tables(h, v))


@pytest.mark.parametrize("n, moved, seed", [(70, 70, 1), (100, 10, 2), (130, 4, 3)])
def test_pairs_whose_roots_span_several_batches(n, moved, seed):
    # v is a random n-cycle, so the pair is transitive, and h one random cycle
    # of `moved` squares: all 70 roots, or the n - moved fixed points of h,
    # start, more than one batch, and the later batches race the earlier
    # ones' least key
    rng = random.Random(seed)

    def one_cycle(squares):
        p = list(range(1, n + 1))
        for a, b in zip(squares, squares[1:] + squares[:1]):
            p[a - 1] = b
        return tuple(p)

    v = one_cycle(rng.sample(range(1, n + 1), n))
    h = one_cycle(rng.sample(range(1, n + 1), moved))
    assert _canonical_key(*_tables(h, v)) == reference_key(h, v)
    assert _canonical_key(*_tables(h, v), minus_id=True) == reference_projective_key(h, v)
    pair = bfs_relabelled(h, v, rng.randint(1, n))
    assert _canonical_key(*_tables(*pair), bfs_labelled=True) == reference_bfs_labelled(*pair)


@pytest.mark.parametrize("minus_id", [False, True])
def test_a_search_holds_one_batch_of_label_arrays(minus_id):
    # all 900 roots of the 30×30 grid tie to the end, and with minus_id the
    # 900 of (h⁻¹, v⁻¹) race them; live at once, the label arrays and queues
    # of 900 roots would take about 13 MB
    h, v = torus_grid(30, 30)
    tracemalloc.start()
    try:
        _canonical_key(*_tables(h, v), minus_id=minus_id)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@given(transitive_pairs(), st.integers(1, 12))
def test_list_tables_are_only_read_and_never_kept(pair, root):
    # the census passes its live maps as lists, and changes them after the call
    h, v = bfs_relabelled(*pair, min(root, len(pair[0])))  # BFS-labelled, for bfs_labelled
    for options in ({}, {"minus_id": True}, {"bfs_labelled": True}):
        want = _canonical_key(*_tables(h, v), **options)
        tables = [list(t) for t in _tables(h, v)]
        key = _canonical_key(*tables, **options)
        assert tables == [list(t) for t in _tables(h, v)], options  # the call changed no input
        for t in tables:
            t[1:] = reversed(t[1:])
        assert key == want, options
        assert all(type(part) is tuple for part in key), options
