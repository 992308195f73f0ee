"""`canonical_origamis` against the census loop it replaced.

The reference below builds one cycle-type representative h per partition of
n, tries all n! permutations v against it (every pair is simultaneously
conjugate to one with such an h), keeps the transitive pairs and drops
duplicate canonical keys with a set. The census under test instead builds each
pair labelled by a breadth-first search from square 1 once and keeps the pairs
that are their own canonical key; both must give the same sorted key list.
"""

from itertools import permutations

import pytest

from origamis.catalog import canonical_origamis
from origamis.origami import _canonical_key


def _partitions(n: int):
    """Partitions of n, parts decreasing."""
    if n == 0:
        yield ()
        return
    for first in range(n, 0, -1):
        for rest in _partitions(n - first):
            if not rest or rest[0] <= first:
                yield (first,) + rest


def _cycle_type_rep(par) -> tuple[int, ...]:
    """One-line images of the permutation (1..λ₁)(λ₁+1..λ₁+λ₂)…"""
    images = []
    start = 1
    for part in par:
        images.extend(list(range(start + 1, start + part)) + [start])
        start += part
    return tuple(images)


def _reaches_all(images) -> bool:
    """Whether the permutations with these image tuples, of one degree
    n ≥ 1, act transitively on 1..n."""
    n = len(images[0])
    seen = [False] * (n + 1)
    seen[1] = True
    order = [1]
    for i in order:
        for img in images:
            j = img[i - 1]
            if not seen[j]:
                seen[j] = True
                order.append(j)
    return len(order) == n


def reference_keys(n: int) -> list[tuple]:
    keys = set()
    for par in _partitions(n):
        h_img = _cycle_type_rep(par)
        for v_perm in permutations(range(1, n + 1)):
            if not _reaches_all((h_img, v_perm)):
                continue
            keys.add(_canonical_key(h_img, v_perm))
    return sorted(keys)


@pytest.mark.parametrize("n", range(1, 7))
def test_census_matches_the_cycle_type_loop(n):
    assert [(o.h.images, o.v.images) for o in canonical_origamis(n)] == reference_keys(n)
