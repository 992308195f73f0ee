"""Small integer lattices via Hermite normal form.

Row-style HNF by Euclidean elimination; fine for the handful of columns
(2 for period lattices of origamis, 4 for L-shape lattices over Q[√d])
this package ever sees.
"""

from __future__ import annotations

from math import gcd, lcm

from .quadfield import exact_rational


def hermite_form(rows) -> list[tuple[int, ...]]:
    """Canonical upper-echelon basis of the ℤ-row-span of ``rows``.

    Pivots are positive, entries above a pivot are reduced into [0, pivot),
    zero rows dropped. Two generating sets span the same lattice iff their
    Hermite forms are equal.
    """
    mat = [list(map(int, r)) for r in rows if any(r)]
    if not mat:
        return []
    ncols = len(mat[0])
    if any(len(r) != ncols for r in mat):
        raise ValueError("ragged rows")
    basis: list[list[int]] = []
    top = 0
    for col in range(ncols):
        # eliminate column col below the current echelon top
        while True:
            nz = [i for i in range(top, len(mat)) if mat[i][col]]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda i: abs(mat[i][col]))
            i0 = nz[0]
            for i in nz[1:]:
                q = mat[i][col] // mat[i0][col]
                mat[i] = [x - q * y for x, y in zip(mat[i], mat[i0])]
        nz = [i for i in range(top, len(mat)) if mat[i][col]]
        if not nz:
            continue
        i0 = nz[0]
        mat[top], mat[i0] = mat[i0], mat[top]
        if mat[top][col] < 0:
            mat[top] = [-x for x in mat[top]]
        basis.append(mat[top])
        top += 1
    # reduce above the pivots
    for k in range(len(basis) - 1, -1, -1):
        col = next(j for j, x in enumerate(basis[k]) if x)
        for i in range(k):
            q = basis[i][col] // basis[k][col]
            if q:
                basis[i] = [x - q * y for x, y in zip(basis[i], basis[k])]
    return [tuple(r) for r in basis]


def rational_hermite_form(rows) -> tuple[int, list[tuple[int, ...]]]:
    """HNF of a ℤ-module generated by rational vectors.

    Returns (den, basis) with the actual basis vectors being basis/den;
    the pair is canonical, so equality of pairs is equality of modules.
    """
    rows = [[exact_rational(x) for x in r] for r in rows]
    den = 1
    for r in rows:
        for x in r:
            den = lcm(den, x.denominator)
    ints = [[int(x * den) for x in r] for r in rows]
    basis = hermite_form(ints)
    # normalize the denominator
    g = den
    for r in basis:
        for x in r:
            g = gcd(g, x)
    if g > 1:
        den //= g
        basis = [tuple(x // g for x in r) for r in basis]
    return den, basis
