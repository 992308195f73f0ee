"""The integer and rational layer: the package's int and rational argument
checks, and small integer lattices via Hermite normal form.

``exact_rational`` (an int or a Fraction, as a Fraction) and ``_int_arg`` (an
int) are the checks the package's entry points take their scalars through.
``quadfield`` builds on them, so this module imports nothing of the package
and a caller of the checks alone loads no Q[√d] arithmetic. The HNF is
row-style, by Euclidean elimination; fine for the handful of columns (2 for
period lattices of origamis, 4 for L-shape lattices over Q[√d]) this package
ever sees.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def exact_rational(x) -> Fraction:
    """x as a Fraction, when it is an exact rational: an int or a Fraction,
    never a bool (the rule ``quadfield._coerce`` applies to arithmetic operands)."""
    if type(x) is Fraction:
        return x
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
        return Fraction(x)
    raise TypeError(f"expected an exact rational (int or Fraction), got {type(x).__name__} {x!r}")


def _int_arg(name: str, v) -> int:
    """v when it is an int and not a bool; anything else is a TypeError naming ``name``."""
    if not isinstance(v, int) or isinstance(v, bool):
        raise TypeError(f"{name} must be an int, got {type(v).__name__} {v!r}")
    return v


def hermite_form(rows) -> list[tuple[int, ...]]:
    """Canonical upper-echelon basis of the ℤ-row-span of ``rows``.

    Pivots are positive, entries above a pivot are reduced into [0, pivot),
    zero rows dropped. Two generating sets span the same lattice iff their
    Hermite forms are equal. Entries must be ints (see _int_arg): anything
    else is a TypeError naming its type, never a truncated value.
    """
    mat = [[_int_arg("entry", x) for x in r] for r in rows]
    mat = [r for r in mat if any(r)]
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
    den, the lcm of the denominators, is the least that makes the module
    integral: a prime power that exactly divides den exactly divides the
    denominator of some entry, which scales to an integer prime to it.
    """
    rows = [[exact_rational(x) for x in r] for r in rows]
    den = lcm(*(x.denominator for r in rows for x in r))
    ints = [[int(x * den) for x in r] for r in rows]
    return den, hermite_form(ints)
