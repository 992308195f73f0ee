"""Input generators and reference values that share no code with `origamis`.

Surfaces are handled here as raw one-line image tuples (1-based): ``h[i-1]``
is the square right of square i, ``v[i-1]`` the square on top of it.
"""

from __future__ import annotations

import math
from fractions import Fraction

# OEIS A057005: connected n-square origamis up to relabelling, n = 1..7.
A057005 = (1, 3, 7, 26, 97, 624, 4163)


def _prime_product(n: int) -> Fraction:
    """prod over primes p | n of (1 - 1/p^2)."""
    out = Fraction(1)
    m, p = n, 2
    while p * p <= m:
        if m % p == 0:
            out *= 1 - Fraction(1, p * p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out *= 1 - Fraction(1, m * m)
    return out


def h2_orbit_index(n: int, arm: int) -> int:
    """SL2(Z)-orbit size of the reduced n-square H(2) origami that is an L
    with a horizontal arm of ``arm`` squares (Hubert-Lelievre, McMullen).

    n even: one orbit of (3/8)(n-2)n^2 prod(1-p^-2).  n odd >= 5: orbit A of
    (3/16)(n-1)n^2 prod and orbit B of (3/16)(n-3)n^2 prod; an L whose two
    arms are both even lies in A, one whose arms are both odd in B.
    """
    core = n * n * _prime_product(n)
    if n % 2 == 0:
        size = Fraction(3, 8) * (n - 2) * core
    else:
        size = Fraction(3, 16) * ((n - 1) if arm % 2 == 0 else (n - 3)) * core
    assert size.denominator == 1
    return int(size)


def l_shape(arm: int, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """A row of ``arm`` squares with a column over its first square, n squares
    in all: h = (1 .. arm), v = (1 arm+1 .. n)."""
    h = list(range(1, n + 1))
    v = list(range(1, n + 1))
    for i in range(1, arm):
        h[i - 1] = i + 1
    h[arm - 1] = 1
    column = [1] + list(range(arm + 1, n + 1))
    for a, b in zip(column, column[1:] + column[:1]):
        v[a - 1] = b
    return tuple(h), tuple(v)


def inverse(p):
    inv = [0] * len(p)
    for i, j in enumerate(p, start=1):
        inv[j - 1] = i
    return tuple(inv)


def compose(p, q):
    """p after q."""
    return tuple(p[j - 1] for j in q)


def act_word(word: str, h, v):
    """Apply a word in T, S right-to-left with T: (h, v) -> (h, v h^-1) and
    S: (h, v) -> (v, h^-1)."""
    for g in reversed(word):
        if g == "T":
            h, v = h, compose(v, inverse(h))
        else:
            h, v = v, inverse(h)
    return h, v


def relabel(h, v, g):
    """Conjugate both gluings by g: s -> g(s)."""
    n = len(h)
    h2 = [0] * n
    v2 = [0] * n
    for i in range(1, n + 1):
        h2[g[i - 1] - 1] = g[h[i - 1] - 1]
        v2[g[i - 1] - 1] = g[v[i - 1] - 1]
    return tuple(h2), tuple(v2)


def transitive(h, v) -> bool:
    n = len(h)
    seen = {1}
    todo = [1]
    hi, vi = inverse(h), inverse(v)
    while todo:
        s = todo.pop()
        for t in (h[s - 1], hi[s - 1], v[s - 1], vi[s - 1]):
            if t not in seen:
                seen.add(t)
                todo.append(t)
    return len(seen) == n


def random_pair(n: int, rng):
    while True:
        h = list(range(1, n + 1))
        v = list(range(1, n + 1))
        rng.shuffle(h)
        rng.shuffle(v)
        if transitive(h, v):
            return tuple(h), tuple(v)


def random_relabelling(n: int, rng):
    g = list(range(1, n + 1))
    rng.shuffle(g)
    return tuple(g)


def random_word(rng, length: int) -> str:
    return "".join(rng.choice("TS") for _ in range(length))


def primitive_box(size: int) -> list[tuple[int, int]]:
    """Primitive directions (p, q) with 0 <= p <= size, |q| <= size, one
    representative per line (p = 0 only as (0, 1))."""
    return [
        (p, q)
        for p in range(size + 1)
        for q in range(-size, size + 1)
        if math.gcd(p, q) == 1 and (p > 0 or q == 1)
    ]


def misses_lattice(x0: Fraction, y0: Fraction, p: int, q: int) -> bool:
    """Whether the line through (x0, y0) in the primitive direction (p, q)
    avoids every integer point, i.e. q*x0 - p*y0 is not an integer."""
    return (q * x0 - p * y0).denominator != 1


def cylinder_widths(lengths, p: int, q: int) -> list[int]:
    """Integer k with length = k*sqrt(p^2+q^2), from exact c*sqrt(r) pairs."""
    norm = p * p + q * q
    out = []
    for c, r in lengths:
        k2 = Fraction(c) ** 2 * r / norm
        k = math.isqrt(k2.numerator)
        if k2.denominator != 1 or k * k != k2.numerator:
            raise ValueError(f"length {c}*sqrt({r}) is not an integer multiple of sqrt({norm})")
        out.append(k)
    return sorted(out)


# L(a,1) with a = (1+sqrt(d))/2, d squarefree: the lattice spanned by (a,0),
# (1,0), (0,1), (0,a-1) in the basis {1, sqrt(d)} of each coordinate, as
# (denominator, Hermite rows); it does not depend on d.
LSHAPE_LATTICE = (2, ((1, 1, 0, 0), (0, 2, 0, 0), (0, 0, 1, 1), (0, 0, 0, 2)))


def squarefree(d: int) -> bool:
    k = 2
    while k * k <= d:
        if d % (k * k) == 0:
            return False
        k += 1
    return True
