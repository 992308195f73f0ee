"""Permutations of {1..n}, the atoms of the square-gluing encoding.

Conventions, fixed once for the whole package:

* labels are 1-based: a permutation of degree n moves the points 1..n;
* composition is functional and right-to-left, ``compose(p, q)(i) = p(q(i))``,
  i.e. the right factor acts first.
"""

from __future__ import annotations

import re

from ._record import record


@record
class Permutation:
    """A bijection of {1..n} in one-line notation: ``images[i-1]`` is the image of i."""

    images: tuple[int, ...]

    def __post_init__(self):
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise ValueError(f"not a bijection of 1..{n}: {self.images!r}")

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(tuple(range(1, n + 1)))

    @staticmethod
    def from_cycles(cycles, n: int | None = None) -> "Permutation":
        """Build from a list of cycles, e.g. ``[(1, 2), (3,)]``; n defaults to the
        largest point mentioned."""
        points = [i for c in cycles for i in c]
        if n is None:
            n = max(points, default=0)
        if any(i < 1 or i > n for i in points):
            raise ValueError(f"cycle entries must lie in 1..{n}")
        if len(points) != len(set(points)):
            raise ValueError("cycles are not disjoint")
        images = list(range(1, n + 1))
        for c in cycles:
            for a, b in zip(c, c[1:] + type(c)((c[0],))):
                images[a - 1] = b
        return Permutation(tuple(images))

    @staticmethod
    def parse(text: str, n: int | None = None) -> "Permutation":
        """Parse either one-line notation ``[2,1,3]`` or cycles ``(1,2)(3)``.

        The empty cycle form ``()`` denotes the identity and needs n.
        """
        text = text.strip()
        if text.startswith("["):
            if not text.endswith("]"):
                raise ValueError(f"unbalanced one-line notation: {text!r}")
            body = text[1:-1].strip()
            images = tuple(int(t) for t in body.split(",")) if body else ()
            p = Permutation(images)
            if n is not None and p.degree != n:
                raise ValueError(f"degree {p.degree} does not match n={n}")
            return p
        if text.startswith("("):
            if text == "()":
                if n is None:
                    raise ValueError("identity '()' needs an explicit degree")
                return Permutation.identity(n)
            chunks = re.findall(r"\(([^()]*)\)", text)
            if "".join(f"({c})" for c in chunks) != re.sub(r"\s", "", text):
                raise ValueError(f"malformed cycle notation: {text!r}")
            cycles = [tuple(int(t) for t in c.split(",")) for c in chunks]
            return Permutation.from_cycles(cycles, n)
        raise ValueError(f"unrecognized permutation text: {text!r}")

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for i, j in enumerate(self.images, start=1):
            inv[j - 1] = i
        return Permutation(tuple(inv))

    def __mul__(self, other: "Permutation") -> "Permutation":
        return compose(self, other)

    def cycle_type(self) -> tuple[int, ...]:
        return tuple(sorted((len(c) for c in cycles(self)), reverse=True))

    def __str__(self) -> str:
        return _cycle_text(self.images)

    def __repr__(self) -> str:
        return f"Permutation.parse({str(self)!r}, n={self.degree})"


def _cycle_text(images: tuple[int, ...]) -> str:
    """The cycles of length two and more of the permutation with one-line
    images, as cycles() orders them; "()" for the identity."""
    # str((1, 3, 2)) is "(1, 3, 2)"; a cycle of one point, "(1,)", is left out
    return "".join([str(c) for c in _cycles(images) if len(c) > 1]).replace(" ", "") or "()"


def compose(p: Permutation, q: Permutation) -> Permutation:
    """p after q: the result maps i to p(q(i))."""
    if p.degree != q.degree:
        raise ValueError(f"degree mismatch: {p.degree} vs {q.degree}")
    return Permutation(tuple(p.images[j - 1] for j in q.images))


def _cycles(images) -> list[tuple[int, ...]]:
    """The cycles of the permutation with 1-based one-line images, a tuple or
    a list: disjoint, covering 1..n, fixed points included, each starting at
    its least point, ordered by least point. The package's one cycle walk."""
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


def cycles(p: Permutation) -> list[tuple[int, ...]]:
    """Disjoint cycles covering 1..n, fixed points included, each cycle starting
    at its least element, cycles ordered by least element."""
    return _cycles(p.images)


def conjugate(p: Permutation, g: Permutation) -> Permutation:
    """Relabel p by g: returns g∘p∘g⁻¹."""
    if p.degree != g.degree:
        raise ValueError(f"degree mismatch: {p.degree} vs {g.degree}")
    images = [0] * p.degree
    for i in range(1, p.degree + 1):
        images[g(i) - 1] = g(p(i))
    return Permutation(tuple(images))


def is_transitive(ps: list[Permutation]) -> bool:
    """Whether the group generated by ps acts transitively on 1..n.

    Breadth-first search from 1 over the forward images only: each p has
    finite order, so p⁻¹ = p^(k-1) reaches nothing that p does not.
    """
    if not ps:
        raise ValueError("need at least one permutation")
    n = ps[0].degree
    if any(p.degree != n for p in ps):
        raise ValueError("degree mismatch among generators")
    if n == 0:
        return False
    images = [p.images for p in ps]
    seen = [False] * (n + 1)
    seen[1] = True
    order = [1]
    for i in order:  # order grows while the loop runs: this is the BFS queue
        for img in images:
            j = img[i - 1]
            if not seen[j]:
                seen[j] = True
                order.append(j)
    return len(order) == n
