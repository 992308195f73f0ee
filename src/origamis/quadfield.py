"""Exact arithmetic in real quadratic fields Q[√d], and 2x2 matrices over them.

A QuadNum is a + b·√d with rational a, b and d a squarefree integer ≥ 2, so
every identity checked downstream (module ratios, traces of Veech elements)
is exact. No floating point enters this module.

Pure rationals are QuadNums with b = 0; they compare equal and combine across
different d, which keeps mixed expressions like ``QuadNum.sqrt(5) + 1`` legal,
and hash like the Fraction they equal. Every binary operation and comparison
takes its operand through ``_operand``: an int or a Fraction joins self's
field, a QuadNum is kept, and anything else is NotImplemented, which Python
turns into a TypeError (into False for ==). The radicand d and an exponent
are ints (``intlattice._int_arg``).

The public constructor ``QuadNum(a, b, d)`` normalises a and b and checks d.
Field operations build their results with ``_quad``, which checks nothing:
their coefficients are already Fractions and their d comes from a checked
operand.

The package's public constructors and its flow, L-shape and hyperbolic
entry points take their exact scalars through ``intlattice.exact_rational``
(one rational) or ``in_one_field`` (several values that share a field);
anything but an int, a Fraction or a QuadNum is a TypeError.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple
from fractions import Fraction
from operator import ge, gt, le, lt

from ._record import record
from .intlattice import _int_arg, exact_rational


def _square_part(d: int) -> int:
    """Largest s with s² dividing d (1 when d < 2), in O(d^(1/3)) steps.

    Trial division takes out every factor k while k³ ≤ the cofactor r left.
    Then each prime factor of r is at least k > r^(1/3), so r has at most two,
    and it has a square part exactly when it is a prime squared.
    """
    s = 1
    k = 2
    while k * k * k <= d:
        if d % k == 0:
            e = 0
            while d % k == 0:
                d //= k
                e += 1
            s *= k ** (e // 2)
        k += 1
    r = math.isqrt(d) if d > 1 else 1
    return s * r if r * r == d else s


# the largest radicand d accepted: _square_part's trial division then takes
# at most 10⁶ steps
MAX_D = 10**18


def _check_d(d: int) -> int:
    if not 2 <= _int_arg("d", d) <= MAX_D:
        raise ValueError(f"d must satisfy 2 <= d <= {MAX_D}, got {d}")
    s = _square_part(d)
    if s != 1:
        raise ValueError(
            f"d={d} is not squarefree: d = {s}**2 * {d // (s * s)}; "
            f"use d={d // (s * s)} and fold the factor {s} into b"
        )
    return d


def _operand(method):
    """The binary method that runs on the operand as a QuadNum in self's
    field (see _coerce), and returns NotImplemented for any other operand."""

    def coerced(self, other):
        other = _coerce(other, self.d)
        if other is NotImplemented:
            return NotImplemented
        return method(self, other)

    return coerced


def _comparison(holds):
    """The order method that says whether holds(sign of self - other, 0),
    without building the difference."""
    return _operand(lambda self, other: holds(_sign(self.a - other.a, self.b - other.b, self._common_d(other)), 0))


@record
class QuadNum:
    """a + b·√d, exactly."""

    a: Fraction
    b: Fraction
    d: int

    def __init__(self, a, b=0, d=2):
        object.__setattr__(self, "a", exact_rational(a))
        object.__setattr__(self, "b", exact_rational(b))
        object.__setattr__(self, "d", _check_d(d))

    @staticmethod
    def sqrt(d: int) -> "QuadNum":
        return QuadNum(0, 1, d)

    # -- structure ---------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def is_integer(self) -> bool:
        return self.b == 0 and self.a.denominator == 1

    def conjugate(self) -> "QuadNum":
        return _quad(self.a, -self.b, self.d)

    @_operand
    def __eq__(self, other) -> bool:
        # rationals are equal across fields
        return self.a == other.a and self.b == other.b and (not self.b or self.d == other.d)

    def __hash__(self):
        # a rational equals its Fraction in every field, so it hashes like it
        return hash((self.a, self.b, self.d)) if self.b else hash(self.a)

    __lt__, __le__, __gt__, __ge__ = map(_comparison, (lt, le, gt, ge))

    def __bool__(self) -> bool:
        return self.a != 0 or self.b != 0

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * math.sqrt(self.d)

    # -- field operations ----------------------------------------------------

    def _common_d(self, other: "QuadNum") -> int:
        if self.b == 0:
            return other.d
        if other.b == 0:
            return self.d
        if self.d != other.d:
            raise ValueError(f"incompatible fields Q[sqrt({self.d})] and Q[sqrt({other.d})]")
        return self.d

    @_operand
    def __add__(self, other):
        return _quad(self.a + other.a, self.b + other.b, self._common_d(other))

    __radd__ = __add__

    def __neg__(self):
        return _quad(-self.a, -self.b, self.d)

    @_operand
    def __sub__(self, other):
        return _quad(self.a - other.a, self.b - other.b, self._common_d(other))

    @_operand
    def __rsub__(self, other):
        return other - self

    @_operand
    def __mul__(self, other):
        d = self._common_d(other)
        a, b, c, e = self.a, self.b, other.a, other.b
        # a rational factor, as in every rescaling, costs two products
        if not e:
            return _quad(a * c, b * c, d)
        if not b:
            return _quad(a * c, a * e, d)
        return _quad(a * c + b * e * d, a * e + b * c, d)

    __rmul__ = __mul__

    @_operand
    def __truediv__(self, other):
        if not other:
            raise ZeroDivisionError("division by zero QuadNum")
        d = self._common_d(other)
        # rationalize by the conjugate: norm = a² - b²·d is a nonzero rational
        norm = other.a * other.a - other.b * other.b * d
        num = self * other.conjugate()
        return _quad(num.a / norm, num.b / norm, d)

    @_operand
    def __rtruediv__(self, other):
        return other / self

    def __pow__(self, k: int):
        if _int_arg("exponent", k) < 0:
            raise ValueError("only non-negative integer powers")
        out = _quad(Fraction(1), _ZERO, self.d)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- text form -----------------------------------------------------------

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        root = f"sqrt({self.d})" if abs(self.b) == 1 else f"{abs(self.b)}*sqrt({self.d})"
        if self.a == 0:
            return root if self.b > 0 else f"-{root}"
        sign = "+" if self.b > 0 else "-"
        return f"{self.a} {sign} {root}"

    def __repr__(self) -> str:
        return f"QuadNum({self.a!r}, {self.b!r}, {self.d})"

    _RAT = r"[+-]?\d+(?:/\d+)?"
    _ROOT = r"(?:(?P<coef>\d+(?:/\d+)?)\*)?sqrt\((?P<d>\d+)\)"

    @staticmethod
    def parse(text: str) -> "QuadNum":
        """Inverse of str(): accepts ``p/q``, ``r/s*sqrt(d)``, ``p/q ± r/s*sqrt(d)``."""
        if re.search(r"\d\s+[\d/]", text):
            raise ValueError(f"cannot parse QuadNum: {text!r}")
        t = re.sub(r"\s", "", text)
        try:
            if re.fullmatch(QuadNum._RAT, t):
                return QuadNum(Fraction(t), 0, 2)
            # a rational part is followed by the sign of the root part
            m = re.fullmatch(f"(?:(?P<rat>{QuadNum._RAT})(?=[+-]))?(?P<sign>[+-])?" + QuadNum._ROOT, t)
            if m:
                b = Fraction(m.group("coef") or 1)
                return QuadNum(Fraction(m.group("rat") or 0), -b if m.group("sign") == "-" else b, int(m.group("d")))
        except ZeroDivisionError:  # a zero denominator
            pass
        raise ValueError(f"cannot parse QuadNum: {text!r}")


_new = object.__new__
_ZERO = Fraction(0)


def _quad(a: Fraction, b: Fraction, d: int) -> QuadNum:
    """The trusted constructor: a and b must be Fractions and d a checked
    radicand, as they are for every field-operation result."""
    x = _new(QuadNum)
    # a frozen record refuses setattr, so fill the instance dict itself
    fields = x.__dict__
    fields["a"] = a
    fields["b"] = b
    fields["d"] = d
    return x


def _sign(a: Fraction, b: Fraction, d: int) -> int:
    """Sign of a + b·√d, in integer arithmetic on the coefficients."""
    na, nb = a.numerator, b.numerator
    if not nb:
        return (na > 0) - (na < 0)
    if not na or (na > 0) == (nb > 0):
        return 1 if nb > 0 else -1
    # mixed signs: the larger of a² and b²·d wins; they differ since √d is irrational
    da, db = a.denominator, b.denominator
    if na * na * db * db > nb * nb * d * da * da:
        return 1 if na > 0 else -1
    return 1 if nb > 0 else -1


def _coerce(x, d: int):
    if isinstance(x, QuadNum):
        return x
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
        return _quad(Fraction(x), _ZERO, d)
    return NotImplemented


def in_one_field(*values, rational_d: int | None = None) -> tuple:
    """``values`` (ints, Fractions or QuadNums) placed in one field.

    With one irrational radicand among them, all come back as QuadNums over
    it; a rational is the same number in every field, so a rational QuadNum
    of another d is moved. With none, they come back as Fractions, or as
    QuadNums over ``rational_d`` when it is given, which is checked; the d of
    a QuadNum was checked when it was built. Two radicands are a ValueError
    naming both fields.
    """
    exact = [v if isinstance(v, QuadNum) else exact_rational(v) for v in values]
    ds = sorted({v.d for v in exact if isinstance(v, QuadNum) and v.b})
    if len(ds) > 1:
        raise ValueError(f"values lie in two fields, Q[sqrt({ds[0]})] and Q[sqrt({ds[1]})]")
    if ds:
        d = ds[0]
    elif rational_d is None:
        return tuple(v.a if isinstance(v, QuadNum) else v for v in exact)
    else:
        d = _check_d(rational_d)
    return tuple(_quad(v.a, v.b, d) if isinstance(v, QuadNum) else _quad(v, _ZERO, d) for v in exact)


class MinimalPoly(namedtuple("MinimalPoly", ("degree", "coeffs"))):
    """degree: int; coeffs: tuple[Fraction, ...], ascending and monic
    (coeffs[-1] == 1)."""

    __slots__ = ()

    def __call__(self, x):
        out = _quad(_ZERO, _ZERO, x.d) if isinstance(x, QuadNum) else Fraction(0)
        for c in reversed(self.coeffs):
            out = out * x + c
        return out


def minimal_poly_degree(x: QuadNum) -> MinimalPoly:
    """Degree of x over Q, with the monic minimal polynomial.

    Rationals have degree 1 (X - a); otherwise degree 2 with
    X² - 2a·X + (a² - b²·d).
    """
    if x.b == 0:
        return MinimalPoly(1, (-x.a, Fraction(1)))
    return MinimalPoly(2, (x.a * x.a - x.b * x.b * x.d, -2 * x.a, Fraction(1)))


# -- matrices -----------------------------------------------------------------


@record
class QuadMatrix:
    """2x2 matrix over a single Q[√d]; d names the field of a matrix whose
    entries are all rational (2 when not given)."""

    m11: QuadNum
    m12: QuadNum
    m21: QuadNum
    m22: QuadNum

    def __init__(self, m11, m12, m21, m22, d: int | None = None):
        entries = in_one_field(m11, m12, m21, m22, rational_d=2 if d is None else d)
        if d is not None and entries[0].d != d:
            raise ValueError(f"entries lie in Q[sqrt({entries[0].d})], not in the given Q[sqrt({d})]")
        for name, val in zip(("m11", "m12", "m21", "m22"), entries):
            object.__setattr__(self, name, val)

    @staticmethod
    def identity(d: int = 2) -> "QuadMatrix":
        return QuadMatrix(1, 0, 0, 1, d=d)

    @property
    def d(self) -> int:
        return self.m11.d

    def entries(self):
        return (self.m11, self.m12, self.m21, self.m22)

    def __mul__(self, other: "QuadMatrix") -> "QuadMatrix":
        return QuadMatrix(
            self.m11 * other.m11 + self.m12 * other.m21,
            self.m11 * other.m12 + self.m12 * other.m22,
            self.m21 * other.m11 + self.m22 * other.m21,
            self.m21 * other.m12 + self.m22 * other.m22,
        )

    def trace(self) -> QuadNum:
        return self.m11 + self.m22

    def det(self) -> QuadNum:
        return self.m11 * self.m22 - self.m12 * self.m21

    def __str__(self) -> str:
        return f"[[{self.m11}, {self.m12}], [{self.m21}, {self.m22}]]"
