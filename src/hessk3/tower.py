"""The quartic field Q(sqrt3, i) as an exact four-dimensional rational space.

Basis (1, sqrt3, i, sqrt3*i); an element is four integer numerators over
one positive denominator sharing no common factor (Cohen, A Course in
Computational Algebraic Number Theory, 4.2).  The form is canonical, and
Fractions appear only where a value leaves the class.  The field contains
the Gaussian rationals, the Eisenstein rationals (w = (-1 + sqrt3*i) / 2)
and sqrt3*i = w - w^2, so every number appearing in the period computations
and in the degree-two Hermitian half-space lives here.  Real and imaginary
parts are elements of Q(sqrt3), whose sign is exactly decidable, hence all
the positivity tests below are float-free.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .eisenstein import Eisenstein
from .errors import rational, require
from .lattice import power

__all__ = [
    "Cyclo12",
    "C_ZERO",
    "C_ONE",
    "SQRT3",
    "I_UNIT",
    "SQRT3_I",
    "C_OMEGA",
    "C_OMEGA2",
    "from_eisenstein",
    "tower_sign_real",
]


class Cyclo12:
    """a + b*sqrt3 + c*i + d*sqrt3*i with rational a, b, c, d.

    Coordinates are ints or Fractions; anything else (a bool too) is an InputTypeError.
    """

    __slots__ = ("_n", "_den")

    def __init__(self, a=0, b=0, c=0, d=0):
        xs = tuple(rational(x, "field coordinate") for x in (a, b, c, d))
        # over the lcm of reduced denominators, no common factor is left
        den = lcm(*(x.denominator for x in xs))
        self._n = tuple(x.numerator * (den // x.denominator) for x in xs)
        self._den = den

    a = property(lambda self: Fraction(self._n[0], self._den))
    b = property(lambda self: Fraction(self._n[1], self._den))
    c = property(lambda self: Fraction(self._n[2], self._den))
    d = property(lambda self: Fraction(self._n[3], self._den))

    def __bool__(self) -> bool:
        return any(self._n)

    # -- ring structure -------------------------------------------------

    def __add__(self, other):
        if type(other) is not Cyclo12:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        (a1, b1, c1, d1), n1 = self._n, self._den
        (a2, b2, c2, d2), n2 = other._n, other._den
        return _make(
            a1 * n2 + a2 * n1, b1 * n2 + b2 * n1, c1 * n2 + c2 * n1, d1 * n2 + d2 * n1, n1 * n2
        )

    __radd__ = __add__

    def __sub__(self, other):
        o = _coerce(other)
        return NotImplemented if o is None else self + -o

    def __rsub__(self, other):
        o = _coerce(other)
        return NotImplemented if o is None else o + -self

    def __neg__(self):
        a, b, c, d = self._n
        return _raw((-a, -b, -c, -d), self._den)

    def __mul__(self, other):
        if type(other) is not Cyclo12:
            if type(other) is int:
                a, b, c, d = self._n
                return _make(a * other, b * other, c * other, d * other, self._den)
            other = _coerce(other)
            if other is None:
                return NotImplemented
        a1, b1, c1, d1 = self._n
        a2, b2, c2, d2 = other._n
        # (sqrt3)^2 = 3, i^2 = -1, (sqrt3*i)^2 = -3
        return _make(
            a1 * a2 + 3 * (b1 * b2 - d1 * d2) - c1 * c2,
            a1 * b2 + b1 * a2 - c1 * d2 - d1 * c2,
            a1 * c2 + c1 * a2 + 3 * (b1 * d2 + d1 * b2),
            a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2,
            self._den * other._den,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _coerce(other)
        return NotImplemented if o is None else self * o.inverse()

    def __rtruediv__(self, other):
        o = _coerce(other)
        return NotImplemented if o is None else o * self.inverse()

    def __pow__(self, n: int):
        return power(self, n, C_ONE, invert=Cyclo12.inverse)

    def conj(self):
        """Complex conjugation: i -> -i, sqrt3 fixed."""
        a, b, c, d = self._n
        return _raw((a, b, -c, -d), self._den)

    def inverse(self):
        if not any(self._n):
            raise ZeroDivisionError("inverse of zero")
        a, b, c, d = self._n
        # den^2 x conj(x) = p + q*sqrt3, and p^2 - 3 q^2 = den^4 |x|^2 |x'|^2
        # with x' the image under sqrt3 -> -sqrt3, so the norm is positive
        p = a * a + 3 * b * b + c * c + 3 * d * d
        q = 2 * (a * b + c * d)
        norm = p * p - 3 * q * q
        require(norm > 0, "nonzero element with nonpositive field norm")
        # 1/x = den conj(x) (p - q*sqrt3) / norm
        u, v = p * self._den, q * self._den
        return _make(a * u - 3 * b * v, b * u - a * v, 3 * d * v - c * u, c * v - d * u, norm)

    # -- structure maps -------------------------------------------------

    def real(self) -> "Cyclo12":
        """Real part a + b*sqrt3 as a field element."""
        a, b, _, _ = self._n
        return _make(a, b, 0, 0, self._den)

    def imag(self) -> "Cyclo12":
        """Imaginary part c + d*sqrt3 (coefficient of i) as a field element."""
        _, _, c, d = self._n
        return _make(c, d, 0, 0, self._den)

    def is_zero(self) -> bool:
        return not any(self._n)

    def is_real(self) -> bool:
        return not (self._n[2] or self._n[3])

    def is_rational(self) -> bool:
        return not (self._n[1] or self._n[2] or self._n[3])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not a rational number")
        return Fraction(self._n[0], self._den)

    def coords(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return tuple(Fraction(x, self._den) for x in self._n)

    def __eq__(self, other) -> bool:
        o = _coerce(other)
        return NotImplemented if o is None else self._n == o._n and self._den == o._den

    def __hash__(self):
        # a rational element hashes as the Fraction it equals
        return hash(self.as_rational() if self.is_rational() else (self._n, self._den))

    def __repr__(self) -> str:
        return "C12(" + ",".join(map(str, self.coords())) + ")"


def _raw(n: tuple, den: int) -> Cyclo12:
    """An element from numerators already coprime to den > 0."""
    x = object.__new__(Cyclo12)
    x._n = n
    x._den = den
    return x


def _make(a: int, b: int, c: int, d: int, den: int) -> Cyclo12:
    """(a + b*sqrt3 + c*i + d*sqrt3*i) / den for den > 0, reduced."""
    g = gcd(a, b, c, d, den)
    return _raw((a // g, b // g, c // g, d // g), den // g)


def _coerce(v) -> "Cyclo12 | None":
    if isinstance(v, Cyclo12):
        return v
    if isinstance(v, (int, Fraction)):
        return _raw((int(v.numerator), 0, 0, 0), v.denominator)
    return None


C_ZERO = Cyclo12(0)
C_ONE = Cyclo12(1)
SQRT3 = Cyclo12(0, 1)
I_UNIT = Cyclo12(0, 0, 1)
SQRT3_I = Cyclo12(0, 0, 0, 1)
C_OMEGA = Cyclo12(Fraction(-1, 2), 0, 0, Fraction(1, 2))
C_OMEGA2 = Cyclo12(Fraction(-1, 2), 0, 0, Fraction(-1, 2))


def from_eisenstein(e: Eisenstein) -> Cyclo12:
    """Embed a + b*w with w = (-1 + sqrt3*i) / 2."""
    return _make(2 * e.a - e.b, 0, 0, e.b, 2)


def _eis_times(e: Eisenstein, n: tuple) -> tuple:
    """The numerators of 2 e z for z with numerators n: from_eisenstein(e) * z
    over twice z's denominator, unreduced, in eight int products."""
    x, y = 2 * e.a - e.b, e.b
    a, b, c, d = n
    # (x + y*sqrt3*i)(a + b*sqrt3 + c*i + d*sqrt3*i)
    return x * a - 3 * y * d, x * b - y * c, x * c + 3 * y * b, x * d + y * a


def tower_sign_real(x: Cyclo12) -> int:
    """Exact sign of a real field element; rejects nonreal input."""
    if not x.is_real():
        raise ValueError("sign of a nonreal element")
    # the denominator is positive, so the numerators carry the sign
    a, b, _, _ = x._n
    sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
    if sa * sb >= 0:
        return sa or sb
    # Mixed signs: compare |a| with sqrt3*|b| via squares; equality would mean
    # sqrt3 is rational.
    require(a * a != 3 * b * b, "a^2 = 3 b^2 with rational a, b")
    return sa if a * a > 3 * b * b else sb


# 2x2 matrices over the field, as tuples of row tuples; their arithmetic is
# the ring-generic kernel in `lattice`.
Mat2C = tuple[tuple[Cyclo12, Cyclo12], tuple[Cyclo12, Cyclo12]]
