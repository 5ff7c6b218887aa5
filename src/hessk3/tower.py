"""The quartic field Q(sqrt3, i) as an exact four-dimensional rational space.

Basis (1, sqrt3, i, sqrt3*i) with Fraction coordinates.  The field contains
the Gaussian rationals, the Eisenstein rationals (w = (-1 + sqrt3*i) / 2) and
sqrt3*i = w - w^2, so every number appearing in the period computations and
in the degree-two Hermitian half-space lives here.  Real and imaginary parts
are elements of Q(sqrt3), whose sign is exactly decidable, hence all the
positivity tests below are float-free.
"""

from __future__ import annotations

from fractions import Fraction

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
    "sign_sqrt3",
    "tower_sign_real",
]

_Q = Fraction


class Cyclo12:
    """a + b*sqrt3 + c*i + d*sqrt3*i with rational a, b, c, d.

    Coordinates are ints or Fractions; anything else is a TypeError.
    """

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a=0, b=0, c=0, d=0):
        self.a = rational(a)
        self.b = rational(b)
        self.c = rational(c)
        self.d = rational(d)

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- ring structure -------------------------------------------------

    def __add__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return Cyclo12(self.a + o.a, self.b + o.b, self.c + o.c, self.d + o.d)

    __radd__ = __add__

    def __sub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return Cyclo12(self.a - o.a, self.b - o.b, self.c - o.c, self.d - o.d)

    def __rsub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return Cyclo12(-self.a, -self.b, -self.c, -self.d)

    def __mul__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        a1, b1, c1, d1 = self.a, self.b, self.c, self.d
        a2, b2, c2, d2 = o.a, o.b, o.c, o.d
        # (sqrt3)^2 = 3, i^2 = -1, (sqrt3*i)^2 = -3
        return Cyclo12(
            a1 * a2 + 3 * b1 * b2 - c1 * c2 - 3 * d1 * d2,
            a1 * b2 + b1 * a2 - c1 * d2 - d1 * c2,
            a1 * c2 + c1 * a2 + 3 * (b1 * d2 + d1 * b2),
            a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        return power(self, n, C_ONE, invert=Cyclo12.inverse)

    def conj(self):
        """Complex conjugation: i -> -i, sqrt3 fixed."""
        return Cyclo12(self.a, self.b, -self.c, -self.d)

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        # x * conj(x) = p + q*sqrt3 is real; divide by its rational norm
        # p^2 - 3*q^2, which is nonzero for rational p, q not both zero.
        p = self.a * self.a + 3 * self.b * self.b + self.c * self.c + 3 * self.d * self.d
        q = 2 * self.a * self.b + 2 * self.c * self.d
        den = p * p - 3 * q * q
        require(den != 0, "nonzero element with zero field norm")
        return self.conj() * Cyclo12(p / den, -q / den)

    # -- structure maps -------------------------------------------------

    def real(self) -> "Cyclo12":
        """Real part a + b*sqrt3 as a field element."""
        return Cyclo12(self.a, self.b)

    def imag(self) -> "Cyclo12":
        """Imaginary part c + d*sqrt3 (coefficient of i) as a field element."""
        return Cyclo12(self.c, self.d)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0 and self.c == 0 and self.d == 0

    def is_real(self) -> bool:
        return self.c == 0 and self.d == 0

    def is_rational(self) -> bool:
        return self.b == 0 and self.c == 0 and self.d == 0

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not a rational number")
        return self.a

    def coords(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.a, self.b, self.c, self.d)

    def __eq__(self, other) -> bool:
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return self.coords() == o.coords()

    def __hash__(self):
        return hash(("cyclo12", self.coords()))

    def __repr__(self) -> str:
        return f"C12({self.a},{self.b},{self.c},{self.d})"


def _coerce(v) -> "Cyclo12 | None":
    if isinstance(v, Cyclo12):
        return v
    if isinstance(v, (int, Fraction)):
        return Cyclo12(v)
    if isinstance(v, Eisenstein):
        return from_eisenstein(v)
    return None


C_ZERO = Cyclo12(0)
C_ONE = Cyclo12(1)
SQRT3 = Cyclo12(0, 1)
I_UNIT = Cyclo12(0, 0, 1)
SQRT3_I = Cyclo12(0, 0, 0, 1)
C_OMEGA = Cyclo12(_Q(-1, 2), 0, 0, _Q(1, 2))
C_OMEGA2 = Cyclo12(_Q(-1, 2), 0, 0, _Q(-1, 2))


def from_eisenstein(e: Eisenstein) -> Cyclo12:
    """Embed a + b*w with w = (-1 + sqrt3*i) / 2."""
    return Cyclo12(e.a - _Q(e.b, 2), 0, 0, _Q(e.b, 2))


def sign_sqrt3(a: Fraction, b: Fraction) -> int:
    """Exact sign of a + b*sqrt3 for rational a, b."""
    a, b = rational(a), rational(b)
    if a == 0 and b == 0:
        return 0
    if b == 0:
        return 1 if a > 0 else -1
    if a == 0:
        return 1 if b > 0 else -1
    sa = 1 if a > 0 else -1
    sb = 1 if b > 0 else -1
    if sa == sb:
        return sa
    # Mixed signs: compare |a| with sqrt3*|b| via squares; equality would mean
    # sqrt3 is rational.
    require(a * a != 3 * b * b, "a^2 = 3 b^2 with rational a, b")
    if a * a > 3 * b * b:
        return sa
    return sb


def tower_sign_real(x: Cyclo12) -> int:
    """Exact sign of a real field element; rejects nonreal input."""
    if not x.is_real():
        raise ValueError("sign of a nonreal element")
    return sign_sqrt3(x.a, x.b)


# 2x2 matrices over the field, as tuples of row tuples; their arithmetic is
# the ring-generic kernel in `lattice`.
Mat2C = tuple[tuple[Cyclo12, Cyclo12], tuple[Cyclo12, Cyclo12]]
