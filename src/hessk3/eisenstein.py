"""Exact arithmetic in the ring of Eisenstein integers Z[w], w = exp(2*pi*i/3).

Elements live on the integer basis (1, w) with w^2 = -1 - w.  The ring is
Euclidean for the norm N(a + b*w) = a^2 - a*b + b^2, which yields division
with small remainder, an extended gcd, and a determinant-one column
reduction for pairs congruent to (1, 0) mod 2.  Everything is plain integer
arithmetic; an operand that is neither an int nor an Eisenstein is refused.
"""

from __future__ import annotations

from .errors import require

__all__ = [
    "Eisenstein",
    "ZERO",
    "ONE",
    "OMEGA",
    "OMEGA2",
    "UNITS",
    "best_unit",
    "pair_steps",
    "eis_divmod",
    "exact_div",
    "canonical_associate",
    "eis_gcd_ext",
    "g2_column_reduce",
]


def _round_half_to_zero(p: int, q: int) -> int:
    """Nearest integer to p/q with exact halves rounded toward zero."""
    if q < 0:
        p, q = -p, -q
    k, r = divmod(p, q)
    if 2 * r < q:
        return k
    if 2 * r > q:
        return k + 1
    # exact half: p/q = k + 1/2; toward zero keeps k when p > 0, bumps when p < 0
    return k if p > 0 else k + 1


def pair_steps(m: int, n: int):
    """Integer Euclid on a pair (m, n) with m odd, nearest rounding.

    Yields the steps (c, d) of m += 2 c n, then n += d m, until n = 0.  The
    first half-step leaves |m| <= |n|, so |n| at least halves each step;
    that is checked after every step, so the loop ends within log2 |n| + 1
    steps or fails on the step that stalled.  The caller applies the
    matching tokens.
    """
    while n:
        c = -_round_half_to_zero(m, 2 * n)
        m += 2 * c * n
        d = -_round_half_to_zero(n, m)
        before, n = n, n + d * m
        require(2 * abs(n) <= abs(before), "pair reduction failed to halve")
        yield c, d


class Eisenstein:
    """a + b*w with integer a, b; immutable by convention, as Cyclo12 is.
    The constructor checks nothing, since it is on every hot path."""

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a = a
        self.b = b

    def __eq__(self, other):
        if type(other) is not Eisenstein:
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __hash__(self) -> int:
        return hash((self.a, self.b))

    # Each operator tries an exact Eisenstein first, then any int (bool
    # included); anything else is NotImplemented, so a float or a Fraction
    # operand ends in TypeError.

    def __add__(self, other: "Eisenstein | int") -> "Eisenstein":
        if type(other) is Eisenstein:
            return Eisenstein(self.a + other.a, self.b + other.b)
        if isinstance(other, int):
            return Eisenstein(self.a + other, self.b)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other: "Eisenstein | int") -> "Eisenstein":
        if type(other) is Eisenstein:
            return Eisenstein(self.a - other.a, self.b - other.b)
        if isinstance(other, int):
            return Eisenstein(self.a - other, self.b)
        return NotImplemented

    def __rsub__(self, other: int) -> "Eisenstein":
        if isinstance(other, int):
            return Eisenstein(other - self.a, -self.b)
        return NotImplemented

    def __neg__(self) -> "Eisenstein":
        return Eisenstein(-self.a, -self.b)

    def __mul__(self, other: "Eisenstein | int") -> "Eisenstein":
        if type(other) is Eisenstein:
            a1, b1, a2, b2 = self.a, self.b, other.a, other.b
            bb = b1 * b2
            return Eisenstein(a1 * a2 - bb, a1 * b2 + a2 * b1 - bb)
        if isinstance(other, int):
            return Eisenstein(self.a * other, self.b * other)
        return NotImplemented

    __rmul__ = __mul__

    def conj(self) -> "Eisenstein":
        """Complex conjugate: w maps to w^2 = -1 - w."""
        return Eisenstein(self.a - self.b, -self.b)

    def norm(self) -> int:
        return self.a * self.a - self.a * self.b + self.b * self.b

    def two_re(self) -> int:
        """Twice the real part, an integer: 2*Re(a + b*w) = 2a - b."""
        return 2 * self.a - self.b

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def is_unit(self) -> bool:
        return self.norm() == 1

    def mod2(self) -> tuple[int, int]:
        return (self.a & 1, self.b & 1)

    def __repr__(self) -> str:
        return f"Eis({self.a},{self.b})"


ZERO = Eisenstein(0, 0)
ONE = Eisenstein(1, 0)
OMEGA = Eisenstein(0, 1)
OMEGA2 = Eisenstein(-1, -1)

# Fixed order of the six units; every tie-break below scans this tuple.
UNITS = (
    Eisenstein(1, 0),
    Eisenstein(-1, 0),
    Eisenstein(0, 1),
    Eisenstein(0, -1),
    Eisenstein(-1, -1),
    Eisenstein(1, 1),
)


def best_unit(score) -> Eisenstein:
    """The unit u maximizing score(u); the earliest in UNITS wins a tie."""
    return max(UNITS, key=score)


def eis_divmod(x: Eisenstein, y: Eisenstein) -> tuple[Eisenstein, Eisenstein]:
    """Quotient and remainder with 4*N(r) <= 3*N(y).

    The quotient is the componentwise nearest lattice point to x/y, halves
    rounded toward zero.
    """
    if y.is_zero():
        raise ValueError("zero divisor")
    n = y.norm()
    t = x * y.conj()
    q = Eisenstein(_round_half_to_zero(t.a, n), _round_half_to_zero(t.b, n))
    r = x - y * q
    require(4 * r.norm() <= 3 * n, "division remainder out of range")
    return q, r


def exact_div(x: Eisenstein, y: Eisenstein) -> Eisenstein:
    """x / y when the division is exact, ValueError otherwise."""
    q, r = eis_divmod(x, y)
    if not r.is_zero():
        raise ValueError("inexact division")
    return q


def canonical_associate(x: Eisenstein) -> tuple[Eisenstein, Eisenstein]:
    """The unique associate c = x*u lying in the sector a > b >= 0.

    Each nonzero class of associates meets that sector exactly once (it is a
    fundamental domain for the rotation by w).  Returns (c, u); the unit u is
    found by scanning UNITS in order.  Zero maps to (0, 1).
    """
    if x.is_zero():
        return ZERO, ONE
    for u in UNITS:
        c = x * u
        if c.a > c.b >= 0:
            return c, u
    raise AssertionError("unreachable: sector a > b >= 0 misses an associate class")


def eis_gcd_ext(x: Eisenstein, y: Eisenstein) -> tuple[Eisenstein, Eisenstein, Eisenstein]:
    """Extended gcd: returns (g, s, t) with g = s*x + t*y.

    g is the canonical associate of the last nonzero remainder.  Both inputs
    zero is refused.
    """
    if x.is_zero() and y.is_zero():
        raise ValueError("gcd of two zeros")
    r0, r1 = x, y
    s0, s1 = ONE, ZERO
    t0, t1 = ZERO, ONE
    while not r1.is_zero():
        q, r = eis_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    g, u = canonical_associate(r0)
    s, t = s0 * u, t0 * u
    require(s * x + t * y == g, "Bezout identity failed")
    return g, s, t


Mat2 = tuple[tuple[Eisenstein, Eisenstein], tuple[Eisenstein, Eisenstein]]

_ID2: Mat2 = ((ONE, ZERO), (ZERO, ONE))


def g2_column_reduce(alpha: Eisenstein, beta: Eisenstein) -> tuple[Mat2, Eisenstein]:
    """Reduce a column (alpha, beta) == (1, 0) mod 2 to (delta, 0).

    Returns (A, delta) with A*(alpha, beta)^t = (delta, 0)^t, det A = 1 and
    A == I mod 2, so A lies in the level-2 congruence kernel.  delta is an
    associate of gcd(alpha, beta) chosen so that alpha/delta == 1 mod 2.
    """
    if alpha.mod2() != (1, 0) or beta.mod2() != (0, 0):
        raise ValueError("not congruent to (1,0) mod 2")
    if beta.is_zero():
        return _ID2, alpha
    g, s, t = eis_gcd_ext(alpha, beta)
    # Pick the associate delta = u*g whose cofactor alpha/delta is == 1 mod 2.
    # The three cube-root units exhaust the nonzero residues of F4, so exactly
    # one choice works for an odd alpha.
    for u in (ONE, OMEGA, OMEGA2):
        delta = u * g
        ap = exact_div(alpha, delta)
        if ap.mod2() == (1, 0):
            bp = exact_div(beta, delta)
            sp, tp = u * s, u * t
            # With sp*alpha + tp*beta = delta: sp*ap + tp*bp = 1, and the row
            # (-bp, ap) kills the column; correct the first row by the second
            # so the matrix is == I mod 2 and has determinant one.
            row1 = (sp - bp * tp, tp + ap * tp)
            row2 = (-bp, ap)
            mat: Mat2 = (row1, row2)
            det = row1[0] * row2[1] - row1[1] * row2[0]
            require(det == ONE, "column reduction determinant is not 1")
            require(
                row1[0].mod2() == (1, 0)
                and row2[1].mod2() == (1, 0)
                and row1[1].mod2() == (0, 0)
                and row2[0].mod2() == (0, 0),
                "column reduction left the congruence kernel",
            )
            require(
                row1[0] * alpha + row1[1] * beta == delta
                and (row2[0] * alpha + row2[1] * beta).is_zero(),
                "column reduction does not map the column to (delta, 0)",
            )
            return mat, delta
    raise AssertionError("unreachable: no associate of the gcd has odd cofactor")
