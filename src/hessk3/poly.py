"""Sparse exact polynomials in five fixed variables.

A polynomial is a dict from exponent 5-tuples to nonzero coefficients
(int or Fraction).  Five variables cover every symbolic computation here:
Sylvester parameters, their squares, and the dual parameters all reuse the
same slots.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, repeat
from math import lcm, prod
from operator import add, getitem, mul

from .errors import rational
from .lattice import power

NVARS = 5

_ZEXP = (0, 0, 0, 0, 0)


class Poly5:
    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {tuple(e): c for e, c in (terms or {}).items() if c}

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero() -> "Poly5":
        return Poly5()

    @staticmethod
    def const(c) -> "Poly5":
        return Poly5({_ZEXP: c} if c else None)

    @staticmethod
    def var(i: int, power: int = 1) -> "Poly5":
        e = [0] * NVARS
        e[i] = power
        return Poly5({tuple(e): 1})

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "Poly5") -> "Poly5":
        t = dict(self.terms)
        for e, c in other.terms.items():
            s = t.get(e, 0) + c
            if s:
                t[e] = s
            elif e in t:
                del t[e]
        return _raw(t)

    def __sub__(self, other: "Poly5") -> "Poly5":
        return self + (-other)

    def __neg__(self) -> "Poly5":
        return _raw({e: -c for e, c in self.terms.items()})

    def __mul__(self, other) -> "Poly5":
        if isinstance(other, (int, Fraction)):
            if not other:
                return Poly5()
            return _raw({e: c * other for e, c in self.terms.items()})
        t: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                s = t.get(e, 0) + c1 * c2
                if s:
                    t[e] = s
                elif e in t:
                    del t[e]
        return _raw(t)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly5":
        # power rejects n < 0 with a ValueError: there is no inverse to pass
        return power(self, n, Poly5.const(1))

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly5) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def num_terms(self) -> int:
        return len(self.terms)

    def degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def homogeneous_degree(self) -> int | None:
        """Common total degree of all terms, or None if mixed or zero."""
        degs = {sum(e) for e in self.terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    def eval(self, point) -> Fraction:
        """The value at a rational point, on integers: the point is n_i / D
        over one common denominator D, each term is c times tabulated powers
        of the n_i, and each total degree's sum is divided by D^deg once."""
        point = [rational(p, "evaluation point coordinate") for p in point]
        if len(point) != NVARS:
            raise ValueError("evaluation point has wrong arity")
        den = lcm(*(x.denominator for x in point))
        nums = [x.numerator * (den // x.denominator) for x in point]
        tops = map(max, zip(*self.terms))  # the highest power of each variable
        pows = [list(accumulate(repeat(n, k), mul, initial=1)) for n, k in zip(nums, tops)]
        by_degree: dict = {}
        for e, c in self.terms.items():
            d = sum(e)
            by_degree[d] = by_degree.get(d, 0) + c * prod(map(getitem, pows, e))
        return sum((Fraction(v, den**d) for d, v in by_degree.items()), Fraction(0))

    def __repr__(self) -> str:
        if not self.terms:
            return "Poly5(0)"
        parts = [f"{c}*x^{e}" for e, c in sorted(self.terms.items())]
        return "Poly5(" + " + ".join(parts[:6]) + (" ..." if len(parts) > 6 else "") + ")"


def _raw(terms: dict) -> Poly5:
    """A polynomial from a dict already free of zero coefficients."""
    out = object.__new__(Poly5)
    out.terms = terms
    return out


def halve_exponents(p: Poly5) -> Poly5:
    """Substitute x_i^2 -> y_i; every exponent must be even."""
    if any(k % 2 for e in p.terms for k in e):
        raise ValueError("odd exponent during square substitution")
    return _raw({tuple(k // 2 for k in e): c for e, c in p.terms.items()})


def reciprocal_clear(p: Poly5, cap: int) -> Poly5:
    """Clear reciprocals: (prod x_i)^cap * p(1/x_1, ..., 1/x_5).

    Each exponent k becomes cap - k, so cap must dominate the degree in every
    variable.
    """
    if not all(0 <= k <= cap for e in p.terms for k in e):
        raise ValueError("exponent above reciprocal cap")
    return _raw({tuple(cap - k for k in e): c for e, c in p.terms.items()})


def elem_sym(xs, one, zero):
    """sigma_1..sigma_n of xs, the coefficients of prod_i (1 + x_i t).

    Only + and * are used, so the same expansion serves numbers and
    polynomials; one and zero are the ring's own, as in lattice.power.
    """
    e = [one] + [zero] * len(xs)
    for k, x in enumerate(xs, 1):
        for j in range(k, 0, -1):
            e[j] = e[j] + e[j - 1] * x
    return tuple(e[1:])


def elem_sym_polys() -> tuple[Poly5, Poly5, Poly5, Poly5, Poly5]:
    """The five elementary symmetric polynomials in x_0..x_4."""
    return elem_sym([Poly5.var(i) for i in range(NVARS)], Poly5.const(1), Poly5())
