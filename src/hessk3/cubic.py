"""Invariants of cubic surfaces in pentahedral form.

A cubic with equation sum(lam_i X_i^3) = 0 on the hyperplane sum(X_i) = 0
carries the classical invariants of weights 8, 16, 24, 32, 40, 100, all
polynomial in the elementary symmetric functions of the five coefficients.
The singular locus and the Kummer-type locus are cut out by two explicit
polynomials; both are verified here against product-form expansions, as
exact identities in the polynomial ring, not numerically.

All values are Fractions; the Hessian quartic helpers return Poly5 data so
callers can check pointwise claims symbolically.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import prod

from .errors import rational, require
from .poly import NVARS, Poly5, elem_sym_polys, halve_exponents, reciprocal_clear

__all__ = [
    "elem_sym_values",
    "InvariantSet",
    "classical_invariants",
    "delta_sing_poly",
    "delta_sing_invariant_poly",
    "delta_sing",
    "delta_km_mu_poly",
    "delta_km_bridge_poly",
    "delta_km",
    "hessian_equations",
    "hessian_singular_points",
    "hessian_line_check",
    "enriques_partner_check",
    "LocusReport",
    "classify",
]


def elem_sym_values(lam):
    """sigma1..sigma5 of lam, the coefficients of prod_i (1 + lam_i t)."""
    lam = tuple(rational(x) for x in lam)
    require(len(lam) == NVARS, "need exactly five coefficients")
    e = [Fraction(1)] + [Fraction(0)] * NVARS
    for k, x in enumerate(lam, 1):
        for j in range(k, 0, -1):
            e[j] += e[j - 1] * x
    return tuple(e[1:])


@dataclass(frozen=True)
class InvariantSet:
    i8: Fraction
    i16: Fraction
    i24: Fraction
    i32: Fraction
    i40: Fraction
    i100: Fraction


def classical_invariants(lam) -> InvariantSet:
    return _invariant_parts(lam)[1]


def _invariant_parts(lam):
    """sigma1..sigma5, the invariants and the Vandermonde product
    prod_{i<j} (lam_i - lam_j), each computed once."""
    lam = tuple(rational(x) for x in lam)
    s1, s2, s3, s4, s5 = s = elem_sym_values(lam)
    diff = prod(x - y for x, y in combinations(lam, 2))
    inv = InvariantSet(
        i8=s4 * s4 - 4 * s3 * s5,
        i16=s1 * s5 ** 3,
        i24=s4 * s5 ** 4,
        i32=s2 * s5 ** 6,
        i40=s5 ** 8,
        i100=diff * s5 ** 18,
    )
    return s, inv, diff


def _delta_sing_of(inv: InvariantSet) -> Fraction:
    """(I8^2 - 64 I16)^2 - 16384 I32 - 2048 I8 I24; c01 certifies it equal
    to delta_sing_poly() as polynomials in lam."""
    core = inv.i8 * inv.i8 - 64 * inv.i16
    return core * core - 16384 * inv.i32 - 2048 * inv.i8 * inv.i24


def _delta_km_of(s) -> Fraction:
    """The bridge form (s4^3 - 4 s3 s4 s5 + 8 s2 s5^2) / s5^3; c10 certifies
    it equal to delta_km_mu_poly() at mu = 1/lam."""
    _, s2, s3, s4, s5 = s
    return (s4 ** 3 - 4 * s3 * s4 * s5 + 8 * s2 * s5 * s5) / s5 ** 3


@cache
def delta_sing_poly() -> Poly5:
    """Degree-32 polynomial in lam cutting out the singular cubics.

    Built from the product of the sixteen sign choices of
    sqrt(mu_0) +- sqrt(mu_1) +- ... +- sqrt(mu_4) with mu = 1/lam: the
    expansion is even in each square root, halving exponents gives a
    degree-8 polynomial in mu, and clearing reciprocals at cap 8 lands in
    the lam ring.
    """
    prod = Poly5.const(1)
    for mask in range(16):
        form = Poly5.var(0)
        for i in range(4):
            sign = -1 if (mask >> i) & 1 else 1
            form = form + Poly5.var(i + 1) * sign
        prod = prod * form
    require(prod.homogeneous_degree() == 16, "product has wrong degree")
    return reciprocal_clear(halve_exponents(prod), 8)


@cache
def delta_sing_invariant_poly() -> Poly5:
    """The same locus written in the classical invariants,
    (I8^2 - 64 I16)^2 - 16384 I32 - 2048 I8 I24, as a lam polynomial."""
    s1, s2, s3, s4, s5 = elem_sym_polys()
    i8 = s4 * s4 - s3 * s5 * 4
    i16 = s1 * s5 ** 3
    i24 = s4 * s5 ** 4
    i32 = s2 * s5 ** 6
    core = i8 * i8 - i16 * 64
    return core * core - i32 * 16384 - i8 * i24 * 2048


def delta_sing(lam) -> Fraction:
    return _delta_sing_of(_invariant_parts(lam)[1])


@cache
def delta_km_mu_poly() -> Poly5:
    """sum mu_i^3 - sum_{i != j} mu_i^2 mu_j + 2 sum_{i<j<k} mu_i mu_j mu_k."""
    out = Poly5.zero()
    for i in range(NVARS):
        out = out + Poly5.var(i) ** 3
    for i in range(NVARS):
        for j in range(NVARS):
            if i != j:
                out = out - Poly5.var(i) ** 2 * Poly5.var(j)
    for i in range(NVARS):
        for j in range(i + 1, NVARS):
            for k in range(j + 1, NVARS):
                out = out + Poly5.var(i) * Poly5.var(j) * Poly5.var(k) * 2
    return out


@cache
def delta_km_bridge_poly() -> Poly5:
    """s4^3 - 4 s3 s4 s5 + 8 s2 s5^2, the reciprocal-cleared Kummer cubic."""
    _, s2, s3, s4, s5 = elem_sym_polys()
    return s4 ** 3 - s3 * s4 * s5 * 4 + s2 * s5 * s5 * 8


def delta_km(lam) -> Fraction:
    """Kummer locus value at mu = 1/lam; zero iff the double cover picks up
    sixteen nodes."""
    s = elem_sym_values(lam)
    if s[4] == 0:
        raise ValueError("Sylvester degenerate for mu")
    return _delta_km_of(s)


def hessian_equations(lam):
    """The hyperplane sum X_i and the quartic sum_i prod_{j != i} lam_j X_j."""
    lam = tuple(rational(x) for x in lam)
    hyper = Poly5.zero()
    for i in range(NVARS):
        hyper = hyper + Poly5.var(i)
    quartic = Poly5.zero()
    for i in range(NVARS):
        term = Poly5.const(1)
        for j in range(NVARS):
            if j != i:
                term = term * Poly5.var(j) * lam[j]
        quartic = quartic + term
    return hyper, quartic


def hessian_singular_points():
    """Ten points with three zero coordinates and a (1, -1) pair."""
    pts = []
    for m in range(NVARS):
        for n in range(m + 1, NVARS):
            pt = [Fraction(0)] * NVARS
            pt[m] = Fraction(1)
            pt[n] = Fraction(-1)
            pts.append(tuple(pt))
    return tuple(pts)


def hessian_line_check(lam, pair) -> bool:
    """The quartic vanishes identically on the plane X_i = X_j = 0."""
    i, j = pair
    _, quartic = hessian_equations(lam)
    killed = {}
    for exps, coef in quartic.terms.items():
        if exps[i] == 0 and exps[j] == 0:
            killed[exps] = coef
    return not killed


def enriques_partner_check(lam) -> bool:
    """The coordinate swap X -> Y with Y_i = prod_{j != i} lam_j X_j sends
    the quartic to the hyperplane times sigma5^4 (prod X)^3, exactly."""
    lam = tuple(rational(x) for x in lam)
    hyper, quartic = hessian_equations(lam)
    ys = []
    for i in range(NVARS):
        term = Poly5.const(1)
        for j in range(NVARS):
            if j != i:
                term = term * Poly5.var(j) * lam[j]
        ys.append(term)
    # (A) the quartic is the sum of the partner coordinates
    total = Poly5.zero()
    for y in ys:
        total = total + y
    if total != quartic:
        return False
    # (B) the quartic in the partner coordinates factors through the
    # hyperplane
    swapped = Poly5.zero()
    for i in range(NVARS):
        term = Poly5.const(1)
        for j in range(NVARS):
            if j != i:
                term = term * ys[j] * lam[j]
        swapped = swapped + term
    s5 = elem_sym_values(lam)[4]
    prod_x = Poly5.const(1)
    for i in range(NVARS):
        prod_x = prod_x * Poly5.var(i)
    expected = hyper * prod_x ** 3 * s5 ** 4
    return swapped == expected


@dataclass(frozen=True)
class LocusReport:
    invariants: InvariantSet
    delta_sing: Fraction
    delta_km: Fraction | None
    sylvester_degenerate: bool
    singular: bool
    eckardt: bool
    kummer: bool


def classify(lam) -> LocusReport:
    s, inv, diff = _invariant_parts(lam)
    degenerate = s[4] == 0
    ds = _delta_sing_of(inv)
    dk = None if degenerate else _delta_km_of(s)
    return LocusReport(
        invariants=inv,
        delta_sing=ds,
        delta_km=dk,
        sylvester_degenerate=degenerate,
        singular=ds == 0,
        eckardt=diff == 0,
        kummer=inv.i8 * inv.i24 + 8 * inv.i32 == 0,
    )
