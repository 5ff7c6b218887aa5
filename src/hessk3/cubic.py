"""Invariants of cubic surfaces in pentahedral form.

A cubic with equation sum(lam_i X_i^3) = 0 on the hyperplane sum(X_i) = 0
carries the classical invariants of weights 8, 16, 24, 32, 40, 100, all
polynomial in the elementary symmetric functions of the five coefficients.
The singular locus and the Kummer-type locus are cut out by two explicit
polynomials; both are verified here against product-form expansions, as
exact identities in the polynomial ring, not numerically.

Each formula is written once over any ring: classify and its neighbours
evaluate it on integers, and the certificate polynomials build the same
functions on Poly5, so the certificates prove the code that runs.  Every
formula is homogeneous in lam of a tabulated weight, so at lam = L / D,
over one common denominator D, it is its value at the integers L divided
once by D to that weight.  The Hessian quartic helpers return Poly5 data
so callers can check pointwise claims symbolically.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations
from math import lcm, prod
from typing import NamedTuple

from .errors import integer, rational, require
from .poly import NVARS, Poly5, elem_sym, elem_sym_polys, halve_exponents, reciprocal_clear

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


def _coefficients(lam) -> tuple:
    """lam as five exact rationals, else ValueError."""
    lam = tuple(lam)
    if len(lam) != NVARS:
        raise ValueError(f"lambda: expected five coefficients, got {len(lam)}")
    return tuple(rational(x, f"lambda[{i}]") for i, x in enumerate(lam))


def elem_sym_values(lam):
    """sigma1..sigma5 of lam, the coefficients of prod_i (1 + lam_i t)."""
    return elem_sym(_coefficients(lam), Fraction(1), Fraction(0))


class InvariantSet(NamedTuple):
    """I8..I100; Fractions from classical_invariants, integers at the
    numerators of lam on the way, Poly5 in lam where the certificates
    build the same formulas symbolically."""

    i8: Fraction
    i16: Fraction
    i24: Fraction
    i32: Fraction
    i40: Fraction
    i100: Fraction


# -- the invariant formulas, each stated once ----------------------------------
#
# Each takes sigma1..sigma5 (or the invariants built from them) and uses
# only +, - and *, so it runs unchanged on integers and on Poly5.
# Evaluation at the numerators L of lam = L / D is a ring homomorphism
# Poly5 -> Z, so an identity the certificates prove between the Poly5
# values holds for the integer values at every lam, and so, both sides
# having one weight, for their quotients by D to that weight.


def _vandermonde(xs):
    """prod_{i<j} (x_i - x_j)."""
    return prod(x - y for x, y in combinations(xs, 2))


def _invariants(s, diff) -> InvariantSet:
    """The classical invariants from sigma1..sigma5 and the Vandermonde
    product diff."""
    s1, s2, s3, s4, s5 = s
    return InvariantSet(
        i8=s4 * s4 - 4 * s3 * s5,
        i16=s1 * s5 ** 3,
        i24=s4 * s5 ** 4,
        i32=s2 * s5 ** 6,
        i40=s5 ** 8,
        i100=diff * s5 ** 18,
    )


def _delta_sing_of(inv: InvariantSet):
    """(I8^2 - 64 I16)^2 - 16384 I32 - 2048 I8 I24; c01 certifies it equal
    to delta_sing_poly() as polynomials in lam."""
    core = inv.i8 * inv.i8 - 64 * inv.i16
    return core * core - 16384 * inv.i32 - 2048 * inv.i8 * inv.i24


def _km_bridge(s):
    """s4^3 - 4 s3 s4 s5 + 8 s2 s5^2, the Kummer cubic at mu = 1/lam times
    s5^3; c10 certifies it equal to the reciprocal-cleared
    delta_km_mu_poly()."""
    _, s2, s3, s4, s5 = s
    return s4 ** 3 - 4 * s3 * s4 * s5 + 8 * s2 * s5 * s5


def _kummer_form(inv: InvariantSet):
    """I8 I24 + 8 I32, which is s5^4 times the bridge."""
    return inv.i8 * inv.i24 + 8 * inv.i32


def _partners(lam, xs):
    """The partner coordinates Y_i = prod_{j != i} lam_j x_j."""
    scaled = [x * c for x, c in zip(xs, lam)]
    return tuple(prod(scaled[:i] + scaled[i + 1 :]) for i in range(NVARS))


_VARS = tuple(Poly5.var(i) for i in range(NVARS))
_HYPERPLANE = sum(_VARS, Poly5())


# The degree in lam of each runtime formula, each homogeneous: I8..I100,
# then _delta_sing_of, _kummer_form and _km_bridge.  A formula's value at
# lam = L / D is its value at the integers L over D to this weight, so
# classify divides once and reads each flag's zero test at L.
_WEIGHTS = {
    **dict(zip(InvariantSet._fields, (8, 16, 24, 32, 40, 100))),
    "delta_sing": 32,
    "kummer": 32,
    "bridge": 12,
}


def classical_invariants(lam) -> InvariantSet:
    return classify(lam).invariants


# -- certificate polynomials ---------------------------------------------------


def delta_sing_poly() -> Poly5:
    """Degree-32 polynomial in lam cutting out the singular cubics.

    Built from the product of the sixteen sign choices of
    sqrt(mu_0) +- sqrt(mu_1) +- ... +- sqrt(mu_4) with mu = 1/lam: the
    expansion is even in each square root, halving exponents gives a
    degree-8 polynomial in mu, and clearing reciprocals at cap 8 lands in
    the lam ring.

    The sign forms are multiplied in pairs, as a balanced tree: the form
    of mask i with the form of mask i + 8, which differs only in the sign
    of sqrt(mu_4), then the eight products i with i + 4 (the sign of
    sqrt(mu_3)), and so on.  Each pair is (A + s)(A - s) = A^2 - s^2, so
    the terms odd in that square root cancel at each level and the
    operands stay small.
    """
    forms = []
    for mask in range(16):
        form = Poly5.var(0)
        for i in range(4):
            sign = -1 if (mask >> i) & 1 else 1
            form = form + Poly5.var(i + 1) * sign
        forms.append(form)
    while len(forms) > 1:
        half = len(forms) // 2
        forms = [forms[i] * forms[i + half] for i in range(half)]
    prod = forms[0]
    require(prod.homogeneous_degree() == 16, "product has wrong degree")
    return reciprocal_clear(halve_exponents(prod), 8)


def delta_sing_invariant_poly() -> Poly5:
    """The runtime formula _delta_sing_of, built over Poly5 in lam."""
    return _delta_sing_of(_invariants(elem_sym_polys(), _vandermonde(_VARS)))


def delta_sing(lam) -> Fraction:
    return classify(lam).delta_sing


def delta_km_mu_poly() -> Poly5:
    """sum mu_i^3 - sum_{i != j} mu_i^2 mu_j + 2 sum_{i<j<k} mu_i mu_j mu_k."""
    zero = Poly5()
    cubes = sum((x ** 3 for x in _VARS), zero)
    mixed = sum((x * x * y for x, y in permutations(_VARS, 2)), zero)
    triples = sum((x * y * z for x, y, z in combinations(_VARS, 3)), zero)
    return cubes - mixed + 2 * triples


def delta_km_bridge_poly() -> Poly5:
    """The runtime bridge _km_bridge, built over Poly5 in lam."""
    return _km_bridge(elem_sym_polys())


def delta_km(lam) -> Fraction:
    """Kummer locus value at mu = 1/lam; zero iff the double cover picks up
    sixteen nodes."""
    value = classify(lam).delta_km
    if value is None:
        raise ValueError("Sylvester degenerate for mu")
    return value


# -- the Hessian quartic -------------------------------------------------------


def hessian_equations(lam):
    """The hyperplane sum X_i and the quartic sum_i prod_{j != i} lam_j X_j,
    the sum of the partner coordinates."""
    return _HYPERPLANE, sum(_partners(_coefficients(lam), _VARS), Poly5())


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
    """The quartic vanishes identically on the plane X_i = X_j = 0, for a
    pair of distinct indices in 0..4."""
    pair = tuple(integer(k, "pair index") for k in pair)
    if len(pair) != 2 or pair[0] == pair[1] or not all(0 <= k < NVARS for k in pair):
        raise ValueError(f"pair: expected two distinct indices in 0..{NVARS - 1}, got {pair}")
    i, j = pair
    _, quartic = hessian_equations(lam)
    return not any(e[i] == 0 and e[j] == 0 for e in quartic.terms)


def enriques_partner_check(lam) -> bool:
    """The coordinate swap X -> Y with Y_i = prod_{j != i} lam_j X_j sends
    the quartic, which is the sum of the Y_i, to the hyperplane times
    sigma5^4 (prod X)^3, exactly."""
    lam = _coefficients(lam)
    swapped = sum(_partners(lam, _partners(lam, _VARS)), Poly5())
    s5 = elem_sym_values(lam)[4]
    return swapped == _HYPERPLANE * prod(_VARS) ** 3 * s5 ** 4


class LocusReport(NamedTuple):
    invariants: InvariantSet
    delta_sing: Fraction
    delta_km: Fraction | None
    sylvester_degenerate: bool
    singular: bool
    eckardt: bool
    kummer: bool


def classify(lam) -> LocusReport:
    """The invariants and loci of lam, the one evaluation of the formulas:
    at lam = L / D over one common denominator D, each runs on the integers
    L and its value is divided once by D to its weight.  Each flag tests an
    integer value for zero, which that division leaves as it is."""
    lam = _coefficients(lam)
    den = lcm(*(x.denominator for x in lam))
    nums = tuple(x.numerator * (den // x.denominator) for x in lam)
    s = elem_sym(nums, 1, 0)
    diff = _vandermonde(nums)
    inv = _invariants(s, diff)
    degenerate = s[4] == 0
    ds = _delta_sing_of(inv)
    return LocusReport(
        invariants=InvariantSet(*(Fraction(v, den ** _WEIGHTS[f]) for f, v in zip(inv._fields, inv))),
        delta_sing=Fraction(ds, den ** _WEIGHTS["delta_sing"]),
        # the bridge over s5^3, of weight 15
        delta_km=None if degenerate else Fraction(_km_bridge(s) * den ** (15 - _WEIGHTS["bridge"]), s[4] ** 3),
        sylvester_degenerate=degenerate,
        singular=ds == 0,
        eckardt=diff == 0,
        kummer=_kummer_form(inv) == 0,
    )
