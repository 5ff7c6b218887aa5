"""Sparse five-variable polynomial arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hessk3.cubic import delta_km_mu_poly, delta_sing_poly
from hessk3.poly import (
    NVARS,
    Poly5,
    elem_sym,
    elem_sym_polys,
    halve_exponents,
    reciprocal_clear,
)

exponents = st.tuples(*[st.integers(min_value=0, max_value=3)] * NVARS)
coeffs = st.integers(min_value=-5, max_value=5).filter(bool)


def polys():
    return st.dictionaries(exponents, coeffs, max_size=4).map(Poly5)


points = st.tuples(*[st.fractions(min_value=-4, max_value=4, max_denominator=3)] * NVARS)


def test_basics():
    x0 = Poly5.var(0)
    x1 = Poly5.var(1)
    assert (x0 * x1).eval((2, 3, 1, 1, 1)) == 6
    sq = (x0 + x1) ** 2
    assert sq == x0 ** 2 + 2 * x0 * x1 + x1 ** 2
    with pytest.raises(ValueError, match="negative power"):
        x0 ** -1
    assert sq.degree() == 2
    assert sq.homogeneous_degree() == 2
    assert (sq + Poly5.const(1)).homogeneous_degree() is None
    assert Poly5.zero().degree() == -1
    assert (x0 - x0).is_zero()
    assert Poly5.const(0).is_zero()


@given(polys(), polys(), points)
def test_eval_is_a_homomorphism(p, q, pt):
    assert (p + q).eval(pt) == p.eval(pt) + q.eval(pt)
    assert (p * q).eval(pt) == p.eval(pt) * q.eval(pt)
    assert (p - q).eval(pt) == p.eval(pt) - q.eval(pt)
    assert (3 * p).eval(pt) == 3 * p.eval(pt)


def _fraction_eval(p, point):
    """The term-by-term Fraction loop that Poly5.eval replaced, as its oracle."""
    total = Fraction(0)
    for e, c in p.terms.items():
        v = Fraction(c)
        for x, k in zip(point, e):
            if k:
                v *= Fraction(x) ** k
        total += v
    return total


fraction_coeffs = coeffs | st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool)
mixed_points = st.tuples(
    *[st.integers(-9, 9) | st.fractions(min_value=-4, max_value=4, max_denominator=12)] * NVARS
)


@given(st.dictionaries(exponents, fraction_coeffs, max_size=6).map(Poly5), mixed_points)
def test_eval_matches_the_fraction_loop(p, pt):
    got = p.eval(pt)
    assert type(got) is Fraction
    assert got == _fraction_eval(p, pt)


def test_eval_matches_the_fraction_loop_on_the_certificate_polynomials():
    pts = [(1, 2, 3, 4, 5), (Fraction(-7, 3), 2, Fraction(5, 8), 0, -1), (Fraction(1, 16), 1, 1, 1, 1)]
    for p in (delta_sing_poly(), delta_km_mu_poly(), Poly5.const(Fraction(2, 3)), Poly5()):
        for pt in pts:
            assert p.eval(pt) == _fraction_eval(p, pt)


def test_eval_arity_guard():
    with pytest.raises(ValueError, match="wrong arity"):
        Poly5.var(0).eval((1, 2, 3))


def test_elementary_symmetric_values():
    e = elem_sym_polys()
    pt = (1, 2, 3, 4, 5)
    assert [p.eval(pt) for p in e] == [15, 85, 225, 274, 120]
    # symmetry: any reordering of the point gives the same values
    assert [p.eval((5, 3, 1, 4, 2)) for p in e] == [15, 85, 225, 274, 120]
    # e_k is homogeneous of degree k with binomial(5, k) terms
    for k, p in enumerate(e, start=1):
        assert p.homogeneous_degree() == k
    assert [p.num_terms() for p in e] == [5, 10, 10, 5, 1]
    # the same expansion over any ring and any number of roots
    assert elem_sym((2, 3), 1, 0) == (5, 6)


def test_vandermonde_product():
    prod = Poly5.const(1)
    for i in range(NVARS):
        for j in range(i + 1, NVARS):
            prod = prod * (Poly5.var(j) - Poly5.var(i))
    assert prod.eval((1, 2, 3, 4, 5)) == 288
    assert prod.eval((1, 1, 3, 4, 5)) == 0
    assert prod.homogeneous_degree() == 10


def test_halve_exponents():
    p = Poly5.var(0, 2) * Poly5.var(1, 4) + Poly5.const(4)
    h = halve_exponents(p)
    assert h == Poly5.var(0) * Poly5.var(1, 2) + Poly5.const(4)
    with pytest.raises(ValueError, match="odd exponent"):
        halve_exponents(Poly5.var(0))


@given(polys(), points)
def test_halve_exponents_matches_square_roots(p, pt):
    doubled = Poly5()
    doubled.terms = {tuple(2 * k for k in e): c for e, c in p.terms.items()}
    h = halve_exponents(doubled)
    sq = tuple(x * x for x in pt)
    assert h.eval(sq) == doubled.eval(pt)


def test_reciprocal_clear():
    p = Poly5.var(0) + Poly5.const(2)
    q = reciprocal_clear(p, 1)
    pt = (2, 3, 5, 7, 11)
    prod = Fraction(1)
    for x in pt:
        prod *= x
    inv = tuple(Fraction(1, x) for x in pt)
    assert q.eval(pt) == prod * p.eval(inv)
    with pytest.raises(ValueError, match="above reciprocal cap"):
        reciprocal_clear(Poly5.var(0, 3), 2)


@given(polys(), points)
def test_reciprocal_clear_matches_substitution(p, pt):
    cap = max((max(e) for e in p.terms), default=0)
    q = reciprocal_clear(p, cap)
    nonzero = tuple(x if x else Fraction(1) for x in pt)
    prod = Fraction(1)
    for x in nonzero:
        prod *= x**cap
    inv = tuple(Fraction(1, x) for x in nonzero)
    assert q.eval(nonzero) == prod * p.eval(inv)
