"""Pentahedral invariants, the two discriminant loci, the Hessian quartic."""

import random
from fractions import Fraction

import pytest

from hessk3 import cubic, sampling
from hessk3.cubic import (
    classical_invariants,
    classify,
    delta_km,
    delta_km_bridge_poly,
    delta_km_mu_poly,
    delta_sing,
    delta_sing_poly,
    elem_sym_values,
    enriques_partner_check,
    hessian_equations,
    hessian_line_check,
    hessian_singular_points,
)
from hessk3.poly import NVARS, Poly5, elem_sym, elem_sym_polys, halve_exponents, reciprocal_clear

ONES = (1, 1, 1, 1, 1)
KUMMER_POINT = (1, 3, 3, -2, -2)


def test_elem_sym_values():
    assert elem_sym_values(ONES) == (5, 10, 10, 5, 1)
    assert elem_sym_values((1, 2, 3, 4, 5)) == (15, 85, 225, 274, 120)
    with pytest.raises(ValueError, match="five coefficients"):
        elem_sym_values((1, 2, 3))


def test_shared_formulas_run_over_poly5():
    # the formulas behind classify, built on Poly5 as the certificates
    # build them, evaluate to the runtime values at every sampled lam
    xs = tuple(Poly5.var(i) for i in range(NVARS))
    s = elem_sym_polys()
    inv = cubic._invariants(s, cubic._vandermonde(xs))
    sing = cubic._delta_sing_of(inv)
    bridge = cubic._km_bridge(s)
    kummer = cubic._kummer_form(inv)
    fields = ("i8", "i16", "i24", "i32", "i40", "i100")
    rng = sampling.make_rng(44)
    for k in range(24):
        lam = sampling.sample_lambda(rng, distinct=k % 3 != 0)
        want = classical_invariants(lam)
        assert all(getattr(inv, f).eval(lam) == getattr(want, f) for f in fields)
        assert sing.eval(lam) == delta_sing(lam) == classify(lam).delta_sing
        assert bridge.eval(lam) == elem_sym_values(lam)[4] ** 3 * delta_km(lam)
        assert kummer.eval(lam) == cubic._kummer_form(want)
        pt = tuple(reversed(lam))
        ys = cubic._partners(lam, xs)
        assert tuple(y.eval(pt) for y in ys) == cubic._partners(lam, pt)


def test_each_formula_has_the_weight_the_integer_path_divides_by():
    # the integer path divides each formula's value at L by D^weight, which
    # is right only for a formula homogeneous of exactly that degree
    xs = tuple(Poly5.var(i) for i in range(NVARS))
    s = elem_sym_polys()
    inv = cubic._invariants(s, cubic._vandermonde(xs))
    formulas = {
        **inv._asdict(),
        "delta_sing": cubic._delta_sing_of(inv),
        "kummer": cubic._kummer_form(inv),
        "bridge": cubic._km_bridge(s),
    }
    assert formulas.keys() == cubic._WEIGHTS.keys()
    assert {name: f.homogeneous_degree() for name, f in formulas.items()} == cubic._WEIGHTS


def _on_fractions(lam):
    """classify's values with every formula evaluated on Fractions."""
    lam = tuple(map(Fraction, lam))
    s = elem_sym(lam, Fraction(1), Fraction(0))
    inv = cubic._invariants(s, cubic._vandermonde(lam))
    km = None if s[4] == 0 else cubic._km_bridge(s) / s[4] ** 3
    return inv, cubic._delta_sing_of(inv), km, cubic._kummer_form(inv) == 0


def test_the_integer_path_equals_the_formulas_on_fractions():
    rng = random.Random(45)
    lams = [sampling.sample_lambda(rng, distinct=k % 2 == 0) for k in range(20)]
    for _ in range(20):
        # one zero coordinate (s5 = 0), a repeated one, and mixed denominators
        lam = [Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 5, 7, 12))) for _ in range(5)]
        lam[rng.randrange(5)] = lam[rng.randrange(5)]
        lams.append(tuple(lam))
        lams.append(tuple(lam[:4]) + (0,))
    lams += [ONES, (0,) * 5, (Fraction(1, 3), Fraction(1, 3), 2, Fraction(-5, 4), 0), KUMMER_POINT]
    assert sum(any(x == 0 for x in lam) for lam in lams) >= 20
    for lam in lams:
        inv, sing, km, kummer = _on_fractions(lam)
        rep = classify(lam)
        assert rep.invariants == inv == classical_invariants(lam)
        assert all(type(v) is Fraction for v in (*rep.invariants, rep.delta_sing))
        assert rep.delta_sing == sing == delta_sing(lam)
        assert rep.delta_km == km
        if km is not None:
            assert delta_km(lam) == km
        assert rep.kummer == kummer
        assert rep.eckardt == (len(set(lam)) < 5)


def test_invariants_at_ones():
    inv = classical_invariants(ONES)
    assert (inv.i8, inv.i16, inv.i24, inv.i32, inv.i40, inv.i100) == (-15, 5, 5, 10, 1, 0)


def test_invariant_weights():
    rng = sampling.make_rng(41)
    c = Fraction(3, 2)
    for _ in range(5):
        lam = sampling.sample_lambda(rng)
        scaled = classical_invariants(tuple(c * x for x in lam))
        inv = classical_invariants(lam)
        for name, w in (("i8", 8), ("i16", 16), ("i24", 24), ("i32", 32), ("i40", 40), ("i100", 100)):
            assert getattr(scaled, name) == c**w * getattr(inv, name)


def test_delta_sing_values():
    assert delta_sing(ONES) == -1215
    assert delta_sing((1, 1, 1, 1, Fraction(1, 16))) == 0
    # weight 32 under coefficient scaling
    assert delta_sing(tuple(2 * x for x in ONES)) == 2**32 * -1215


def test_delta_km_values():
    assert delta_km(ONES) == 5
    assert delta_km(KUMMER_POINT) == 0
    rng = sampling.make_rng(42)
    for _ in range(5):
        lam = sampling.sample_lambda(rng)
        assert 8 * delta_km(tuple(2 * x for x in lam)) == delta_km(lam)
    with pytest.raises(ValueError, match="Sylvester degenerate"):
        delta_km((1, 2, 3, 4, 0))


def test_delta_km_bridge_pointwise():
    rng = sampling.make_rng(43)
    bridge = delta_km_bridge_poly()
    for _ in range(8):
        lam = sampling.sample_lambda(rng)
        s5 = elem_sym_values(lam)[4]
        assert s5**3 * delta_km(lam) == bridge.eval(lam)


def test_kummer_flag_matches_bridge():
    # I8 I24 + 8 I32 = s5^4 (s4^3 - 4 s3 s4 s5 + 8 s2 s5^2) as polynomials
    _, s2, s3, s4, s5 = elem_sym_polys()
    i8 = s4 * s4 - 4 * s3 * s5
    i24 = s4 * s5**4
    i32 = s2 * s5**6
    assert i8 * i24 + 8 * i32 == s5**4 * delta_km_bridge_poly()
    # hence the flag coincides with the vanishing of delta_km off s5 = 0
    for lam in (ONES, KUMMER_POINT, (1, 2, 3, 4, 5)):
        rep = classify(lam)
        assert rep.kummer == (delta_km(lam) == 0)


def test_km_mu_poly_shape():
    p = delta_km_mu_poly()
    assert p.homogeneous_degree() == 3
    assert p.eval(ONES) == 5
    # at (1,1,1,1,0): 4 cubes - 12 mixed squares + 8 triples
    assert p.eval((1, 1, 1, 1, 0)) == 0
    # symmetric under coordinate permutation
    assert p.eval((1, 2, 3, 4, 5)) == p.eval((5, 4, 3, 2, 1))


def test_hessian_equations():
    lam = (1, 2, 3, 4, 5)
    hyper, quartic = hessian_equations(lam)
    assert hyper.eval((1, 1, 1, 1, 1)) == 5
    assert hyper.homogeneous_degree() == 1
    assert quartic.homogeneous_degree() == 4
    # sum over i of prod_{j != i} lam_j at the all-ones point is sigma4
    assert quartic.eval((1, 1, 1, 1, 1)) == 274


def test_hessian_singular_points():
    pts = hessian_singular_points()
    assert len(pts) == 10
    assert len(set(pts)) == 10
    rng = sampling.make_rng(44)
    for _ in range(4):
        lam = sampling.sample_lambda(rng)
        hyper, quartic = hessian_equations(lam)
        for pt in pts:
            assert hyper.eval(pt) == 0
            assert quartic.eval(pt) == 0


def test_hessian_lines_and_partner():
    rng = sampling.make_rng(45)
    for _ in range(3):
        lam = sampling.sample_lambda(rng)
        for i in range(5):
            for j in range(i + 1, 5):
                assert hessian_line_check(lam, (i, j))
        assert enriques_partner_check(lam)


def test_float_coefficients_are_rejected():
    with pytest.raises(TypeError, match="float"):
        classify((0.5, 1, 2, 3, 4))
    with pytest.raises(TypeError, match="float"):
        classical_invariants((1, 2, 3, 4, 5.0))


def test_classify_reports():
    rep = classify(ONES)
    assert not rep.singular
    assert rep.eckardt
    assert not rep.kummer
    assert not rep.sylvester_degenerate
    assert rep.delta_km == 5
    assert rep.delta_sing == -1215

    rep = classify((1, 1, 1, 1, Fraction(1, 16)))
    assert rep.singular

    rep = classify((1, 2, 3, 4, 5))
    assert not rep.eckardt
    assert not rep.singular

    rep = classify((1, 2, 3, 4, 0))
    assert rep.sylvester_degenerate
    assert rep.delta_km is None

    rep = classify(KUMMER_POINT)
    assert rep.kummer and not rep.singular


def _oracle_lambdas():
    """200 seeded quintuples: sampled ones, ones with large denominators,
    and ones with repeated or zero coordinates."""
    rng = random.Random(2024)
    out = [sampling.sample_lambda(rng, distinct=k % 2 == 0) for k in range(120)]
    for _ in range(50):
        big = (Fraction(rng.randint(-(10**9), 10**9), rng.randint(1, 10**7)) for _ in range(5))
        out.append(tuple(big))
    for _ in range(30):
        lam = [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(5)]
        lam[rng.randrange(5)] = lam[rng.randrange(5)]
        out.append(tuple(lam))
    out += [ONES, (1, 1, 1, 1, Fraction(1, 16)), (1, 2, 3, 4, 0), (0,) * 5, (2, 2, 2, -1, 0)]
    return out


def test_closed_forms_match_the_certificate_polynomials():
    e_polys = elem_sym_polys()
    sing, km_mu = delta_sing_poly(), delta_km_mu_poly()
    lams = _oracle_lambdas()
    assert len(lams) >= 200
    for lam in lams:
        assert elem_sym_values(lam) == tuple(p.eval(lam) for p in e_polys)
        assert delta_sing(lam) == sing.eval(lam)
        rep = classify(lam)
        assert rep.delta_sing == delta_sing(lam)
        if any(x == 0 for x in lam):
            assert rep.delta_km is None
            with pytest.raises(ValueError, match="Sylvester degenerate"):
                delta_km(lam)
        else:
            want = km_mu.eval(tuple(1 / Fraction(x) for x in lam))
            assert delta_km(lam) == rep.delta_km == want


def test_closed_forms_at_named_points():
    assert elem_sym_values((1, 2, 3, 4, 0))[4] == 0
    assert delta_sing((1, 1, 1, 1, Fraction(1, 16))) == 0
    assert delta_sing_poly().eval((1, 1, 1, 1, Fraction(1, 16))) == 0
    # repeated coordinates: sigma_k of (x, x, x, x, x) is C(5, k) x^k
    x = Fraction(-7, 3)
    assert elem_sym_values((x,) * 5) == (5 * x, 10 * x**2, 10 * x**3, 5 * x**4, x**5)
    for lam in ((0, 1, 2, 3, 4), (1, 2, 0, 0, 5)):
        with pytest.raises(ValueError, match="Sylvester degenerate"):
            delta_km(lam)


def test_paired_sign_product_equals_the_sequential_one():
    # delta_sing_poly multiplies its sixteen sign forms in pairs; the product
    # one form at a time, mask 0 to 15, must give the same polynomial
    prod = Poly5.const(1)
    for mask in range(16):
        form = Poly5.var(0)
        for i in range(4):
            form = form + Poly5.var(i + 1) * (-1 if (mask >> i) & 1 else 1)
        prod = prod * form
    assert delta_sing_poly() == reciprocal_clear(halve_exponents(prod), 8)
