"""Acceptance gate: twelve numbered criteria, all exact arithmetic.

Each test is named test_cNN_*; conftest.py aggregates the outcomes into one
PASS/FAIL line per criterion.  Two clauses of c04 assert literal statements
that the computation refutes; they are marked xfail(strict=True) so the
refutation is pinned down rather than papered over.
"""

import itertools
import time
from fractions import Fraction

import numpy as np
import pytest

from hessk3 import correspond, cubic, sampling
from hessk3.domain import act, psi
from hessk3.eisenstein import OMEGA2, UNITS, Eisenstein
from hessk3.heegner import (
    COMPLEMENT_CASES,
    chart_flags,
    complement_gram_verify,
    heegner_membership,
    perp_equivalence,
    perp_flags,
)
from hessk3.hermitian import (
    decompose_hgamma1,
    equal_mod_units,
    f_mod2,
    g_a,
    gl2f4_group,
    involution_T,
    involution_W,
    m2e,
    m2e_mod2,
    moebius,
    p1_action,
    p1_f4_points,
    token_matrix,
    word_matrix,
)
from hessk3.lattice import (
    G0I42,
    G1,
    G2,
    MINUS_I6,
    U0,
    U1,
    U2,
    W0,
    enumerate_disc_orthogonal,
    is_in_enr,
    mat_id,
    mat_mul,
    mat_transpose,
    to_s5,
    translation_h,
    V_CLASSES,
)
from hessk3.poly import reciprocal_clear

E_ZERO = Eisenstein(0, 0)
E_ONE = Eisenstein(1, 0)


def scalar2(u):
    return ((u, E_ZERO), (E_ZERO, u))


# -- c01: singularity discriminant -------------------------------------------------


def test_c01_product_form_equals_invariant_form():
    start = time.monotonic()
    product_form = cubic.delta_sing_poly()
    invariant_form = cubic.delta_sing_invariant_poly()
    assert product_form == invariant_form
    ones = (Fraction(1),) * 5
    assert product_form.eval(ones) == -1215
    assert cubic.delta_sing((1, 1, 1, 1, 1)) == -1215
    assert time.monotonic() - start < 30


# -- c02: the discriminant orthogonal group ----------------------------------------


def test_c02_disc_orthogonal_enumeration():
    start = time.monotonic()
    auts = enumerate_disc_orthogonal()
    assert len(auts) == 240
    image = set()
    kernel = 0
    for aut in auts:
        perm = tuple(V_CLASSES.index(aut[v]) for v in V_CLASSES)
        image.add(perm)
        if perm == (0, 1, 2, 3, 4):
            kernel += 1
    assert image == set(itertools.permutations(range(5)))
    assert kernel == 2
    assert time.monotonic() - start < 120


# -- c03: frozen five-class permutations -------------------------------------------


def test_c03_generator_permutations():
    assert to_s5(G1) == (3, 1, 4, 0, 2)
    assert to_s5(G2) == (4, 1, 3, 2, 0)
    assert to_s5(U0) == (1, 0, 2, 3, 4)
    assert to_s5(U1) == (0, 1, 4, 3, 2)
    assert to_s5(U2) == (0, 1, 3, 4, 2)


# -- c04: the 2x2-to-6x6 homomorphism ----------------------------------------------


def test_c04_psi_is_multiplicative_with_scalar_kernel():
    rng = sampling.make_rng(61)
    for _ in range(200):
        a = sampling.sample_gl2_matrix(rng, 4)
        b = sampling.sample_gl2_matrix(rng, 4)
        assert correspond.psi_hom(mat_mul(a, b)) == mat_mul(
            correspond.psi_hom(a), correspond.psi_hom(b)
        )
    ident = mat_id(6)
    assert len(UNITS) == 6
    for u in UNITS:
        assert correspond.psi_hom(scalar2(u)) == ident
    # any sampled preimage of the identity must be one of those six scalars
    for _ in range(200):
        a = sampling.sample_gl2_matrix(rng, 4)
        if correspond.psi_hom(a) == ident:
            assert a[0][1] == E_ZERO and a[1][0] == E_ZERO and a[0][0] == a[1][1]
            assert a[0][0] in UNITS


def test_c04_frozen_images():
    assert correspond.psi_hom(m2e(((1, 0), (1, 1)))) == G1
    assert correspond.psi_hom(m2e(((1, 0), (0, OMEGA2)))) == U2


@pytest.mark.xfail(strict=True, reason="the order-three elementary matrix is not a preimage of u2")
def test_c04_literal_u2_preimage():
    assert correspond.psi_hom(m2e(((0, -1), (1, -1)))) == U2


def _image_is_even(im):
    return all((im[i][j] - (1 if i == j else 0)) % 2 == 0 for i in range(6) for j in range(6))


def _mod2_samples():
    rng = sampling.make_rng(62)
    samples = [scalar2(u) for u in UNITS]
    for k in range(200):
        if k % 2:
            samples.append(sampling.sample_gl2_matrix(rng, 4))
        else:
            samples.append(sampling.sample_g2_matrix(rng, 4))
    return samples


def test_c04_mod2_kernel_is_the_scalar_class():
    scalar_reps = {m2e_mod2(scalar2(u)) for u in UNITS}
    assert len(scalar_reps) == 3
    for a in _mod2_samples():
        even = _image_is_even(correspond.psi_hom(a))
        assert even == (m2e_mod2(a) in scalar_reps)


@pytest.mark.xfail(strict=True, reason="unit scalars have even images without being congruent to 1")
def test_c04_mod2_kernel_literal_congruence_to_identity():
    ident_rep = m2e_mod2(scalar2(E_ONE))
    for a in _mod2_samples():
        even = _image_is_even(correspond.psi_hom(a))
        assert even == (m2e_mod2(a) == ident_rep)


# -- c05: the generator dictionary acts identically --------------------------------


def test_c05_dictionary_equivariance_on_chart_points():
    rng = sampling.make_rng(63)
    for _ in range(20):
        z = sampling.sample_chart_point(rng)
        tau = psi(z)
        for name, orth, tok in correspond.DICTIONARY_PAIRS:
            assert psi(act(orth, z)) == moebius(token_matrix(tok), tau), name
        assert psi(act(U1, z)) == involution_T(tau)
        assert psi(act(W0, z)) == involution_W(tau)


# -- c06: decomposition round trips ------------------------------------------------


def test_c06_decomposition_round_trips():
    start = time.monotonic()
    rng = sampling.make_rng(64)
    for _ in range(100):
        word = sampling.sample_hgamma1_word(rng, rng.randint(1, 12))
        g = word_matrix(word)
        assert word_matrix(decompose_hgamma1(g)) == g
    for _ in range(100):
        x = sampling.sample_orth_so0(rng, rng.randint(1, 12))
        assert correspond.orth_word_matrix(correspond.decompose_so0(x)) == x
    for _ in range(100):
        g = sampling.sample_orth_plus(rng, rng.randint(1, 6))
        uses_t, uses_w, word = correspond.orth_to_herm(g)
        back = correspond.herm_to_orth(uses_t, uses_w, word)
        assert correspond.equal_mod_center(back, g)
    for _ in range(50):
        word = sampling.sample_hgamma0_word(rng, rng.randint(1, 5))
        h = word_matrix(word)
        g = correspond.herm_word_to_orth(word)
        uses_t, uses_w, back_word = correspond.orth_to_herm(g)
        assert not uses_t and not uses_w
        assert equal_mod_units(word_matrix(back_word), h)
    assert time.monotonic() - start < 60


# -- c07: the mod-2 picture --------------------------------------------------------


def test_c07_mod2_image_and_projective_action():
    gl = gl2f4_group()
    assert len(gl) == 180
    rng = sampling.make_rng(65)
    for _ in range(50):
        word = sampling.sample_hgamma0_word(rng, rng.randint(1, 6))
        assert f_mod2(word_matrix(word)) in gl
    pts = p1_f4_points()
    assert len(pts) == 5
    perms = set()
    trivial = 0
    for fm in gl:
        perm = tuple(pts.index(p1_action(fm, p)) for p in pts)
        perms.add(perm)
        if perm == (0, 1, 2, 3, 4):
            trivial += 1
    assert trivial == 3
    assert len(perms) == 60
    for perm in perms:
        inversions = sum(
            1
            for i in range(5)
            for j in range(i + 1, 5)
            if perm[i] > perm[j]
        )
        assert inversions % 2 == 0


# -- c08: the Enriques stabilizer --------------------------------------------------


def test_c08_congruence_words_and_w_prime_law():
    rng = sampling.make_rng(66)
    for _ in range(100):
        word = sampling.sample_hgamma1_word(rng, rng.randint(1, 8))
        assert is_in_enr(correspond.herm_word_to_orth(word))
    flip = g_a(m2e(((0, 1), (1, 0))))
    for _ in range(20):
        z = sampling.sample_chart_point(rng)
        lhs = psi(act(G0I42, z))
        rhs = mat_transpose(moebius(flip, involution_W(psi(z))))
        assert lhs == rhs


# -- c09: divisor descriptions -----------------------------------------------------


def test_c09_divisor_descriptions_agree():
    rng = sampling.make_rng(67)
    samplers = {
        "node": sampling.sample_node_point,
        "eckardt": sampling.sample_eckardt_point,
        "ns": sampling.sample_ns_point,
        "km": sampling.sample_km_point,
    }
    for name, sampler in samplers.items():
        for _ in range(25):
            z = sampler(rng)
            flags = perp_equivalence(z)
            assert getattr(flags, name)
            assert chart_flags(z) == flags
            assert perp_flags(z) == flags
            assert heegner_membership(psi(z)) == flags
    for _ in range(100):
        z = sampling.sample_chart_point(rng)
        flags = perp_equivalence(z)
        assert chart_flags(z) == flags
        assert perp_flags(z) == flags
        assert heegner_membership(psi(z)) == flags


def test_c09_complement_grams():
    for name in sorted(COMPLEMENT_CASES):
        gram = complement_gram_verify(name)
        assert gram == COMPLEMENT_CASES[name][2]


# -- c10: the Kummer bridge --------------------------------------------------------


def test_c10_bridge_identity():
    cleared = reciprocal_clear(cubic.delta_km_mu_poly(), 3)
    assert cleared == cubic.delta_km_bridge_poly()


def test_c10_locus_coincidence_away_from_sigma5():
    def on_invariant_locus(lam):
        inv = cubic.classical_invariants(lam)
        return inv.i8 * inv.i24 + 8 * inv.i32 == 0

    witness = (Fraction(1), Fraction(3), Fraction(3), Fraction(-2), Fraction(-2))
    on_locus = [witness]
    on_locus.extend(tuple(x * 3 for x in p) for p in itertools.permutations(witness, 5))
    for lam in on_locus:
        assert cubic.delta_km(lam) == 0
        assert on_invariant_locus(lam)
    rng = sampling.make_rng(68)
    for _ in range(60):
        lam = sampling.sample_lambda(rng)
        assert (cubic.delta_km(lam) == 0) == on_invariant_locus(lam)


# -- c11: nodes, lines, and the involution ------------------------------------------


def test_c11_nodes_lines_and_partner_swap():
    rng = sampling.make_rng(69)
    points = cubic.hessian_singular_points()
    assert len(set(points)) == 10
    pairs = list(itertools.combinations(range(5), 2))
    for _ in range(12):
        lam = sampling.sample_lambda(rng)
        hyper, quartic = cubic.hessian_equations(lam)
        for pt in points:
            assert hyper.eval(pt) == 0
            assert quartic.eval(pt) == 0
        for pair in pairs:
            assert cubic.hessian_line_check(lam, pair)
        assert cubic.enriques_partner_check(lam)


# -- c12: exhaustive translation additivity ----------------------------------------


def test_c12_translations_add_exhaustively():
    small = list(itertools.product(range(-2, 3), repeat=4))
    big_index = {
        m: k for k, m in enumerate(itertools.product(range(-4, 5), repeat=4))
    }
    mats = np.array([translation_h(*m) for m in small], dtype=np.int64)
    big = np.array(
        [translation_h(*m) for m in itertools.product(range(-4, 5), repeat=4)],
        dtype=np.int64,
    )
    want_idx = np.array(
        [
            [big_index[tuple(x + y for x, y in zip(ma, mb))] for mb in small]
            for ma in small
        ],
        dtype=np.int64,
    )
    for lo in range(0, len(small), 25):
        hi = lo + 25
        products = np.einsum("aij,bjk->abik", mats[lo:hi], mats)
        assert np.array_equal(products, big[want_idx[lo:hi]])


# -- sanity: every built-in verification suite is green ----------------------------


def test_verification_suites_all_pass():
    from hessk3.verify import run_all

    report = run_all(seed=0)
    assert report["passed"], [
        (s["suite"], [c["check_id"] for c in s["checks"] if not c["passed"]])
        for s in report["suites"]
        if not s["passed"]
    ]
