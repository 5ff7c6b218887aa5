"""Named verification suites.

Each suite runs a list of exact checks and returns a JSON-friendly report;
same seed, same report, byte for byte.  The checks mirror the test suite's
acceptance gates but at fuzzing sizes tuned for interactive use.

Where a commonly stated identity is off by a scalar class (the mod-2
kernel of the 2x2 to 6x6 homomorphism, and one generator preimage), the
suite checks the corrected statement and additionally records that the
uncorrected literal form fails, so the discrepancy stays visible.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction

from . import correspond, cubic, heegner, hermitian, lattice, poly, sampling
from .domain import act, psi
from .eisenstein import OMEGA, OMEGA2, ONE, UNITS, Eisenstein
from .hermitian import (
    decompose_hgamma0,
    decompose_hgamma1,
    equal_mod_units,
    g_a,
    g_upper,
    involution_W,
    m2e,
    m2e_mod2,
    moebius,
    p1_action,
    p1_f4_points,
    word_matrix,
)
from .lattice import (
    D1,
    D2,
    D3,
    D4,
    G0I42,
    MINUS_I6,
    disc_act,
    disc_b,
    disc_group,
    disc_q,
    enumerate_disc_orthogonal,
    is_in_enr,
    is_in_k3,
    mat_id,
    mat_mul,
    mat_transpose,
    to_s5,
    translation_h,
    two_torsion,
)

__all__ = ["Check", "SUITES", "run_suite", "run_all"]


@dataclass(frozen=True)
class Check:
    check_id: str
    passed: bool
    detail: str = ""


def _add(checks, check_id, cond, detail=""):
    checks.append(Check(check_id, bool(cond), detail))


# -- suites -------------------------------------------------------------------


def suite_disc_group(seed: int):
    checks = []
    group = disc_group()
    _add(checks, "disc-group-order-48", len(group) == 48)
    q_vals = {
        "q-d1": (disc_q(D1), Fraction(0)),
        "q-d1-plus-d2": (disc_q(lattice.disc_add(D1, D2)), Fraction(1)),
        "q-2d3": (disc_q(lattice.disc_scale(2, D3)), Fraction(2, 3)),
        "q-d3": (disc_q(D3), Fraction(5, 3)),
        "q-d4": (disc_q(D4), Fraction(5, 3)),
    }
    for cid, (got, want) in q_vals.items():
        _add(checks, cid, got == want, f"got {got}")
    _add(checks, "b-d1-d2", disc_b(D1, D2) == Fraction(1, 2))
    _add(checks, "b-d3-d4", disc_b(D3, D4) == Fraction(5, 6))
    _add(checks, "b-d1-d3", disc_b(D1, D3) == 0)
    auts = enumerate_disc_orthogonal()
    _add(checks, "disc-orthogonal-order-240", len(auts) == 240, f"got {len(auts)}")
    image = set()
    kernel = 0
    for aut in auts:
        perm = tuple(lattice.V_CLASSES.index(aut[v]) for v in lattice.V_CLASSES)
        image.add(perm)
        if perm == (0, 1, 2, 3, 4):
            kernel += 1
    _add(checks, "five-class-image-order-120", len(image) == 120, f"got {len(image)}")
    _add(checks, "five-class-kernel-order-2", kernel == 2, f"got {kernel}")
    return checks


def suite_quotient_group(seed: int):
    checks = []
    rng = sampling.make_rng(seed)
    frozen = {
        "g1-perm": (lattice.G1, (3, 1, 4, 0, 2)),
        "g2-perm": (lattice.G2, (4, 1, 3, 2, 0)),
        "u0-perm": (lattice.U0, (1, 0, 2, 3, 4)),
        "u1-perm": (lattice.U1, (0, 1, 4, 3, 2)),
        "u2-perm": (lattice.U2, (0, 1, 3, 4, 2)),
        "g0-identity": (lattice.G0, (0, 1, 2, 3, 4)),
        "minus-identity": (MINUS_I6, (0, 1, 2, 3, 4)),
    }
    for cid, (mat, want) in frozen.items():
        got = to_s5(mat)
        _add(checks, cid, got == want, f"got {got}")
    hom_ok = True
    for _ in range(30):
        a = sampling.sample_orth_plus(rng, 4)
        b = sampling.sample_orth_plus(rng, 4)
        sa, sb = to_s5(a), to_s5(b)
        sab = to_s5(mat_mul(a, b))
        composed = tuple(sa[sb[i]] for i in range(5))
        if sab != composed:
            hom_ok = False
            break
    _add(checks, "five-class-map-multiplicative", hom_ok)
    add_ok = True
    for _ in range(100):
        ma = tuple(rng.randint(-4, 4) for _ in range(4))
        mb = tuple(rng.randint(-4, 4) for _ in range(4))
        lhs = mat_mul(translation_h(*ma), translation_h(*mb))
        rhs = translation_h(*(x + y for x, y in zip(ma, mb)))
        if lhs != rhs:
            add_ok = False
            break
    _add(checks, "translations-additive", add_ok)
    k3_ok = True
    enr_ok = True
    tt = two_torsion()
    for _ in range(40):
        g = sampling.sample_orth_so0(rng, 5)
        trivial = all(disc_act(g, d) == d for d in (D1, D2, D3, D4))
        if is_in_k3(g) != trivial:
            k3_ok = False
        fixes_tt = all(disc_act(g, t) == t for t in tt)
        if is_in_enr(g) != fixes_tt:
            enr_ok = False
    _add(checks, "k3-subgroup-is-trivial-action", k3_ok)
    _add(checks, "enr-subgroup-fixes-two-torsion", enr_ok)
    return checks


def suite_group_iso(seed: int):
    checks = []
    rng = sampling.make_rng(seed)
    pairs = {
        "image-g1": (m2e(((1, 0), (1, 1))), lattice.G1),
        "image-g2": (m2e(((1, 0), (OMEGA2, 1))), lattice.G2),
        "image-u0g1u0": (m2e(((1, 1), (0, 1))), lattice.U0G1U0),
        "image-u0u1": (m2e(((0, 1), (1, 0))), lattice.U0U1),
        "image-i42": (m2e(((1, 0), (0, -1))), lattice.I42),
        "image-u2-corrected": (m2e(((1, 0), (0, OMEGA2))), lattice.U2),
    }
    for cid, (a, want) in pairs.items():
        _add(checks, cid, correspond.psi_hom(a) == want)
    literal = correspond.psi_hom(m2e(((0, -1), (1, -1))))
    _add(
        checks,
        "image-u2-literal-form-fails",
        literal != lattice.U2,
        "preimage of u2 is diag(1, w^2), not the order-three elementary",
    )
    hom_ok = True
    for _ in range(200):
        a = sampling.sample_gl2_matrix(rng, 4)
        b = sampling.sample_gl2_matrix(rng, 4)
        if correspond.psi_hom(mat_mul(a, b)) != mat_mul(
            correspond.psi_hom(a), correspond.psi_hom(b)
        ):
            hom_ok = False
            break
    _add(checks, "psi-multiplicative", hom_ok)
    ident = mat_id(6)
    _add(
        checks,
        "psi-kernel-scalars",
        all(correspond.psi_hom(((u, Eisenstein(0, 0)), (Eisenstein(0, 0), u))) == ident for u in UNITS),
    )
    # mod-2 criterion: the image is even iff A is a unit multiple of a
    # matrix congruent to the identity
    scalar_ok = True
    literal_fails = False
    for k in range(220):
        if k < 6:
            a = ((UNITS[k], Eisenstein(0, 0)), (Eisenstein(0, 0), UNITS[k]))
        elif k % 2:
            a = sampling.sample_gl2_matrix(rng, 4)
        else:
            a = sampling.sample_g2_matrix(rng, 4)
        im = correspond.psi_hom(a)
        even = all(
            (im[i][j] - (1 if i == j else 0)) % 2 == 0
            for i in range(6)
            for j in range(6)
        )
        amod = m2e_mod2(a)
        scalar_class = any(
            amod == m2e_mod2(((u, Eisenstein(0, 0)), (Eisenstein(0, 0), u))) for u in (ONE, OMEGA, OMEGA2)
        )
        strict = amod == m2e_mod2(((ONE, Eisenstein(0, 0)), (Eisenstein(0, 0), ONE)))
        if even != scalar_class:
            scalar_ok = False
        if even != strict:
            literal_fails = True
    _add(checks, "psi-mod2-kernel-is-scalar-class", scalar_ok)
    _add(
        checks,
        "psi-mod2-literal-kernel-fails",
        literal_fails,
        "scalar units map to even images without being congruent to 1",
    )
    # mod-2 image: all of GL2(F4), acting by even permutations on the five
    # projective points
    gl = hermitian.gl2f4_group()
    _add(checks, "mod2-image-order-180", len(gl) == 180, f"got {len(gl)}")
    pts = p1_f4_points()
    perms = set()
    all_even = True
    for fm in gl:
        perm = tuple(pts.index(p1_action(fm, p)) for p in pts)
        perms.add(perm)
        if _perm_sign(perm) != 1:
            all_even = False
    _add(checks, "p1-action-order-60", len(perms) == 60, f"got {len(perms)}")
    _add(checks, "p1-action-all-even", all_even)
    return checks


def suite_enr_iso(seed: int):
    checks = []
    rng = sampling.make_rng(seed)
    enr_ok = True
    for _ in range(60):
        word = sampling.sample_hgamma1_word(rng, rng.randint(1, 6))
        g = correspond.herm_word_to_orth(word)
        if not is_in_enr(g):
            enr_ok = False
            break
    _add(checks, "gamma1-words-land-in-enr", enr_ok)
    wprime_ok = True
    flip = g_a(m2e(((0, 1), (1, 0))))
    for _ in range(12):
        z = sampling.sample_chart_point(rng)
        lhs = psi(act(G0I42, z))
        rhs = mat_transpose(moebius(flip, involution_W(psi(z))))
        if lhs != rhs:
            wprime_ok = False
            break
    _add(checks, "w-prime-is-transpose-flip-inversion", wprime_ok)
    return checks


def suite_delta_sing(seed: int):
    checks = []
    _add(
        checks,
        "product-form-equals-invariant-form",
        cubic.delta_sing_poly() == cubic.delta_sing_invariant_poly(),
    )
    ones = (1, 1, 1, 1, 1)
    _add(checks, "value-at-ones", cubic.delta_sing(ones) == -1215)
    special = (1, 1, 1, 1, Fraction(1, 16))
    _add(checks, "value-at-quadruple-point", cubic.delta_sing(special) == 0)
    inv = cubic.classical_invariants(ones)
    _add(
        checks,
        "invariants-at-ones",
        (inv.i8, inv.i16, inv.i24, inv.i32, inv.i40, inv.i100)
        == (-15, 5, 5, 10, 1, 0),
    )
    return checks


def suite_delta_km(seed: int):
    checks = []
    rng = sampling.make_rng(seed)
    bridge = cubic.delta_km_bridge_poly()
    _add(
        checks,
        "bridge-identity",
        poly.reciprocal_clear(cubic.delta_km_mu_poly(), 3) == bridge,
    )
    _add(checks, "km-value-at-ones", cubic.delta_km((1, 1, 1, 1, 1)) == 5)
    scale_ok = True
    for _ in range(20):
        lam = sampling.sample_lambda(rng)
        if cubic.delta_km(tuple(2 * x for x in lam)) * 8 != cubic.delta_km(lam):
            scale_ok = False
            break
    _add(checks, "km-scales-by-eighth", scale_ok)
    hess_ok = True
    swap_ok = True
    for _ in range(6):
        lam = sampling.sample_lambda(rng)
        hyper, quartic = cubic.hessian_equations(lam)
        for pt in cubic.hessian_singular_points():
            if hyper.eval(pt) != 0 or quartic.eval(pt) != 0:
                hess_ok = False
        for pair in ((0, 1), (1, 3), (2, 4)):
            if not cubic.hessian_line_check(lam, pair):
                hess_ok = False
        if not cubic.enriques_partner_check(lam):
            swap_ok = False
    _add(checks, "ten-points-on-the-quartic", hess_ok)
    _add(checks, "partner-coordinate-swap", swap_ok)
    return checks


def suite_heegner(seed: int):
    checks = []
    rng = sampling.make_rng(seed)
    samplers = {
        "node": sampling.sample_node_point,
        "eckardt": sampling.sample_eckardt_point,
        "ns": sampling.sample_ns_point,
        "km": sampling.sample_km_point,
    }
    for name, sampler in samplers.items():
        ok = True
        for _ in range(25):
            z = sampler(rng)
            flags = heegner.perp_equivalence(z)
            if not getattr(flags, name):
                ok = False
                break
        _add(checks, f"on-locus-{name}", ok)
    generic_ok = True
    for _ in range(25):
        z = sampling.sample_chart_point(rng)
        try:
            heegner.perp_equivalence(z)
        except AssertionError:
            generic_ok = False
            break
    _add(checks, "three-descriptions-agree-generic", generic_ok)
    for name in ("node", "eckardt", "ns", "km"):
        ok = True
        try:
            heegner.complement_gram_verify(name)
        except AssertionError:
            ok = False
        _add(checks, f"complement-gram-{name}", ok)
    orbit_ok = True
    for _ in range(10):
        tau = psi(sampling.sample_ns_point(rng))
        if not heegner.orbit_relation_check(tau):
            orbit_ok = False
            break
    _add(checks, "half-shift-orbit-relations", orbit_ok)
    # coset classification spot checks; g_upper((0,0,0,1)) is the integral
    # avatar of the third half shift
    _add(
        checks,
        "coset-of-third-shift",
        hermitian.coset_classify(g_upper((0, 0, 0, 1))) == 3,
    )
    emb = hermitian.embed_from_hgamma0(word_matrix(sampling.sample_hgamma0_word(rng, 4)))
    _add(checks, "gamma0-classifies-uncovered", hermitian.coset_classify(emb) == "uncovered")
    shifted = mat_mul(emb, g_upper((0, 1, 0, 0)))
    _add(checks, "shifted-gamma0-classifies-2", hermitian.coset_classify(shifted) == 2)
    return checks


def suite_decompose_fuzz(seed: int):
    checks = []
    rng = sampling.make_rng(seed)
    herm_ok = True
    for _ in range(60):
        word = sampling.sample_hgamma1_word(rng, rng.randint(1, 8))
        g = word_matrix(word)
        back = word_matrix(decompose_hgamma1(g))
        if back != g:
            herm_ok = False
            break
    _add(checks, "gamma1-words-multiply-back", herm_ok)
    herm0_ok = True
    for _ in range(40):
        word = sampling.sample_hgamma0_word(rng, rng.randint(1, 6))
        g = word_matrix(word)
        lift, tail_word = decompose_hgamma0(g)
        if mat_mul(g_a(lift), word_matrix(tail_word)) != g:
            herm0_ok = False
            break
    _add(checks, "gamma0-section-factorization", herm0_ok)
    so0_ok = True
    for _ in range(60):
        x = sampling.sample_orth_so0(rng, rng.randint(1, 8))
        word = correspond.decompose_so0(x)
        if correspond.orth_word_matrix(word) != x:
            so0_ok = False
            break
    _add(checks, "even-subgroup-words-multiply-back", so0_ok)
    transport_ok = True
    for _ in range(30):
        g = sampling.sample_orth_plus(rng, rng.randint(1, 6))
        uses_t, uses_w, word = correspond.orth_to_herm(g)
        back = correspond.herm_to_orth(uses_t, uses_w, word)
        if not correspond.equal_mod_center(back, g):
            transport_ok = False
            break
    _add(checks, "orthogonal-transport-mod-center", transport_ok)
    herm_round_ok = True
    for _ in range(20):
        word = sampling.sample_hgamma0_word(rng, rng.randint(1, 5))
        h = word_matrix(word)
        g = correspond.herm_word_to_orth(word)
        uses_t, uses_w, back_word = correspond.orth_to_herm(g)
        if uses_t or uses_w:
            herm_round_ok = False
            break
        back = word_matrix(back_word)
        if not equal_mod_units(back, h):
            herm_round_ok = False
            break
    _add(checks, "hermitian-round-trip-mod-units", herm_round_ok)
    return checks


def _perm_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


SUITES = {
    "disc-group": suite_disc_group,
    "quotient-group": suite_quotient_group,
    "group-iso": suite_group_iso,
    "enr-iso": suite_enr_iso,
    "delta-sing": suite_delta_sing,
    "delta-km": suite_delta_km,
    "heegner": suite_heegner,
    "decompose-fuzz": suite_decompose_fuzz,
}


def run_suite(name: str, seed: int = 0) -> dict:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    checks = SUITES[name](seed)
    return {
        "suite": name,
        "seed": seed,
        "passed": all(c.passed for c in checks),
        "checks": [asdict(c) for c in checks],
    }


def run_all(seed: int = 0) -> dict:
    reports = [run_suite(name, seed) for name in sorted(SUITES)]
    return {
        "seed": seed,
        "passed": all(r["passed"] for r in reports),
        "suites": reports,
    }
