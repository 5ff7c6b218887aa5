"""Named verification suites: the one home of every exact check.

Each suite runs a list of exact checks and returns a JSON-friendly report;
same seed and sizes, same report, byte for byte.  A suite takes a seed and
`sizes`, which maps a check id to its sample count, or to (count, longest
word) where the check samples words of random length.  `SIZES` holds the
interactive defaults behind `hessk3 verify`; the acceptance tests run the
same suites at their own seeds and larger gate sizes.  A new check id goes
at the end of its suite, so the rng draws of the checks before it, and so
their entries, stay the same.

Where a commonly stated identity is off by a scalar class (the mod-2
kernel of the 2x2 to 6x6 homomorphism, and one generator preimage), the
suite checks the corrected statement and additionally records that the
uncorrected literal form fails, so the discrepancy stays visible.

A check fails in one way, by `_Run.claim`, and says where: at the first
input where its claim is false or raises, with that input's index and the
message as its detail.  An entry point that certifies its answer before it
returns it (the decompositions, the Heegner certificates) has returning as
its claim.  Any other ValueError or AssertionError escapes run_suite as an
InvariantViolation that names the suite.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import partial
from typing import NamedTuple

from . import correspond, cubic, heegner, hermitian, lattice, poly, sampling
from .domain import act, psi
from .eisenstein import ONE, UNITS, Eisenstein
from .errors import InvariantViolation, integer
from .hermitian import (
    decompose_hgamma0,
    decompose_hgamma1,
    equal_mod_units,
    f_mod2,
    g_a,
    g_upper,
    involution_T,
    involution_W,
    m2e,
    m2e_mod2,
    moebius,
    p1_action,
    p1_f4_points,
    section_lift,
    token_matrix,
    word_matrix,
)
from .lattice import (
    D1,
    D2,
    D3,
    D4,
    DISC_GENS,
    G0I42,
    MINUS_I6,
    U1,
    W0,
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

__all__ = ["Check", "SIZES", "SUITES", "run_suite", "run_all"]

LOCI = ("node", "eckardt", "ns", "km")

# Interactive sample counts, and word-length caps, by check id.  A count
# shared by checks drawn in one loop sits under the first of them.
SIZES = {
    # quotient-group
    "five-class-map-multiplicative": 30,
    "translations-additive": 100,
    "k3-subgroup-is-trivial-action": 40,
    # group-iso
    "psi-multiplicative": 200,
    "psi-mod2-kernel-is-scalar-class": 214,
    "identity-preimages-are-unit-scalars": 20,
    "dictionary-equivariance-on-chart-points": 2,
    "gamma0-words-mod2-in-gl2f4": (10, 6),
    # enr-iso
    "gamma1-words-land-in-enr": (60, 6),
    "w-prime-is-transpose-flip-inversion": 12,
    # delta-km
    "km-scales-by-eighth": 20,
    "ten-points-on-the-quartic": 6,
    "kummer-locus-coincidence": 10,
    # heegner
    **{f"on-locus-{name}": 25 for name in LOCI},
    "three-descriptions-agree-generic": 25,
    "half-shift-orbit-relations": 10,
    # decompose-fuzz
    "gamma1-words-multiply-back": (60, 8),
    "gamma0-section-factorization": (40, 6),
    "even-subgroup-words-multiply-back": (60, 8),
    "orthogonal-transport-mod-center": (30, 6),
    "hermitian-round-trip-mod-units": (20, 5),
}


class Check(NamedTuple):
    check_id: str
    passed: bool
    detail: str = ""


class _Run:
    """The checks of one suite run, with its rng and its sizes."""

    def __init__(self, seed: int, sizes: dict):
        self.rng = sampling.make_rng(seed)
        self.sizes = sizes
        self.checks: list[Check] = []

    def add(self, check_id, cond, detail=""):
        self.checks.append(Check(check_id, bool(cond), detail))

    def samples(self, check_id, sample):
        """sample(rng), once per count of the check; where the check has a
        word-length cap, sample(rng, n) with n drawn up to the cap first."""
        size, rng = self.sizes[check_id], self.rng
        if isinstance(size, int):
            return (sample(rng) for _ in range(size))
        count, longest = size
        return (sample(rng, rng.randint(1, longest)) for _ in range(count))

    def claim(self, check_id, claim, inputs):
        """The check fails at the first input where claim is false or raises
        ValueError or AssertionError (InputTypeError and InvariantViolation
        among them), which ends the inputs; its detail is "input i", with
        the message after a colon when claim raised."""
        for i, x in enumerate(inputs):
            try:
                if claim(x):
                    continue
                detail = f"input {i}"
            except (ValueError, AssertionError) as exc:
                detail = f"input {i}: {exc}"
            self.add(check_id, False, detail)
            return
        self.add(check_id, True)

    def every(self, check_id, sample, claim):
        """claim over the check's own draws."""
        self.claim(check_id, claim, self.samples(check_id, sample))


def _disc_closure(gens) -> set:
    """The actions on M*/M of all products of gens, each given by the
    images of the four generators.  Each generator acts as its permutation
    of the numbered group, and the closure maps back to 6-tuples once."""
    group, index = lattice._numbering()
    perms = [lattice._disc_perm(g, index) for g in gens]
    start = tuple(index[d] for d in DISC_GENS)
    seen = {start}
    todo = [start]
    while todo:
        images = todo.pop()
        for p in perms:
            moved = tuple(p[i] for i in images)
            if moved not in seen:
                seen.add(moved)
                todo.append(moved)
    return {tuple(group[i] for i in images) for images in seen}


def _scalar(u):
    return ((u, Eisenstein(0, 0)), (Eisenstein(0, 0), u))


def _psi_multiplies(pair) -> bool:
    a, b = pair
    psi_hom = correspond.psi_hom
    return psi_hom(mat_mul(a, b)) == mat_mul(psi_hom(a), psi_hom(b))


def _s5_multiplies(pair) -> bool:
    a, b = pair
    sa, sb = to_s5(a), to_s5(b)
    return to_s5(mat_mul(a, b)) == tuple(sa[sb[i]] for i in range(5))


def _translations_add(pair) -> bool:
    ma, mb = pair
    lhs = mat_mul(translation_h(*ma), translation_h(*mb))
    return lhs == translation_h(*(x + y for x, y in zip(ma, mb)))


def _dictionary_equivariant(z) -> bool:
    """Each dictionary pair, and U1 against T and W0 against W, acts
    identically at z through psi."""
    tau = psi(z)
    return (
        all(
            psi(act(orth, z)) == moebius(token_matrix(tok), tau)
            for _, orth, tok in correspond.DICTIONARY_PAIRS
        )
        and psi(act(U1, z)) == involution_T(tau)
        and psi(act(W0, z)) == involution_W(tau)
    )


def _w_prime_law(z) -> bool:
    flip = g_a(m2e(((0, 1), (1, 0))))
    return psi(act(G0I42, z)) == mat_transpose(moebius(flip, involution_W(psi(z))))


def _matrix_of(sample_word):
    return lambda rng, n: word_matrix(sample_word(rng, n))


def _hermitian_round_trip(word) -> bool:
    uses_t, uses_w, back = correspond.orth_to_herm(correspond.herm_to_orth(False, False, word))
    return not uses_t and not uses_w and equal_mod_units(word_matrix(back), word_matrix(word))


# -- suites -------------------------------------------------------------------


def suite_disc_group(seed: int, sizes: dict):
    run = _Run(seed, sizes)
    run.add("disc-group-order-48", len(disc_group()) == 48)
    q_vals = {
        "q-d1": (disc_q(D1), Fraction(0)),
        "q-d1-plus-d2": (disc_q(lattice.disc_add(D1, D2)), Fraction(1)),
        "q-2d3": (disc_q(lattice.disc_scale(2, D3)), Fraction(2, 3)),
        "q-d3": (disc_q(D3), Fraction(5, 3)),
        "q-d4": (disc_q(D4), Fraction(5, 3)),
    }
    for cid, (got, want) in q_vals.items():
        run.add(cid, got == want, f"got {got}")
    run.add("b-d1-d2", disc_b(D1, D2) == Fraction(1, 2))
    run.add("b-d3-d4", disc_b(D3, D4) == Fraction(5, 6))
    run.add("b-d1-d3", disc_b(D1, D3) == 0)
    auts = enumerate_disc_orthogonal()
    run.add("disc-orthogonal-order-240", len(auts) == 240, f"got {len(auts)}")
    perms = [tuple(lattice.V_CLASSES.index(aut[v]) for v in lattice.V_CLASSES) for aut in auts]
    image = set(perms)
    kernel = perms.count((0, 1, 2, 3, 4))
    run.add(
        "five-class-image-order-120",
        image == set(itertools.permutations(range(5))),
        f"got {len(image)}",
    )
    run.add("five-class-kernel-order-2", kernel == 2, f"got {kernel}")
    # O(M) maps onto O(q) (Nikulin, Theorem 1.14.2); the named generators
    # already reach every automorphism
    named = (lattice.G0, lattice.G1, lattice.G2, lattice.U0, lattice.U1, lattice.U2)
    closure = _disc_closure(named + (lattice.I42, MINUS_I6) + lattice.H_GENS)
    run.add(
        "named-generators-generate-disc-orthogonal",
        closure == {tuple(aut[d] for d in DISC_GENS) for aut in auts},
        f"got {len(closure)}",
    )
    return run.checks


def suite_quotient_group(seed: int, sizes: dict):
    run = _Run(seed, sizes)
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
        run.add(cid, got == want, f"got {got}")
    run.every(
        "five-class-map-multiplicative",
        lambda rng: (sampling.sample_orth_plus(rng, 4), sampling.sample_orth_plus(rng, 4)),
        _s5_multiplies,
    )
    run.every(
        "translations-additive",
        lambda rng: tuple(tuple(rng.randint(-4, 4) for _ in range(4)) for _ in range(2)),
        _translations_add,
    )
    k3_ok = True
    enr_ok = True
    tt = two_torsion()
    so0 = partial(sampling.sample_orth_so0, length=5)
    for g in run.samples("k3-subgroup-is-trivial-action", so0):
        if is_in_k3(g) != all(disc_act(g, d) == d for d in (D1, D2, D3, D4)):
            k3_ok = False
        if is_in_enr(g) != all(disc_act(g, t) == t for t in tt):
            enr_ok = False
    run.add("k3-subgroup-is-trivial-action", k3_ok)
    run.add("enr-subgroup-fixes-two-torsion", enr_ok)
    return run.checks


def suite_group_iso(seed: int, sizes: dict):
    run = _Run(seed, sizes)
    # the gA preimages are the ones transport uses, read from its table
    preimage = {name: tok[1] for name, _, tok in correspond.DICTIONARY_PAIRS if tok[0] == "gA"}
    pairs = {
        "image-g1": ("g1", lattice.G1),
        "image-g2": ("g2", lattice.G2),
        "image-u0g1u0": ("u0g1u0", lattice.U0G1U0),
        "image-u0u1": ("u0u1", lattice.U0U1),
        "image-i42": ("i42", lattice.I42),
        "image-u2-corrected": ("u2", lattice.U2),
    }
    for cid, (name, want) in pairs.items():
        run.add(cid, correspond.psi_hom(preimage[name]) == want)
    literal = correspond.psi_hom(m2e(((0, -1), (1, -1))))
    run.add(
        "image-u2-literal-form-fails",
        literal != lattice.U2,
        "preimage of u2 is diag(1, w^2), not the order-three elementary",
    )
    run.every(
        "psi-multiplicative",
        lambda rng: (sampling.sample_gl2_matrix(rng, 4), sampling.sample_gl2_matrix(rng, 4)),
        _psi_multiplies,
    )
    ident = mat_id(6)
    scalars = [_scalar(u) for u in UNITS]
    run.add(
        "psi-kernel-scalars",
        len(scalars) == 6 and all(correspond.psi_hom(a) == ident for a in scalars),
    )
    # mod-2 criterion: the image is even iff A is a unit multiple of a
    # matrix congruent to the identity; the six unit scalars come first,
    # then even and general samples alternate
    scalar_reps = {m2e_mod2(a) for a in scalars}
    ident_rep = m2e_mod2(_scalar(ONE))
    scalar_ok = len(scalar_reps) == 3
    literal_fails = False
    samplers = (sampling.sample_g2_matrix, sampling.sample_gl2_matrix)
    count = sizes["psi-mod2-kernel-is-scalar-class"]
    for a in scalars + [samplers[k % 2](run.rng, 4) for k in range(count)]:
        im = correspond.psi_hom(a)
        even = all(
            (im[i][j] - (1 if i == j else 0)) % 2 == 0
            for i in range(6)
            for j in range(6)
        )
        amod = m2e_mod2(a)
        if even != (amod in scalar_reps):
            scalar_ok = False
        if even != (amod == ident_rep):
            literal_fails = True
    run.add("psi-mod2-kernel-is-scalar-class", scalar_ok)
    run.add(
        "psi-mod2-literal-kernel-fails",
        literal_fails,
        "scalar units map to even images without being congruent to 1",
    )
    # mod-2 image: all of GL2(F4), acting by even permutations on the five
    # projective points, with the three scalar classes acting trivially
    gl = hermitian.gl2f4_group()
    # each section lift is a gamma0 element gA(lift), so these reductions
    # are images of reduction mod 2
    images = {m2e_mod2(section_lift(fm)) for fm in gl}
    run.add("mod2-image-order-180", len(images) == 180, f"got {len(images)}")
    pts = p1_f4_points()
    perms = set()
    all_even = True
    trivial = 0
    for fm in gl:
        perm = tuple(pts.index(p1_action(fm, p)) for p in pts)
        perms.add(perm)
        trivial += perm == (0, 1, 2, 3, 4)
        if _perm_sign(perm) != 1:
            all_even = False
    run.add("p1-action-order-60", len(pts) == 5 and len(perms) == 60, f"got {len(perms)}")
    run.add("p1-action-all-even", all_even)
    # the only sampled preimages of the identity are the six unit scalars
    run.every(
        "identity-preimages-are-unit-scalars",
        partial(sampling.sample_gl2_matrix, steps=4),
        lambda a: a in scalars or correspond.psi_hom(a) != ident,
    )
    run.every(
        "dictionary-equivariance-on-chart-points",
        sampling.sample_chart_point,
        _dictionary_equivariant,
    )
    gl_set = set(gl)
    run.every(
        "gamma0-words-mod2-in-gl2f4",
        sampling.sample_hgamma0_word,
        lambda word: f_mod2(word_matrix(word)) in gl_set,
    )
    run.add("p1-kernel-order-3", trivial == 3, f"got {trivial}")
    return run.checks


def suite_enr_iso(seed: int, sizes: dict):
    run = _Run(seed, sizes)
    run.every(
        "gamma1-words-land-in-enr",
        sampling.sample_hgamma1_word,
        # herm_to_orth certifies its image to lie in SO0, so only the
        # two-torsion test of is_in_enr remains
        lambda word: lattice._in_enr(correspond.herm_to_orth(False, False, word)),
    )
    run.every("w-prime-is-transpose-flip-inversion", sampling.sample_chart_point, _w_prime_law)
    return run.checks


def suite_delta_sing(seed: int, sizes: dict):
    run = _Run(seed, sizes)
    product_form = cubic.delta_sing_poly()
    run.add("product-form-equals-invariant-form", product_form == cubic.delta_sing_invariant_poly())
    ones = (1, 1, 1, 1, 1)
    run.add("value-at-ones", cubic.delta_sing(ones) == -1215 and product_form.eval(ones) == -1215)
    run.add("value-at-quadruple-point", cubic.delta_sing((1, 1, 1, 1, Fraction(1, 16))) == 0)
    inv = cubic.classical_invariants(ones)
    run.add(
        "invariants-at-ones",
        (inv.i8, inv.i16, inv.i24, inv.i32, inv.i40, inv.i100)
        == (-15, 5, 5, 10, 1, 0),
    )
    return run.checks


def suite_delta_km(seed: int, sizes: dict):
    run = _Run(seed, sizes)
    run.add(
        "bridge-identity",
        poly.reciprocal_clear(cubic.delta_km_mu_poly(), 3) == cubic.delta_km_bridge_poly(),
    )
    run.add("km-value-at-ones", cubic.delta_km((1, 1, 1, 1, 1)) == 5)
    run.every(
        "km-scales-by-eighth",
        sampling.sample_lambda,
        lambda lam: cubic.delta_km(tuple(2 * x for x in lam)) * 8 == cubic.delta_km(lam),
    )
    hess_ok = True
    swap_ok = True
    nodes = cubic.hessian_singular_points()
    for lam in run.samples("ten-points-on-the-quartic", sampling.sample_lambda):
        hyper, quartic = cubic.hessian_equations(lam)
        for pt in nodes:
            if hyper.eval(pt) != 0 or quartic.eval(pt) != 0:
                hess_ok = False
        for pair in itertools.combinations(range(5), 2):
            if not cubic.hessian_line_check(lam, pair):
                hess_ok = False
        if not cubic.enriques_partner_check(lam):
            swap_ok = False
    run.add("ten-points-on-the-quartic", hess_ok)
    run.add("partner-coordinate-swap", swap_ok)
    # away from sigma5 = 0, delta_km vanishes exactly where the Kummer form
    # I8 I24 + 8 I32 behind classify's flag does: the witness orbit lies on
    # both, and samples lie on both or on neither
    witness = (1, 3, 3, -2, -2)
    orbit = {witness} | {tuple(3 * x for x in p) for p in itertools.permutations(witness)}
    on_orbit = all(cubic.delta_km(lam) == 0 and cubic.classify(lam).kummer for lam in orbit)
    samples = run.samples("kummer-locus-coincidence", sampling.sample_lambda)
    run.add(
        "kummer-locus-coincidence",
        on_orbit
        and all((cubic.delta_km(lam) == 0) == cubic.classify(lam).kummer for lam in samples),
    )
    run.add("ten-distinct-nodes", len(set(nodes)) == 10)
    return run.checks


def suite_heegner(seed: int, sizes: dict):
    run = _Run(seed, sizes)
    samplers = {
        "node": sampling.sample_node_point,
        "eckardt": sampling.sample_eckardt_point,
        "ns": sampling.sample_ns_point,
        "km": sampling.sample_km_point,
    }
    for name, sampler in samplers.items():
        run.every(
            f"on-locus-{name}",
            sampler,
            lambda z, name=name: getattr(heegner.perp_equivalence(z), name),
        )
    # the three certificates raise rather than return a wrong answer
    run.every(
        "three-descriptions-agree-generic",
        sampling.sample_chart_point,
        lambda z: heegner.perp_equivalence(z) is not None,
    )
    for name in LOCI:
        run.claim(f"complement-gram-{name}", heegner.complement_gram_verify, [name])
    run.every(
        "half-shift-orbit-relations",
        sampling.sample_ns_point,
        lambda z: heegner.orbit_relation_check(psi(z)),
    )
    # coset classification spot checks; g_upper((0,0,0,1)) is the integral
    # avatar of the third half shift
    run.add("coset-of-third-shift", hermitian.coset_classify(g_upper((0, 0, 0, 1))) == 3)
    emb = hermitian.embed_from_hgamma0(word_matrix(sampling.sample_hgamma0_word(run.rng, 4)))
    run.add("gamma0-classifies-uncovered", hermitian.coset_classify(emb) == "uncovered")
    shifted = mat_mul(emb, g_upper((0, 1, 0, 0)))
    run.add("shifted-gamma0-classifies-2", hermitian.coset_classify(shifted) == 2)
    return run.checks


def suite_decompose_fuzz(seed: int, sizes: dict):
    run = _Run(seed, sizes)
    # each entry point certifies its answer (the word multiplies back, or
    # maps back up to sign) before it returns it
    for check_id, sample, entry_point in (
        ("gamma1-words-multiply-back", _matrix_of(sampling.sample_hgamma1_word), decompose_hgamma1),
        ("gamma0-section-factorization", _matrix_of(sampling.sample_hgamma0_word), decompose_hgamma0),
        ("even-subgroup-words-multiply-back", sampling.sample_orth_so0, correspond.decompose_so0),
        ("orthogonal-transport-mod-center", sampling.sample_orth_plus, correspond.orth_to_herm),
    ):
        run.every(check_id, sample, lambda x, returns=entry_point: returns(x) is not None)
    run.every(
        "hermitian-round-trip-mod-units", sampling.sample_hgamma0_word, _hermitian_round_trip
    )
    return run.checks


def _perm_sign(perm) -> int:
    """(-1) to the number of inversions."""
    return (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))


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


def _size(check_id: str, size):
    """size when it has the shape of SIZES[check_id]: a positive count, or
    a pair (count, longest word) of positive ints."""
    if isinstance(SIZES[check_id], int):
        parts, shape = (size,), "a positive count"
    else:
        parts, shape = size, "a pair of positive ints (count, longest word)"
        if not isinstance(size, (tuple, list)) or len(size) != 2:
            raise ValueError(f"size of {check_id!r}: expected {shape}")
    if any(integer(x, f"size of {check_id!r}") < 1 for x in parts):
        raise ValueError(f"size of {check_id!r}: expected {shape}")
    return size


def run_suite(name: str, seed: int = 0, sizes: dict | None = None) -> dict:
    """One suite's report; sizes overrides entries of SIZES by check id.

    Every input is checked before the suite runs, and the suite draws every
    other value itself, so a ValueError or AssertionError that escapes it
    is the library's own fault: it is raised again as an InvariantViolation
    naming the suite.
    """
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    integer(seed, "seed")
    unknown = set(sizes or ()) - set(SIZES)
    if unknown:
        raise ValueError(f"no sized check {sorted(unknown)[0]!r}")
    sizes = {**SIZES, **{cid: _size(cid, size) for cid, size in (sizes or {}).items()}}
    try:
        checks = SUITES[name](seed, sizes)
    except (ValueError, AssertionError) as exc:
        raise InvariantViolation(f"{name}: {exc}") from exc
    return {
        "suite": name,
        "seed": seed,
        "passed": all(c.passed for c in checks),
        "checks": [c._asdict() for c in checks],
    }


def run_all(seed: int = 0) -> dict:
    reports = [run_suite(name, seed) for name in sorted(SUITES)]
    return {
        "seed": seed,
        "passed": all(r["passed"] for r in reports),
        "suites": reports,
    }
