"""Named verification suites: the one home of every exact check.

Each suite is a table: one `Row` per check, in report order, holding the
check id, its inputs, a claim and the note its detail shows on a pass.
One rule, `decide`, turns every row into a `Check`: the check fails at the
first input where its claim is false or raises ValueError or
AssertionError, with detail "input i", and the message after a colon when
the claim raised.  A frozen check is a claim over one input; one that
measures a value (an order, a permutation, a form value) returns it as
`Got` and shows "got value", pass or fail.  Same seed and sizes, same
report, byte for byte.

A suite takes a seed and `sizes`, which maps each of its sampled check ids
to a sample count, or to (count, longest word) where the check samples
words of random length.  `SIZES` holds the interactive defaults behind
`hessk3 verify`; the acceptance tests run the same suites at their own
seeds and larger gate sizes.  A table draws all of a row's inputs as it
builds the row, so no check's outcome moves another's inputs; rows that
share draws take them from the first, whose id holds the count.  A new
check id goes at the end of its suite, so the draws before it, and so the
entries of the checks before it, stay the same.

Where a commonly stated identity is off by a scalar class (the mod-2
kernel of the 2x2 to 6x6 homomorphism, and one generator preimage), the
suite checks the corrected statement and additionally records that the
uncorrected literal form fails, so the discrepancy stays visible.

Every call that a fault can trip runs inside a claim, so a fault fails the
checks it reaches and every suite still reports; a value several claims
share (the automorphisms of q, the two-torsion) is computed once by the
first claim that reads it.  Only set-up runs outside the claims (GL2(F4),
the ten nodes, the product form of delta_sing): a ValueError or
AssertionError there escapes run_suite as an InvariantViolation that names
the suite.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cache, partial
from typing import Callable, NamedTuple, Sequence

from . import correspond, cubic, heegner, hermitian, lattice, poly, sampling
from .domain import act, psi
from .eisenstein import ONE, UNITS, Eisenstein
from .errors import InvariantViolation, integer
from .hermitian import coset_classify, m2e_mod2, p1_action, token_matrix, word_matrix
from .lattice import D1, D2, D3, D4, DISC_GENS, disc_act, mat_mul, to_s5, translation_h

__all__ = ["Check", "SIZES", "SUITES", "run_suite", "run_all"]

LOCI = ("node", "eckardt", "ns", "km")

# Interactive sample counts, and word-length caps, of each suite's sampled
# checks.  A count shared by rows that reuse one draw sits under the first.
_SUITE_SIZES = {
    "disc-group": {},
    "quotient-group": {
        "five-class-map-multiplicative": 30,
        "translations-additive": 100,
        "k3-subgroup-is-trivial-action": 40,
    },
    "group-iso": {
        "psi-multiplicative": 200,
        "psi-mod2-kernel-is-scalar-class": 214,
        "identity-preimages-are-unit-scalars": 20,
        "dictionary-equivariance-on-chart-points": 2,
        "gamma0-words-mod2-in-gl2f4": (10, 6),
    },
    "enr-iso": {"gamma1-words-land-in-enr": (60, 6), "w-prime-is-transpose-flip-inversion": 12},
    "delta-sing": {},
    "delta-km": {"km-scales-by-eighth": 20, "ten-points-on-the-quartic": 6, "kummer-locus-coincidence": 10},
    "heegner": {
        **{f"on-locus-{name}": 25 for name in LOCI},
        "three-descriptions-agree-generic": 25,
        "half-shift-orbit-relations": 10,
    },
    "decompose-fuzz": {
        "gamma1-words-multiply-back": (60, 8),
        "gamma0-section-factorization": (40, 6),
        "even-subgroup-words-multiply-back": (60, 8),
        "orthogonal-transport-mod-center": (30, 6),
        "hermitian-round-trip-mod-units": (20, 5),
    },
}
SIZES = {cid: size for sized in _SUITE_SIZES.values() for cid, size in sized.items()}


class Check(NamedTuple):
    check_id: str
    passed: bool
    detail: str = ""


class Got(NamedTuple):
    """What a frozen check measured, and whether its claim holds there."""

    value: object
    holds: bool


class Row(NamedTuple):
    """One check: claim over each of inputs, with note as the detail of a
    pass.  sized_by names the sizes entry the inputs were drawn under; a
    row that reuses another's draws keeps it."""

    check_id: str
    inputs: Sequence
    claim: Callable
    note: str = ""
    sized_by: str | None = None


def decide(row: Row) -> Check:
    """The one failure rule: the check fails at the first input where the
    claim is false or raises ValueError or AssertionError (InputTypeError
    and InvariantViolation among them), with detail "input i", and the
    message after a colon when the claim raised.  A claim that returns a
    Got is decided by it, with detail "got value"."""
    for i, x in enumerate(row.inputs):
        try:
            holds = row.claim(x)
        except (ValueError, AssertionError) as exc:
            return Check(row.check_id, False, f"input {i}: {exc}")
        if isinstance(holds, Got):
            return Check(row.check_id, holds.holds, f"got {holds.value}")
        if not holds:
            return Check(row.check_id, False, f"input {i}")
    return Check(row.check_id, True, row.note)


def _draw(rng, sizes, check_id, sample, claim, first=()) -> Row:
    """check_id's row over first and then its draws: sample(rng), once per
    count of the check; where the check has a word-length cap, sample(rng,
    n) with n drawn up to the cap first."""
    size = sizes[check_id]
    if isinstance(size, int):
        drawn = tuple(sample(rng) for _ in range(size))
    else:
        count, longest = size
        drawn = tuple(sample(rng, rng.randint(1, longest)) for _ in range(count))
    return Row(check_id, tuple(first) + drawn, claim, sized_by=check_id)


def _value(check_id, x, measure, want) -> Row:
    """A frozen check that measure(x) is want, showing what it got."""

    def claim(x):
        got = measure(x)
        return Got(got, got == want)

    return Row(check_id, (x,), claim)


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


def _five_class_perms(auts) -> list:
    """The permutation of V_CLASSES under each automorphism of q."""
    return [tuple(lattice.V_CLASSES.index(aut[v]) for v in lattice.V_CLASSES) for aut in auts]


def _scalar(u):
    return ((u, Eisenstein(0, 0)), (Eisenstein(0, 0), u))


def _psi_multiplies(pair) -> bool:
    a, b = pair
    psi_hom = correspond.psi_hom
    return psi_hom(mat_mul(a, b)) == mat_mul(psi_hom(a), psi_hom(b))


def _even_image(a) -> bool:
    """Whether psi_hom(a) is congruent to the identity mod 2."""
    im = correspond.psi_hom(a)
    return all((im[i][j] - (i == j)) % 2 == 0 for i in range(6) for j in range(6))


def _p1_perm(fm) -> tuple:
    """The permutation of the five points of P1(F4) under fm."""
    pts = hermitian.p1_f4_points()
    return tuple(pts.index(p1_action(fm, p)) for p in pts)


def _perm_sign(perm) -> int:
    """(-1) to the number of inversions."""
    return (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))


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
            psi(act(orth, z)) == hermitian.moebius(token_matrix(tok), tau)
            for _, orth, tok in correspond.DICTIONARY_PAIRS
        )
        and psi(act(lattice.U1, z)) == hermitian.involution_T(tau)
        and psi(act(lattice.W0, z)) == hermitian.involution_W(tau)
    )


def _w_prime_law(z) -> bool:
    flip = token_matrix(("gA", hermitian.m2e(((0, 1), (1, 0)))))
    image = hermitian.moebius(flip, hermitian.involution_W(psi(z)))
    return psi(act(lattice.G0I42, z)) == lattice.mat_transpose(image)


def _on_the_quartic(nodes, lam) -> bool:
    """The ten nodes lie on both Hessian equations, and the quartic
    vanishes on each plane X_i = X_j = 0."""
    hyper, quartic = cubic.hessian_equations(lam)
    return all(hyper.eval(pt) == 0 == quartic.eval(pt) for pt in nodes) and all(
        cubic.hessian_line_check(lam, pair) for pair in itertools.combinations(range(5), 2)
    )


def _kummer_coincides(case) -> bool:
    """delta_km vanishes at lam exactly where classify's Kummer flag is
    set, and it does at a witness."""
    lam, witness = case
    on = cubic.delta_km(lam) == 0
    return on == cubic.classify(lam).kummer and (on or not witness)


def _of_word(entry_point):
    return lambda word: entry_point(word_matrix(word))


def _hermitian_round_trip(word) -> bool:
    uses_t, uses_w, back = correspond.orth_to_herm(correspond.herm_to_orth(False, False, word))
    return not uses_t and not uses_w and hermitian.equal_mod_units(word_matrix(back), word_matrix(word))


# -- suites: each yields its rows in report order, with set-up on the way -------


def _disc_group(rng, sizes):
    yield Row("disc-group-order-48", (None,), lambda _: len(lattice.disc_group()) == 48)
    for check_id, x, want in (
        ("q-d1", D1, 0),
        ("q-d1-plus-d2", lattice.disc_add(D1, D2), 1),
        ("q-2d3", lattice.disc_scale(2, D3), Fraction(2, 3)),
        ("q-d3", D3, Fraction(5, 3)),
        ("q-d4", D4, Fraction(5, 3)),
    ):
        yield _value(check_id, x, lattice.disc_q, want)
    for check_id, pair, want in (
        ("b-d1-d2", (D1, D2), Fraction(1, 2)),
        ("b-d3-d4", (D3, D4), Fraction(5, 6)),
        ("b-d1-d3", (D1, D3), 0),
    ):
        yield Row(check_id, (pair,), lambda p, want=want: lattice.disc_b(*p) == want)
    # the automorphisms of q, enumerated once by the first claim that reads
    # them, so a fault in the numbering fails the four checks that share them
    auts = cache(lattice.enumerate_disc_orthogonal)
    yield _value("disc-orthogonal-order-240", None, lambda _: len(auts()), 240)
    s5 = set(itertools.permutations(range(5)))
    yield Row(
        "five-class-image-order-120",
        (None,),
        lambda _: Got(len(image := set(_five_class_perms(auts()))), image == s5),
    )
    identity = (0, 1, 2, 3, 4)
    yield _value("five-class-kernel-order-2", None, lambda _: _five_class_perms(auts()).count(identity), 2)
    # O(M) maps onto O(q) (Nikulin, Theorem 1.14.2); the named generators
    # already reach every automorphism
    named = (lattice.G0, lattice.G1, lattice.G2, lattice.U0, lattice.U1, lattice.U2)
    yield Row(
        "named-generators-generate-disc-orthogonal",
        (named + (lattice.I42, lattice.MINUS_I6) + lattice.H_GENS,),
        lambda gens: Got(
            len(closure := _disc_closure(gens)),
            closure == {tuple(aut[d] for d in DISC_GENS) for aut in auts()},
        ),
    )


def _quotient_group(rng, sizes):
    draw = partial(_draw, rng, sizes)
    for check_id, g, want in (
        ("g1-perm", lattice.G1, (3, 1, 4, 0, 2)),
        ("g2-perm", lattice.G2, (4, 1, 3, 2, 0)),
        ("u0-perm", lattice.U0, (1, 0, 2, 3, 4)),
        ("u1-perm", lattice.U1, (0, 1, 4, 3, 2)),
        ("u2-perm", lattice.U2, (0, 1, 3, 4, 2)),
        ("g0-identity", lattice.G0, (0, 1, 2, 3, 4)),
        ("minus-identity", lattice.MINUS_I6, (0, 1, 2, 3, 4)),
    ):
        yield _value(check_id, g, to_s5, want)
    yield draw(
        "five-class-map-multiplicative",
        lambda rng: (sampling.sample_orth_plus(rng, 4), sampling.sample_orth_plus(rng, 4)),
        _s5_multiplies,
    )
    yield draw(
        "translations-additive",
        lambda rng: tuple(tuple(rng.randint(-4, 4) for _ in range(4)) for _ in range(2)),
        _translations_add,
    )
    k3 = draw(
        "k3-subgroup-is-trivial-action",
        partial(sampling.sample_orth_so0, length=5),
        lambda g: lattice.is_in_k3(g) == all(disc_act(g, d) == d for d in DISC_GENS),
    )
    yield k3
    two_torsion = cache(lattice.two_torsion)
    yield k3._replace(
        check_id="enr-subgroup-fixes-two-torsion",
        claim=lambda g: lattice.is_in_enr(g) == all(disc_act(g, t) == t for t in two_torsion()),
    )


def _group_iso(rng, sizes):
    draw = partial(_draw, rng, sizes)
    # the gA preimages are the ones transport uses, read from its table
    preimage = {name: tok[1] for name, _, tok in correspond.DICTIONARY_PAIRS if tok[0] == "gA"}
    for check_id, name, want in (
        ("image-g1", "g1", lattice.G1),
        ("image-g2", "g2", lattice.G2),
        ("image-u0g1u0", "u0g1u0", lattice.U0G1U0),
        ("image-u0u1", "u0u1", lattice.U0U1),
        ("image-i42", "i42", lattice.I42),
        ("image-u2-corrected", "u2", lattice.U2),
    ):
        yield Row(check_id, (preimage[name],), lambda a, want=want: correspond.psi_hom(a) == want)
    yield Row(
        "image-u2-literal-form-fails",
        (((0, -1), (1, -1)),),
        lambda entries: correspond.psi_hom(hermitian.m2e(entries)) != lattice.U2,
        "preimage of u2 is diag(1, w^2), not the order-three elementary",
    )
    yield draw(
        "psi-multiplicative",
        lambda rng: (sampling.sample_gl2_matrix(rng, 4), sampling.sample_gl2_matrix(rng, 4)),
        _psi_multiplies,
    )
    ident = lattice.mat_id(6)
    scalars = tuple(_scalar(u) for u in UNITS)
    yield Row("psi-kernel-scalars", scalars, lambda a: correspond.psi_hom(a) == ident)
    # mod-2 criterion: the image is even iff A is a unit multiple of a
    # matrix congruent to the identity; the six unit scalars come first,
    # then even and general samples alternate
    reps = {m2e_mod2(a) for a in scalars}
    samplers = itertools.cycle((sampling.sample_g2_matrix, sampling.sample_gl2_matrix))
    mod2 = draw(
        "psi-mod2-kernel-is-scalar-class",
        lambda rng: next(samplers)(rng, 4),
        lambda a: len(reps) == 3 and _even_image(a) == (m2e_mod2(a) in reps),
        first=scalars,
    )
    yield mod2
    # the literal form fails where some input refutes it: one input, all
    # of the draws
    one = m2e_mod2(_scalar(ONE))
    yield mod2._replace(
        check_id="psi-mod2-literal-kernel-fails",
        inputs=(mod2.inputs,),
        claim=lambda inputs: any(_even_image(a) != (m2e_mod2(a) == one) for a in inputs),
        note="scalar units map to even images without being congruent to 1",
    )
    # mod-2 image: all of GL2(F4), acting by even permutations on the five
    # projective points, with the three scalar classes acting trivially;
    # each section lift is a gamma0 element gA(lift), so these reductions
    # are images of reduction mod 2
    gl = hermitian.gl2f4_group()
    yield _value(
        "mod2-image-order-180", gl, lambda gl: len({m2e_mod2(hermitian.section_lift(fm)) for fm in gl}), 180
    )
    perm = cache(_p1_perm)
    yield Row(
        "p1-action-order-60",
        (gl,),
        lambda gl: Got(
            len(perms := {perm(fm) for fm in gl}), len(hermitian.p1_f4_points()) == 5 and len(perms) == 60
        ),
    )
    yield Row("p1-action-all-even", gl, lambda fm: _perm_sign(perm(fm)) == 1)
    # the only sampled preimages of the identity are the six unit scalars
    yield draw(
        "identity-preimages-are-unit-scalars",
        partial(sampling.sample_gl2_matrix, steps=4),
        lambda a: a in scalars or correspond.psi_hom(a) != ident,
    )
    yield draw(
        "dictionary-equivariance-on-chart-points", sampling.sample_chart_point, _dictionary_equivariant
    )
    gl_set = set(gl)
    yield draw(
        "gamma0-words-mod2-in-gl2f4",
        sampling.sample_hgamma0_word,
        lambda word: hermitian.f_mod2(word_matrix(word)) in gl_set,
    )
    yield _value("p1-kernel-order-3", gl, lambda gl: [perm(fm) for fm in gl].count((0, 1, 2, 3, 4)), 3)


def _enr_iso(rng, sizes):
    draw = partial(_draw, rng, sizes)
    yield draw(
        "gamma1-words-land-in-enr",
        sampling.sample_hgamma1_word,
        # herm_to_orth certifies its image to lie in SO0, so only the
        # two-torsion test of is_in_enr remains
        lambda word: lattice._in_enr(correspond.herm_to_orth(False, False, word)),
    )
    yield draw("w-prime-is-transpose-flip-inversion", sampling.sample_chart_point, _w_prime_law)


def _delta_sing(rng, sizes):
    product_form = cubic.delta_sing_poly()
    yield Row(
        "product-form-equals-invariant-form",
        (product_form,),
        lambda form: form == cubic.delta_sing_invariant_poly(),
    )
    ones = (1, 1, 1, 1, 1)
    yield Row("value-at-ones", (ones,), lambda lam: cubic.delta_sing(lam) == -1215 == product_form.eval(lam))
    quadruple = (1, 1, 1, 1, Fraction(1, 16))
    yield Row("value-at-quadruple-point", (quadruple,), lambda lam: cubic.delta_sing(lam) == 0)
    yield Row("invariants-at-ones", (ones,), lambda x: cubic.classical_invariants(x) == (-15, 5, 5, 10, 1, 0))


def _delta_km(rng, sizes):
    draw = partial(_draw, rng, sizes)
    yield Row(
        "bridge-identity",
        (None,),
        lambda _: poly.reciprocal_clear(cubic.delta_km_mu_poly(), 3) == cubic.delta_km_bridge_poly(),
    )
    yield Row("km-value-at-ones", ((1, 1, 1, 1, 1),), lambda lam: cubic.delta_km(lam) == 5)
    yield draw(
        "km-scales-by-eighth",
        sampling.sample_lambda,
        lambda lam: cubic.delta_km(tuple(2 * x for x in lam)) * 8 == cubic.delta_km(lam),
    )
    nodes = cubic.hessian_singular_points()
    lams = draw("ten-points-on-the-quartic", sampling.sample_lambda, partial(_on_the_quartic, nodes))
    yield lams
    yield lams._replace(check_id="partner-coordinate-swap", claim=cubic.enriques_partner_check)
    # away from sigma5 = 0, delta_km vanishes exactly where the Kummer form
    # I8 I24 + 8 I32 behind classify's flag does: the witness orbit lies on
    # both, and samples lie on both or on neither
    witness = (1, 3, 3, -2, -2)
    orbit = {witness} | {tuple(3 * x for x in p) for p in itertools.permutations(witness)}
    yield draw(
        "kummer-locus-coincidence",
        lambda rng: (sampling.sample_lambda(rng), False),
        _kummer_coincides,
        first=[(lam, True) for lam in sorted(orbit)],
    )
    yield Row("ten-distinct-nodes", (nodes,), lambda nodes: len(set(nodes)) == 10)


def _heegner(rng, sizes):
    draw = partial(_draw, rng, sizes)
    samplers = {
        "node": sampling.sample_node_point,
        "eckardt": sampling.sample_eckardt_point,
        "ns": sampling.sample_ns_point,
        "km": sampling.sample_km_point,
    }
    for name, sampler in samplers.items():
        yield draw(
            f"on-locus-{name}", sampler, lambda z, name=name: getattr(heegner.perp_equivalence(z), name)
        )
    # the three certificates raise rather than return a wrong answer
    yield draw(
        "three-descriptions-agree-generic",
        sampling.sample_chart_point,
        lambda z: heegner.perp_equivalence(z) is not None,
    )
    for name in LOCI:
        yield Row(f"complement-gram-{name}", (name,), heegner.complement_gram_verify)
    yield draw(
        "half-shift-orbit-relations", sampling.sample_ns_point, lambda z: heegner.orbit_relation_check(psi(z))
    )
    # coset classification spot checks; the gBu matrix at (0,0,0,1) is the
    # integral avatar of the third half shift
    yield Row(
        "coset-of-third-shift", ((0, 0, 0, 1),), lambda shift: coset_classify(token_matrix(("gBu", shift))) == 3
    )
    # one gamma0 word for the last two rows, embedded once
    word = tuple(sampling.sample_hgamma0_word(rng, 4))
    embed = cache(lambda word: hermitian.embed_from_hgamma0(word_matrix(word)))
    yield Row("gamma0-classifies-uncovered", (word,), lambda w: coset_classify(embed(w)) == "uncovered")
    yield Row(
        "shifted-gamma0-classifies-2",
        (word,),
        lambda w: coset_classify(mat_mul(embed(w), token_matrix(("gBu", (0, 1, 0, 0))))) == 2,
    )


def _decompose_fuzz(rng, sizes):
    draw = partial(_draw, rng, sizes)
    # each entry point certifies its answer (the word multiplies back, or
    # maps back up to sign) before it returns it
    for check_id, sample, entry_point in (
        ("gamma1-words-multiply-back", sampling.sample_hgamma1_word, _of_word(hermitian.decompose_hgamma1)),
        ("gamma0-section-factorization", sampling.sample_hgamma0_word, _of_word(hermitian.decompose_hgamma0)),
        ("even-subgroup-words-multiply-back", sampling.sample_orth_so0, correspond.decompose_so0),
        ("orthogonal-transport-mod-center", sampling.sample_orth_plus, correspond.orth_to_herm),
    ):
        yield draw(check_id, sample, lambda x, returns=entry_point: returns(x) is not None)
    yield draw("hermitian-round-trip-mod-units", sampling.sample_hgamma0_word, _hermitian_round_trip)


# Each suite's table, built from the seed's rng and the sizes.
TABLES = {
    "disc-group": _disc_group,
    "quotient-group": _quotient_group,
    "group-iso": _group_iso,
    "enr-iso": _enr_iso,
    "delta-sing": _delta_sing,
    "delta-km": _delta_km,
    "heegner": _heegner,
    "decompose-fuzz": _decompose_fuzz,
}


def _decided(table, seed: int, sizes: dict) -> list:
    """The checks of table's rows, each decided once it is built."""
    return [decide(row) for row in table(sampling.make_rng(seed), sizes)]


SUITES = {name: partial(_decided, table) for name, table in TABLES.items()}


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
    """One suite's report; sizes overrides entries of SIZES by check id,
    each a sampled check of this suite.

    The seed and every size are checked before the suite runs.  Each claim
    catches its own ValueError and AssertionError, so one that escapes the
    suite came from its set-up: the library's own fault, raised again as an
    InvariantViolation naming the suite.
    """
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    integer(seed, "seed")
    unknown = set(sizes or ()) - set(_SUITE_SIZES[name])
    if unknown:
        raise ValueError(f"no sized check {sorted(unknown)[0]!r} in {name}")
    sizes = {**_SUITE_SIZES[name], **{cid: _size(cid, size) for cid, size in (sizes or {}).items()}}
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
