"""Acceptance gate: twelve numbered criteria, all exact arithmetic.

Each test is named test_cNN_*; conftest.py aggregates the outcomes into one
PASS/FAIL line per criterion.  The check bodies live in hessk3.verify: a
test picks a suite, its criterion's seed and the criterion's gate sizes
from GATE, and asserts that the named checks passed.  c12 stays here because
it uses numpy, a test-only dependency.

Two clauses of c04 assert literal statements that the computation refutes;
they assert the negation of the suite's `*-literal-*-fails` checks and are
marked xfail(strict=True), so the refutation is pinned down rather than
papered over.
"""

import functools
import itertools
import time

import numpy as np
import pytest

from hessk3.lattice import translation_h
from hessk3.verify import LOCI, run_suite, run_all

# Gate sizes by criterion: sample counts, and (count, longest word) where
# the check samples words; every other check runs at its interactive size.
GATE = {
    "c04": {"psi-multiplicative": 200, "identity-preimages-are-unit-scalars": 200},
    "c05": {"dictionary-equivariance-on-chart-points": 20},
    "c06": {
        "gamma1-words-multiply-back": (100, 12),
        "even-subgroup-words-multiply-back": (100, 12),
        "orthogonal-transport-mod-center": (100, 6),
        "hermitian-round-trip-mod-units": (50, 5),
    },
    "c07": {"gamma0-words-mod2-in-gl2f4": (50, 6)},
    "c08": {"gamma1-words-land-in-enr": (100, 8), "w-prime-is-transpose-flip-inversion": 20},
    "c09": {
        **{f"on-locus-{name}": 25 for name in LOCI},
        "three-descriptions-agree-generic": 100,
    },
    "c10": {"kummer-locus-coincidence": 60},
    "c11": {"ten-points-on-the-quartic": 12},
}


@functools.lru_cache(maxsize=None)
def checks(criterion, suite, seed=0):
    report = run_suite(suite, seed, GATE.get(criterion))
    return {c["check_id"]: c for c in report["checks"]}


def failed(criterion, suite, seed, *check_ids):
    """The named checks that did not pass, with their details."""
    found = checks(criterion, suite, seed)
    return [(cid, found[cid]["detail"]) for cid in check_ids if not found[cid]["passed"]]


def timed(bound, criterion, suite, seed, *check_ids):
    start = time.monotonic()
    assert not failed(criterion, suite, seed, *check_ids)
    assert time.monotonic() - start < bound


# -- c01: singularity discriminant -------------------------------------------------


def test_c01_product_form_equals_invariant_form():
    timed(30, "c01", "delta-sing", 0, "product-form-equals-invariant-form", "value-at-ones")


# -- c02: the discriminant orthogonal group ----------------------------------------


def test_c02_disc_orthogonal_enumeration():
    timed(
        120,
        "c02",
        "disc-group",
        0,
        "disc-orthogonal-order-240",
        "five-class-image-order-120",
        "five-class-kernel-order-2",
    )


# -- c03: frozen five-class permutations -------------------------------------------


def test_c03_generator_permutations():
    assert not failed(
        "c03", "quotient-group", 0, "g1-perm", "g2-perm", "u0-perm", "u1-perm", "u2-perm"
    )


# -- c04: the 2x2-to-6x6 homomorphism ----------------------------------------------


def test_c04_psi_is_multiplicative_with_scalar_kernel():
    assert not failed(
        "c04",
        "group-iso",
        61,
        "psi-multiplicative",
        "psi-kernel-scalars",
        "identity-preimages-are-unit-scalars",
    )


def test_c04_frozen_images():
    assert not failed("c04", "group-iso", 61, "image-g1", "image-u2-corrected")


@pytest.mark.xfail(strict=True, reason="the order-three elementary matrix is not a preimage of u2")
def test_c04_literal_u2_preimage():
    assert failed("c04", "group-iso", 61, "image-u2-literal-form-fails")


def test_c04_mod2_kernel_is_the_scalar_class():
    assert not failed("c04", "group-iso", 62, "psi-mod2-kernel-is-scalar-class")


@pytest.mark.xfail(strict=True, reason="unit scalars have even images without being congruent to 1")
def test_c04_mod2_kernel_literal_congruence_to_identity():
    assert failed("c04", "group-iso", 62, "psi-mod2-literal-kernel-fails")


# -- c05: the generator dictionary acts identically --------------------------------


def test_c05_dictionary_equivariance_on_chart_points():
    assert not failed("c05", "group-iso", 63, "dictionary-equivariance-on-chart-points")


# -- c06: decomposition round trips ------------------------------------------------


def test_c06_decomposition_round_trips():
    timed(60, "c06", "decompose-fuzz", 64, *GATE["c06"])


# -- c07: the mod-2 picture --------------------------------------------------------


def test_c07_mod2_image_and_projective_action():
    assert not failed(
        "c07",
        "group-iso",
        65,
        "mod2-image-order-180",
        "gamma0-words-mod2-in-gl2f4",
        "p1-action-order-60",
        "p1-action-all-even",
        "p1-kernel-order-3",
    )


# -- c08: the Enriques stabilizer --------------------------------------------------


def test_c08_congruence_words_and_w_prime_law():
    assert not failed("c08", "enr-iso", 66, *GATE["c08"])


# -- c09: divisor descriptions -----------------------------------------------------


def test_c09_divisor_descriptions_agree():
    assert not failed("c09", "heegner", 67, *GATE["c09"])


def test_c09_complement_grams():
    assert not failed("c09", "heegner", 67, *(f"complement-gram-{name}" for name in LOCI))


# -- c10: the Kummer bridge --------------------------------------------------------


def test_c10_bridge_identity():
    assert not failed("c10", "delta-km", 68, "bridge-identity")


def test_c10_locus_coincidence_away_from_sigma5():
    assert not failed("c10", "delta-km", 68, "kummer-locus-coincidence")


# -- c11: nodes, lines, and the involution ------------------------------------------


def test_c11_nodes_lines_and_partner_swap():
    assert not failed(
        "c11",
        "delta-km",
        69,
        "ten-distinct-nodes",
        "ten-points-on-the-quartic",
        "partner-coordinate-swap",
    )


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
    report = run_all(seed=0)
    assert report["passed"], [
        (s["suite"], [c["check_id"] for c in s["checks"] if not c["passed"]])
        for s in report["suites"]
        if not s["passed"]
    ]
