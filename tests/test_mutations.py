"""Mutation tests: each plants one known fault and asserts that the check
meant to catch it reports it.

A check that no fault can flip certifies nothing (DeMillo, Lipton and
Sayward, *Hints on test data selection*, 1978).  Every test here patches
one table, sampler, formula or descent, runs the suites that hold the
checks at seed 0 with the interactive sizes of `verify.SIZES`, and asserts
the failing checks as a map from check id to detail: the first failing
input, with the message where the claim raised, or the value a frozen
check got.  Each row of a suite is one claim decided by `verify.decide`,
so a fault inside a claim fails that check and every suite still reports;
only a fault in a suite's set-up escapes, as the error that names the
suite.  A planted stall in a descent instead runs the descent on one fixed
input.  pytest's monkeypatch undoes each fault afterwards.
"""

import itertools
import json
from math import prod

import pytest

from hessk3 import cli, correspond, cubic, eisenstein, heegner, hermitian, lattice, sampling, verify
from hessk3.eisenstein import OMEGA, UNITS, ZERO, Eisenstein
from hessk3.errors import InvariantViolation
from hessk3.hermitian import m2e


def failures(suite: str) -> dict:
    """check id -> detail of each failed check, for one suite at seed 0 and
    the default sizes."""
    return {c["check_id"]: c["detail"] for c in verify.run_suite(suite, 0)["checks"] if not c["passed"]}


def all_failures() -> dict:
    """suite -> failures(suite) over the whole run_all at seed 0, for the
    suites with a failed check."""
    return {
        r["suite"]: {c["check_id"]: c["detail"] for c in r["checks"] if not c["passed"]}
        for r in verify.run_all(0)["suites"]
        if not r["passed"]
    }


def test_wrong_u2_image_breaks_the_dictionary(monkeypatch):
    # diag(1, w) instead of diag(1, w^2) as the Hermitian image of u2
    monkeypatch.setitem(correspond._TOKENS, "u2", (lattice.U2, ("gA", m2e(((1, 0), (0, OMEGA))))))
    monkeypatch.setattr(
        correspond,
        "DICTIONARY_PAIRS",
        tuple((n, mat, herm) for n, (mat, herm) in correspond._TOKENS.items() if n != "mi42"),
    )
    assert failures("group-iso") == {
        "image-u2-corrected": "input 0",
        "dictionary-equivariance-on-chart-points": "input 0",
    }
    assert failures("decompose-fuzz") == {
        "orthogonal-transport-mod-center": "input 2: transport does not recover the input",
        "hermitian-round-trip-mod-units": "input 0: transport does not recover the input",
    }


def test_a_frobenius_after_the_p1_action_is_caught(monkeypatch):
    # x -> x^2 on the affine coordinate, (a, b) -> (a xor b, b) on x = a + b w,
    # swaps w and w^2 and fixes 0, 1 and infinity: every permutation changes
    # sign, and no element acts trivially any more.  verify imports
    # p1_action by name, so the fault is planted there
    exact = verify.p1_action

    def frobenius(fm, pt):
        x, y = exact(fm, pt)
        return ((x[0] ^ x[1], x[1]), y) if y == (1, 0) else (x, y)

    monkeypatch.setattr(verify, "p1_action", frobenius)
    assert failures("group-iso") == {"p1-action-all-even": "input 0", "p1-kernel-order-3": "got 0"}


def test_a_p1_action_that_fixes_every_point_under_diagonal_matrices_is_caught(monkeypatch):
    # diag(a, d) over F4 acts on the five points as x -> (a / d) x; taken
    # as trivial, the image loses x -> w x and x -> w^2 x, which only
    # diagonal matrices give, and the kernel grows from the three scalars
    # to all nine diagonal matrices.  verify imports p1_action by name
    exact = verify.p1_action

    def fixed(fm, pt):
        return pt if fm[0][1] == fm[1][0] == (0, 0) else exact(fm, pt)

    monkeypatch.setattr(verify, "p1_action", fixed)
    assert failures("group-iso") == {"p1-action-order-60": "got 58", "p1-kernel-order-3": "got 9"}


def test_the_conjugate_embedding_in_the_matrix_action_is_caught(monkeypatch):
    # moebius reads each Eisenstein entry with w as w^2: the dictionary
    # pairs whose Hermitian image has an entry off Z fail; the W-prime
    # law's flip has entries 0 and 1, which conjugation fixes
    exact = hermitian._eis_times
    monkeypatch.setattr(hermitian, "_eis_times", lambda e, n: exact(e.conj(), n))
    assert all_failures() == {"group-iso": {"dictionary-equivariance-on-chart-points": "input 0"}}


def test_a_transposed_inversion_involution_is_caught(monkeypatch):
    # -1/(2 tau) transposed differs from it unless tau is symmetric: the
    # W0 dictionary pair and the W-prime law both fail at their first input
    exact = hermitian.involution_W
    monkeypatch.setattr(hermitian, "involution_W", lambda tau: lattice.mat_transpose(exact(tau)))
    assert all_failures() == {
        "group-iso": {"dictionary-equivariance-on-chart-points": "input 0"},
        "enr-iso": {"w-prime-is-transpose-flip-inversion": "input 0"},
    }


def test_general_gA_tokens_leave_the_enriques_kernel(monkeypatch):
    # gamma1 words that also draw gA tokens off the congruence kernel
    monkeypatch.setattr(sampling, "sample_hgamma1_word", sampling.sample_hgamma0_word)
    assert failures("enr-iso") == {"gamma1-words-land-in-enr": "input 0"}


def test_translation_corner_off_by_one_breaks_additivity(monkeypatch):
    exact = lattice.translation_h

    def corner_off(m1, m2, m3, m4):
        rows = [list(r) for r in exact(m1, m2, m3, m4)]
        rows[1][0] += 1
        return tuple(tuple(r) for r in rows)

    monkeypatch.setattr(lattice, "translation_h", corner_off)
    monkeypatch.setattr(verify, "translation_h", corner_off)
    assert failures("quotient-group") == {"translations-additive": "input 0"}


def test_relabelled_two_torsion_classes_move_the_g1_permutation(monkeypatch):
    v = list(lattice.V_CLASSES)
    v[0], v[1] = v[1], v[0]
    monkeypatch.setattr(lattice, "V_CLASSES", tuple(v))
    # a relabelled map is still a homomorphism, so five-class-map-multiplicative
    # cannot see the fault; it stays for the faults it can see
    assert failures("quotient-group") == {"g1-perm": "got (0, 3, 4, 1, 2)", "g2-perm": "got (0, 4, 3, 2, 1)"}


def test_relabelled_middle_classes_move_five_permutations(monkeypatch):
    # V_CLASSES[1] and V_CLASSES[2] exchanged: each generator that moves
    # either class reports another permutation; G0 and -1 fix every class
    v = list(lattice.V_CLASSES)
    v[1], v[2] = v[2], v[1]
    monkeypatch.setattr(lattice, "V_CLASSES", tuple(v))
    assert failures("quotient-group") == {
        "g1-perm": "got (3, 4, 2, 0, 1)",
        "g2-perm": "got (4, 3, 2, 1, 0)",
        "u0-perm": "got (2, 1, 0, 3, 4)",
        "u1-perm": "got (0, 4, 2, 3, 1)",
        "u2-perm": "got (0, 3, 2, 4, 1)",
    }


def test_the_hyperbolic_swap_on_the_wrong_plane_moves_g0(monkeypatch):
    # G0 read as U0, the swap of coordinates three and four instead of one
    # and two: it exchanges D1 and D2, so it no longer fixes M*/M
    monkeypatch.setattr(lattice, "G0", lattice.U0)
    assert failures("quotient-group") == {"g0-identity": "got (1, 0, 2, 3, 4)"}


def test_a_sign_in_minus_one_is_caught(monkeypatch):
    # -1 with +1 as its last entry is no isometry; every diagonal isometry
    # fixes the five classes, which are 2-torsion, so only a fault that
    # leaves the isometries can flip minus-identity
    monkeypatch.setattr(lattice, "MINUS_I6", lattice._diag(-1, -1, -1, -1, -1, 1))
    assert failures("quotient-group") == {"minus-identity": "input 0: permutation action of a non-isometry"}
    left = "input 0: discriminant permutation: an element left the 48 classes"
    assert failures("disc-group") == {"named-generators-generate-disc-orthogonal": left}


def test_a_wrong_torsion_form_value_is_caught(monkeypatch):
    # q read 1 too high on the classes with an odd fifth coordinate: q(D3)
    # becomes 2/3, and no candidate keeps q on all 48 classes
    exact = lattice._q72
    monkeypatch.setattr(lattice, "_q72", lambda x: (exact(x) + 36 * (x[4] % 2)) % 72)
    assert failures("disc-group") == {
        "q-d3": "got 2/3",
        "disc-orthogonal-order-240": "got 0",
        "five-class-image-order-120": "got 0",
        "five-class-kernel-order-2": "got 0",
        "named-generators-generate-disc-orthogonal": "got 240",
    }


def test_a_wrong_torsion_pairing_value_is_caught(monkeypatch):
    # b read 1/2 too high when the third coordinate of x and the fourth of
    # y are odd: b(D1, D2) becomes 0, and the candidates filtered by b keep
    # 48 maps, which move the five classes by 24 permutations
    exact = lattice._b36
    monkeypatch.setattr(lattice, "_b36", lambda x, y: (exact(x, y) + 18 * (x[2] % 2) * (y[3] % 2)) % 36)
    assert failures("disc-group") == {
        "b-d1-d2": "input 0",
        "disc-orthogonal-order-240": "got 48",
        "five-class-image-order-120": "got 24",
        "named-generators-generate-disc-orthogonal": "got 240",
    }


@pytest.mark.parametrize(
    "name, check_id",
    [("_in_k3", "k3-subgroup-is-trivial-action"), ("_in_enr", "enr-subgroup-fixes-two-torsion")],
)
def test_kernel_congruences_read_on_rows_are_caught(monkeypatch, name, check_id):
    # each kernel test reads its congruences on the columns of g
    exact = getattr(lattice, name)
    monkeypatch.setattr(lattice, name, lambda g: exact(lattice.mat_transpose(g)))
    assert failures("quotient-group") == {check_id: "input 8"}


def test_order_two_images_sent_to_the_identity_are_caught(monkeypatch):
    exact = correspond.psi_hom
    ident = lattice.mat_id(6)

    def collapsed(a):
        image = exact(a)
        return ident if lattice.mat_mul(image, image) == ident else image

    monkeypatch.setattr(correspond, "psi_hom", collapsed)
    # identity-preimages-are-unit-scalars cannot see it: none of its draws
    # at seed 0 has an image of order two
    assert failures("group-iso") == {
        "image-u0u1": "input 0",
        "image-i42": "input 0",
        "psi-multiplicative": "input 2",
        "psi-mod2-kernel-is-scalar-class": "input 61",
    }


def test_images_outside_the_even_subgroup_are_caught(monkeypatch):
    # rows five and six of every psi_hom image swapped: the image leaves SO0,
    # which herm_to_orth tests once per word, so the transport checks fail
    # at their first word.  The fault sits in the body _psi_hom, which
    # psi_hom and every gA image of herm_to_orth share
    exact = correspond._psi_hom

    def swapped(a):
        image = exact(a)
        return image[:4] + (image[5], image[4])

    monkeypatch.setattr(correspond, "_psi_hom", swapped)
    images = [f"image-{n}" for n in ("g1", "g2", "u0g1u0", "u0u1", "i42", "u2-corrected")]
    psi = ["psi-multiplicative", "psi-kernel-scalars", "psi-mod2-kernel-is-scalar-class"]
    assert failures("group-iso") == dict.fromkeys(images + psi, "input 0")
    left = "input 0: word image left the even orthogonal subgroup"
    assert failures("enr-iso") == {"gamma1-words-land-in-enr": left}
    assert failures("decompose-fuzz") == {
        "orthogonal-transport-mod-center": left,
        "hermitian-round-trip-mod-units": left,
    }


def test_images_conjugated_inside_the_even_subgroup_are_caught(monkeypatch):
    # every psi_hom image conjugated by I42, in the body _psi_hom: still in
    # SO0, so only the frozen images and the transport check can see it
    exact = correspond._psi_hom

    def conjugated(a):
        return lattice.mat_mul(lattice.I42, lattice.mat_mul(exact(a), lattice.I42))

    monkeypatch.setattr(correspond, "_psi_hom", conjugated)
    # u0u1, i42 and u2 commute with I42, so their image checks cannot see it
    assert failures("group-iso") == dict.fromkeys(("image-g1", "image-g2", "image-u0g1u0"), "input 0")
    assert failures("decompose-fuzz") == {
        "orthogonal-transport-mod-center": "input 0: transport does not recover the input",
        "hermitian-round-trip-mod-units": "input 0: transport does not recover the input",
    }


_NOT_RECOVERED = "input 0: transport does not recover the input"


@pytest.mark.parametrize(
    "module, descent, want",
    [
        (
            hermitian,
            "_descend_hgamma1",
            {
                "gamma1-words-multiply-back": "input 0: decomposition does not multiply back",
                "gamma0-section-factorization": "input 0: gamma0 factorization failed",
            },
        ),
        (
            correspond,
            "_descend_so0",
            {
                "even-subgroup-words-multiply-back": "input 0: word does not multiply back",
                "orthogonal-transport-mod-center": _NOT_RECOVERED,
                "hermitian-round-trip-mod-units": _NOT_RECOVERED,
            },
        ),
    ],
    ids=["_descend_hgamma1", "_descend_so0"],
)
def test_a_descent_that_drops_its_last_token_is_caught(monkeypatch, module, descent, want):
    # decompose-fuzz checks that the entry point returns, so the entry
    # point's own certificate must see the wrong word
    exact = getattr(module, descent)
    monkeypatch.setattr(module, descent, lambda g: exact(g)[:-1])
    assert failures("decompose-fuzz") == want


@pytest.mark.parametrize(
    "name, fault, message, inputs",
    [
        # u0g1u0 read as g1, without the U0 swap of coordinates three and four
        ("u0g1u0", lambda p: lattice.residual_m(p, 0), "tail norm of column four failed to decrease", (4, 2, 0)),
        # h1p read as h1, without the G0 swap of coordinates one and two
        ("h1p", lambda p: lattice.translation_h(p, 0, 0, 0), "row three of column two did not vanish", (11, 6, 3)),
    ],
    ids=["u0g1u0", "h1p"],
)
def test_a_token_power_without_its_swap_is_caught(monkeypatch, name, fault, message, inputs):
    # a closed-form power that lost its conjugation: the descent's own
    # stage checks see the token act on the wrong coordinates, in each of
    # the three checks that reach the orthogonal descent
    exact = correspond._token_power
    monkeypatch.setattr(correspond, "_token_power", lambda n, p: fault(p) if n == name else exact(n, p))
    checks = ("even-subgroup-words-multiply-back", "orthogonal-transport-mod-center", "hermitian-round-trip-mod-units")
    assert failures("decompose-fuzz") == {cid: f"input {i}: {message}" for cid, i in zip(checks, inputs)}


def test_a_wrong_sum_in_the_discriminant_group_is_caught(monkeypatch):
    # D1 + D3 read as D1 + D2 + D3: the addition table of the enumeration
    # is built from disc_add, so its homomorphism test must see the fault
    exact = lattice.disc_add

    def skewed(x, y):
        s = exact(x, y)
        return exact(s, lattice.D2) if {x, y} == {lattice.D1, lattice.D3} else s

    monkeypatch.setattr(lattice, "disc_add", skewed)
    assert failures("disc-group") == {
        "disc-orthogonal-order-240": "got 2",
        "five-class-image-order-120": "got 2",
        "five-class-kernel-order-2": "got 1",
        "named-generators-generate-disc-orthogonal": "got 240",
    }


def test_a_lost_generator_no_longer_generates_the_disc_orthogonal_group(monkeypatch):
    # U0 read as G0: the named generators then reach a subgroup of order 48
    monkeypatch.setattr(lattice, "U0", lattice.G0)
    assert failures("disc-group") == {"named-generators-generate-disc-orthogonal": "got 48"}


# the disc-group checks that read the automorphisms of q, which the first
# of them enumerates on the numbered group
_READ_AUTS = (
    "disc-orthogonal-order-240",
    "five-class-image-order-120",
    "five-class-kernel-order-2",
    "named-generators-generate-disc-orthogonal",
)


def _numbering_failed(entries: int) -> str:
    return f"input 0: discriminant numbering: expected 48 distinct classes in sorted order, got {entries} entries with 48 distinct"


def test_a_class_listed_twice_is_caught(monkeypatch):
    # one of the 48 classes listed twice: the order of the group sees it,
    # and the numbering refuses the list before any lookup reads it
    exact = lattice.disc_group
    monkeypatch.setattr(lattice, "disc_group", lambda: exact() + exact()[:1])
    assert failures("disc-group") == {"disc-group-order-48": "input 0", **dict.fromkeys(_READ_AUTS, _numbering_failed(49))}


def test_every_class_listed_three_times_fails_checks_not_the_command_line(monkeypatch, capsys):
    # one entry per word of the generators, 144 in sorted order: unchecked,
    # the closure of the named generators would index permutations of the
    # 48 classes by positions up to 143, and its IndexError, which no claim
    # catches, would escape run_suite and the command line
    words = itertools.product(range(2), range(2), range(6), range(6))
    listed = sorted(lattice._combine(word, lattice.DISC_GENS) for word in words)
    monkeypatch.setattr(lattice, "disc_group", lambda: listed)
    want = {"disc-group-order-48": "input 0", **dict.fromkeys(_READ_AUTS, _numbering_failed(144))}
    assert failures("disc-group") == want
    capsys.readouterr()
    assert cli.main(["verify", "--suite", "disc-group"]) == 1
    (line,) = capsys.readouterr().out.splitlines()
    envelope = json.loads(line)
    assert envelope["status"] == "ok" and envelope["outputs"]["passed"] is False
    assert {c["check_id"]: c["detail"] for c in envelope["outputs"]["checks"] if not c["passed"]} == want


def test_unreduced_sums_fail_the_checks_that_read_the_automorphisms(monkeypatch):
    # sums of classes of M*/M without their reduction mod 6: the addition
    # table of the enumeration of O(q) leaves the 48 classes, inside the
    # claims that read the automorphisms
    monkeypatch.setattr(lattice, "disc_add", lambda x, y: tuple(a + b for a, b in zip(x, y)))
    left = "input 0: addition table: an element left the 48 classes"
    assert failures("disc-group") == dict.fromkeys(_READ_AUTS, left)


@pytest.mark.parametrize(
    "name, wrong, want",
    [
        # D1 + D2 for D1: q 1 for 0, and D1 + D2 reads as D1
        ("D1", (0, 0, 3, 3, 0, 0), {"q-d1": "got 1", "q-d1-plus-d2": "got 0"}),
        # D3 + D4 for D4: q 1 for 5/3, and b(D3, D3 + D4) = 1/6
        ("D4", (0, 0, 0, 0, 3, 3), {"q-d4": "got 1", "b-d3-d4": "input 0"}),
        # D2 + D3 for D3: q and its pairing with D4 hold, b(D1, D2 + D3) = 1/2
        ("D3", (0, 0, 0, 3, 1, 2), {"b-d1-d3": "input 0"}),
        # 3 D3, the order-two part of D3, for D3: twice it is zero
        ("D3", (0, 0, 0, 0, 3, 0), {"q-d3": "got 1", "q-2d3": "got 0", "b-d3-d4": "input 0"}),
    ],
)
def test_a_wrong_discriminant_generator_is_caught(monkeypatch, name, wrong, want):
    # verify binds D1..D4 by name, so the fault is planted there and the
    # enumeration keeps lattice's own generators
    monkeypatch.setattr(verify, name, wrong)
    assert failures("disc-group") == want


def test_a_wrong_w_coefficient_in_the_zw_product_is_caught(monkeypatch):
    # the Z[w] inner loop of mat_mul with the - b1 b2 dropped from each
    # termwise w-coefficient
    def dropped_bb(ra, rb, b):
        cols = len(b[0])
        out = []
        for r in ra:
            if len(r) == 1 and r[0][1] == 1 and not r[0][2]:
                out.append(tuple(b[r[0][0]]))
                continue
            sa = [0] * cols
            sb = [0] * cols
            for j, a1, b1 in r:
                for k, a2, b2 in rb[j]:
                    bb = b1 * b2
                    sa[k] += a1 * a2 - bb
                    sb[k] += a1 * b2 + a2 * b1
            out.append(tuple(map(Eisenstein, sa, sb)))
        return tuple(out)

    monkeypatch.setattr(lattice, "_zw_mul", dropped_bb)
    # an entry point's input check raises on a product the kernel got
    # wrong: inside a claim, frozen or drawn, the check fails at that input.
    # The samplers apply their factors as column operations, so their draws
    # do not pass through the kernel: the faulted products are those of the
    # checks and the entry points
    not_gamma0 = "embedding needs a gamma0 element"
    not_recovered = "transport does not recover the input"
    assert all_failures() == {
        "decompose-fuzz": {
            "gamma1-words-multiply-back": "input 0: matrix is not in the gamma1 congruence subgroup",
            "gamma0-section-factorization": "input 0: matrix is not in the gamma0 congruence subgroup",
            "orthogonal-transport-mod-center": f"input 2: {not_recovered}",
            "hermitian-round-trip-mod-units": f"input 0: {not_recovered}",
        },
        # herm_to_orth multiplies each gA run's blocks with the kernel: input
        # 3 has a run of two, whose wrong product leaves SO0
        "enr-iso": {"gamma1-words-land-in-enr": "input 3: word image left the even orthogonal subgroup"},
        "group-iso": {
            "psi-multiplicative": "input 0: matrix must have unit determinant",
            "gamma0-words-mod2-in-gl2f4": "input 1: mod-2 reduction needs a gamma0 element",
        },
        "heegner": {
            "gamma0-classifies-uncovered": f"input 0: {not_gamma0}",
            "shifted-gamma0-classifies-2": f"input 0: {not_gamma0}",
        },
    }


def test_a_lower_column_step_on_the_top_row_only_is_caught(monkeypatch):
    # the samplers' step m ((1, 0), (e, 1)), which adds e col1 to col0,
    # applied to the top row only: a drawn matrix loses its unit
    # determinant, which the first gA block or psi_hom built from it refuses
    def top_row_only(rng, m, even):
        e = sampling.sample_eisenstein(rng, 2)
        if even:
            e = e * 2
        (a, b), (c, d) = m
        if rng.randrange(2):
            return (a, b + e * a), (c, d + e * c)
        return (a + e * b, b), (c, d)

    monkeypatch.setattr(sampling, "_times_elementary", top_row_only)
    unit_det = "matrix must have unit determinant"
    ga_unit_det = "gA block must have unit determinant"
    assert all_failures() == {
        "decompose-fuzz": {
            "gamma1-words-multiply-back": f"input 3: {ga_unit_det}",
            "gamma0-section-factorization": f"input 2: {ga_unit_det}",
            "hermitian-round-trip-mod-units": f"input 3: {unit_det}",
        },
        "enr-iso": {"gamma1-words-land-in-enr": f"input 4: {unit_det}"},
        "group-iso": {
            "psi-multiplicative": f"input 0: {unit_det}",
            "psi-mod2-kernel-is-scalar-class": f"input 6: {unit_det}",
            "identity-preimages-are-unit-scalars": f"input 3: {unit_det}",
            "gamma0-words-mod2-in-gl2f4": f"input 4: {ga_unit_det}",
        },
    }


def test_a_copied_row_of_any_coefficient_is_caught(monkeypatch):
    # the integer inner loop of mat_mul copying every row of the left
    # factor with one nonzero entry, so that a -1 row is copied as a +1 row
    def any_coefficient(ra, rb, b):
        cols = len(b[0])
        out = []
        for r in ra:
            if len(r) == 1:
                out.append(tuple(b[r[0][0]]))
                continue
            s = [0] * cols
            for j, x in r:
                for k, y in rb[j]:
                    s[k] += x * y
            out.append(tuple(s))
        return tuple(out)

    monkeypatch.setattr(lattice, "_int_mul", any_coefficient)
    left = "input 0: word image left the even orthogonal subgroup"
    non_isometry = "input 0: permutation action of a non-isometry"
    not_preserved = "input 0: matrix does not preserve the form"
    s5_ids = ("g1-perm", "g2-perm", "u0-perm", "u1-perm", "u2-perm", "g0-identity", "minus-identity")
    assert all_failures() == {
        "decompose-fuzz": {
            "even-subgroup-words-multiply-back": not_preserved,
            "orthogonal-transport-mod-center": not_preserved,
            "hermitian-round-trip-mod-units": left,
        },
        "enr-iso": {"gamma1-words-land-in-enr": left},
        "group-iso": {"psi-multiplicative": "input 39"},
        "quotient-group": {
            **dict.fromkeys(s5_ids, non_isometry),
            "five-class-map-multiplicative": non_isometry,
            "k3-subgroup-is-trivial-action": "input 0: not an isometry",
            "enr-subgroup-fixes-two-torsion": "input 0: not an isometry",
        },
    }


def test_an_entrywise_section_lift_is_caught(monkeypatch):
    # the lower-triangular correction skipped: the entrywise lift of an
    # invertible matrix over F4 need not have unit determinant, and the
    # section lift certifies its own answer; group-iso lifts all of GL2(F4)
    # in one frozen check
    monkeypatch.setattr(hermitian, "_lower_triangular", lambda lift: lift)
    assert all_failures() == {
        "group-iso": {"mod2-image-order-180": "input 0: section lift does not have unit determinant"}
    }
    # A = ((1, 1), (1, 2 + w)) has determinant 1 + w, but its entrywise
    # lift mod 2, ((1, 1), (1, w)), has determinant w - 1 of norm 3
    g = hermitian.token_matrix(("gA", m2e(((1, 1), (1, Eisenstein(2, 1))))))
    with pytest.raises(InvariantViolation, match="^section lift does not have unit determinant"):
        hermitian.decompose_hgamma0(g)


def test_a_require_in_a_frozen_check_fails_that_check(monkeypatch):
    # the fourth half-shift coset read as the third: the third shift's
    # frozen coset check matches two cosets, and that require trips inside
    # its claim
    b = hermitian.B_COSETS
    monkeypatch.setattr(hermitian, "B_COSETS", (b[0], b[1], b[2], b[2]))
    matched = "input 0: two half-shift cosets matched at once"
    assert all_failures() == {"heegner": {"coset-of-third-shift": matched}}


def test_a_fault_in_set_up_names_its_suite(monkeypatch, capsys):
    # reciprocals cleared at cap 7 for 8: the product form of delta_sing,
    # delta-sing's set-up, is built outside every claim, so the suite
    # reports the fault as its own and the command line exits 1, not 2
    exact = cubic.reciprocal_clear
    monkeypatch.setattr(cubic, "reciprocal_clear", lambda p, cap: exact(p, cap - 1))
    message = "delta-sing: exponent above reciprocal cap"
    with pytest.raises(InvariantViolation, match=f"^{message}$"):
        verify.run_suite("delta-sing", 0)
    capsys.readouterr()
    assert cli.main(["verify", "--suite", "delta-sing"]) == 1
    assert json.loads(capsys.readouterr().out)["diagnostics"] == [message]


def test_swapped_half_shifts_fail_only_the_orbit_relations(monkeypatch):
    # B3 and B4 exchanged: the third shift misses the km locus; the check
    # reports it instead of the suite raising
    b = heegner.B_SHIFTS
    monkeypatch.setattr(heegner, "B_SHIFTS", (b[0], b[1], b[3], b[2]))
    assert failures("heegner") == {"half-shift-orbit-relations": "input 0: the third half-shift missed the km locus"}


_DISAGREE = "input 0: chart and perpendicularity disagree"


@pytest.mark.parametrize(
    "fault, want",
    [
        # each divisor tested against the next one's vector: every sampled
        # locus point reads on another divisor, generic points on none
        (
            lambda v: dict(zip(v, [*v.values()][1:] + [*v.values()][:1])),
            dict.fromkeys(("on-locus-node", "on-locus-eckardt", "on-locus-ns", "on-locus-km"), _DISAGREE),
        ),
        # the km vector lost: every point is perpendicular to zero, so all
        # but the km points, generic ones too, read on the km divisor
        (
            lambda v: {**v, "km": (0,) * 6},
            dict.fromkeys(("on-locus-node", "on-locus-eckardt", "on-locus-ns", "three-descriptions-agree-generic"), _DISAGREE),
        ),
    ],
    ids=["rotated", "zero-km"],
)
def test_a_wrong_perpendicular_vector_is_caught(monkeypatch, fault, want):
    # perp_flags reads PERP_VECTORS, so the complements keep their vectors
    monkeypatch.setattr(heegner, "PERP_VECTORS", fault(heegner.PERP_VECTORS))
    assert failures("heegner") == want


def test_a_pairing_against_v_for_q_v_is_caught(monkeypatch):
    # perp_flags reads Q v off heegner.GRAM; the identity there pairs z with
    # v itself, so each locus point reads off its divisor, and the eighth
    # generic point reads on one
    monkeypatch.setattr(heegner, "GRAM", lattice.mat_id(6))
    assert failures("heegner") == {
        **dict.fromkeys(("on-locus-node", "on-locus-eckardt", "on-locus-ns", "on-locus-km"), _DISAGREE),
        "three-descriptions-agree-generic": "input 7: chart and perpendicularity disagree",
    }


def test_a_wrong_frozen_complement_is_caught(monkeypatch):
    # one fault per divisor, one for each of complement_gram_verify's three
    # requires; PERP_VECTORS was read off the cases at import, so the
    # perpendicularity tests keep the right vectors
    cases = {name: (v, list(basis), [list(r) for r in gram]) for name, (v, basis, gram) in heegner.COMPLEMENT_CASES.items()}
    cases["node"][2][1][1] = -6  # a Gram entry with the wrong sign
    cases["eckardt"][1][4] = (0, 0, 0, 0, 1, 1)  # e5 + e6 for e5 + 2 e6
    cases["ns"][1][4] = (0, 0, 0, 0, 2, 0)  # 2 e5 for e5, with its Gram entry
    cases["ns"][2][4][4] = -16
    cases["km"] = ((0, 0, 0, 0, 1, 2),) + cases["km"][1:]  # the ns vector for km's
    monkeypatch.setattr(heegner, "COMPLEMENT_CASES", cases)
    not_perpendicular = "input 0: frozen basis vector is not perpendicular"
    assert failures("heegner") == {
        "complement-gram-node": "input 0: frozen Gram mismatch",
        "complement-gram-eckardt": not_perpendicular,
        "complement-gram-ns": "input 0: frozen basis does not span the full complement",
        "complement-gram-km": not_perpendicular,
    }


def test_the_form_table_with_the_wrong_sign_is_caught(monkeypatch):
    # qpair read off -GRAM: the quadric is the same, so every chart lift
    # holds, but t(z) Q conj(z) turns negative, no sampled point is on the
    # plus component, and every frozen Gram reads negated
    monkeypatch.setattr(lattice, "_FORM_DIAGONAL", tuple((i, -q) for i, q in lattice._FORM_DIAGONAL))
    monkeypatch.setattr(lattice, "_FORM_PAIRS", tuple((i, j, -q) for i, j, q in lattice._FORM_PAIRS))
    not_plus = "input 0: psi needs a point of the plus component"
    points = [f"on-locus-{name}" for name in verify.LOCI] + ["three-descriptions-agree-generic", "half-shift-orbit-relations"]
    grams = [f"complement-gram-{name}" for name in verify.LOCI]
    assert failures("heegner") == {
        **dict.fromkeys(points, not_plus),
        **dict.fromkeys(grams, "input 0: frozen Gram mismatch"),
    }


def test_one_wrong_sign_in_the_form_table_moves_the_quadric(monkeypatch):
    # -2 for q_56: the chart lift no longer lands on the quadric, and the
    # samplers lift their first point while heegner builds its table
    pairs = lattice._FORM_PAIRS
    monkeypatch.setattr(lattice, "_FORM_PAIRS", pairs[:-1] + (pairs[-1][:2] + (-pairs[-1][2],),))
    with pytest.raises(InvariantViolation, match="^heegner: chart lift missed the quadric$"):
        verify.run_suite("heegner", 0)


def delta_sing_failures(monkeypatch, name, replacement) -> dict:
    """failures("delta-sing") with cubic.name replaced."""
    monkeypatch.setattr(cubic, name, replacement)
    return failures("delta-sing")


def test_a_wrong_coefficient_in_the_discriminant_formula_is_caught(monkeypatch):
    # 2047 I8 I24 for 2048 I8 I24
    def off(inv):
        core = inv.i8 * inv.i8 - 64 * inv.i16
        return core * core - 16384 * inv.i32 - 2047 * inv.i8 * inv.i24

    assert delta_sing_failures(monkeypatch, "_delta_sing_of", off) == dict.fromkeys(
        ("product-form-equals-invariant-form", "value-at-ones", "value-at-quadruple-point"), "input 0"
    )


def test_a_wrong_coefficient_in_i8_is_caught(monkeypatch):
    # I8 = s4^2 - 3 s3 s5 for s4^2 - 4 s3 s5
    exact = cubic._invariants

    def off(s, diff):
        return exact(s, diff)._replace(i8=s[3] * s[3] - 3 * s[2] * s[4])

    assert delta_sing_failures(monkeypatch, "_invariants", off) == dict.fromkeys(
        ("product-form-equals-invariant-form", "value-at-ones", "value-at-quadruple-point", "invariants-at-ones"),
        "input 0",
    )


def test_a_moved_node_of_the_hessian_quartic_is_caught(monkeypatch):
    # the first of the ten nodes at (1, 1, 0, 0, 0) instead of (1, -1, 0, 0, 0),
    # off the hyperplane
    exact = cubic.hessian_singular_points

    def moved():
        nodes = exact()
        return ((nodes[0][0], -nodes[0][1]) + nodes[0][2:],) + nodes[1:]

    monkeypatch.setattr(cubic, "hessian_singular_points", moved)
    assert failures("delta-km") == {"ten-points-on-the-quartic": "input 0"}


def test_a_line_check_on_the_union_of_two_hyperplanes_is_caught(monkeypatch):
    # X_i = 0 or X_j = 0 for X_i = X_j = 0: the quartic's term without X_i
    # survives on X_i = 0
    def union(lam, pair):
        i, j = pair
        _, quartic = cubic.hessian_equations(lam)
        return not any(e[i] == 0 or e[j] == 0 for e in quartic.terms)

    monkeypatch.setattr(cubic, "hessian_line_check", union)
    assert failures("delta-km") == {"ten-points-on-the-quartic": "input 0"}


def test_a_partner_coordinate_without_its_lambda_is_caught(monkeypatch):
    # lam_0 dropped from the first scaled coordinate: it changes only the
    # coefficients of the quartic, each of whose terms vanishes at the nodes
    # and on the lines, so only the swap sees it
    def partners(lam, xs):
        scaled = [xs[0]] + [x * c for x, c in zip(xs[1:], lam[1:])]
        return tuple(prod(scaled[:i] + scaled[i + 1 :]) for i in range(len(xs)))

    monkeypatch.setattr(cubic, "_partners", partners)
    assert failures("delta-km") == {"partner-coordinate-swap": "input 0"}


def test_a_wrong_coefficient_in_the_kummer_bridge_is_caught(monkeypatch):
    # 7 s2 s5^2 for 8 s2 s5^2: still homogeneous, so only the scaling holds;
    # classify's Kummer flag reads the invariants, not the bridge, so the
    # two loci part at the witness
    def off(s):
        _, s2, s3, s4, s5 = s
        return s4**3 - 4 * s3 * s4 * s5 + 7 * s2 * s5 * s5

    monkeypatch.setattr(cubic, "_km_bridge", off)
    assert failures("delta-km") == dict.fromkeys(
        ("bridge-identity", "km-value-at-ones", "kummer-locus-coincidence"), "input 0"
    )


def test_a_bridge_term_of_the_wrong_degree_is_caught(monkeypatch):
    # s5^2, of degree 10, added to the degree-12 bridge.  delta_km reads the
    # bridge at the numerators L of lam = L / D and divides by D^12, so the
    # stray term adds 1 / (D^2 s5) at lam; that still scales by an eighth
    # whenever doubling lam halves D, as it does at the first seven draws,
    # and the first draw with odd D = 3 sees the fault
    exact = cubic._km_bridge
    monkeypatch.setattr(cubic, "_km_bridge", lambda s: exact(s) + s[4] * s[4])
    assert failures("delta-km") == {
        **dict.fromkeys(("bridge-identity", "km-value-at-ones", "kummer-locus-coincidence"), "input 0"),
        "km-scales-by-eighth": "input 7",
    }


def test_a_repeated_node_of_the_hessian_quartic_is_caught(monkeypatch):
    # the first node in place of the second: a repeat still lies on the quartic
    exact = cubic.hessian_singular_points
    monkeypatch.setattr(cubic, "hessian_singular_points", lambda: exact()[:1] + exact()[:1] + exact()[2:])
    assert failures("delta-km") == {"ten-distinct-nodes": "input 0"}


# -- stalls: each descent checks its decrease after every step ----------------


def counted(monkeypatch, module, name, replacement) -> list:
    """Patch module.name with replacement; the returned list grows by one per call."""
    calls = []

    def patched(*args):
        calls.append(args)
        return replacement(*args)

    monkeypatch.setattr(module, name, patched)
    return calls


def test_a_pair_step_that_rounds_to_zero_stalls_on_its_first_step(monkeypatch):
    # c = d = 0 leaves the pair as it was
    calls = counted(monkeypatch, eisenstein, "_round_half_to_zero", lambda p, q: 0)
    with pytest.raises(InvariantViolation, match="pair reduction failed to halve"):
        list(eisenstein.pair_steps(3, 2))
    assert len(calls) == 2


def test_a_zero_tail_quotient_stalls_on_its_first_step(monkeypatch):
    # h1 h3p puts a tail on column two that its first step divides
    x = correspond.orth_word_matrix([("h1", 1), ("h3p", 1)])
    calls = counted(monkeypatch, correspond, "eis_divmod", lambda y, p: (ZERO, y))
    with pytest.raises(InvariantViolation, match="tail norm of column two failed to decrease"):
        correspond.decompose_so0(x)
    assert len(calls) == 1


def test_the_worst_unit_in_the_fallback_step_stalls_on_its_first_step(monkeypatch):
    # this word's antidiagonal descent reaches the fallback step, where
    # neither quotient moves and best_unit picks the gBu unit; the worst
    # unit raises N(row one)
    word = [("gBu", (1, 0, 1, -1)), ("gBu", (-2, 0, 0, -1)), ("gBl", (0, 0, 1, 1)), ("gBu", (2, -2, 0, -1))]
    g = hermitian.word_matrix(word)
    divisions = counted(monkeypatch, hermitian, "eis_divmod", eisenstein.eis_divmod)
    calls = counted(monkeypatch, hermitian, "best_unit", lambda f: min(UNITS, key=f))
    with pytest.raises(InvariantViolation, match=r"antidiagonal descent failed to decrease N\(row one\)"):
        hermitian.decompose_hgamma1(g)
    assert len(calls) == 1
    # the last division is the row-one quotient alpha / row four, taken
    # at x = half / alpha = +-(2 + w)/3, the only point the fallback reaches
    alpha, row_four = divisions[-1]
    assert 3 * row_four in (2 * (2 + OMEGA) * alpha, -2 * (2 + OMEGA) * alpha)
