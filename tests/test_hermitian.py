"""Degree-two Hermitian modular group: words, descents, mod-2 structure."""

from fractions import Fraction
from itertools import product

import pytest

from hessk3 import sampling
from hessk3.domain import psi
from hessk3.eisenstein import OMEGA, OMEGA2, ONE, UNITS, ZERO, Eisenstein, eis_divmod
from hessk3.errors import InputTypeError, InvariantViolation
from hessk3.hermitian import (
    B_COSETS,
    F4_ELEMS,
    F4_ID,
    J_MAT,
    W_MAT,
    blocks,
    coset_classify,
    decompose_hgamma0,
    decompose_hgamma1,
    embed_from_hgamma0,
    equal_mod_units,
    f_mod2,
    from_blocks,
    gl2f4_group,
    involution_T,
    involution_W,
    m2e,
    m2e_mod2,
    membership,
    moebius,
    p1_action,
    p1_f4_points,
    section_lift,
    token_matrix,
    token_power,
    word_matrix,
)
from hessk3.lattice import (
    mat_add,
    mat_conj_transpose,
    mat_det2,
    mat_id,
    mat_inv2,
    mat_mul,
    mat_neg,
    mat_sub,
    mat_vec,
)
from hessk3.tower import C_OMEGA, C_OMEGA2, C_ONE, I_UNIT, from_eisenstein

I4 = mat_id(4, ONE, ZERO)
GAMMA0_ONLY = token_matrix(("gA", m2e(((OMEGA, 0), (0, 1)))))


def unitary_defect(g):
    return mat_mul(mat_conj_transpose(g), mat_mul(J_MAT, g))


def test_block_round_trip():
    g = token_matrix(("gBu", (1, -2, 0, 3)))
    assert from_blocks(*blocks(g)) == g


def test_generators_are_unitary():
    for g in (
        I4,
        token_matrix(("gBu", (1, 0, -2, 3))),
        token_matrix(("gBl", (0, 1, 1, -1))),
        token_matrix(("gA", m2e(((1, Eisenstein(0, 2)), (0, 1))))),
        GAMMA0_ONLY,
        J_MAT,
    ):
        assert unitary_defect(g) == J_MAT


def test_membership_levels():
    assert membership(I4) == "gamma1"
    assert membership(token_matrix(("gBu", (2, 1, 0, -1)))) == "gamma1"
    assert membership(token_matrix(("gBl", (1, 1, 1, 1)))) == "gamma1"
    assert membership(GAMMA0_ONLY) == "gamma0"
    assert membership(J_MAT) == "full"
    assert membership(W_MAT) == "none"
    assert membership(mat_neg(I4)) == "gamma1"
    with pytest.raises(ValueError):
        membership(I4[:3])


@pytest.mark.parametrize(
    "fn", [membership, decompose_hgamma1, decompose_hgamma0, f_mod2, coset_classify, embed_from_hgamma0]
)
@pytest.mark.parametrize("width", [3, 5])
def test_every_row_of_a_4x4_matrix_is_checked(fn, width):
    # four rows of three or five entries used to be answered "none" by
    # membership and "not in the gamma1 congruence subgroup" by decompose_hgamma1
    g = tuple((r + r)[:width] for r in I4)
    with pytest.raises(ValueError, match="expected a 4x4 matrix"):
        fn(g)


def _coordinates(kind):
    """I4 with each coordinate of each entry read through kind."""
    return tuple(tuple(Eisenstein(kind(x.a), kind(x.b)) for x in r) for r in I4)


@pytest.mark.parametrize(
    "fn", [membership, decompose_hgamma1, decompose_hgamma0, f_mod2, coset_classify, embed_from_hgamma0]
)
@pytest.mark.parametrize(
    "g",
    [
        _coordinates(bool),
        ((Eisenstein(Fraction(1, 2), 0),) + I4[0][1:],) + I4[1:],
        _coordinates(float),
        tuple(tuple(x.a for x in r) for r in I4),
    ],
    ids=["bool", "fraction", "float", "int-entries"],
)
def test_every_entry_of_a_4x4_matrix_is_an_eisenstein_integer(fn, g):
    # membership called the bool identity "gamma1", so f_mod2, coset_classify
    # and embed_from_hgamma0 answered it, and the Fraction corner "none";
    # int entries raised AttributeError and float coordinates TypeError
    with pytest.raises(InputTypeError, match="matrix entry: expected an Eisenstein integer"):
        fn(g)


def test_gA_tokens_reject_a_non_unit_determinant():
    with pytest.raises(ValueError, match="gA block must have unit determinant"):
        token_matrix(("gA", m2e(((2, 0), (0, 1)))))
    with pytest.raises(ValueError, match="determinant is not a unit"):
        token_power(("gA", m2e(((1, 0), (0, 2)))), -1)


def test_translation_blocks_are_hermitian_and_additive():
    b = blocks(token_matrix(("gBu", (2, -1, 3, 5))))[1]
    assert b == ((Eisenstein(2, 0), Eisenstein(3, 5)), (Eisenstein(3, 5).conj(), Eisenstein(-1, 0)))
    assert b[0][0].b == 0 and b[1][1].b == 0
    assert b[1][0] == b[0][1].conj()
    assert blocks(token_matrix(("gBl", (2, -1, 3, 5))))[2] == tuple(tuple(2 * x for x in r) for r in b)
    ma, mb = (1, 2, -1, 0), (0, -3, 2, 4)
    msum = tuple(x + y for x, y in zip(ma, mb))
    for kind in ("gBu", "gBl"):
        assert mat_mul(token_matrix((kind, ma)), token_matrix((kind, mb))) == token_matrix((kind, msum))


_I3 = tuple(tuple(ONE if i == j else ZERO for j in range(3)) for i in range(3))


@pytest.mark.parametrize(
    "entry", [lambda a: token_power(("gA", a), -1), lambda a: token_matrix(("gA", a))], ids=["power", "token"]
)
def test_gA_blocks_must_be_two_by_two(entry):
    # a 3x3 identity has a unit top-left determinant; the gA builder used to
    # build rows of lengths 5, 5, 4 and 4 from it
    with pytest.raises(ValueError, match="expected a 2x2 matrix"):
        entry(_I3)


@pytest.mark.parametrize("payload", [(1, 2, 3, 4, 5), (1, 2, 3), (1, 2, 0.5, 4)], ids=["five", "three", "float"])
def test_token_power_reads_four_integer_parameters(payload):
    # five parameters used to come back scaled, all five
    with pytest.raises(ValueError, match="translation parameter"):
        token_power(("gBu", payload), 2)


def test_upper_translation_rejects_a_float_parameter():
    with pytest.raises(TypeError, match="translation parameter: expected an integer"):
        token_matrix(("gBu", (0.5, 0, 0, 0)))


def test_lower_translation_rejects_a_fraction_parameter():
    with pytest.raises(TypeError, match="translation parameter: expected an integer"):
        token_matrix(("gBl", (Fraction(1, 2), 0, 0, 0)))


def test_w_mat_relations():
    minus_two_id = tuple(tuple(x * (-2) for x in r) for r in I4)
    assert mat_mul(W_MAT, W_MAT) == minus_two_id
    # W swaps the two translation families
    for m in ((1, 0, 0, 0), (0, 0, 0, 1), (2, -1, 3, 1)):
        mneg = tuple(-x for x in m)
        assert mat_mul(W_MAT, token_matrix(("gBu", m))) == mat_mul(token_matrix(("gBl", mneg)), W_MAT)


def test_moebius_is_an_action():
    rng = sampling.make_rng(21)
    gens = [
        token_matrix(("gBu", (1, 0, -1, 2))),
        token_matrix(("gBl", (0, 1, 1, 0))),
        GAMMA0_ONLY,
        J_MAT,
    ]
    for _ in range(12):
        tau = psi(sampling.sample_chart_point(rng))
        assert moebius(I4, tau) == tau
        a = gens[rng.randrange(len(gens))]
        b = gens[rng.randrange(len(gens))]
        assert moebius(mat_mul(a, b), tau) == moebius(a, moebius(b, tau))
    # the upper translation is literal addition by B(m)
    tau = psi(sampling.sample_chart_point(rng))
    shifted = moebius(token_matrix(("gBu", (1, 2, 0, -1))), tau)
    bm = tuple(tuple(from_eisenstein(x) for x in r) for r in blocks(token_matrix(("gBu", (1, 2, 0, -1))))[1])
    assert mat_sub(shifted, tau) == bm


def _field_moebius(g, tau):
    """(A tau + B)(C tau + D)^(-1) with every block read into the field
    first and multiplied there: the oracle for moebius's numerator form."""
    a, b, c, d = (tuple(tuple(from_eisenstein(x) for x in r) for r in blk) for blk in blocks(g))
    den = mat_add(mat_mul(c, tau), d)
    return mat_mul(mat_add(mat_mul(a, tau), b), mat_inv2(den, mat_det2(den).inverse()))


def test_moebius_is_the_field_formula():
    rng = sampling.make_rng(36)
    loci = (
        sampling.sample_chart_point,
        sampling.sample_node_point,
        sampling.sample_eckardt_point,
        sampling.sample_ns_point,
        sampling.sample_km_point,
    )
    words = [sampling.sample_hgamma0_word(rng, rng.randint(1, 5)) for _ in range(12)]
    for g in [I4, *map(word_matrix, words)]:
        for sample in loci:
            tau = psi(sample(rng))
            assert moebius(g, tau) == _field_moebius(g, tau)
    # C tau + D = -tau is singular at a singular tau
    with pytest.raises(InvariantViolation, match="^singular denominator in the matrix action$"):
        moebius(J_MAT, ((C_ONE, C_ONE), (C_ONE, C_ONE)))


def test_moebius_reads_int_and_fraction_entries_of_tau():
    # an upper translation adds B(m) = ((1, -w), (-w^2, 2)) to tau
    g = token_matrix(("gBu", (1, 2, 0, -1)))
    assert moebius(g, ((I_UNIT, 0), (0, I_UNIT))) == ((I_UNIT + 1, -C_OMEGA), (-C_OMEGA2, I_UNIT + 2))
    half = Fraction(1, 2)
    assert moebius(g, ((half, 0), (0, 3))) == ((C_ONE * Fraction(3, 2), -C_OMEGA), (-C_OMEGA2, C_ONE * 5))


@pytest.mark.parametrize(
    "g, tau, error, message",
    [
        (m2e(((0, 1), (1, 0))), None, ValueError, "^expected a 4x4 matrix$"),
        (mat_id(4), None, InputTypeError, "^matrix entry: expected an Eisenstein integer$"),
        (I4, ((I_UNIT,),), ValueError, "^expected a 2x2 matrix$"),
        (I4, ((I_UNIT, 0.5), (0, I_UNIT)), InputTypeError, "^field coordinate: expected an exact rational, got float$"),
    ],
    ids=["g-2x2", "g-int-entries", "tau-1x1", "tau-float"],
)
def test_moebius_refuses_a_matrix_of_another_shape_or_ring(g, tau, error, message):
    # the 2x2 g raised IndexError and the int g AttributeError; the 1x1 tau
    # and the float entry were refused inside the field product
    with pytest.raises(error, match=message):
        moebius(g, tau or ((I_UNIT, 0), (0, I_UNIT)))


def test_involutions():
    rng = sampling.make_rng(22)
    for _ in range(8):
        tau = psi(sampling.sample_chart_point(rng))
        assert involution_T(involution_T(tau)) == tau
        assert involution_W(involution_W(tau)) == tau
        # the two involutions commute
        assert involution_T(involution_W(tau)) == involution_W(involution_T(tau))


def test_word_round_trip_gamma1():
    rng = sampling.make_rng(23)
    for k in range(20):
        word = sampling.sample_hgamma1_word(rng, 1 + k % 6)
        g = word_matrix(word)
        assert membership(g) == "gamma1"
        redone = decompose_hgamma1(g)
        assert word_matrix(redone) == g
    # inverse tokens really invert
    for tok in (("gA", m2e(((1, 2), (0, 1)))), ("gBu", (1, -2, 0, 3)), ("gBl", (0, 1, 1, 1))):
        assert mat_mul(token_matrix(tok), token_matrix(token_power(tok, -1))) == I4


POWER_TOKENS = (
    ("gA", m2e(((1, 2), (0, 1)))),
    ("gA", m2e(((OMEGA, 1), (0, 1)))),
    ("gBu", (1, -2, 0, 3)),
    ("gBl", (0, 1, 1, 1)),
)


@pytest.mark.parametrize("tok", POWER_TOKENS, ids=lambda tok: tok[0])
@pytest.mark.parametrize("p", [-2, -1, 0, 1, 2])
def test_token_power_is_the_matrix_power(tok, p):
    got = token_matrix(token_power(tok, p))
    positive = I4
    for _ in range(abs(p)):
        positive = mat_mul(positive, token_matrix(tok))
    if p >= 0:
        assert got == positive
    else:
        assert mat_mul(got, positive) == I4


@pytest.mark.parametrize("tok", POWER_TOKENS[::2], ids=lambda tok: tok[0])
@pytest.mark.parametrize("p", [1.5, True], ids=["float", "bool"])
def test_token_power_reads_an_integer_power(tok, p):
    # a gBu token used to scale its payload by 1.5 and read True as 1, and
    # a gA token failed inside the square-and-multiply
    with pytest.raises(TypeError, match="token power: expected an integer"):
        token_power(tok, p)


def test_token_power_rejects_unknown_kinds():
    with pytest.raises(ValueError, match="unknown token kind"):
        token_power(("gC", (1, 0, 0, 0)), 2)


# A gamma1 element whose column-one descent once stalled in row four: the
# Eisenstein quotient there was nonzero but did not shrink the norm.
ROW_FOUR_STALL = tuple(
    tuple(Eisenstein(*x) for x in row)
    for row in (
        ((-1, -2), (0, 0), (0, 0), (0, 1)),
        ((0, 0), (-1, -2), (1, 1), (0, 0)),
        ((0, 0), (2, 0), (-1, 0), (0, 0)),
        ((-2, 0), (0, 0), (0, 0), (1, 0)),
    )
)


def test_row_four_step_only_takes_shrinking_quotients():
    assert membership(ROW_FOUR_STALL) == "gamma1"
    word = decompose_hgamma1(ROW_FOUR_STALL)
    assert word_matrix(word) == ROW_FOUR_STALL


def test_the_antidiagonal_fallback_is_reached_only_at_two_points():
    # Both quotients of the antidiagonal loop depend only on x = half / alpha.
    # The exact grid x = (s + t w) / 60 with |s|, |t| <= 120 holds every
    # x of norm at most 3/4, which the fallback needs; run the loop's two
    # tests on it as the loop makes them.
    alpha = Eisenstein(60, 0)
    reached = set()
    for s, t in product(range(-120, 121), repeat=2):
        half = Eisenstein(s, t)
        if half.is_zero():
            continue
        q, r = eis_divmod(half, alpha)
        if q.is_zero() or r.norm() >= half.norm():
            if eis_divmod(alpha, 2 * half)[0].is_zero():
                reached.add(half)
    # x = +-(2 + w)/3, where the best gBl unit score 2 Re(e conj x) is
    # exactly 1, so a gBl unit step cannot lower N(half); the gBu step
    # scores 1 as well and divides N(alpha) by 3
    assert reached == {Eisenstein(40, 20), Eisenstein(-40, -20)}
    for half in reached:
        assert max((e * half.conj() * alpha).two_re() for e in UNITS) == alpha.norm()
        assert max((e * alpha.conj() * half).two_re() for e in UNITS) == alpha.norm()


def test_decompose_rejections():
    with pytest.raises(ValueError, match="gamma1 congruence subgroup"):
        decompose_hgamma1(GAMMA0_ONLY)
    with pytest.raises(ValueError, match="gamma0 congruence subgroup"):
        decompose_hgamma0(J_MAT)
    with pytest.raises(ValueError, match="unknown token kind"):
        token_matrix(("gX", None))


def test_word_round_trip_gamma0():
    rng = sampling.make_rng(24)
    for k in range(12):
        word = sampling.sample_hgamma0_word(rng, 1 + k % 5)
        g = word_matrix(word)
        assert membership(g) in ("gamma0", "gamma1")
        lift, tail = decompose_hgamma0(g)
        assert mat_mul(token_matrix(("gA", lift)), word_matrix(tail)) == g
        assert m2e_mod2(lift) == f_mod2(g)


def test_decompose_hgamma0_tests_membership_once(monkeypatch):
    # on the input only: the gamma1 quotient goes to the unchecked descent
    from hessk3 import hermitian

    calls = []

    def counted(g):
        calls.append(g)
        return membership(g)

    monkeypatch.setattr(hermitian, "membership", counted)
    rng = sampling.make_rng(25)
    for k in range(8):
        g = word_matrix(sampling.sample_hgamma0_word(rng, 1 + k % 5))
        calls.clear()
        lift, tail = decompose_hgamma0(g)
        assert calls == [g]
        assert mat_mul(token_matrix(("gA", lift)), word_matrix(tail)) == g


def _lift(fm):
    """Each F4 pair (x, y) of a matrix read as x + y w in Z[w]."""
    return tuple(tuple(Eisenstein(*x) for x in row) for row in fm)


def test_f4_field():
    # F4 is Z[w]/2: the class of a product does not depend on the lifts
    assert (OMEGA * OMEGA).mod2() == (1, 1)
    assert (OMEGA * Eisenstein(1, 1)).mod2() == (1, 0)
    for x in F4_ELEMS:
        lx = Eisenstein(*x)
        assert lx.mod2() == x
        for y in F4_ELEMS:
            ly = Eisenstein(*y)
            assert (lx * ly).mod2() == ((lx + 2 * OMEGA) * (ly - 2)).mod2()
        if x != (0, 0):
            # conj inverts every nonzero class: x conj(x) = N(x) is odd
            assert (lx * lx.conj()).mod2() == (1, 0)
        # cubes of nonzero elements are 1
        assert (lx * lx * lx).mod2() == ((1, 0) if x != (0, 0) else (0, 0))


def test_mod2_reduction_is_a_homomorphism():
    rng = sampling.make_rng(25)
    for _ in range(15):
        g = word_matrix(sampling.sample_hgamma0_word(rng, 3))
        h = word_matrix(sampling.sample_hgamma0_word(rng, 3))
        lifts = mat_mul(section_lift(f_mod2(g)), section_lift(f_mod2(h)))
        assert f_mod2(mat_mul(g, h)) == m2e_mod2(lifts)
    with pytest.raises(ValueError, match="mod-2 reduction needs a gamma0 element"):
        f_mod2(J_MAT)


def test_section_table_and_group():
    group = gl2f4_group()
    assert len(group) == 180
    assert F4_ID in group
    for fm in group:
        assert mat_det2(_lift(fm)).mod2() != (0, 0)
        lift = section_lift(fm)
        assert m2e_mod2(lift) == fm
        assert membership(token_matrix(("gA", lift))) in ("gamma0", "gamma1")
    # singular, an entry outside F4, and a third column
    for fm in (
        (((0, 0), (0, 0)), ((0, 0), (0, 0))),
        (((2, 0), (0, 0)), ((0, 0), (1, 0))),
        (((1, 0), (0, 0), (0, 0)), ((0, 0), (1, 0), (0, 0))),
    ):
        with pytest.raises(ValueError, match="not invertible over F4"):
            section_lift(fm)


def test_p1_f4():
    pts = p1_f4_points()
    assert len(pts) == 5
    assert len(set(pts)) == 5
    omega = (0, 1)
    scalar = ((omega, (0, 0)), ((0, 0), omega))
    for pt in pts:
        assert p1_action(F4_ID, pt) == pt
        assert p1_action(scalar, pt) == pt
    fm = (((1, 0), (1, 0)), ((0, 0), (1, 0)))
    gm = (((0, 1), (0, 0)), ((0, 0), (1, 1)))
    fgm = m2e_mod2(mat_mul(_lift(fm), _lift(gm)))
    for pt in pts:
        assert p1_action(fgm, pt) == p1_action(fm, p1_action(gm, pt))
    # any invertible matrix permutes the five points
    img = {p1_action(fm, pt) for pt in pts}
    assert img == set(pts)
    # the image is the point on the line of the reduced product: some unit
    # multiple of its lift agrees with fm pt mod 2
    for fm in gl2f4_group():
        for pt in pts:
            image = [Eisenstein(*x) for x in p1_action(fm, pt)]
            want = tuple(v.mod2() for v in mat_vec(_lift(fm), [Eisenstein(*x) for x in pt]))
            assert any(tuple((u * x).mod2() for x in image) == want for u in UNITS)


COSET_CASES = [
    (token_matrix(("gBu", (1, 0, 0, 0))), 1),
    (token_matrix(("gBu", (0, 1, 0, 0))), 2),
    (token_matrix(("gBu", (0, 0, 0, 1))), 3),
    (token_matrix(("gBu", (2, 2, 0, 0))), "uncovered"),
    (I4, "uncovered"),
]


@pytest.mark.parametrize("h, expected", COSET_CASES)
def test_coset_classify_frozen(h, expected):
    assert coset_classify(h) == expected


def test_coset_classify_rejects_non_unitary():
    with pytest.raises(ValueError, match="not unitary for J"):
        coset_classify(W_MAT)


def test_b_cosets_shape():
    assert len(B_COSETS) == 4
    for b in B_COSETS:
        assert b[1][0] == b[0][1].conj()
        assert b[0][0].b == 0 and b[1][1].b == 0


def test_embed_is_a_homomorphism():
    rng = sampling.make_rng(26)
    for _ in range(10):
        g = word_matrix(sampling.sample_hgamma0_word(rng, 3))
        h = word_matrix(sampling.sample_hgamma0_word(rng, 3))
        assert mat_mul(embed_from_hgamma0(g), embed_from_hgamma0(h)) == embed_from_hgamma0(
            mat_mul(g, h)
        )
    with pytest.raises(ValueError, match="embedding needs a gamma0 element"):
        embed_from_hgamma0(J_MAT)


def test_equal_mod_units():
    g = token_matrix(("gBu", (1, 2, -1, 0)))
    scaled = tuple(tuple(x * OMEGA2 for x in r) for r in g)
    assert equal_mod_units(g, scaled)
    assert equal_mod_units(g, mat_neg(g))
    assert not equal_mod_units(g, token_matrix(("gBu", (1, 2, -1, 1))))
