"""Transport between the 6x6 isometries and the Hermitian modular side."""

import random
from fractions import Fraction
from functools import reduce
from itertools import combinations, combinations_with_replacement, starmap
from operator import add

import pytest

from hessk3 import correspond, sampling, verify
from hessk3.correspond import (
    DICTIONARY_PAIRS,
    ORTH_TOKEN_MATS,
    decompose_so0,
    equal_mod_center,
    herm_to_orth,
    is_so0,
    orth_to_herm,
    orth_word_matrix,
    psi_hom,
    _checked_image,
    _psi_hom,
)
from hessk3.domain import act, psi
from hessk3.eisenstein import OMEGA, OMEGA2, ONE, UNITS, ZERO, Eisenstein, exact_div
from hessk3.errors import InputTypeError
from hessk3.hermitian import (
    blocks,
    equal_mod_units,
    involution_T,
    involution_W,
    m2e,
    moebius,
    token_matrix,
    word_matrix,
)
from hessk3.lattice import (
    G0,
    G1,
    H_GENS,
    HP_GENS,
    U0,
    U0G1U0,
    U1,
    W0,
    isometry_inverse,
    mat_conj_transpose,
    mat_det2,
    mat_id,
    mat_mul,
    mat_neg,
    power,
    translation_h,
)

NEG_SWAP = (
    (0, -1, 0, 0, 0, 0),
    (-1, 0, 0, 0, 0, 0),
    (0, 0, 1, 0, 0, 0),
    (0, 0, 0, 1, 0, 0),
    (0, 0, 0, 0, 1, 0),
    (0, 0, 0, 0, 0, 1),
)


def test_psi_hom_frozen_images():
    for name, orth, tok in DICTIONARY_PAIRS:
        if tok[0] == "gA":
            assert psi_hom(tok[1]) == orth, name
    with pytest.raises(ValueError, match="unit determinant"):
        psi_hom(m2e(((1, 0), (0, 2))))


def test_word_images_need_two_by_two_gA_blocks():
    # a 3x3 identity block used to map to the 6x6 identity
    eye3 = tuple(tuple(Eisenstein(int(i == j), 0) for j in range(3)) for i in range(3))
    for entry in (psi_hom, lambda a: herm_to_orth(False, False, [("gA", a)])):
        with pytest.raises(ValueError, match="expected a 2x2 matrix"):
            entry(eye3)


def _degree_two_points(n: int):
    """0, e_i, 2 e_i and e_i + e_j in Z^n: 1 + 2n + n(n - 1)/2 points."""
    unit = [tuple(int(k == i) for k in range(n)) for i in range(n)]
    return (
        [(0,) * n]
        + unit
        + [tuple(2 * x for x in e) for e in unit]
        + [tuple(map(add, e, f)) for e, f in combinations(unit, 2)]
    )


def _zw_2x2(x):
    """The 2x2 matrix over Z[w] with the eight coordinates x."""
    e = [Eisenstein(x[k], x[k + 1]) for k in range(0, 8, 2)]
    return ((e[0], e[1]), (e[2], e[3]))


def _congruence_failures() -> list:
    """The points a of _degree_two_points(8) where the tail of _psi_hom(a)
    is not the congruence B(m) -> a B(m) a*."""
    failures = []
    for x in _degree_two_points(8):
        a = _zw_2x2(x)
        image = _psi_hom(a)
        assert image[:2] == mat_id(6)[:2] and all(row[:2] == (0, 0) for row in image[2:])
        for j in range(4):
            m = tuple(int(k == j) for k in range(4))
            y = mat_mul(a, mat_mul(blocks(token_matrix(("gBu", m)))[1], mat_conj_transpose(a)))
            assert y[1][0] == y[0][1].conj() and y[0][0].b == 0 and y[1][1].b == 0
            if tuple(row[2 + j] for row in image[2:]) != (y[0][0].a, y[1][1].a, y[0][1].a, y[0][1].b):
                failures.append((a, j))
    return failures


def test_psi_hom_is_congruence_by_a_on_hermitian_matrices():
    # on coordinates 3..6, read as the parameters m of B(m), psi_hom(a)
    # sends B(m) to a B(m) a*, for every 2x2 matrix a over Z[w].  Both sides
    # are linear in m, so the four unit vectors pin all sixteen entries.  In
    # the eight integer coordinates of a, both are polynomials of degree at
    # most two: _psi_hom takes +, - and * of at most two entries of a, and
    # a B a* is bilinear in a and conj(a).  Such a polynomial f is fixed by
    # its 45 values at 0, e_i, 2 e_i and e_i + e_j: f(0) is its constant,
    # f(e_i) and f(2 e_i) give the coefficients of x_i and x_i^2, and
    # f(e_i + e_j) that of x_i x_j.  So the two sides, equal at these 45
    # points, are equal at every integer matrix.
    assert len(_degree_two_points(8)) == 45
    assert _congruence_failures() == []


def test_w_for_w_squared_in_psi_hom_is_caught(monkeypatch):
    # the B(e4) column as w c1 c2* + w c2 c1*: only a with an off-diagonal
    # product a2 conj(a3) sees it, so of the frozen images only u0u1 does;
    # herm_to_orth maps the product of each gA run, so a run whose product
    # has one fails first: at input 3 of enr-iso and 6 of decompose-fuzz
    monkeypatch.setattr(correspond, "OMEGA2", OMEGA)
    assert _congruence_failures() != []
    left = "word image left the even orthogonal subgroup"
    for suite, want in (
        ("group-iso", {"image-u0u1": "input 0", "psi-multiplicative": "input 0"}),
        ("enr-iso", {"gamma1-words-land-in-enr": f"input 3: {left}"}),
        (
            "decompose-fuzz",
            {
                "orthogonal-transport-mod-center": f"input 6: {left}",
                "hermitian-round-trip-mod-units": f"input 0: {left}",
            },
        ),
    ):
        report = verify.run_suite(suite, 0)
        assert {c["check_id"]: c["detail"] for c in report["checks"] if not c["passed"]} == want


def test_psi_hom_is_multiplicative():
    rng = sampling.make_rng(31)
    for _ in range(40):
        a = sampling.sample_gl2_matrix(rng, 4)
        b = sampling.sample_gl2_matrix(rng, 4)
        assert psi_hom(mat_mul(a, b)) == mat_mul(psi_hom(a), psi_hom(b))


def test_psi_hom_kernel_is_the_six_scalars():
    ident = mat_id(6)
    for u in UNITS:
        assert psi_hom(((u, ZERO), (ZERO, u))) == ident
    # anything else mapping to the identity must itself be a unit scalar
    rng = sampling.make_rng(32)
    for _ in range(60):
        a = sampling.sample_gl2_matrix(rng, 4)
        (a1, a2), (a3, a4) = a
        image = psi_hom(a)
        # rows one and two of the tail begin (N(a1), N(a2)) and (N(a3), N(a4))
        assert image[2][2:4] == (a1.norm(), a2.norm()) and image[3][2:4] == (a3.norm(), a4.norm())
        if image == ident:
            assert a[0][1].is_zero() and a[1][0].is_zero() and a[0][0] == a[1][1]
    # so an image I has N(a2) = N(a3) = 0 and N(a1) = N(a4) = 1: a is
    # diag(u, v) for units u and v, and of those 36 only the 6 scalars map to I
    diagonals = [(u, v) for u in UNITS for v in UNITS]
    assert [(u, v) for u, v in diagonals if psi_hom(((u, ZERO), (ZERO, v))) == ident] == [(u, u) for u in UNITS]


def test_token_table_is_consistent():
    for name, orth, tok in DICTIONARY_PAIRS:
        assert ORTH_TOKEN_MATS[name] == orth
        assert _checked_image(*tok) == orth, name


def test_token_powers_match_square_and_multiply():
    # the closed forms of _token_power against the reference powers
    for name, mat in ORTH_TOKEN_MATS.items():
        for p in range(-40, 41):
            want = power(mat, p, mat_id(6), mat_mul, isometry_inverse)
            assert correspond._token_power(name, p) == want, (name, p)


def test_g0_and_u0_conjugates_are_swaps():
    # the lower translation images and the conjugated generators, read off
    # by swapping coordinates, against the products they stand for
    rng = random.Random(23)
    for _ in range(40):
        m = tuple(rng.randint(-9, 9) for _ in range(4))
        n1, n2, n3, n4 = m
        want = mat_mul(G0, mat_mul(translation_h(-n2, -n1, n3, n4), G0))
        assert _checked_image("gBl", m) == want, m
    assert HP_GENS == tuple(mat_mul(G0, mat_mul(h, G0)) for h in H_GENS)
    assert U0G1U0 == mat_mul(U0, mat_mul(G1, U0))


def test_dictionary_equivariance():
    rng = sampling.make_rng(33)
    pts = [sampling.sample_chart_point(rng) for _ in range(3)]
    for name, orth, tok in DICTIONARY_PAIRS:
        hm = token_matrix(tok)
        for z in pts:
            assert psi(act(orth, z)) == moebius(hm, psi(z)), name
    for z in pts:
        assert psi(act(U1, z)) == involution_T(psi(z))
        assert psi(act(W0, z)) == involution_W(psi(z))


def test_decompose_so0_round_trip():
    rng = sampling.make_rng(34)
    for k in range(25):
        x = sampling.sample_orth_so0(rng, 1 + k % 7)
        assert is_so0(x)
        word = decompose_so0(x)
        assert orth_word_matrix(word) == x


def test_decompose_so0_rejections():
    with pytest.raises(ValueError, match="even orthogonal subgroup"):
        decompose_so0(U1)
    with pytest.raises(ValueError, match="even orthogonal subgroup"):
        decompose_so0(W0)
    with pytest.raises(ValueError, match="does not preserve the form"):
        decompose_so0(tuple(tuple(2 * v for v in r) for r in mat_id(6)))


def test_orth_to_herm_flags():
    uses_t, uses_w, word = orth_to_herm(U1)
    assert uses_t and not uses_w
    assert equal_mod_center(herm_to_orth(uses_t, uses_w, word), U1)
    uses_t, uses_w, word = orth_to_herm(W0)
    assert uses_w and not uses_t
    assert equal_mod_center(herm_to_orth(uses_t, uses_w, word), W0)
    with pytest.raises(ValueError, match="positive-plane orientation"):
        orth_to_herm(NEG_SWAP)


def test_orth_transport_round_trip():
    rng = sampling.make_rng(35)
    for k in range(15):
        g = sampling.sample_orth_plus(rng, 1 + k % 5)
        uses_t, uses_w, word = orth_to_herm(g)
        back = herm_to_orth(uses_t, uses_w, word)
        assert equal_mod_center(back, g)


def test_herm_transport_round_trip_mod_units():
    rng = sampling.make_rng(36)
    for k in range(12):
        word = sampling.sample_hgamma0_word(rng, 1 + k % 4)
        h = word_matrix(word)
        g = herm_to_orth(False, False, word)
        assert is_so0(g)
        uses_t, uses_w, back_word = orth_to_herm(g)
        assert not uses_t and not uses_w
        assert equal_mod_units(word_matrix(back_word), h)


def test_equal_mod_center():
    assert equal_mod_center(U1, U1)
    assert equal_mod_center(U1, mat_neg(U1))
    assert not equal_mod_center(U1, W0)


def test_translation_images_compose():
    # transported translations multiply like the lattice translations
    ha = _checked_image("gBu", (2, -1, 0, 3))
    hb = _checked_image("gBu", (1, 1, 1, -2))
    assert mat_mul(ha, hb) == translation_h(3, 0, 1, 1)
    la = _checked_image("gBl", (2, -1, 0, 3))
    lb = _checked_image("gBl", (1, 1, 1, -2))
    lab = _checked_image("gBl", (3, 0, 1, 1))
    assert mat_mul(la, lb) == lab


@pytest.mark.parametrize("kind", ["gBu", "gBl"])
def test_translation_images_read_four_integer_parameters(kind):
    # three parameters used to fail inside translation_h with a missing
    # argument, five to fail unpacking, and a gBl True to be read as 1
    for payload in ((1, 2, 3), (1, 2, 3, 4, 5)):
        with pytest.raises(ValueError, match="expected four translation parameters"):
            herm_to_orth(False, False, [(kind, payload)])
    for payload in ((True, 0, 0, 0), (0, 0, 0.5, 0)):
        with pytest.raises(TypeError, match="translation parameter: expected an integer"):
            herm_to_orth(False, False, [(kind, payload)])


def test_orth_word_matrix_rejects_unknown_tokens():
    with pytest.raises(ValueError, match="unknown orthogonal token 'h5'"):
        orth_word_matrix([("g1", 1), ("h5", 2)])
    # a power is an int: True is not read as 1, nor 1.5 left to the product
    for p in (True, 1.5, "2", Fraction(1)):
        with pytest.raises(TypeError, match="token power: expected an integer"):
            orth_word_matrix([("g1", p)])


# -- the transport as the exterior square --------------------------------------
# U(2, 2) acts on the wedge square of C^4 and preserves a real form of
# signature (2, 4); on tokens that action is the transport.  The
# intertwiner P sends an orthogonal vector x to the wedge vector with
# coordinates y12 = -x2 / 2, y13 = -x5 - w x6, y14 = x3, y23 = -x4,
# y24 = x5 + w^2 x6, y34 = x1 on e_i ^ e_j, and every token t satisfies
# _checked_image(*t) = s_t P^-1 wedge(token_matrix(t)) P, with the twist
# s_t = det(A)^-1 on gA and 1 on translations.  The test builds no
# rational: column two uses -2 P e2 = e12 and halves its image at the end.
# Tying the token images to this map stays on the test side, since
# computing it per token costs several times the direct formulas.

_WEDGE = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_P_COLUMNS = (
    (0, 0, 0, 0, 0, 1),
    (1, 0, 0, 0, 0, 0),
    (0, 0, 1, 0, 0, 0),
    (0, 0, 0, -1, 0, 0),
    (0, -1, 0, 0, 1, 0),
    (0, -OMEGA, 0, 0, OMEGA2, 0),
)


def _p_inverse(y):
    """P^-1 y; exact_div certifies the division by w^2 - w, of norm 3."""
    y12, y13, y14, y23, y24, y34 = y
    x6 = exact_div(y13 + y24, OMEGA2 - OMEGA)
    return (y34, -2 * y12, y14, -y23, y24 - OMEGA2 * x6, x6)


def exterior_image(tok):
    """s_t P^-1 wedge(token_matrix(tok)) P, as a 6x6 integer matrix."""
    g = token_matrix(tok)
    twist = mat_det2(tok[1]).conj() if tok[0] == "gA" else ONE
    wedge = [[g[i][k] * g[j][l] - g[i][l] * g[j][k] for k, l in _WEDGE] for i, j in _WEDGE]
    columns = []
    for n, p in enumerate(_P_COLUMNS):
        x = _p_inverse([sum((e * c for e, c in zip(row, p)), ZERO) for row in wedge])
        if n == 1:
            x = [exact_div(v, Eisenstein(-2, 0)) for v in x]
        columns.append([twist * v for v in x])
    assert all(v.b == 0 for col in columns for v in col), tok
    return tuple(tuple(col[i].a for col in columns) for i in range(6))


def _exterior_tokens():
    units = [tuple(int(i == k) for i in range(4)) for k in range(4)]
    rng = sampling.make_rng(41)
    sampled = [tok for _ in range(50) for tok in sampling.sample_hgamma0_word(rng, 4)]
    return (
        [tok for _, _, tok in DICTIONARY_PAIRS if tok[0] == "gA"]
        + [(kind, m) for kind in ("gBu", "gBl") for m in units]
        + sampled
    )


def test_every_token_image_is_the_twisted_exterior_square():
    tokens = _exterior_tokens()
    assert len(tokens) == 214
    for tok in tokens:
        assert _checked_image(*tok) == exterior_image(tok), tok


def test_the_exterior_square_sees_an_order_two_collapse(monkeypatch):
    # the body _psi_hom sending each order-two image to the identity, as in
    # the mutation tests, breaks the tie on diag(1, -1)
    exact = correspond._psi_hom
    ident = mat_id(6)
    monkeypatch.setattr(
        correspond, "_psi_hom", lambda a: ident if mat_mul(exact(a), exact(a)) == ident else exact(a)
    )
    tok = ("gA", m2e(((1, 0), (0, -1))))
    assert _checked_image(*tok) != exterior_image(tok)


# -- proofs for every input, by evaluation on the principal lattice -------------
# A polynomial of total degree at most d in n variables that vanishes on the
# principal lattice {x in Z>=0^n : x1 + ... + xn <= d}, of C(n + d, d) points,
# is zero: the set is unisolvent for degree d (Chung and Yao 1977).  The
# bodies state their degrees, and mat_mul's kernels compute the same
# polynomials as the schoolbook product (their zero skips and unit-row copies
# do not change a value), so each identity below holds for every input.


def _principal_lattice(n: int, d: int):
    """The points of Z>=0^n with coordinate sum at most d."""
    for k in range(d + 1):
        for multiset in combinations_with_replacement(range(n), k):
            yield tuple(multiset.count(i) for i in range(n))


def _multiplicativity_failures() -> list:
    """The points (a, b) of the principal lattice of degree four in sixteen
    coordinates where _psi_hom(ab) != _psi_hom(a) _psi_hom(b)."""
    failures = []
    for x in _principal_lattice(16, 4):
        a, b = _zw_2x2(x[:8]), _zw_2x2(x[8:])
        if _psi_hom(mat_mul(a, b)) != mat_mul(_psi_hom(a), _psi_hom(b)):
            failures.append((a, b))
    return failures


def _additivity_failures(kind: str) -> list:
    """The points (m, n) of the principal lattice of degree four in eight
    coordinates where the images of (kind, m) and (kind, n) do not multiply
    to the image of (kind, m + n)."""
    failures = []
    for x in _principal_lattice(8, 4):
        m, n = x[:4], x[4:]
        total = tuple(map(add, m, n))
        if mat_mul(_checked_image(kind, m), _checked_image(kind, n)) != _checked_image(kind, total):
            failures.append((m, n))
    return failures


def test_psi_hom_is_multiplicative_for_every_matrix():
    # _psi_hom has degree two in the eight coordinates of its argument and ab
    # is bilinear, so both sides have degree at most four in the sixteen
    # coordinates of a and b: 4845 points prove psi_hom(ab) = psi_hom(a)
    # psi_hom(b) for every pair of 2x2 matrices over Z[w], on which the
    # merging of a gA run rests
    assert len(list(_principal_lattice(16, 4))) == 4845
    assert _multiplicativity_failures() == []


@pytest.mark.parametrize("kind", ["gBu", "gBl"])
def test_translation_images_add_for_every_parameter(kind):
    # each image entry has degree at most two in the four parameters, so
    # h(m) h(n) - h(m + n) has degree at most four in eight: 495 points
    # prove that a gBu or gBl run's image is the image of its summed
    # parameters
    assert len(list(_principal_lattice(8, 4))) == 495
    assert _additivity_failures(kind) == []


def test_a_wrong_psi_hom_coefficient_fails_the_multiplicativity_proof(monkeypatch):
    # w^2 for w in the B(e4) column, w^2 c1 c2* + w^2 c2 c1*: the body still
    # has degree two, so the proof's premise holds and its conclusion fails
    monkeypatch.setattr(correspond, "OMEGA", OMEGA2)
    assert _multiplicativity_failures() != []


@pytest.mark.parametrize("kind", ["gBu", "gBl"])
def test_a_translation_corner_off_by_one_fails_the_additivity_proof(kind, monkeypatch):
    exact = correspond.translation_h

    def corner_off(m1, m2, m3, m4):
        rows = [list(r) for r in exact(m1, m2, m3, m4)]
        rows[1][0] += 1
        return tuple(tuple(r) for r in rows)

    monkeypatch.setattr(correspond, "translation_h", corner_off)
    assert _additivity_failures(kind) != []


# -- one product per run of same-kind tokens -------------------------------------


def _route_words() -> dict:
    """Seeded words of each shape of run, by name."""
    rng = sampling.make_rng(29)

    def token(kind):
        if kind == "gA":
            return ("gA", sampling.sample_gl2_matrix(rng, 4))
        return (kind, tuple(rng.randint(-3, 3) for _ in range(4)))

    words = {f"all-{kind}": [token(kind) for _ in range(5)] for kind in ("gA", "gBu", "gBl")}
    words["alternating"] = [token(("gA", "gBu", "gBl")[k % 3]) for k in range(9)]
    words["mixed-runs"] = sampling.sample_hgamma0_word(rng, 14)
    words.update({f"one-{kind}": [token(kind)] for kind in ("gA", "gBu", "gBl")})
    words["empty"] = []
    return words


@pytest.mark.parametrize("name", sorted(_route_words()))
def test_run_products_equal_the_token_by_token_products(name):
    word = _route_words()[name]
    assert word_matrix(word) == reduce(mat_mul, map(token_matrix, word), mat_id(4, ONE, ZERO))
    image = reduce(mat_mul, starmap(_checked_image, word), mat_id(6))
    assert herm_to_orth(False, False, word) == image
    assert herm_to_orth(True, True, word) == mat_mul(U1, mat_mul(W0, image))


_UNIT = m2e(((1, 1), (0, 1)))
_NON_UNIT = m2e(((1, 0), (0, 2)))
_UNIT_DET = {"word_matrix": "gA block must have unit determinant", "herm_to_orth": "matrix must have unit determinant"}
# each bad word with its error type and message, or None for the entry
# point's own unit-determinant message; every entry point reads the tokens
# in word order, so the first bad token decides
BAD_WORDS = {
    "non-unit-gA": ([("gBu", (1, 0, 0, 0)), ("gA", _NON_UNIT)], ValueError, None),
    "non-eisenstein-entry": (
        [("gA", ((ONE, ZERO), (ZERO, 1)))],
        InputTypeError,
        "matrix entry: expected an Eisenstein integer",
    ),
    "non-int-parameter": (
        [("gBl", (0, 0, 0.5, 0))],
        InputTypeError,
        "translation parameter: expected an integer, got float",
    ),
    "unknown-kind": ([("gBu", (1, 2, 3, 4)), ("gC", (1, 2, 3, 4))], ValueError, "unknown token kind 'gC'"),
    "bad-gA-mid-run": ([("gA", _UNIT), ("gA", _NON_UNIT), ("gA", _UNIT)], ValueError, None),
    "bad-gBu-mid-run": (
        [("gBu", (1, 0, 0, 0)), ("gBu", (0, True, 0, 0)), ("gBu", (0, 0, 1, 0))],
        InputTypeError,
        "translation parameter: expected an integer, got bool",
    ),
    "first-bad-token-decides": ([("gA", _NON_UNIT), ("gZ", None)], ValueError, None),
}


@pytest.mark.parametrize("entry", sorted(_UNIT_DET))
@pytest.mark.parametrize("name", sorted(BAD_WORDS))
def test_bad_words_raise_what_their_first_bad_token_raises(name, entry):
    word, error, message = BAD_WORDS[name]
    run = {"word_matrix": word_matrix, "herm_to_orth": lambda w: herm_to_orth(False, False, w)}[entry]
    with pytest.raises(error) as caught:
        run(word)
    assert (type(caught.value), str(caught.value)) == (error, message or _UNIT_DET[entry])
