"""Dictionary between the lattice isometries and the Hermitian side.

psi_hom sends a 2x2 matrix over Z[w] with unit determinant to a 6x6 lattice
isometry fixing the first hyperbolic plane; its kernel is the six scalar
matrices.  Together with the translation pairs and the two involutions this
spans the whole index-four extension:

    orthogonal side                     Hermitian side
    h1..h4 (first-column translations)  gBu(e_i)
    h1p..h4p (conjugated translations)  gBl with swapped, negated diagonal
    g1, g2, u0g1u0, u0u1, u2, I42       gA of elementary matrices
    U1 (determinant -1 coset)           transpose involution
    W0 (antidiagonal parity coset)      -1/(2 tau) involution

decompose_so0 reduces an element of the even subgroup (determinant one,
diagonal parity, plus orientation) to a word in the named tokens by integer
Euclid steps on two columns plus a six-unit rotation descent on the A2 tail;
orth_to_herm peels the two involutions first and maps the word across.
Round trips agree up to -1 on the orthogonal side and up to one of the six
unit scalars on the Hermitian side; both centers act trivially on the
period domain.
"""

from __future__ import annotations

from itertools import starmap

from .eisenstein import (
    OMEGA,
    OMEGA2,
    UNITS,
    Eisenstein,
    best_unit,
    eis_divmod,
    pair_steps,
)
from .errors import integer, require
from .hermitian import _runs, _unit_det, m2e, token_power
from .lattice import (
    G1,
    G2,
    H_GENS,
    HP_GENS,
    I42,
    MI42,
    U0G1U0,
    U0U1,
    U1,
    U2,
    W0,
    W0_INV,
    _block_parity,
    _embed_tail,
    _orientation,
    _swap_conj,
    det_int,
    is_orthogonal,
    isometry_inverse,
    mat_id,
    mat_mul,
    mat_neg,
    mat_pow,
    mat_prod,
    mat_scale,
    residual_m,
    translation_h,
)

__all__ = [
    "psi_hom",
    "is_so0",
    "ORTH_TOKEN_MATS",
    "orth_word_matrix",
    "decompose_so0",
    "orth_to_herm",
    "herm_to_orth",
    "equal_mod_center",
    "DICTIONARY_PAIRS",
]


_PSI_UNIT_DET = "matrix must have unit determinant"


def psi_hom(a):
    """6x6 isometry induced by a unit-determinant 2x2 matrix over Z[w].

    The first hyperbolic plane is fixed.  On coordinates 3..6, read as the
    parameters m of B(m) (m1 = X11, m2 = X22, m3 + w m4 = X12), it is the
    congruence B(m) -> a B(m) a*.
    """
    _unit_det(a, _PSI_UNIT_DET)
    return _psi_hom(a)


def _psi_hom(a):
    """psi_hom without its guard, for any 2x2 matrix over Z[w].

    Column j of the tail is a B(e_j) a*.  With c1, c2 the columns of a,
    B(e1) and B(e2) go to c1 c1* and c2 c2*, B(e3) to c1 c2* + c2 c1* and
    B(e4) to w c1 c2* + w^2 c2 c1*.  Only +, - and * on the coordinates of
    the entries, so every tail entry is a polynomial of degree two in them.
    """
    (a1, a2), (a3, a4) = a
    # the diagonal of c1 c2*, and the top right entries of c1 c2* and c2 c1*
    p, q = a1 * a2.conj(), a3 * a4.conj()
    r, s = a1 * a4.conj(), a2 * a3.conj()
    # each column as (X11, X22, X12) of its image X
    cols = (
        (a1.norm(), a3.norm(), a1 * a3.conj()),
        (a2.norm(), a4.norm(), a2 * a4.conj()),
        (p.two_re(), q.two_re(), r + s),
        ((OMEGA * p).two_re(), (OMEGA * q).two_re(), OMEGA * r + OMEGA2 * s),
    )
    return _embed_tail(tuple(zip(*((x11, x22, x12.a, x12.b) for x11, x22, x12 in cols))))


def is_so0(g) -> bool:
    """Determinant one, diagonal parity, plus orientation."""
    return is_orthogonal(g) and _in_so0(g)


def _in_so0(g) -> bool:
    """is_so0 for a matrix already known to be an isometry."""
    return det_int(g) == 1 and _block_parity(g) == "diagonal" and _orientation(g) == "plus"


# Each orthogonal token with its 6x6 isometry and its Hermitian image at
# power one.  The conjugated translations swap and negate the two diagonal
# slots; mi42 = -i42 maps to the same gA as i42, which is where the mod -1
# ambiguity of round trips comes from.
_TOKENS = {
    "h1": (H_GENS[0], ("gBu", (1, 0, 0, 0))),
    "h2": (H_GENS[1], ("gBu", (0, 1, 0, 0))),
    "h3": (H_GENS[2], ("gBu", (0, 0, 1, 0))),
    "h4": (H_GENS[3], ("gBu", (0, 0, 0, 1))),
    "h1p": (HP_GENS[0], ("gBl", (0, -1, 0, 0))),
    "h2p": (HP_GENS[1], ("gBl", (-1, 0, 0, 0))),
    "h3p": (HP_GENS[2], ("gBl", (0, 0, 1, 0))),
    "h4p": (HP_GENS[3], ("gBl", (0, 0, 0, 1))),
    "g1": (G1, ("gA", m2e(((1, 0), (1, 1))))),
    "g2": (G2, ("gA", m2e(((1, 0), (OMEGA2, 1))))),
    "u0g1u0": (U0G1U0, ("gA", m2e(((1, 1), (0, 1))))),
    "u0u1": (U0U1, ("gA", m2e(((0, 1), (1, 0))))),
    "u2": (U2, ("gA", m2e(((1, 0), (0, OMEGA2))))),
    "i42": (I42, ("gA", m2e(((1, 0), (0, -1))))),
    "mi42": (MI42, ("gA", m2e(((1, 0), (0, -1))))),
}

ORTH_TOKEN_MATS = {name: mat for name, (mat, _) in _TOKENS.items()}
_I6 = mat_id(6)

# The powers 0 .. n - 1 of each token of finite order n.
_CYCLES = {
    name: tuple(mat_pow(ORTH_TOKEN_MATS[name], k) for k in range(n))
    for name, n in (("u0u1", 2), ("u2", 3), ("i42", 2), ("mi42", 2))
}


def _token_power(name: str, p: int):
    """The isometry of the orthogonal token name to the power p.

    Closed forms, with no product: the translations add, h(a) h(b) =
    h(a + b), and h1p..h4p are their G0 conjugates (coordinates one and two
    swapped); g1 and g2 span the commuting family residual_m, and u0g1u0 is
    the U0 conjugate of g1 (coordinates three and four swapped).  A token of
    finite order n is looked up at p mod n.
    """
    integer(p, "token power")
    if name not in ORTH_TOKEN_MATS:
        raise ValueError(f"unknown orthogonal token {name!r}")
    if name in _CYCLES:
        cycle = _CYCLES[name]
        return cycle[p % len(cycle)]
    if name == "g1":
        return residual_m(p, 0)
    if name == "g2":
        return residual_m(0, p)
    if name == "u0g1u0":
        return _swap_conj(residual_m(p, 0), 2, 3)
    # name is h1..h4 or h1p..h4p
    m = [0, 0, 0, 0]
    m[int(name[1]) - 1] = p
    h = translation_h(*m)
    return _swap_conj(h, 0, 1) if name.endswith("p") else h


def orth_word_matrix(word):
    return mat_prod((_token_power(name, p) for name, p in word), _I6)


def _checked_image(kind: str, value):
    """The 6x6 image of a checked token or run: a gBl image is the G0 swap
    of the translation with its two diagonal slots swapped and negated, so
    each entry of a translation image has degree at most two in its
    parameters, as in translation_h."""
    if kind == "gA":
        return _psi_hom(value)
    if kind == "gBu":
        return translation_h(*value)
    n1, n2, n3, n4 = value
    return _swap_conj(translation_h(-n2, -n1, n3, n4), 0, 1)


def herm_to_orth(uses_t: bool, uses_w: bool, word):
    """U1^t W0^w times the word image, which is tested for SO0 once; the
    image takes one product per run of same-kind tokens (hermitian._runs)."""
    image = mat_prod(starmap(_checked_image, _runs(word, _PSI_UNIT_DET)), _I6)
    require(is_so0(image), "word image left the even orthogonal subgroup")
    flags = [m for m, used in ((U1, uses_t), (W0, uses_w)) if used]
    return mat_prod(flags + [image], _I6)


# (s, t) with u = (-1)^s w^t for each unit u; on the A2 tail, i42 acts as
# -1 and u2 as w, through the tail block of U2
_UNIT_ST = dict(zip(UNITS, ((0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2))))
_U2_TAIL = tuple(r[4:] for r in U2[4:])
# each tail block (-1)^s u2^(-t) with the (s, t) whose u2^t, then i42^s,
# aligns it; u2 has order three on the tail
_TAIL_ALIGN = {mat_scale(mat_pow(_U2_TAIL, -t % 3), (-1) ** s): (s, t) for s, t in _UNIT_ST.values()}


def decompose_so0(x):
    """Token word for an element of the even orthogonal subgroup.

    Column two is reduced to e2 (integer Euclid on rows 2..4, six-unit
    rotation descent on the tail pair), a translation factor is peeled off
    the right, then column four of the residual block is reduced the same
    way; what remains is a residual unipotent recognized entry by entry.
    The returned word multiplies back to x exactly.
    """
    if not is_orthogonal(x):
        raise ValueError("matrix does not preserve the form")
    if not _in_so0(x):
        raise ValueError("matrix is not in the even orthogonal subgroup")
    word = _descend_so0(x)
    require(orth_word_matrix(word) == x, "word does not multiply back")
    return word


def _descend_so0(x):
    """decompose_so0's word for x in SO0; stages are checked, the word is not."""
    work = x
    out_left: list = []
    out_right: list = []

    def lmul(name: str, p: int):
        nonlocal work
        if p == 0:
            return
        work = mat_mul(_token_power(name, p), work)
        out_left.append((name, -p))

    def rotate_tail(z: Eisenstein):
        # the unit rotation maximizing the doubled real part of z
        s, t = _UNIT_ST[best_unit(lambda u: (u * z).two_re())]
        lmul("u2", t)
        lmul("i42", s)

    def tail(col: int) -> Eisenstein:
        return Eisenstein(work[4][col], work[5][col])

    def peel_mult(name: str, q: Eisenstein):
        # tail gains -q * pivot, pivot = the row entry name translates by
        lmul(name, -q.a)
        if q.b:
            lmul("u2", 2)
            lmul(name, -q.b)
            lmul("u2", 1)

    def descend_tail(col: int, stage: str, factor: int, names):
        # the tail pair of column col against its pivots in rows col - 1
        # and col, whose product is factor times the tail norm by isotropy:
        # a full Eisenstein quotient of the tail by the smaller pivot
        # (reached with a u2 rotation sandwich) when the pivot square is at
        # most the tail norm, a single rotated unit step otherwise; the
        # smaller pivot square stays below twice the norm, so both branches
        # shrink, and with factor one only the division is taken; the tail
        # norm is a natural number checked to fall on every step, so the
        # loop ends or fails on the step that stalled
        while not tail(col).is_zero():
            n = tail(col).norm()
            b, c = work[col - 1][col], work[col][col]
            require(b * c == factor * n, f"isotropy of column {stage} broke")
            name, piv = (names[0], b) if abs(b) <= abs(c) else (names[1], c)
            if piv * piv <= n:
                q, _ = eis_divmod(tail(col), Eisenstein(piv, 0))
                peel_mult(name, q)
            else:
                rotate_tail(tail(col))
                lmul(name, -_sign(piv))
            require(tail(col).norm() < n, f"tail norm of column {stage} failed to decrease")

    # -- stage one: column two to e2 ------------------------------------

    # rows two and three: integer Euclid, a2 odd throughout; the
    # translation rows carry -2 m, so the h2 power is -c
    for c, d in pair_steps(work[1][1], work[2][1]):
        lmul("h2", -c)
        lmul("h1p", d)
    require(work[2][1] == 0, "row three of column two did not vanish")

    # the tail pair against the two hyperbolic rows
    descend_tail(1, "two", 2, ("h3", "h3p"))
    require(work[0][1] == 0, "row one of column two is nonzero")

    # row four against the odd row two
    for c, d in pair_steps(work[1][1], work[3][1]):
        lmul("h1", -c)
        lmul("h2p", d)
    require(work[3][1] == 0, "row four of column two did not vanish")

    require(abs(work[1][1]) == 1, "column two pivot is not a unit")
    if work[1][1] == -1:
        lmul("mi42", 1)
    require(
        tuple(work[i][1] for i in range(6)) == (0, 1, 0, 0, 0, 0),
        "column two did not reduce to e2",
    )
    require(work[0] == (1, 0, 0, 0, 0, 0), "row one did not reduce to e1")

    # -- peel the translation factor off the right -----------------------

    y = _embed_tail([r[2:] for r in work[2:]])
    t_part = mat_mul(isometry_inverse(y), work)
    mvec = (t_part[2][0], t_part[3][0], t_part[4][0], t_part[5][0])
    require(t_part == translation_h(*mvec), "residual is not a translation")
    for name, p in zip(("h1", "h2", "h3", "h4"), mvec):
        if p:
            out_right.append((name, p))
    work = y

    # -- stage two: column four of the block ------------------------------

    descend_tail(3, "four", 1, ("g1", "u0g1u0"))

    if work[3][3] == 0:
        lmul("u0u1", 1)
    require(work[2][3] == 0, "row three of column four is nonzero")
    require(work[3][3] == 1, "column four pivot is not plus one")

    # -- align the A2 tail block ------------------------------------------

    align = _TAIL_ALIGN.get(tuple(r[4:] for r in work[4:]))
    require(align is not None, "tail block is not a unit rotation")
    lmul("u2", align[1])
    lmul("i42", align[0])

    # -- residual unipotent ------------------------------------------------

    u, v = work[4][2], work[5][2]
    require(work == residual_m(u, v), "residual is not of the expected shape")
    residual_toks = []
    if u:
        residual_toks.append(("g1", u))
    if v:
        residual_toks.append(("g2", v))

    return out_left + residual_toks + out_right


def _sign(n: int) -> int:
    return 1 if n > 0 else (-1 if n < 0 else 0)


def orth_to_herm(g):
    """Involution flags and Hermitian word for an element of O+.

    Returns (uses_t, uses_w, word); the product U1^t W0^w (word image)
    recovers g up to sign, which is the one check of the answer.
    """
    if not is_orthogonal(g):
        raise ValueError("matrix does not preserve the form")
    if _orientation(g) != "plus":
        raise ValueError("matrix reverses the positive-plane orientation")
    work = g
    uses_t = det_int(work) == -1
    if uses_t:
        work = mat_mul(U1, work)
    uses_w = _block_parity(work) == "antidiagonal"
    if uses_w:
        work = mat_mul(W0_INV, work)
    word = _descend_so0(work)
    herm_word = [token_power(_TOKENS[name][1], p) for name, p in word]
    check = herm_to_orth(uses_t, uses_w, herm_word)
    require(equal_mod_center(check, g), "transport does not recover the input")
    return uses_t, uses_w, herm_word


def equal_mod_center(a, b) -> bool:
    return a == b or a == mat_neg(b)


DICTIONARY_PAIRS = tuple(
    (name, mat, herm) for name, (mat, herm) in _TOKENS.items() if name != "mi42"
)
