"""The rank-two Hermitian modular group over the Eisenstein integers.

Elements are 4x4 matrices g over Z[w] acting on the upper half-space H2 by
(A tau + B)(C tau + D)^(-1), unitary for J = ((0, I), (-I, 0)) in the sense
g* J g = J.  The level-two filtration tracked here:

    full    g* J g = J
    gamma0  ... and C == 0 mod 2
    gamma1  ... and A == I mod 2

Generator tokens: ("gA", A) for ((A, 0), (0, (A*)^(-1))), ("gBu", m) for the
upper translation ((I, B(m)), (0, I)), ("gBl", m) for the lower translation
((I, 0), (2 B(m), I)), where B(m) is the integral Hermitian matrix
((m1, m3 + w m4), (m3 + w^2 m4, m2)).  A word is a list of tokens whose
matrix is the left-to-right product; the rightmost token acts first.

decompose_hgamma1 rewrites any gamma1 element as such a word, exactly;
decompose_hgamma0 peels one fixed mod-2 section factor first.  The descent
arguments only use that Z[w] is Euclidean and that the six units cover the
angular sector needed to shrink norms; every step is checked at run time:
each integer Euclid step halves its even entry, and each antidiagonal step
lowers the positive integer P = N(row one) N(row four / 2) of column one.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import groupby, product, starmap
from math import lcm
from operator import itemgetter

from .domain import _c, h2_contains
from .eisenstein import (
    OMEGA,
    OMEGA2,
    ONE,
    UNITS,
    ZERO,
    Eisenstein,
    best_unit,
    eis_divmod,
    g2_column_reduce,
    pair_steps,
)
from .errors import InputTypeError, integer, require
from .lattice import (
    mat_conj_transpose,
    mat_det2,
    mat_id,
    mat_inv2,
    mat_mul,
    mat_neg,
    mat_prod,
    mat_scale,
    mat_sub,
    mat_transpose,
    mat_vec,
    power,
)
from .tower import Mat2C, _eis_times, _make

__all__ = [
    "m2e",
    "m2e_mod2",
    "blocks",
    "from_blocks",
    "J_MAT",
    "W_MAT",
    "membership",
    "moebius",
    "involution_T",
    "involution_W",
    "token_matrix",
    "token_power",
    "word_matrix",
    "decompose_hgamma1",
    "decompose_hgamma0",
    "f_mod2",
    "gl2f4_group",
    "section_lift",
    "p1_f4_points",
    "p1_action",
    "B_COSETS",
    "coset_classify",
    "embed_from_hgamma0",
    "equal_mod_units",
]


# -- 2x2 matrices over Z[w] -------------------------------------------------


def m2e(rows):
    """A 2x2 matrix over Z[w] from rows of Eisenstein integers and ints."""
    out = tuple(
        tuple(x if isinstance(x, Eisenstein) else Eisenstein(integer(x, "matrix entry"), 0) for x in r)
        for r in rows
    )
    return _zw_block(out)


def _square(a, n: int):
    """a, when it has n rows of n entries."""
    if len(a) != n or any(len(r) != n for r in a):
        raise ValueError(f"expected a {n}x{n} matrix")
    return a


_I2 = mat_id(2, ONE, ZERO)
_I4 = mat_id(4, ONE, ZERO)
_Z2 = ((ZERO, ZERO), (ZERO, ZERO))


def _zw_block(a, n: int = 2):
    """a, when it is an n x n matrix over Z[w]: an entry other than an
    Eisenstein with int coordinates is an InputTypeError.  The one entry
    rule of m2e, of every gA block and of membership's 4x4."""
    for r in _square(a, n):
        for x in r:
            if type(x) is not Eisenstein or type(x.a) is not int or type(x.b) is not int:
                raise InputTypeError("matrix entry: expected an Eisenstein integer")
    return a


def _unit_det(a, message: str) -> Eisenstein:
    """The determinant of a 2x2 matrix over Z[w], when it is a unit: any
    other determinant is a ValueError with message.  The one input step of
    every gA block."""
    d = mat_det2(_zw_block(a))
    if not d.is_unit():
        raise ValueError(message)
    return d


def m2e_mod2(a):
    return tuple(tuple(a[i][j].mod2() for j in range(2)) for i in range(2))


# the identity over F4, whose elements are pairs (x, y) for x + y w
F4_ID = (((1, 0), (0, 0)), ((0, 0), (1, 0)))


def _m2e_even(a) -> bool:
    return all(a[i][j].mod2() == (0, 0) for i in range(2) for j in range(2))


# -- 4x4 matrices ------------------------------------------------------------


def blocks(g):
    a = ((g[0][0], g[0][1]), (g[1][0], g[1][1]))
    b = ((g[0][2], g[0][3]), (g[1][2], g[1][3]))
    c = ((g[2][0], g[2][1]), (g[3][0], g[3][1]))
    d = ((g[2][2], g[2][3]), (g[3][2], g[3][3]))
    return a, b, c, d


def from_blocks(a, b, c, d):
    rows = []
    for i in range(2):
        rows.append(tuple(a[i]) + tuple(b[i]))
    for i in range(2):
        rows.append(tuple(c[i]) + tuple(d[i]))
    return tuple(rows)


J_MAT = from_blocks(_Z2, _I2, mat_neg(_I2), _Z2)
# The half-shift conjugate of J-translations; W* J W = 2 J and W^2 = -2 I.
W_MAT = from_blocks(_Z2, mat_neg(_I2), mat_scale(_I2, 2), _Z2)


def _translation(m):
    """m as the four int parameters of B(m)."""
    if len(m) != 4:
        raise ValueError("expected four translation parameters")
    return tuple(integer(x, "translation parameter") for x in m)


_GA_UNIT_DET = "gA block must have unit determinant"


def membership(g) -> str:
    _zw_block(g, 4)
    # J g is a signed row permutation: rows three and four, then minus one and two
    jg = (g[2], g[3]) + mat_neg(g[:2])
    if mat_mul(mat_conj_transpose(g), jg) != J_MAT:
        return "none"
    a, _, c, _ = blocks(g)
    if not _m2e_even(c):
        return "full"
    return "gamma1" if m2e_mod2(a) == F4_ID else "gamma0"


# -- action on the half-space -------------------------------------------------


def moebius(g, tau: Mat2C) -> Mat2C:
    """(A tau + B)(C tau + D)^(-1) for g = ((A, B), (C, D)) over Z[w].

    tau is read as T / n, integer numerators over the lcm n of its entries'
    denominators (Cohen 4.2, as in tower).  An Eisenstein x + y w is
    ((2x - y) + y sqrt3 i) / 2, so each entry of A tau + B and C tau + D is
    (sum_k 2 A_ik T_kj + 2 n B_ij) / 2n: int products by tower._eis_times
    and one reduction.  The quotient is then taken in the field.
    """
    a, b, c, d = blocks(_zw_block(g, 4))
    tau = [[_c(x) for x in r] for r in _square(tau, 2)]
    n = lcm(*(x._den for r in tau for x in r))
    t = [[tuple(v * (n // x._den) for v in x._n) for x in r] for r in tau]
    one = (n, 0, 0, 0)

    def entry(m_row, s_entry, j):
        # row i of m against column j of tau, plus s_ij, over 2n
        (p0, p1, p2, p3), (q0, q1, q2, q3), (r0, r1, r2, r3) = (
            _eis_times(m_row[0], t[0][j]),
            _eis_times(m_row[1], t[1][j]),
            _eis_times(s_entry, one),
        )
        return _make(p0 + q0 + r0, p1 + q1 + r1, p2 + q2 + r2, p3 + q3 + r3, 2 * n)

    num, den = (
        tuple(tuple(entry(m_row, s_row[j], j) for j in (0, 1)) for m_row, s_row in zip(m, s))
        for m, s in ((a, b), (c, d))
    )
    det = mat_det2(den)
    require(not det.is_zero(), "singular denominator in the matrix action")
    return mat_mul(num, mat_inv2(den, det.inverse()))


def involution_T(tau: Mat2C) -> Mat2C:
    if not h2_contains(tau):
        raise ValueError("transpose involution needs a half-space point")
    return mat_transpose(tau)


def involution_W(tau: Mat2C) -> Mat2C:
    if not h2_contains(tau):
        raise ValueError("inversion involution needs a half-space point")
    return mat_scale(mat_inv2(tau, mat_det2(tau).inverse()), Fraction(-1, 2))


# -- words ---------------------------------------------------------------------


def token_matrix(tok):
    return _checked_matrix(*_checked(tok, _GA_UNIT_DET))


def _checked(tok, message: str):
    """tok as (kind, value) once it is a valid token: a gA block whose
    determinant is not a unit is a ValueError with message, a translation
    is read as four ints, and any other kind is a ValueError."""
    kind = tok[0]
    if kind == "gA":
        _unit_det(tok[1], message)
        return kind, tok[1]
    if kind in ("gBu", "gBl"):
        return kind, _translation(tok[1])
    raise ValueError(f"unknown token kind {kind!r}")


def _runs(word, message: str):
    """The word as one checked token per run of same-kind tokens, in order.

    Every token is checked as it is read, in word order, by _checked with
    message, so a word raises what its first bad token raises.  A run has
    the matrix of its tokens' product, on either side of the dictionary:
    - a gA run is gA of the product of its blocks: gA(a) = diag(a, d
      adj(a*)) for d = det a, adj is anti-multiplicative and so is *, so
      gA(a) gA(b) = gA(ab); and psi_hom(ab) = psi_hom(a) psi_hom(b);
    - a gBu or gBl run adds its parameters: B(m) is linear in m, so
      ((I, B(m)), (0, I)) ((I, B(n)), (0, I)) = ((I, B(m + n)), (0, I)),
      the same for 2 B in the lower corner; and h(m) h(n) = h(m + n) for
      the translations h of M, of which a gBl image is a G0 conjugate at
      parameters linear in m.
    tests/test_correspond.py proves the identities of psi_hom and of both
    translation images for every input.  So a word of r runs costs r - 1
    large products, and a run of k gA tokens k - 1 products of 2x2 blocks.
    """
    for kind, run in groupby((_checked(tok, message) for tok in word), itemgetter(0)):
        values = [value for _, value in run]
        yield kind, mat_prod(values, _I2) if kind == "gA" else tuple(map(sum, zip(*values)))


def _checked_matrix(kind: str, value):
    """The 4x4 matrix of a checked token or run: ((A, 0), (0, (A*)^(-1)))
    for a gA block A, whose det A* = conj(det A) has inverse det A as a
    unit, and ((I, B), (0, I)) or ((I, 0), (2 B, I)) for B = B(m)."""
    if kind == "gA":
        return from_blocks(value, _Z2, _Z2, mat_inv2(mat_conj_transpose(value), mat_det2(value)))
    m1, m2, m3, m4 = value
    off = Eisenstein(m3, m4)
    b = ((Eisenstein(m1, 0), off), (off.conj(), Eisenstein(m2, 0)))
    return from_blocks(_I2, b, _Z2, _I2) if kind == "gBu" else from_blocks(_I2, _Z2, mat_scale(b, 2), _I2)


def token_power(tok, p: int):
    """The token whose matrix is token_matrix(tok) to the power p; a gA
    block whose determinant is not a unit is a ValueError."""
    integer(p, "token power")
    kind, value = _checked(tok, "determinant is not a unit")
    if kind == "gA":
        return ("gA", power(value, p, _I2, mat_mul, lambda x: mat_inv2(x, mat_det2(x).conj())))
    return (kind, tuple(p * x for x in value))


def word_matrix(word):
    """The product of the token matrices, one 4x4 product per run (_runs)."""
    return mat_prod(starmap(_checked_matrix, _runs(word, _GA_UNIT_DET)), _I4)


# -- decomposition -------------------------------------------------------------


def _div_int(x: Eisenstein, k: int) -> Eisenstein:
    require(k != 0 and x.a % k == 0 and x.b % k == 0, "entry is not divisible")
    return Eisenstein(x.a // k, x.b // k)


def _rational_split(x: Eisenstein, y: Eisenstein):
    """Write x = m t, y / 2 = n t with coprime integers m (odd), n.

    Unitarity of the ambient matrix forces x * conj(y/2) to be a rational
    integer, which is exactly what makes the split possible.
    """
    y2 = _div_int(y, 2)
    r = x * y2.conj()
    require(r.b == 0, "column entries are not rationally dependent")
    fr = Fraction(r.a, y2.norm())
    m, n = fr.numerator, fr.denominator
    require(m != 0, "odd entry with vanishing ratio")
    t = _div_int(x, m)
    require(t * n == y2, "rational split does not reproduce the even entry")
    require(m % 2 != 0, "ratio numerator is even for an odd entry")
    return m, n, t


def _slot_params(slot: int, c: int):
    return (c, 0, 0, 0) if slot == 0 else (0, c, 0, 0)


def decompose_hgamma1(g):
    """Exact token word for a gamma1 element; multiplies back bit for bit."""
    if membership(g) != "gamma1":
        raise ValueError("matrix is not in the gamma1 congruence subgroup")
    word = _descend_hgamma1(g)
    require(word_matrix(word) == g, "decomposition does not multiply back")
    return word


def _descend_hgamma1(g):
    """decompose_hgamma1's word for g in gamma1; stages are checked, the word is not."""
    work = g
    left_inv = []

    def lmul(tok):
        nonlocal work
        left_inv.append(token_power(tok, -1))
        work = mat_mul(_checked_matrix(*tok), work)

    def clear_even_partner(odd_idx: int, even_idx: int, col: int, slot: int):
        # Shrink work[even_idx][col] to zero against the odd entry above it
        # using the two diagonal translation slots.
        y = work[even_idx][col]
        if y.is_zero():
            return
        m, n, _ = _rational_split(work[odd_idx][col], y)
        for c, d in pair_steps(m, n):
            if c:
                lmul(("gBu", _slot_params(slot, c)))
            lmul(("gBl", _slot_params(slot, d)))
        require(work[even_idx][col].is_zero(), "even partner entry did not vanish")

    # (i) clear row two of column one with a single gA factor
    if not work[1][0].is_zero():
        a1, _ = g2_column_reduce(work[0][0], work[1][0])
        lmul(("gA", a1))
        require(work[1][0].is_zero(), "gA factor failed to clear row two")

    # clear row three of column one (rationally dependent on row one)
    clear_even_partner(0, 2, 0, 0)

    # (ii) shrink (row one, row four) of column one with antidiagonal
    # translations.  Full Eisenstein quotients give the usual geometric
    # Euclid; a row-four quotient is taken only when its remainder is
    # strictly smaller, since a nonzero quotient can leave the norm as it
    # was.  When neither moves, one best-unit gBu step does, and that
    # fallback is reached only at x = half / alpha = +-(2 + w)/3.  Proof:
    # eis_divmod rounds each coordinate, halves toward zero, so rounding
    # is odd, sends exactly the closed square of coordinates in
    # [-1/2, 1/2] to 0, and leaves a remainder in that square, where
    # N <= 3/4.  Write x = (a + b) + a w, so 1 / (2x) = (b - a w) / (2n)
    # with n = N(x) = a^2 + ab + b^2.
    # - The row-one quotient round(1 / (2x)) is 0, so |a|, |b| <= n.
    # - The row-four quotient q = round(x) is 0 (x in the square), or its
    #   remainder x - q is no smaller than x; either way n <= 3/4.
    # - If ab <= 0 then n <= max(a^2, b^2) <= n^2, so n >= 1: impossible.
    #   Up to x -> -x, then, a, b > 0; with M >= m their max and min,
    #   M <= n <= M (M + 2m) gives M + 2m >= 1, equal only if m = M.
    # - So a + b >= 2/3 and a, b <= 3/4: q is 1, or 1 + w when a > 1/2.
    #   N(x - q) >= N(x) reads 2 Re(q conj x) <= N(q), which is
    #   2a + b <= 1 for q = 1 + w, false as a > 1/2, and a + 2b <= 1
    #   for q = 1.  With M + 2m >= 1 that forces a = b = 1/3.
    # There N(x) = 1/3 and the best unit e has 2 Re(e x) = 1, so the step
    # sends alpha to alpha (1 - 2 e x), of norm N(alpha) / 3; a gBl unit
    # step could not help, as 2 Re(e conj x) <= 1 leaves N(x - e) >= N(x).
    # A gBl step moves only rows three and four, a gBu step only rows one
    # and two, so each step moves one factor of P = N(alpha) N(half).
    # alpha stays odd, so P is a positive integer while half is nonzero;
    # it is checked to fall on every step, so the loop ends within P steps
    # or fails on the step that stalled.
    def gbu_mult(u: Eisenstein):
        # work[0][0] gains u * work[3][0]
        lmul(("gBu", (0, 0, u.a, u.b)))

    while not work[3][0].is_zero():
        alpha = work[0][0]
        half = _div_int(work[3][0], 2)
        q, r = eis_divmod(half, alpha)
        if not q.is_zero() and r.norm() < half.norm():
            # work[3][0] / 2 gains -q * work[0][0]
            lmul(("gBl", (0, 0, q.b - q.a, q.b)))
        elif not (q := eis_divmod(alpha, work[3][0])[0]).is_zero():
            gbu_mult(-q)
        else:
            gbu_mult(-best_unit(lambda e: (e * alpha.conj() * half).two_re()))
        require(
            work[0][0].norm() * _div_int(work[3][0], 2).norm() < alpha.norm() * half.norm(),
            "antidiagonal descent failed to decrease N(row one) N(row four / 2)",
        )
    require(work[0][0].norm() == 1, "column one did not reduce to a unit")

    # (iii) column two: row three vanishes by unitarity, row four reduces
    require(work[2][1].is_zero(), "row three of column two is nonzero")
    clear_even_partner(1, 3, 1, 1)

    # (iv) residual block-triangular piece: one gA and one upper translation
    a_r, b_r, c_r, _ = blocks(work)
    require(all(x.is_zero() for row in c_r for x in row), "lower-left block did not vanish")
    require(mat_det2(a_r).is_unit(), "residual A block is not invertible")
    require(m2e_mod2(a_r) == F4_ID, "residual A block left the congruence kernel")
    h = mat_mul(token_power(("gA", a_r), -1)[1], b_r)
    require(
        h[0][0].b == 0 and h[1][1].b == 0 and h[1][0] == h[0][1].conj(),
        "residual translation block is not Hermitian integral",
    )
    mvec = (h[0][0].a, h[1][1].a, h[0][1].a, h[0][1].b)

    word = list(left_inv)
    if a_r != _I2:
        word.append(("gA", a_r))
    if any(mvec):
        word.append(("gBu", mvec))
    return word


# -- mod-2 reduction and section ------------------------------------------------
# F4 = Z[w]/2 has no arithmetic of its own: products are taken on lifts to
# Z[w] and reduced with Eisenstein.mod2.

F4_ELEMS = ((0, 0), (1, 0), (0, 1), (1, 1))


def f_mod2(g):
    """A block mod 2 of a gamma0 element, an invertible matrix over F4."""
    if membership(g) not in ("gamma0", "gamma1"):
        raise ValueError("mod-2 reduction needs a gamma0 element")
    a, _, _, _ = blocks(g)
    return m2e_mod2(a)


# Each pair (x, y) lifts to x + y w, so a nonzero class lifts to one of the
# units 1, w and 1 + w.
_F4_LIFT = {x: Eisenstein(*x) for x in F4_ELEMS}


def _odd_det(lift) -> bool:
    return mat_det2(lift).mod2() != (0, 0)


def _f4_lift(fm):
    """The entrywise lift of an invertible 2x2 matrix over F4; ValueError on anything else."""
    try:
        (a, b), (c, d) = ((_F4_LIFT[x] for x in r) for r in fm)
    except (KeyError, TypeError, ValueError):
        invertible = False
    else:
        invertible = _odd_det(((a, b), (c, d)))
    if not invertible:
        raise ValueError("matrix is not invertible over F4")
    return (a, b), (c, d)


def gl2f4_group() -> list:
    """The 180 matrices over F4 whose determinant, taken on lifts, is odd; sorted."""
    return [
        ((a, b), (c, d))
        for a, b, c, d in product(sorted(F4_ELEMS), repeat=4)
        if _odd_det(((_F4_LIFT[a], _F4_LIFT[b]), (_F4_LIFT[c], _F4_LIFT[d])))
    ]


def _lower_triangular(lift):
    """The lift of ((1, 0), (x, 1)) ((a, b), (0, f)) for the entrywise lift of
    an invertible fm with a nonzero: x lifts c conj(a) = c / a and f lifts
    d - x b, so the product has determinant a f, a unit, and reduces to fm."""
    (a, b), (c, d) = lift
    x = _F4_LIFT[(c * a.conj()).mod2()]
    f = _F4_LIFT[(d - x * b).mod2()]
    return (a, b), (x * a, x * b + f)


def section_lift(fm):
    """One integral unit-determinant lift of an invertible matrix over F4.

    With a == 0 the entrywise lift has determinant -b c, a unit; otherwise
    fm factors as a lower unitriangular times an upper triangular matrix,
    each lifted entrywise.  The answer is certified before it is returned.
    """
    entrywise = _f4_lift(fm)
    lift = entrywise if entrywise[0][0] == ZERO else _lower_triangular(entrywise)
    require(mat_det2(lift).is_unit(), "section lift does not have unit determinant")
    require(m2e_mod2(lift) == m2e_mod2(entrywise), "section lift does not reduce to its matrix")
    return lift


def decompose_hgamma0(g):
    """Section factor and gamma1 word with g = gA(L) * word."""
    if membership(g) not in ("gamma0", "gamma1"):
        raise ValueError("matrix is not in the gamma0 congruence subgroup")
    # rem = gA(lift)^(-1) g has A block == I mod 2 and C block lift* C, still
    # even, so it lies in gamma1 and the descent needs no membership test
    lift = section_lift(m2e_mod2(blocks(g)[0]))
    rem = mat_mul(_checked_matrix(*token_power(("gA", lift), -1)), g)
    word = _descend_hgamma1(rem)
    require(word_matrix([("gA", lift), *word]) == g, "gamma0 factorization failed")
    return lift, word


# -- projective line over F4 (five points) --------------------------------------


def p1_f4_points():
    pts = [((1, 0), (0, 0))]
    for x in F4_ELEMS:
        pts.append((x, (1, 0)))
    return tuple(pts)


def p1_action(fm, pt):
    """An invertible fm applied to a point of p1_f4_points(), on lifts to
    Z[w] reduced mod 2; any other fm or pt is a ValueError.  A y nonzero
    mod 2 is scaled to 1 by conj(y), as y conj(y) = N(y) is odd."""
    lift = _f4_lift(fm)
    if pt not in p1_f4_points():
        raise ValueError("point is not in P1(F4)")
    x, y = mat_vec(lift, [Eisenstein(*c) for c in pt])
    if y.mod2() != (0, 0):
        return ((x * y.conj()).mod2(), (1, 0))
    require(x.mod2() != (0, 0), "projective image vanished")
    return ((1, 0), (0, 0))


# -- half-shift cosets -----------------------------------------------------------

B_COSETS = (
    m2e(((1, 0), (0, 0))),
    m2e(((0, 0), (0, 1))),
    m2e(((0, OMEGA), (OMEGA2, 0))),
    m2e(((0, OMEGA2), (OMEGA, 0))),
)


def coset_classify(h):
    """Which of the four half-shift translates brings h into gamma0.

    h is the integral avatar ((A, B), (C, D)) of the half-integral element
    ((A, B/2), (2C, D)); the translate r_i works exactly when B - A B_i is
    even.  Returns 1..4, or "uncovered" when no translate works.
    """
    if membership(h) == "none":
        raise ValueError("matrix is not unitary for J")
    a, b, _, _ = blocks(h)
    hits = [
        i
        for i, bi in enumerate(B_COSETS, start=1)
        if _m2e_even(mat_sub(b, mat_mul(a, bi)))
    ]
    require(len(hits) <= 1, "two half-shift cosets matched at once")
    return hits[0] if hits else "uncovered"


def embed_from_hgamma0(h):
    """Integral avatar of a gamma0 element inside the half-integral group."""
    if membership(h) not in ("gamma0", "gamma1"):
        raise ValueError("embedding needs a gamma0 element")
    a, b, c, d = blocks(h)
    half_c = tuple(tuple(_div_int(x, 2) for x in r) for r in c)
    out = from_blocks(a, mat_scale(b, 2), half_c, d)
    require(membership(out) != "none", "conjugated element left the group")
    return out


def equal_mod_units(x, y) -> bool:
    """Equality of 4x4 matrices up to one of the six unit scalars."""
    return any(mat_scale(x, u) == y for u in UNITS)
