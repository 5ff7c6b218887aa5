"""The even lattice M = U + U(2) + A2(2) of signature (2, 4).

Fixed Gram matrix Q (determinant 48), its isometries as integer 6x6
matrices, the two-component orientation, the discriminant group M*/M of
order 48 with its torsion quadratic form, the congruence subgroups cut out
by that form, the translation isometries, and orthogonal complements of
primitive vectors.

Matrices act on column vectors; composition is matrix product.  The
matrix kernel below is ring-generic: the same product, power, transpose
and 2x2 inverse serve integer, Eisenstein and field matrices alike.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import product
from math import gcd
from operator import add, mul, sub

from .eisenstein import Eisenstein
from .errors import integer, require

__all__ = [
    "GRAM",
    "power",
    "mat_id",
    "mat_mul",
    "mat_prod",
    "mat_vec",
    "mat_add",
    "mat_sub",
    "mat_neg",
    "mat_scale",
    "mat_transpose",
    "mat_conj_transpose",
    "mat_det2",
    "mat_inv2",
    "mat_pow",
    "det_int",
    "isometry_inverse",
    "is_orthogonal",
    "qpair",
    "orientation",
    "block_parity",
    "translation_h",
    "residual_m",
    "is_in_k3",
    "is_in_enr",
    "disc_add",
    "disc_scale",
    "disc_order",
    "disc_q",
    "disc_b",
    "disc_group",
    "disc_act",
    "disc_action",
    "DISC_GENS",
    "V_CLASSES",
    "two_torsion",
    "to_s5",
    "enumerate_disc_orthogonal",
    "orthogonal_complement",
    "G0",
    "G1",
    "G2",
    "U0",
    "U1",
    "U2",
    "I42",
    "MI42",
    "MINUS_I6",
    "U0G1U0",
    "U0U1",
    "W0",
    "W0_INV",
    "G0I42",
    "H_GENS",
    "HP_GENS",
]

N = 6

GRAM = (
    (0, 1, 0, 0, 0, 0),
    (1, 0, 0, 0, 0, 0),
    (0, 0, 0, 2, 0, 0),
    (0, 0, 2, 0, 0, 0),
    (0, 0, 0, 0, -4, 2),
    (0, 0, 0, 0, 2, -4),
)


# -- matrices over any ring ----------------------------------------------
#
# Matrices are tuples of row tuples.  Entries only need +, - and *, so one
# kernel serves int, Eisenstein and Cyclo12 matrices; a ring whose identity
# is not the integer 1 passes its own one and zero.  Each entry of a product
# is sum(p, next(p)) over the termwise products p: sum adds ints in C and
# falls back to the ring's own + for any other entry type.  mat_mul is the
# one product.  One reader, _sparse_rows, passes once over each factor: it
# checks that every entry is an int, or every entry an Eisenstein with int
# coordinates, and keeps the nonzero entries of each row.  When both factors
# read as the same ring, that ring's kernel sums row i of the product over
# the nonzero a_ij and the nonzero entries of row j of the right factor (on
# Z[w], on the two integer coordinates, building one Eisenstein per entry);
# a left row whose one nonzero entry is a 1 is a copy of a right row, with
# no arithmetic.  Any other entry (a bool, a Fraction, a Cyclo12, a mix of
# the two rings) takes the generic loop.
# Every row of every operand is checked, so a mismatched or ragged shape is
# a ValueError, never a zip truncation.


def power(x, k: int, one, times=mul, invert=None):
    """x**k by square-and-multiply; one, the ring's own identity, is x**0.

    times is the ring product; a negative k needs invert, the ring inverse.
    Neither the identity nor a square past the top bit enters a product,
    so k = 1, 2, 3, 4 cost 0, 1, 2, 2 products.
    """
    if k < 0:
        if invert is None:
            raise ValueError("negative power without an inverse")
        x, k = invert(x), -k
    if k == 0:
        return one
    out = None
    while True:
        if k & 1:
            out = x if out is None else times(out, x)
        k >>= 1
        if not k:
            return out
        x = times(x, x)


def mat_id(n: int = N, one=1, zero=0):
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def mat_mul(a, b):
    sa = _sparse_rows(a, len(b))
    if sa is not None:
        sb = _sparse_rows(b, len(b[0]))
        if sb is not None and sb[0] is sa[0]:
            return sa[0](sa[1], sb[1], b)
    k = len(b)
    if any(len(r) != k for r in a):
        raise ValueError("matrix product of mismatched shapes")
    try:
        bt = tuple(zip(*b, strict=True))
    except ValueError:
        raise ValueError("matrix product of mismatched shapes") from None
    return tuple(
        tuple(sum(p, next(p)) for cb in bt for p in (map(mul, ra, cb),)) for ra in a
    )


def _sparse_rows(m, width: int):
    """One pass over m for the fast products: the kernel for its ring and
    the nonzero entries of each row, as (column, x) when every entry is an
    int and as (column, a, b) for a + b w when every entry is an Eisenstein
    with int coordinates.  None for any other entry (a bool, a Fraction, an
    int subclass, a mix of the two rings) or for no entries at all; a row
    that is not width long is a ValueError."""
    ring = type(m[0][0]) if m and m[0] else None
    rows = []
    if ring is int:
        for r in m:
            if len(r) != width:
                raise ValueError("matrix product of mismatched shapes")
            row = []
            for j, x in enumerate(r):
                if type(x) is not int:
                    return None
                if x:
                    row.append((j, x))
            rows.append(row)
        return _int_mul, rows
    if ring is Eisenstein:
        for r in m:
            if len(r) != width:
                raise ValueError("matrix product of mismatched shapes")
            row = []
            for j, x in enumerate(r):
                if type(x) is not Eisenstein:
                    return None
                a, b = x.a, x.b
                if type(a) is not int or type(b) is not int:
                    return None
                if a or b:
                    row.append((j, a, b))
            rows.append(row)
        return _zw_mul, rows
    return None


def _int_mul(ra, rb, b):
    """Product of int matrices a and b given as their _sparse_rows: row i
    is the sum of a_ij times row j of b, over the nonzero a_ij and the
    nonzero entries of that row; a row of a whose one nonzero entry is a 1
    at column j is row j of b."""
    cols = len(b[0])
    out = []
    for r in ra:
        if len(r) == 1 and r[0][1] == 1:
            out.append(tuple(b[r[0][0]]))
            continue
        s = [0] * cols
        for j, x in r:
            for k, y in rb[j]:
                s[k] += x * y
        out.append(tuple(s))
    return tuple(out)


def _zw_mul(ra, rb, b):
    """Product of Z[w] matrices a and b given as their _sparse_rows, as
    _int_mul is on coordinates:
    (a1 + b1 w)(a2 + b2 w) = a1 a2 - b1 b2 + (a1 b2 + a2 b1 - b1 b2) w;
    a row of a whose one nonzero entry is a 1 at column j is row j of b."""
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
                sb[k] += a1 * b2 + a2 * b1 - bb
        out.append(tuple(map(Eisenstein, sa, sb)))
    return tuple(out)


def mat_prod(mats, one):
    """Left-to-right product of mats; one, the identity, for none.

    As in power, no identity enters a product: k matrices cost k - 1.
    """
    rest = iter(mats)
    return reduce(mat_mul, rest, next(rest, one))


def mat_vec(a, v):
    k = len(v)
    if any(len(r) != k for r in a):
        raise ValueError("matrix times vector of mismatched shapes")
    return tuple(sum(p, next(p)) for r in a for p in (map(mul, r, v),))


def _same_shape(a, b):
    if list(map(len, a)) != list(map(len, b)):
        raise ValueError("matrix sum of mismatched shapes")


def mat_add(a, b):
    _same_shape(a, b)
    return tuple(tuple(map(add, ra, rb)) for ra, rb in zip(a, b))


def mat_sub(a, b):
    _same_shape(a, b)
    return tuple(tuple(map(sub, ra, rb)) for ra, rb in zip(a, b))


def mat_neg(a):
    return tuple(tuple(-x for x in r) for r in a)


def mat_scale(a, s):
    return tuple(tuple(x * s for x in r) for r in a)


def mat_transpose(a):
    return tuple(zip(*a))


def mat_conj_transpose(a):
    return tuple(tuple(x.conj() for x in col) for col in zip(*a))


def mat_det2(a):
    return a[0][0] * a[1][1] - a[0][1] * a[1][0]


def mat_inv2(a, det_inv):
    """Inverse of a 2x2 matrix, given the ring inverse of its determinant."""
    return (
        (a[1][1] * det_inv, -a[0][1] * det_inv),
        (-a[1][0] * det_inv, a[0][0] * det_inv),
    )


def det_int(m) -> int:
    """Bareiss fraction-free determinant of an integer matrix."""
    a = [list(r) for r in m]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


# 12 Q^-1 is integral: Q^-1 is U + U/2 + A2(2)^-1, and A2(2) has
# determinant 12.
_GRAM_INV12 = (
    (0, 12, 0, 0, 0, 0),
    (12, 0, 0, 0, 0, 0),
    (0, 0, 0, 6, 0, 0),
    (0, 0, 6, 0, 0, 0),
    (0, 0, 0, 0, -4, -2),
    (0, 0, 0, 0, -2, -4),
)


def _is_6x6(g) -> bool:
    """Whether g has 6 rows of 6 entries.  Each entry must be an int: any
    other is an InputTypeError, so a rational, float or bool matrix is
    refused rather than answered.  The one input step of the isometry
    entry points, all of which test t(g) Q g = Q behind it."""
    for r in g:
        for x in r:
            if type(x) is not int:
                integer(x, "matrix entry")
    return len(g) == N and all(len(r) == N for r in g)


def isometry_inverse(g):
    """g^-1 = Q^-1 t(g) Q for an isometry g; any other matrix is a ValueError.

    t(g) Q g = Q is tested on the way, so the division by 12 is exact.
    """
    if not _is_6x6(g):
        raise ValueError("inverse of a non-isometry")
    gtq = mat_mul(mat_transpose(g), GRAM)
    if mat_mul(gtq, g) != GRAM:
        raise ValueError("inverse of a non-isometry")
    return tuple(tuple(x // 12 for x in r) for r in mat_mul(_GRAM_INV12, gtq))


def mat_pow(m, k: int):
    """m**k; a negative k needs m to be an isometry of M."""
    return power(m, k, mat_id(len(m)), mat_mul, isometry_inverse)


# GRAM's nonzero entries on and above the diagonal, read once: (i, q_ii)
# and (i, j, q_ij) with i < j.
_FORM_DIAGONAL = tuple((i, GRAM[i][i]) for i in range(N) if GRAM[i][i])
_FORM_PAIRS = tuple((i, j, GRAM[i][j]) for i in range(N) for j in range(i + 1, N) if GRAM[i][j])


def qpair(x, y):
    """The bilinear form t(x) Q y, for 6-vectors over any ring, in one pass
    over the form: the sum of q_ii x_i y_i and of q_ij (x_i y_j + x_j y_i)."""
    if len(x) != N or len(y) != N:
        raise ValueError(f"qpair: expected two vectors of length {N}, got {len(x)} and {len(y)}")
    terms = [x[i] * y[i] * q for i, q in _FORM_DIAGONAL]
    terms += [(x[i] * y[j] + x[j] * y[i]) * q for i, j, q in _FORM_PAIRS]
    return sum(terms[1:], terms[0])


def is_orthogonal(g) -> bool:
    """Whether g is an isometry of M; a matrix of another shape is not."""
    return _is_6x6(g) and mat_mul(mat_transpose(g), mat_mul(GRAM, g)) == GRAM


# -- named isometries ------------------------------------------------------


def _embed_tail(rows4):
    """I2 + (4x4 block on coordinates 3..6)."""
    out = [[0] * 6 for _ in range(6)]
    out[0][0] = out[1][1] = 1
    for i in range(4):
        for j in range(4):
            out[i + 2][j + 2] = rows4[i][j]
    return tuple(tuple(r) for r in out)


def _swap_conj(m, i: int, j: int):
    """P m P for the permutation matrix P that swaps coordinates i and j:
    rows i and j trade places, then columns i and j, with no product."""
    perm = list(range(len(m)))
    perm[i], perm[j] = j, i
    return tuple(tuple(m[r][c] for c in perm) for r in perm)


def _diag(*entries):
    return tuple(tuple(entries[i] if i == j else 0 for j in range(6)) for i in range(6))


G0 = (
    (0, 1, 0, 0, 0, 0),
    (1, 0, 0, 0, 0, 0),
    (0, 0, 1, 0, 0, 0),
    (0, 0, 0, 1, 0, 0),
    (0, 0, 0, 0, 1, 0),
    (0, 0, 0, 0, 0, 1),
)

G1 = _embed_tail(((1, 0, 0, 0), (1, 1, 2, -1), (1, 0, 1, 0), (0, 0, 0, 1)))
G2 = _embed_tail(((1, 0, 0, 0), (1, 1, -1, 2), (0, 0, 1, 0), (1, 0, 0, 1)))
U0 = _embed_tail(((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))
U1 = _embed_tail(((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, -1), (0, 0, 0, -1)))
U2 = _embed_tail(((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, -1), (0, 0, 1, -1)))
I42 = _diag(1, 1, 1, 1, -1, -1)
MI42 = _diag(-1, -1, -1, -1, 1, 1)
MINUS_I6 = _diag(-1, -1, -1, -1, -1, -1)


def translation_h(m1: int, m2: int, m3: int, m4: int):
    """Unipotent isometry fixing e1 with (m1, m2, m3, m4) in column one.

    Row two carries the tail -t(a) Q' and the corner -t(a) Q' a / 2, which is
    what t(g) Q g = Q forces.  These form a free abelian group of rank four:
    h(a) h(b) = h(a + b).  Only +, - and * of the parameters, so every entry
    is a polynomial of degree at most two in them.
    """
    for m in (m1, m2, m3, m4):
        integer(m, "translation parameter")
    a21 = -2 * m1 * m2 + 2 * m3 * m3 - 2 * m3 * m4 + 2 * m4 * m4
    rows = [
        [1, 0, 0, 0, 0, 0],
        [a21, 1, -2 * m2, -2 * m1, 4 * m3 - 2 * m4, -2 * m3 + 4 * m4],
        [m1, 0, 1, 0, 0, 0],
        [m2, 0, 0, 1, 0, 0],
        [m3, 0, 0, 0, 1, 0],
        [m4, 0, 0, 0, 0, 1],
    ]
    return tuple(tuple(r) for r in rows)


def residual_m(u: int, v: int):
    """The commuting family G1^u G2^v; closed form valid for all integers."""
    return _embed_tail(
        (
            (1, 0, 0, 0),
            (u * u - u * v + v * v, 1, 2 * u - v, 2 * v - u),
            (u, 0, 1, 0),
            (v, 0, 0, 1),
        )
    )


H_GENS = (
    translation_h(1, 0, 0, 0),
    translation_h(0, 1, 0, 0),
    translation_h(0, 0, 1, 0),
    translation_h(0, 0, 0, 1),
)
# G0 swaps coordinates one and two, U0 coordinates three and four
HP_GENS = tuple(_swap_conj(h, 0, 1) for h in H_GENS)

U0G1U0 = _swap_conj(G1, 2, 3)
U0U1 = mat_mul(U0, U1)
W0 = mat_mul(G0, mat_mul(U0, I42))
W0_INV = mat_mul(I42, mat_mul(U0, G0))
G0I42 = mat_mul(G0, I42)


# -- orientation ------------------------------------------------------------
#
# The domain cut out by t(z) Q z = 0, t(z) Q conj(z) > 0 has two connected
# components.  We track them through the base point with chart coordinates
# (2i, 2i, 0, 0), i.e. the projective point (1 : 8 : 2i : 2i : 0 : 0); its
# image under g is w = x + i y with integer vectors x, y below.


def orientation(g) -> str:
    if not is_orthogonal(g):
        raise ValueError("orientation of a non-isometry")
    return _orientation(g)


def _orientation(g) -> str:
    """orientation of a matrix already known to be an isometry.

    The component is the sign of Im(w3 / w1) = (y3 x1 - x3 y1) / |w1|^2.
    The image never leaves the chart: w1 = t(e2) Q w = b(g^-1 e2, w0) for
    the base point w0, and g^-1 e2 is a nonzero isotropic vector.  Re w0 and
    Im w0 span a positive plane, whose orthogonal complement is negative
    definite in signature (2, 4) and so holds no nonzero isotropic vector;
    hence w1 != 0 for every isometry.
    """
    x1, x3 = g[0][0] + 8 * g[0][1], g[2][0] + 8 * g[2][1]
    y1, y3 = 2 * (g[0][2] + g[0][3]), 2 * (g[2][2] + g[2][3])
    s = y3 * x1 - x3 * y1
    require(s != 0, "isometry image landed on the component boundary")
    return "plus" if s > 0 else "minus"


def block_parity(g) -> str:
    """Mod-2 shape of the upper-left 2x2 block of an isometry.

    For elements of O(M) that block is congruent to the identity or to the
    swap; anything else contradicts t(g) Q g = Q mod 2.
    """
    if not is_orthogonal(g):
        raise ValueError("block parity of a non-isometry")
    return _block_parity(g)


def _block_parity(g) -> str:
    """block_parity of a matrix already known to be an isometry."""
    blk = ((g[0][0] & 1, g[0][1] & 1), (g[1][0] & 1, g[1][1] & 1))
    if blk == ((1, 0), (0, 1)):
        return "diagonal"
    if blk == ((0, 1), (1, 0)):
        return "antidiagonal"
    require(False, "upper-left block is neither identity nor swap mod 2")


# -- discriminant group -----------------------------------------------------
#
# M*/M has order 48.  A coset vector x has denominators dividing
# (1, 1, 2, 2, 6, 6), and the element is stored as the integer vector 6x
# mod 6, entries in range(6).  For r = 6x the vector Q r lies in 6Z^6 and Q
# is even, so t(r) Q r is well defined mod 72 and t(r) Q s mod 36: q and b
# stay integers, divided by 36 only by disc_q and disc_b.

DiscElt = tuple


def disc_add(x: DiscElt, y: DiscElt) -> DiscElt:
    return tuple((a + b) % 6 for a, b in zip(x, y))


def disc_scale(k: int, x: DiscElt) -> DiscElt:
    return tuple(k * a % 6 for a in x)


def disc_order(x: DiscElt) -> int:
    for k in range(1, 7):
        if not any(k * a % 6 for a in x):
            return k
    raise AssertionError("unreachable: element order exceeds exponent 6")


def _q72(x: DiscElt) -> int:
    return qpair(x, x) % 72


def _b36(x: DiscElt, y: DiscElt) -> int:
    return qpair(x, y) % 36


def disc_q(x: DiscElt) -> Fraction:
    """Torsion quadratic form t(x) Q x mod 2, reduced into [0, 2)."""
    return Fraction(_q72(x), 36)


def disc_b(x: DiscElt, y: DiscElt) -> Fraction:
    """Torsion bilinear form t(x) Q y mod 1, reduced into [0, 1)."""
    return Fraction(_b36(x, y), 36)


def disc_act(g, x: DiscElt) -> DiscElt:
    return tuple(v % 6 for v in mat_vec(g, x))


D1: DiscElt = (0, 0, 3, 0, 0, 0)
D2: DiscElt = (0, 0, 0, 3, 0, 0)
D3: DiscElt = (0, 0, 0, 0, 1, 2)
D4: DiscElt = (0, 0, 0, 0, 2, 1)
DISC_GENS = (D1, D2, D3, D4)


def _combine(word, images) -> DiscElt:
    """The sum of word[i] images[i]."""
    return tuple(sum(map(mul, word, col)) % 6 for col in zip(*images))


# Each element with one word (a, b, c, d) for a D1 + b D2 + c D3 + d D4; the
# 144 words with a, b < 2 and c, d < 6 cover the group three times.
_WORDS = {
    _combine(word, DISC_GENS): word for word in product(range(2), range(2), range(6), range(6))
}


def disc_group() -> list:
    """All 48 elements, sorted; generated by D1, D2, D3, D4."""
    require(len(_WORDS) == 48, "discriminant group does not have order 48")
    return sorted(_WORDS)


def disc_action(g) -> tuple:
    """Images of the four generators; the action is checked to preserve q."""
    if not is_orthogonal(g):
        raise ValueError("discriminant action of a non-isometry")
    for x in _WORDS:
        require(_q72(disc_act(g, x)) == _q72(x), "isometry broke the torsion form")
    return tuple(disc_act(g, d) for d in DISC_GENS)


def two_torsion() -> list:
    return [x for x in disc_group() if disc_order(x) <= 2 and any(x)]


# The five isotropic classes of order two; every isometry permutes them.
V_CLASSES: tuple = (
    D1,
    D2,
    disc_add(disc_add(D1, D2), disc_add(D3, D4)),
    disc_add(disc_add(D1, D2), disc_scale(3, D3)),
    disc_add(disc_add(D1, D2), disc_scale(3, D4)),
)


def to_s5(g) -> tuple:
    """Permutation induced on V_CLASSES: result[i] = j means g(V_i) = V_j."""
    if not is_orthogonal(g):
        raise ValueError("permutation action of a non-isometry")
    images = []
    for v in V_CLASSES:
        w = disc_act(g, v)
        require(w in V_CLASSES, "isotropic two-torsion classes not permuted")
        images.append(V_CLASSES.index(w))
    require(sorted(images) == [0, 1, 2, 3, 4], "induced map is not a permutation")
    return tuple(images)


def is_in_k3(g) -> bool:
    """Kernel of the discriminant action, by column congruences."""
    _check_oplus(g)
    return _in_k3(g)


def _in_k3(g) -> bool:
    """is_in_k3 of a matrix already known to be in O+."""
    cols = mat_transpose(g)
    if any((cols[2][i] - (1 if i == 2 else 0)) % 2 for i in range(N)):
        return False
    if any((cols[3][i] - (1 if i == 3 else 0)) % 2 for i in range(N)):
        return False
    for combo in (1, 2):
        # columns c5 + 2 c6 and 2 c5 + c6 against e5 + 2 e6 and 2 e5 + e6
        vec = tuple(combo * g[i][4] + (3 - combo) * g[i][5] for i in range(N))
        target = tuple(
            combo * (1 if i == 4 else 0) + (3 - combo) * (1 if i == 5 else 0) for i in range(N)
        )
        if any((a - b) % 6 for a, b in zip(vec, target)):
            return False
    return True


def is_in_enr(g) -> bool:
    """Pointwise stabilizer of the two-torsion: columns 3..6 freeze mod 2."""
    _check_oplus(g)
    return _in_enr(g)


def _in_enr(g) -> bool:
    """is_in_enr of a matrix already known to be in O+."""
    return not any(
        (g[i][j] - (1 if i == j else 0)) % 2 for j in range(2, 6) for i in range(N)
    )


def _check_oplus(g) -> None:
    if not is_orthogonal(g):
        raise ValueError("not an isometry")
    if _orientation(g) != "plus":
        raise ValueError("isometry swaps the two components")


# -- brute-force orthogonal group of the discriminant form ------------------
#
# The certificates run on a numbered table: an element is its index in the
# sorted disc_group() list, a map of M*/M is the tuple of its 48 image
# indices, and a sum is a lookup in a 48x48 table.  The calls that need the
# table build it from disc_add, so importing the module builds nothing.


def _numbering():
    """The sorted group, and the index of each element in it; anything but
    48 distinct classes in sorted order fails the stage."""
    group = disc_group()
    index = {x: i for i, x in enumerate(group)}
    require(
        len(group) == len(index) == 48 and group == sorted(index),
        f"discriminant numbering: expected 48 distinct classes in sorted order, "
        f"got {len(group)} entries with {len(index)} distinct",
    )
    return group, index


def _indices(elts, index, stage: str) -> tuple:
    """The index of each of elts; an element outside M*/M fails the stage."""
    out = tuple(map(index.get, elts))
    require(None not in out, f"{stage}: an element left the 48 classes")
    return out


def _disc_perm(g, index) -> tuple:
    """The permutation of the numbered group induced by the matrix g."""
    return _indices((disc_act(g, x) for x in index), index, "discriminant permutation")


def enumerate_disc_orthogonal() -> list:
    """All automorphisms of (M*/M, q), each as a dict elt -> image.

    Candidates are images of the four generators filtered by order, q value
    and pairwise b values, looked up in one table over the 25 candidates.
    Each surviving tuple extends along one fixed word per element, summed
    in the 48x48 addition table, and the extension is kept when it is
    additive on every generator (hence a homomorphism), bijective and
    q-preserving on all 48 elements.  Only the kept maps are turned back
    into 6-tuples.
    """
    group, index = _numbering()
    table = [_indices((disc_add(x, y) for y in group), index, "addition table") for x in group]
    qs = [_q72(x) for x in group]
    orders = [disc_order(x) for x in group]
    gens = [index[d] for d in DISC_GENS]
    c_top = [i for i in range(48) if orders[i] == 2 and qs[i] == qs[gens[0]]]
    c_six = [i for i in range(48) if orders[i] == 6 and qs[i] == qs[gens[2]]]
    b36 = {(i, j): _b36(group[i], group[j]) for i in c_top + c_six for j in c_top + c_six}
    b36_gens = {(i, k): _b36(DISC_GENS[i], DISC_GENS[k]) for k in range(4) for i in range(k)}

    def fits(ys):
        # the newest image pairs with the earlier ones as the generators do
        k = len(ys) - 1
        return all(b36[ys[i], ys[k]] == b36_gens[i, k] for i in range(k))

    def multiples(y):
        # k y for k in range(6)
        ks = [index[(0,) * 6]]
        for _ in range(5):
            ks.append(table[ks[-1]][y])
        return ks

    tuples = [()]
    for pool in (c_top, c_top, c_six, c_six):
        tuples = [ys + (y,) for ys in tuples for y in pool if fits(ys + (y,))]
    words = [_WORDS[x] for x in group]
    # x + D1, ..., x + D4 for every x
    shifts = [[row[g] for row in table] for g in gens]
    auts = []
    for ys in tuples:
        m1, m2, m3, m4 = map(multiples, ys)
        image = [table[table[table[m1[a]][m2[b]]][m3[c]]][m4[d]] for a, b, c, d in words]
        if any([image[s] for s in xs] != [table[i][y] for i in image] for xs, y in zip(shifts, ys)):
            continue
        if len(set(image)) != 48:
            continue
        if [qs[y] for y in image] != qs:
            continue
        auts.append({x: group[image[index[x]]] for x in _WORDS})
    return auts


# -- orthogonal complements --------------------------------------------------


def orthogonal_complement(v):
    """Integer basis of v^perp in M and its Gram matrix.

    v must be nonzero and primitive, with six int coordinates.  The kernel
    of the functional x -> t(v) Q x is computed by unimodular column
    operations, so the basis spans the full (saturated) complement, of
    rank five.
    """
    v = tuple(integer(x, f"v[{i}]") for i, x in enumerate(v))
    if len(v) != N:
        raise ValueError(f"v: expected six coordinates, got {len(v)}")
    if not any(v):
        raise ValueError("complement of the zero vector")
    if gcd(*v) != 1:
        raise ValueError("vector is not primitive")
    w = list(mat_vec(GRAM, v))
    cols = [[1 if i == j else 0 for i in range(N)] for j in range(N)]
    while True:
        nz = [j for j in range(N) if w[j] != 0]
        require(nz, "functional of a nonzero vector vanished")
        if len(nz) == 1:
            break
        j0 = min(nz, key=lambda j: abs(w[j]))
        for j in nz:
            if j == j0:
                continue
            qq = w[j] // w[j0]
            if qq:
                w[j] -= qq * w[j0]
                cols[j] = [a - qq * b for a, b in zip(cols[j], cols[j0])]
    j0 = next(j for j in range(N) if w[j] != 0)
    basis = tuple(tuple(cols[j]) for j in range(N) if j != j0)
    require(len(basis) == 5, "complement rank is not five")
    for b in basis:
        require(qpair(v, b) == 0, "complement basis vector not orthogonal")
    gram = tuple(tuple(qpair(x, y) for y in basis) for x in basis)
    return basis, gram
