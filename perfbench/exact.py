"""The benchmark's own exact arithmetic, used to check the program's outputs.

Nothing here imports hessk3: every check computes its expected value apart
from the program, from the definitions (the Gram matrix of M, the
Eisenstein ring, the field Q(sqrt3, i), the closed invariant forms), and
compares.  Matrices are tuples of row tuples; Eisenstein integers a + b*w
are pairs (a, b); field elements a + b*sqrt3 + c*i + d*sqrt3*i are
4-tuples of Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

# -- the lattice M = U + U(2) + A2(2) ---------------------------------------

GRAM = (
    (0, 1, 0, 0, 0, 0),
    (1, 0, 0, 0, 0, 0),
    (0, 0, 0, 2, 0, 0),
    (0, 0, 2, 0, 0, 0),
    (0, 0, 0, 0, -4, 2),
    (0, 0, 0, 0, 2, -4),
)

_F = Fraction
# Generators of M*/M whose images `orth disc-action` reports, and the five
# isotropic two-torsion classes in the order `orth to-s5` indexes them.
DISC_GENS = (
    (0, 0, _F(1, 2), 0, 0, 0),
    (0, 0, 0, _F(1, 2), 0, 0),
    (0, 0, 0, 0, _F(1, 6), _F(1, 3)),
    (0, 0, 0, 0, _F(1, 3), _F(1, 6)),
)


def disc_reduce(v):
    return tuple(_F(x) % 1 for x in v)


def _disc_comb(coeffs):
    return disc_reduce(sum(c * g[i] for c, g in zip(coeffs, DISC_GENS)) for i in range(6))


V_CLASSES = tuple(
    _disc_comb(c) for c in ((1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 1, 1), (1, 1, 3, 0), (1, 1, 0, 3))
)
DISC_GROUP = frozenset(
    _disc_comb((a, b, c, d)) for a, b, c, d in product(range(2), range(2), range(6), range(6))
)
TWO_TORSION = tuple(x for x in DISC_GROUP if any(x) and not any((2 * v) % 1 for v in x))


def mat_mul(a, b):
    bt = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def mat_vec(a, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def transpose(a):
    return tuple(zip(*a))


def identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def is_isometry(g) -> bool:
    """t(g) Q g = Q."""
    return mat_mul(transpose(g), mat_mul(GRAM, g)) == GRAM


def det(m) -> Fraction:
    """Determinant by Fraction Gaussian elimination."""
    a = [[_F(x) for x in row] for row in m]
    n = len(a)
    out = _F(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            return _F(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            out = -out
        out *= a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] / a[col][col]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return out


def inverse_isometry(g):
    """g^-1 = Q^-1 t(g) Q for an isometry; Q^-1 is block-wise explicit."""
    q_inv = (
        (0, 1, 0, 0, 0, 0),
        (1, 0, 0, 0, 0, 0),
        (0, 0, 0, _F(1, 2), 0, 0),
        (0, 0, _F(1, 2), 0, 0, 0),
        (0, 0, 0, 0, _F(-1, 3), _F(-1, 6)),
        (0, 0, 0, 0, _F(-1, 6), _F(-1, 3)),
    )
    inv = mat_mul(q_inv, mat_mul(transpose(g), GRAM))
    return tuple(tuple(int(x) for x in row) for row in inv)


def mat_pow(m, k: int):
    if k < 0:
        m, k = inverse_isometry(m), -k
    out = identity(len(m))
    for _ in range(k):
        out = mat_mul(out, m)
    return out


def disc_image(g, x):
    return disc_reduce(mat_vec(g, x))


def acts_trivially(g, elements) -> bool:
    return all(disc_image(g, x) == x for x in elements)


def s5_permutation(g):
    return tuple(V_CLASSES.index(disc_image(g, v)) for v in V_CLASSES)


def block_parity(g) -> str:
    blk = ((g[0][0] % 2, g[0][1] % 2), (g[1][0] % 2, g[1][1] % 2))
    return {((1, 0), (0, 1)): "diagonal", ((0, 1), (1, 0)): "antidiagonal"}.get(blk, "neither")


# -- Eisenstein integers and the Hermitian group ---------------------------


def e_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def e_mul(x, y):
    # w^2 = -1 - w
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0] - x[1] * y[1])


def e_conj(x):
    return (x[0] - x[1], -x[1])


def e_neg(x):
    return (-x[0], -x[1])


E0, E1 = (0, 0), (1, 0)


def emat_mul(a, b):
    n = len(b)
    out = []
    for row in a:
        new = []
        for j in range(len(b[0])):
            s0 = s1 = 0
            for k in range(n):
                x, y = row[k], b[k][j]
                if (x[0] or x[1]) and (y[0] or y[1]):
                    s0 += x[0] * y[0] - x[1] * y[1]
                    s1 += x[0] * y[1] + x[1] * y[0] - x[1] * y[1]
            new.append((s0, s1))
        out.append(tuple(new))
    return tuple(out)


def emat_conjt(a):
    return tuple(tuple(e_conj(a[j][i]) for j in range(len(a))) for i in range(len(a[0])))


def emat_id(n):
    return tuple(tuple(E1 if i == j else E0 for j in range(n)) for i in range(n))


def _blocks_to_4x4(a, b, c, d):
    return tuple(tuple(a[i]) + tuple(b[i]) for i in range(2)) + tuple(
        tuple(c[i]) + tuple(d[i]) for i in range(2)
    )


def _herm_b(m, scale=1):
    m1, m2, m3, m4 = (scale * x for x in m)
    off = (m3, m4)
    return (((m1, 0), off), (e_conj(off), (m2, 0)))


_Z2 = ((E0, E0), (E0, E0))
_I2 = emat_id(2)
J = _blocks_to_4x4(_Z2, _I2, (((-1, 0), E0), (E0, (-1, 0))), _Z2)


def token_matrix(tok):
    """The 4x4 matrix of one generator token ("gA" | "gBu" | "gBl", payload)."""
    kind, payload = tok
    if kind == "gA":
        a = payload
        # (A*)^-1 = adj(A*) / conj(det A), and 1 / conj(u) = u for a unit u
        d = e_add(e_mul(a[0][0], a[1][1]), e_neg(e_mul(a[0][1], a[1][0])))
        ast = emat_conjt(a)
        adj = ((ast[1][1], e_neg(ast[0][1])), (e_neg(ast[1][0]), ast[0][0]))
        dinv = tuple(tuple(e_mul(x, d) for x in row) for row in adj)
        return _blocks_to_4x4(a, _Z2, _Z2, dinv)
    if kind == "gBu":
        return _blocks_to_4x4(_I2, _herm_b(payload), _Z2, _I2)
    if kind == "gBl":
        return _blocks_to_4x4(_I2, _Z2, _herm_b(payload, 2), _I2)
    raise ValueError(f"unknown token kind {kind!r}")


def word_product(word):
    out = emat_id(4)
    for tok in word:
        out = emat_mul(out, token_matrix(tok))
    return out


UNITS = ((1, 0), (-1, 0), (0, 1), (0, -1), (-1, -1), (1, 1))  # +-1, +-w, +-w^2


def equal_mod_units(a, b) -> bool:
    """a = u b for a unit u of Z[w]."""
    return any(a == tuple(tuple(e_mul(u, x) for x in row) for row in b) for u in UNITS)


def is_j_unitary(h) -> bool:
    """h* J h = J."""
    return emat_mul(emat_conjt(h), emat_mul(J, h)) == J


def j_inverse(h):
    """h^-1 = J^-1 h* J = -J h* J for a J-unitary h."""
    m = emat_mul(J, emat_mul(emat_conjt(h), J))
    return tuple(tuple(e_neg(x) for x in row) for row in m)


def _even(x) -> bool:
    return x[0] % 2 == 0 and x[1] % 2 == 0


def _blocks(h):
    a = ((h[0][0], h[0][1]), (h[1][0], h[1][1]))
    b = ((h[0][2], h[0][3]), (h[1][2], h[1][3]))
    c = ((h[2][0], h[2][1]), (h[3][0], h[3][1]))
    return a, b, c


def level(h) -> str:
    """full / gamma0 (C even) / gamma1 (also A = I mod 2) / none."""
    if not is_j_unitary(h):
        return "none"
    a, _, c = _blocks(h)
    if not all(_even(x) for row in c for x in row):
        return "full"
    a_minus_i = ((e_add(a[0][0], (-1, 0)), a[0][1]), (a[1][0], e_add(a[1][1], (-1, 0))))
    return "gamma1" if all(_even(x) for row in a_minus_i for x in row) else "gamma0"


def mod2(h):
    a, _, _ = _blocks(h)
    return [[[x[0] % 2, x[1] % 2] for x in row] for row in a]


_W, _W2 = (0, 1), (-1, -1)
B_COSETS = (
    ((E1, E0), (E0, E0)),
    ((E0, E0), (E0, E1)),
    ((E0, _W), (_W2, E0)),
    ((E0, _W2), (_W, E0)),
)


def coset(h):
    """Half-shift translate (1..4) that brings h into gamma0: B - A B_i even."""
    a, b, _ = _blocks(h)
    hits = []
    for i, bi in enumerate(B_COSETS, start=1):
        ab = emat_mul(a, bi)
        if all(_even(e_add(b[r][s], e_neg(ab[r][s]))) for r in range(2) for s in range(2)):
            hits.append(i)
    return hits[0] if len(hits) == 1 else ("uncovered" if not hits else None)


# -- the field Q(sqrt3, i) ----------------------------------------------------

F0 = (_F(0),) * 4
F1 = (_F(1), _F(0), _F(0), _F(0))
OMEGA = (_F(-1, 2), _F(0), _F(0), _F(1, 2))
OMEGA2 = (_F(-1, 2), _F(0), _F(0), _F(-1, 2))


def f_add(x, y):
    return tuple(p + q for p, q in zip(x, y))


def f_sub(x, y):
    return tuple(p - q for p, q in zip(x, y))


def f_scale(x, s):
    return tuple(p * s for p in x)


def f_mul(x, y):
    a1, b1, c1, d1 = x
    a2, b2, c2, d2 = y
    return (
        a1 * a2 + 3 * b1 * b2 - c1 * c2 - 3 * d1 * d2,
        a1 * b2 + b1 * a2 - c1 * d2 - d1 * c2,
        a1 * c2 + c1 * a2 + 3 * (b1 * d2 + d1 * b2),
        a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2,
    )


def psi(z):
    """((z3, z5 + w z6), (z5 + w^2 z6, z4)) of a chart point z."""
    return (
        (z[2], f_add(z[4], f_mul(OMEGA, z[5]))),
        (f_add(z[4], f_mul(OMEGA2, z[5])), z[3]),
    )


def chart_flags(z):
    """Divisor conditions read off the chart: z2 = 1, z6 = 2 z5, z6 = 0, 2 z6 = 1."""
    return {
        "node": z[1] == F1,
        "eckardt": z[5] == f_scale(z[4], 2),
        "ns": z[5] == F0,
        "km": f_scale(z[5], 2) == F1,
    }


def tau_flags(tau):
    """Divisor conditions on the half-space side: 2 det tau = -1,
    tau12 = -tau21, tau12 = tau21, tau12 - w/2 = tau21 - w^2/2."""
    d = f_sub(f_mul(tau[0][0], tau[1][1]), f_mul(tau[0][1], tau[1][0]))
    half = _F(1, 2)
    return {
        "node": f_scale(d, 2) == f_scale(F1, -1),
        "eckardt": f_add(tau[0][1], tau[1][0]) == F0,
        "ns": tau[0][1] == tau[1][0],
        "km": f_sub(tau[0][1], f_scale(OMEGA, half)) == f_sub(tau[1][0], f_scale(OMEGA2, half)),
    }


# -- invariants of the Sylvester pentahedral cubic ----------------------------


def elementary_symmetric(lam):
    e = [_F(1), _F(0), _F(0), _F(0), _F(0), _F(0)]
    for x in lam:
        for k in range(5, 0, -1):
            e[k] += e[k - 1] * x
    return tuple(e[1:])


def invariants(lam):
    """I8..I100, delta_sing and delta_km from s1..s5 by the closed forms."""
    lam = tuple(_F(x) for x in lam)
    s1, s2, s3, s4, s5 = elementary_symmetric(lam)
    vandermonde = _F(1)
    for i in range(5):
        for j in range(i + 1, 5):
            vandermonde *= lam[i] - lam[j]
    i8 = s4 * s4 - 4 * s3 * s5
    i16 = s1 * s5**3
    i24 = s4 * s5**4
    i32 = s2 * s5**6
    out = {
        "I8": i8,
        "I16": i16,
        "I24": i24,
        "I32": i32,
        "I40": s5**8,
        "I100": vandermonde * s5**18,
        "delta_sing": (i8 * i8 - 64 * i16) ** 2 - 16384 * i32 - 2048 * i8 * i24,
        "sylvester_degenerate": s5 == 0,
        "eckardt": vandermonde == 0,
        "kummer": i8 * i24 + 8 * i32 == 0,
    }
    out["singular"] = out["delta_sing"] == 0
    if s5 == 0:
        out["delta_km"] = None
    else:
        # in mu = 1/lam: sum mu^3 - sum_{i != j} mu_i^2 mu_j + 2 sum_{i<j<k} mu_i mu_j mu_k
        m1, m2, m3, _, _ = elementary_symmetric(tuple(1 / x for x in lam))
        p3 = m1**3 - 3 * m1 * m2 + 3 * m3
        mixed = m1 * (m1 * m1 - 2 * m2) - p3
        out["delta_km"] = p3 - mixed + 2 * m3
    return out
