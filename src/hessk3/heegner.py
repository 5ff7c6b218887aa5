"""Four special divisors on the period domain, three ways each.

Every divisor has a half-space description (a linear or determinant
condition on tau), a chart description (one coordinate condition on z),
and a lattice description (orthogonality to a fixed primitive vector):

    node     2 det tau = -1      z2 = 1        (e1 - e2)-perpendicular
    eckardt  tau12 = -tau21      z6 = 2 z5     e5-perpendicular
    ns       tau12 = tau21       z6 = 0        (e5 + 2 e6)-perpendicular
    km       tau - B3/2 symm     2 z6 = 1      (3 e2 + e5 + 2 e6)-perp

perp_equivalence checks the three views agree on a given point, exactly.
For each perpendicular vector the orthogonal complement in the lattice is
pinned down by a frozen basis and Gram matrix, and complement_gram_verify
certifies the basis spans the full kernel (index one via determinants).
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .domain import Point, chart_point, h2_contains, psi
from .errors import require
from .hermitian import B_COSETS
from .lattice import GRAM, det_int, mat_det2, mat_vec, orthogonal_complement, qpair
from .tower import C_OMEGA, C_OMEGA2, C_ONE, Mat2C, from_eisenstein

__all__ = [
    "HeegnerFlags",
    "B_SHIFTS",
    "heegner_membership",
    "PERP_VECTORS",
    "chart_flags",
    "perp_flags",
    "perp_equivalence",
    "COMPLEMENT_CASES",
    "complement_gram_verify",
    "orbit_relation_check",
]


class HeegnerFlags(NamedTuple):
    node: bool
    eckardt: bool
    ns: bool
    km: bool


_HALF = Fraction(1, 2)
# the km locus is tau12 - w / 2 = tau21 - w^2 / 2
_HALF_OMEGA = C_OMEGA * _HALF
_HALF_OMEGA2 = C_OMEGA2 * _HALF

# Half-shift numerators: tau + B/2 stays in the group's orbit lattice.
# They are the half-shift cosets of the Hermitian group, read in the field.
B_SHIFTS: tuple[Mat2C, ...] = tuple(
    tuple(tuple(from_eisenstein(x) for x in row) for row in b) for b in B_COSETS
)


def heegner_membership(tau: Mat2C) -> HeegnerFlags:
    if not h2_contains(tau):
        raise ValueError("point is not in the half-space")
    node = (mat_det2(tau) * 2 + C_ONE).is_zero()
    eckardt = (tau[0][1] + tau[1][0]).is_zero()
    ns = (tau[0][1] - tau[1][0]).is_zero()
    km = (tau[0][1] - _HALF_OMEGA - (tau[1][0] - _HALF_OMEGA2)).is_zero()
    return HeegnerFlags(node=node, eckardt=eckardt, ns=ns, km=km)


def chart_flags(z: Point) -> HeegnerFlags:
    z = chart_point(z)
    return HeegnerFlags(
        node=(z[1] - C_ONE).is_zero(),
        eckardt=(z[5] - z[4] * 2).is_zero(),
        ns=z[5].is_zero(),
        km=(z[5] * 2 - C_ONE).is_zero(),
    )


def perp_flags(z: Point) -> HeegnerFlags:
    """Whether z is perpendicular to each of PERP_VECTORS.

    For an integer vector v, t(z) Q v is the sum of z_i (Q v)_i over the
    nonzero entries of the integer vector Q v, one field-by-int product
    each, where qpair(z, v) takes thirteen field products on mostly zero
    coordinates; a v with Q v = 0 pairs to zero.
    """
    z = chart_point(z)
    flags = {}
    for name, v in PERP_VECTORS.items():
        terms = [x * q for x, q in zip(z, mat_vec(GRAM, v)) if q]
        flags[name] = not terms or sum(terms[1:], terms[0]).is_zero()
    return HeegnerFlags(**flags)


def perp_equivalence(z: Point) -> HeegnerFlags:
    """All three descriptions of each divisor, checked to agree at z."""
    via_chart = chart_flags(z)
    via_perp = perp_flags(z)
    via_tau = heegner_membership(psi(z))
    require(via_chart == via_perp, "chart and perpendicularity disagree")
    require(via_chart == via_tau, "chart and half-space disagree")
    return via_chart


# Frozen complement data: primitive vector, basis rows, Gram matrix.
COMPLEMENT_CASES = {
    "node": (
        (1, -1, 0, 0, 0, 0),
        (
            (1, 1, 1, 0, 0, 0),
            (3, 3, 0, -3, 1, 2),
            (1, 1, 1, -1, 0, 0),
            (-1, -1, 0, 1, 0, -1),
            (-1, -1, 0, 1, -1, -1),
        ),
        (
            (2, 0, 0, 0, 0),
            (0, 6, 0, 0, 0),
            (0, 0, -2, 0, 0),
            (0, 0, 0, -2, 0),
            (0, 0, 0, 0, -2),
        ),
    ),
    "eckardt": (
        (0, 0, 0, 0, 1, 0),
        (
            (1, 0, 0, 0, 0, 0),
            (0, 1, 0, 0, 0, 0),
            (0, 0, 1, 0, 0, 0),
            (0, 0, 0, 1, 0, 0),
            (0, 0, 0, 0, 1, 2),
        ),
        (
            (0, 1, 0, 0, 0),
            (1, 0, 0, 0, 0),
            (0, 0, 0, 2, 0),
            (0, 0, 2, 0, 0),
            (0, 0, 0, 0, -12),
        ),
    ),
    "ns": (
        (0, 0, 0, 0, 1, 2),
        (
            (1, 0, 0, 0, 0, 0),
            (0, 1, 0, 0, 0, 0),
            (0, 0, 1, 0, 0, 0),
            (0, 0, 0, 1, 0, 0),
            (0, 0, 0, 0, 1, 0),
        ),
        (
            (0, 1, 0, 0, 0),
            (1, 0, 0, 0, 0),
            (0, 0, 0, 2, 0),
            (0, 0, 2, 0, 0),
            (0, 0, 0, 0, -4),
        ),
    ),
    "km": (
        (0, 3, 0, 0, 1, 2),
        (
            (0, 1, 0, 0, 0, 0),
            (2, 1, 0, 0, 1, 1),
            (0, 0, 1, 0, 0, 0),
            (0, 0, 0, 1, 0, 0),
            (0, 1, 0, 0, 1, 0),
        ),
        (
            (0, 2, 0, 0, 0),
            (2, 0, 0, 0, 0),
            (0, 0, 0, 2, 0),
            (0, 0, 2, 0, 0),
            (0, 0, 0, 0, -4),
        ),
    ),
}


# The primitive vectors of the frozen complements, the ones perp_flags tests.
PERP_VECTORS = {name: v for name, (v, _, _) in COMPLEMENT_CASES.items()}


def complement_gram_verify(name: str):
    """Check the frozen basis is orthogonal to v, has the frozen Gram, and
    spans the whole complement (equal determinants with the computed
    kernel basis)."""
    if name not in COMPLEMENT_CASES:
        raise ValueError(f"unknown divisor {name!r}")
    v, basis, gram = COMPLEMENT_CASES[name]
    for row in basis:
        require(qpair(row, v) == 0, "frozen basis vector is not perpendicular")
    for i in range(5):
        for j in range(5):
            require(qpair(basis[i], basis[j]) == gram[i][j], "frozen Gram mismatch")
    computed_basis, computed_gram = orthogonal_complement(v)
    require(
        abs(det_int(gram)) == abs(det_int(computed_gram)),
        "frozen basis does not span the full complement",
    )
    return gram


def orbit_relation_check(tau: Mat2C) -> bool:
    """Half-shift relations between the symmetric locus and the km locus.

    For symmetric tau: adding half of B1 or B2 stays symmetric, adding half
    of B3 lands on the km locus, and the transpose of the B4 shift does too.
    """
    if not heegner_membership(tau).ns:
        raise ValueError("relation check needs a symmetric point")

    def shift(b) -> Mat2C:
        return tuple(
            tuple(tau[i][j] + b[i][j] * _HALF for j in range(2)) for i in range(2)
        )

    s1 = heegner_membership(shift(B_SHIFTS[0]))
    s2 = heegner_membership(shift(B_SHIFTS[1]))
    s3 = heegner_membership(shift(B_SHIFTS[2]))
    s4m = shift(B_SHIFTS[3])
    s4t = ((s4m[0][0], s4m[1][0]), (s4m[0][1], s4m[1][1]))
    s4 = heegner_membership(s4t)
    require(s1.ns and s2.ns, "real half-shifts left the symmetric locus")
    require(s3.km, "the third half-shift missed the km locus")
    require(s4.km, "the transposed fourth half-shift missed the km locus")
    return True
