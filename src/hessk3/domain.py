"""The type IV domain attached to M and its Hermitian matrix coordinate.

Points are projective 6-vectors over Q(sqrt3, i) on the quadric
t(z) Q z = 0 with t(z) Q conj(z) > 0, stored with the first coordinate
normalized to 1.  The affine chart takes (z3, z4, z5, z6) and recovers
z2 from the quadric.  The map psi identifies the plus component with the
rank-two Hermitian upper half-space H2 via

    psi(z) = ((z3, z5 + w z6), (z5 + w^2 z6, z4)),      z2 = -2 det psi(z).

All tests are exact; nothing here touches floats.
"""

from __future__ import annotations

from .errors import require
from .lattice import _is_6x6, mat_det2, mat_vec, qpair
from .tower import (
    C_OMEGA,
    C_OMEGA2,
    C_ONE,
    SQRT3_I,
    Cyclo12,
    Mat2C,
    tower_sign_real,
)

__all__ = [
    "Point",
    "chart_point",
    "dm_from_chart",
    "Q0",
    "dm_membership",
    "act",
    "psi",
    "psi_inv",
    "h2_contains",
]

Point = tuple


def _c(v) -> Cyclo12:
    return v if isinstance(v, Cyclo12) else Cyclo12(v)


def chart_point(z) -> Point:
    """z as six Cyclo12 coordinates with z1 = 1, else ValueError."""
    z = tuple(map(_c, z))
    if len(z) != 6:
        raise ValueError(f"z: expected six coordinates, got {len(z)}")
    if z[0] != C_ONE:
        raise ValueError("point is not chart normalized (z1 = 1)")
    return z


def dm_from_chart(z3, z4, z5, z6) -> Point:
    """Lift chart coordinates to the quadric; z1 = 1, z2 solves t(z) Q z = 0."""
    z3, z4, z5, z6 = _c(z3), _c(z4), _c(z5), _c(z6)
    z2 = (z3 * z4 - z5 * z5 + z5 * z6 - z6 * z6) * (-2)
    z = (C_ONE, z2, z3, z4, z5, z6)
    require(qpair(z, z).is_zero(), "chart lift missed the quadric")
    return z


Q0 = dm_from_chart(Cyclo12(0, 0, 2, 0), Cyclo12(0, 0, 2, 0), 0, 0)


def dm_membership(z: Point) -> str:
    """Component of the domain: "plus", "minus", or "none".

    z must pass chart_point.  Membership needs t(z) Q z = 0 and
    t(z) Q conj(z) > 0; the component is the sign of Im z3, which is
    nonzero on the domain since the positivity forces Im z3 * Im z4 > 0 in
    the chart.
    """
    z = chart_point(z)
    if not qpair(z, z).is_zero():
        return "none"
    pos = qpair(z, tuple(x.conj() for x in z))
    require(pos.is_real(), "Hermitian norm of a point is not real")
    if tower_sign_real(pos) <= 0:
        return "none"
    s = tower_sign_real(z[2].imag())
    require(s != 0, "interior point with real z3")
    return "plus" if s > 0 else "minus"


def act(g, z: Point) -> Point:
    """Projective action of a 6x6 integer matrix on a chart point (z must
    pass chart_point), renormalized to z1 = 1."""
    if not _is_6x6(g):
        raise ValueError("g: expected a 6x6 integer matrix")
    w = mat_vec(g, chart_point(z))
    if w[0].is_zero():
        raise ValueError("chart escape")
    inv = w[0].inverse()
    return tuple(x * inv for x in w)


def psi(z: Point) -> Mat2C:
    """Matrix coordinate ((z3, z5 + w z6), (z5 + w^2 z6, z4)) of a plus point."""
    z = chart_point(z)
    if dm_membership(z) != "plus":
        raise ValueError("psi needs a point of the plus component")
    return ((z[2], z[4] + C_OMEGA * z[5]), (z[4] + C_OMEGA2 * z[5], z[3]))


# the divisors of psi_inv and h2_contains, inverted once: 1 / sqrt3 i and
# 1 / 2i = -i / 2
_INV_SQRT3_I = SQRT3_I.inverse()
_INV_2I = Cyclo12(0, 0, 2, 0).inverse()


def psi_inv(tau: Mat2C) -> Point:
    """Inverse of psi on H2."""
    if not h2_contains(tau):
        raise ValueError("matrix is not in the upper half-space")
    z6 = (tau[0][1] - tau[1][0]) * _INV_SQRT3_I
    z5 = tau[0][1] - C_OMEGA * z6
    return dm_from_chart(tau[0][0], tau[1][1], z5, z6)


def h2_contains(tau: Mat2C) -> bool:
    """Exact test for the rank-two upper half-space.

    Y = (tau - tau*) / 2i must be positive definite: Y11 > 0 and det Y > 0.
    Both are real elements of Q(sqrt3), so the signs are decidable.  A tau
    that is not 2x2 is a ValueError.
    """
    if len(tau) != 2 or any(len(r) != 2 for r in tau):
        raise ValueError("tau: expected a 2x2 matrix")
    if tower_sign_real(tau[0][0].imag()) <= 0:
        return False
    # det Y with Y = Im-part matrix: Y12 = (tau12 - conj(tau21)) / 2i
    y = tuple(
        tuple((tau[i][j] - tau[j][i].conj()) * _INV_2I for j in range(2)) for i in range(2)
    )
    d = mat_det2(y)
    require(d.is_real(), "det of the imaginary part is not real")
    if tower_sign_real(d) <= 0:
        return False
    require(tower_sign_real(tau[1][1].imag()) > 0, "Y11 > 0, det Y > 0 but Y22 <= 0")
    return True
