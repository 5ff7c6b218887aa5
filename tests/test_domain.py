"""The quadric domain, its chart, and the Hermitian matrix coordinate."""

import pytest

from hessk3 import heegner, hermitian, sampling
from hessk3.domain import (
    Q0,
    act,
    dm_from_chart,
    dm_membership,
    h2_contains,
    psi,
    psi_inv,
)
from hessk3.lattice import G0, G1, MINUS_I6, U0, U1, mat_det2, mat_id, mat_mul, qpair, translation_h
from hessk3.tower import C_ZERO, Cyclo12, I_UNIT


def conj_point(z):
    return tuple(x.conj() for x in z)


def test_base_point():
    assert dm_membership(Q0) == "plus"
    two_i = Cyclo12(0, 0, 2, 0)
    assert psi(Q0) == ((two_i, C_ZERO), (C_ZERO, two_i))
    assert Q0[0] == Cyclo12(1)
    # z2 = -2 det psi(z) on the quadric
    assert Q0[1] == mat_det2(psi(Q0)) * (-2)


def test_chart_lift_and_membership():
    rng = sampling.make_rng(11)
    for _ in range(25):
        z = sampling.sample_chart_point(rng)
        assert qpair(z, z).is_zero()
        assert dm_membership(z) == "plus"
        assert z[1] == mat_det2(psi(z)) * (-2)
        zbar = conj_point(z)
        assert dm_membership(zbar) == "minus"
        with pytest.raises(ValueError, match="plus component"):
            psi(zbar)


def test_membership_rejections():
    e1 = (Cyclo12(1),) + (C_ZERO,) * 5
    # isotropic but with zero Hermitian norm
    assert dm_membership(e1) == "none"
    off = (Cyclo12(1), Cyclo12(1), C_ZERO, C_ZERO, C_ZERO, C_ZERO)
    assert dm_membership(off) == "none"


def test_unnormalized_points_are_rejected():
    # 2 Q0 and i Q0 are the same projective point as Q0, but the component
    # and the matrix coordinate are read off z1 = 1 only
    for scale in (Cyclo12(2), I_UNIT):
        z = tuple(scale * x for x in Q0)
        with pytest.raises(ValueError, match="chart normalized"):
            dm_membership(z)
        with pytest.raises(ValueError, match="chart normalized"):
            psi(z)


def test_psi_round_trip():
    rng = sampling.make_rng(12)
    for _ in range(25):
        z = sampling.sample_chart_point(rng)
        tau = psi(z)
        assert h2_contains(tau)
        assert psi_inv(tau) == z
    for _ in range(10):
        tau = psi(sampling.sample_chart_point(rng))
        assert psi(psi_inv(tau)) == tau


def test_h2_membership():
    two_i = Cyclo12(0, 0, 2, 0)
    assert h2_contains(((two_i, C_ZERO), (C_ZERO, two_i)))
    assert not h2_contains(((-two_i, C_ZERO), (C_ZERO, two_i)))
    # positive diagonal but indefinite imaginary part
    big = Cyclo12(0, 0, 5, 0)
    assert not h2_contains(((I_UNIT, big), (big, I_UNIT)))
    with pytest.raises(ValueError, match="not in the upper half-space"):
        psi_inv(((-two_i, C_ZERO), (C_ZERO, two_i)))


_TAU = ((Cyclo12(0, 0, 2, 0), C_ZERO), (C_ZERO, Cyclo12(0, 0, 2, 0)))


@pytest.mark.parametrize(
    "tau",
    [
        tuple(r + (C_ZERO,) for r in _TAU) + ((C_ZERO, C_ZERO, I_UNIT),),
        _TAU + ((C_ZERO, C_ZERO),),
        (_TAU[0] + (C_ZERO,), _TAU[1]),
        (_TAU[0], _TAU[1][:1]),
        _TAU[:1],
    ],
    ids=["3x3", "three-rows", "long-row", "short-row", "one-row"],
)
@pytest.mark.parametrize(
    "fn",
    [h2_contains, psi_inv, heegner.heegner_membership, hermitian.involution_T, hermitian.involution_W],
    ids=["h2_contains", "psi_inv", "heegner_membership", "involution_T", "involution_W"],
)
def test_tau_must_be_two_by_two(fn, tau):
    # the 3x3, the extra row and the long row used to be answered from
    # their upper-left corner, the short and missing rows raised IndexError
    with pytest.raises(ValueError, match="tau: expected a 2x2 matrix"):
        fn(tau)


def test_action_is_projective_and_compatible():
    rng = sampling.make_rng(13)
    gens = [G1, U0, U1, translation_h(1, -1, 0, 2), MINUS_I6]
    for _ in range(15):
        z = sampling.sample_chart_point(rng)
        assert act(mat_id(), z) == z
        a = gens[rng.randrange(len(gens))]
        b = gens[rng.randrange(len(gens))]
        assert act(a, act(b, z)) == act(mat_mul(a, b), z)
        # integer isometries preserve the quadric and the Hermitian norm sign
        w = act(a, z)
        assert qpair(w, w).is_zero()
        pos = qpair(w, conj_point(w))
        assert not pos.is_zero()


def test_plus_component_is_preserved():
    rng = sampling.make_rng(14)
    for _ in range(10):
        z = sampling.sample_chart_point(rng)
        for g in (G1, U0, U1, MINUS_I6, translation_h(0, 1, 2, -1)):
            assert dm_membership(act(g, z)) == "plus"


def test_chart_escape():
    # z2 = 0 here, and G0 moves z2 into the leading slot
    z = dm_from_chart(I_UNIT, 0, 0, 0)
    assert z[1].is_zero()
    with pytest.raises(ValueError, match="chart escape"):
        act(G0, z)
