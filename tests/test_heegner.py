"""Special divisors: half-space, chart, and lattice descriptions agree."""

import pytest

from hessk3 import heegner, sampling
from hessk3.domain import dm_from_chart, psi
from hessk3.heegner import (
    B_SHIFTS,
    COMPLEMENT_CASES,
    PERP_VECTORS,
    HeegnerFlags,
    chart_flags,
    complement_gram_verify,
    heegner_membership,
    orbit_relation_check,
    perp_equivalence,
    perp_flags,
)
from hessk3.lattice import det_int, qpair
from hessk3.tower import C_OMEGA, C_OMEGA2, C_ONE, C_ZERO, Cyclo12

SAMPLERS = {
    "node": sampling.sample_node_point,
    "eckardt": sampling.sample_eckardt_point,
    "ns": sampling.sample_ns_point,
    "km": sampling.sample_km_point,
}


@pytest.mark.parametrize("name", sorted(SAMPLERS))
def test_on_locus_points_carry_their_flag(name):
    rng = sampling.make_rng(51)
    for _ in range(10):
        z = SAMPLERS[name](rng)
        flags = perp_equivalence(z)
        assert getattr(flags, name)
        assert chart_flags(z) == flags
        assert perp_flags(z) == flags
        assert heegner_membership(psi(z)) == flags


def test_perp_flags_is_the_pairing_with_each_vector(monkeypatch):
    # perp_flags pairs z with the integer vector Q v; qpair(z, v) is the
    # form itself
    rng = sampling.make_rng(36)
    for sample in (*SAMPLERS.values(), sampling.sample_chart_point):
        for _ in range(6):
            z = sample(rng)
            want = HeegnerFlags(**{name: qpair(z, v).is_zero() for name, v in PERP_VECTORS.items()})
            assert perp_flags(z) == want
    # a zero vector has no nonzero term and pairs to zero
    assert not perp_flags(z).km
    monkeypatch.setitem(heegner.PERP_VECTORS, "km", (0,) * 6)
    assert perp_flags(z).km


def test_generic_points_agree_across_views():
    # the sampler may land on a locus by accident, so only agreement of the
    # three descriptions is asserted; most points should still miss everything
    rng = sampling.make_rng(52)
    off_locus = 0
    for _ in range(20):
        z = sampling.sample_chart_point(rng)
        flags = perp_equivalence(z)
        assert chart_flags(z) == flags
        assert perp_flags(z) == flags
        assert heegner_membership(psi(z)) == flags
        if not any((flags.node, flags.eckardt, flags.ns, flags.km)):
            off_locus += 1
    assert off_locus >= 15


def test_membership_rejections():
    minus_two_i = Cyclo12(0, 0, -2, 0)
    with pytest.raises(ValueError, match="not in the half-space"):
        heegner_membership(((minus_two_i, C_ZERO), (C_ZERO, minus_two_i)))
    z = sampling.sample_chart_point(sampling.make_rng(53))
    denormalized = (Cyclo12(2),) + z[1:]
    with pytest.raises(ValueError, match="not chart normalized"):
        chart_flags(denormalized)


@pytest.mark.parametrize("name", sorted(COMPLEMENT_CASES))
def test_complement_gram_frozen(name):
    gram = complement_gram_verify(name)
    v, basis, frozen = COMPLEMENT_CASES[name]
    assert gram == frozen
    for row in basis:
        assert qpair(row, v) == 0
    assert det_int(gram) != 0


def test_complement_unknown_name():
    with pytest.raises(ValueError, match="unknown divisor"):
        complement_gram_verify("corner")


def test_orbit_relations_on_symmetric_points():
    rng = sampling.make_rng(54)
    for _ in range(6):
        tau = psi(sampling.sample_ns_point(rng))
        assert orbit_relation_check(tau)


def test_orbit_relations_need_symmetric_input():
    z = dm_from_chart(Cyclo12(0, 0, 2, 0), Cyclo12(0, 0, 2, 0), 0, C_ONE)
    tau = psi(z)
    with pytest.raises(ValueError, match="needs a symmetric point"):
        orbit_relation_check(tau)


def test_b_shift_table():
    assert len(B_SHIFTS) == 4
    # the first two shifts are real and diagonal
    for b in B_SHIFTS[:2]:
        assert b[0][1] == C_ZERO and b[1][0] == C_ZERO
    # the third shift is hermitian and the fourth is its plain transpose
    b3, b4 = B_SHIFTS[2], B_SHIFTS[3]
    assert b3 == ((b3[0][0].conj(), b3[1][0].conj()), (b3[0][1].conj(), b3[1][1].conj()))
    assert b4 == ((b3[0][0], b3[1][0]), (b3[0][1], b3[1][1]))
    # read in the field, the Hermitian group's four half-shift cosets
    assert B_SHIFTS == (
        ((C_ONE, C_ZERO), (C_ZERO, C_ZERO)),
        ((C_ZERO, C_ZERO), (C_ZERO, C_ONE)),
        ((C_ZERO, C_OMEGA), (C_OMEGA2, C_ZERO)),
        ((C_ZERO, C_OMEGA2), (C_OMEGA, C_ZERO)),
    )
