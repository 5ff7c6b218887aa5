"""Field arithmetic in Q(sqrt3, i) and the exact sign routines."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hessk3.eisenstein import Eisenstein, OMEGA
from hessk3.lattice import mat_conj_transpose, mat_det2, mat_id, mat_inv2, mat_mul
from hessk3.tower import (
    C_OMEGA,
    C_OMEGA2,
    C_ONE,
    C_ZERO,
    Cyclo12,
    I_UNIT,
    SQRT3,
    SQRT3_I,
    from_eisenstein,
    sign_sqrt3,
    tower_sign_real,
)

rationals = st.fractions(
    min_value=-8, max_value=8, max_denominator=6
)


def towers():
    return st.builds(Cyclo12, rationals, rationals, rationals, rationals)


def test_basis_relations():
    assert SQRT3 * SQRT3 == Cyclo12(3)
    assert I_UNIT * I_UNIT == Cyclo12(-1)
    assert SQRT3_I * SQRT3_I == Cyclo12(-3)
    assert SQRT3 * I_UNIT == SQRT3_I
    # w = (-1 + sqrt3*i)/2 is a primitive cube root of unity
    assert C_OMEGA * C_OMEGA == C_OMEGA2
    assert C_OMEGA ** 3 == C_ONE
    assert C_OMEGA + C_OMEGA2 == Cyclo12(-1)


def test_embedding_matches_eisenstein_ring():
    assert from_eisenstein(OMEGA) == C_OMEGA
    x = Eisenstein(3, -2)
    y = Eisenstein(-1, 4)
    assert from_eisenstein(x * y) == from_eisenstein(x) * from_eisenstein(y)
    assert from_eisenstein(x + y) == from_eisenstein(x) + from_eisenstein(y)
    assert from_eisenstein(x.conj()) == from_eisenstein(x).conj()
    # the norm form comes out as the rational |.|^2
    n = from_eisenstein(x) * from_eisenstein(x).conj()
    assert n.as_rational() == x.norm()


@given(towers(), towers(), towers())
def test_ring_axioms(x, y, z):
    assert (x + y) * z == x * z + y * z
    assert x * (y * z) == (x * y) * z
    assert x * y == y * x
    assert x + (-x) == C_ZERO


@given(towers())
def test_conj_is_an_involution(x):
    assert x.conj().conj() == x
    assert (x + x.conj()).is_real()
    prod = x * x.conj()
    assert prod.is_real()
    assert tower_sign_real(prod) == (0 if x.is_zero() else 1)


@given(towers())
def test_inverse(x):
    if x.is_zero():
        with pytest.raises(ZeroDivisionError, match="inverse of zero"):
            x.inverse()
    else:
        assert x * x.inverse() == C_ONE
        assert C_ONE / x == x.inverse()


def test_truth_value_is_nonzero():
    # lattice.qpair skips zero coordinates through this
    assert not Cyclo12(0)
    assert not C_ZERO
    assert Cyclo12(0, 0, 1)
    assert Cyclo12(0, 0, 0, Fraction(1, 3))


@pytest.mark.parametrize("args", [(0.5,), (1, 0.0), (0, 0, 0, float("nan"))])
def test_floats_are_rejected(args):
    with pytest.raises(TypeError, match="float"):
        Cyclo12(*args)


def test_real_imag_split():
    x = Cyclo12(Fraction(1, 2), -3, Fraction(5, 7), 2)
    assert x.real() == Cyclo12(Fraction(1, 2), -3)
    assert x.imag() == Cyclo12(Fraction(5, 7), 2)
    assert x == x.real() + I_UNIT * x.imag()
    assert not x.is_real()
    assert x.real().is_real()
    with pytest.raises(ValueError, match="not a rational number"):
        x.as_rational()


SIGN_CASES = [
    # 2 - sqrt3 > 0, -1 + sqrt3 > 0: both need the squared comparison
    (Fraction(2), Fraction(-1), 1),
    (Fraction(-1), Fraction(1), 1),
    (Fraction(1), Fraction(-1), -1),
    (Fraction(7, 4), Fraction(-1), 1),
    (Fraction(12, 7), Fraction(-1), -1),
    (Fraction(0), Fraction(0), 0),
    (Fraction(0), Fraction(-3), -1),
    (Fraction(-5, 2), Fraction(0), -1),
    (Fraction(1), Fraction(1), 1),
    (Fraction(-1), Fraction(-1), -1),
]


@pytest.mark.parametrize("a, b, expected", SIGN_CASES)
def test_sign_sqrt3_oracle(a, b, expected):
    assert sign_sqrt3(a, b) == expected


@given(rationals, rationals)
def test_sign_sqrt3_consistent_with_squares(a, b):
    s = sign_sqrt3(a, b)
    # s is the sign of a + b*sqrt3; multiply by the conjugate to reduce to
    # the rational a^2 - 3 b^2 whose sign is s times sign(a - b*sqrt3)
    t = sign_sqrt3(a, -b)
    n = a * a - 3 * b * b
    assert s * t == (0 if n == 0 else (1 if n > 0 else -1))
    assert sign_sqrt3(-a, -b) == -s


def test_sign_real_rejects_nonreal():
    with pytest.raises(ValueError, match="sign of a nonreal element"):
        tower_sign_real(I_UNIT)


def test_matrix_ops():
    def inv(m):
        return mat_inv2(m, mat_det2(m).inverse())

    a = ((C_ONE, C_OMEGA), (C_ZERO, C_ONE))
    b = ((SQRT3, I_UNIT), (C_OMEGA2, Cyclo12(2)))
    ab = mat_mul(a, b)
    assert mat_det2(ab) == mat_det2(a) * mat_det2(b)
    assert mat_mul(a, inv(a)) == mat_id(2, C_ONE, C_ZERO)
    assert mat_mul(inv(b), b) == mat_id(2, C_ONE, C_ZERO)
    # conjugate transpose is an antihomomorphism
    assert mat_conj_transpose(ab) == mat_mul(mat_conj_transpose(b), mat_conj_transpose(a))
    singular = ((C_ONE, C_ONE), (C_ONE, C_ONE))
    with pytest.raises(ZeroDivisionError, match="inverse of zero"):
        inv(singular)
