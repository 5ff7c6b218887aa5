"""Field arithmetic in Q(sqrt3, i) and the exact sign routines."""

import random
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hessk3.eisenstein import Eisenstein, OMEGA, ONE
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
    _eis_times,
    _make,
    from_eisenstein,
    tower_sign_real,
)

rationals = st.fractions(
    min_value=-8, max_value=8, max_denominator=6
)


def sign_sqrt3(a: Fraction, b: Fraction) -> int:
    """Exact sign of a + b*sqrt3 for rational a, b."""
    return tower_sign_real(Cyclo12(a, b))


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


def test_eisenstein_times_numerators_is_the_field_product():
    # the numerator form of from_eisenstein(e) * z, over twice z's denominator
    rng = random.Random(36)
    for _ in range(300):
        e = Eisenstein(rng.randint(-9, 9), rng.randint(-9, 9))
        z = Cyclo12(*(Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(4)))
        assert _make(*_eis_times(e, z._n), 2 * z._den) == from_eisenstein(e) * z


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


def test_rational_elements_hash_as_their_fraction():
    assert hash(Cyclo12(1)) == hash(1)
    assert len({Cyclo12(1), 1}) == 1
    assert len({Cyclo12(Fraction(-2, 3)), Fraction(-2, 3)}) == 1
    assert hash(C_ZERO) == hash(0)
    # equal elements built along different routes hash alike
    x = Cyclo12(Fraction(3, 4), -1, Fraction(1, 6), 5)
    assert x * x.inverse() == C_ONE and hash(x * x.inverse()) == hash(1)
    assert hash((x + SQRT3) - SQRT3) == hash(x)


def test_eisenstein_operands_are_foreign():
    # from_eisenstein is the one embedding; equality stays transitive
    assert Cyclo12(1) != ONE and ONE != Cyclo12(1)
    assert C_OMEGA != OMEGA
    assert C_OMEGA == from_eisenstein(OMEGA)
    for op in (
        lambda: Cyclo12(1) + ONE,
        lambda: ONE + Cyclo12(1),
        lambda: C_OMEGA * OMEGA,
        lambda: C_ONE - ONE,
        lambda: C_ONE / ONE,
    ):
        with pytest.raises(TypeError):
            op()
    xs = (C_ONE, ONE, 1)
    for x in xs:
        for y in xs:
            for z in xs:
                if x == y and y == z:
                    assert x == z
            if x == y:
                assert hash(x) == hash(y)
    assert len({C_ONE, ONE, 1}) == 2


# -- the Fraction oracle ----------------------------------------------------


class FracCyclo12:
    """The field on four Fraction coordinates, by the textbook formulas: an
    independent model of what the integer representation must compute."""

    def __init__(self, a, b, c, d):
        self.v = (Fraction(a), Fraction(b), Fraction(c), Fraction(d))

    def __add__(self, o):
        return FracCyclo12(*(x + y for x, y in zip(self.v, o.v)))

    def __sub__(self, o):
        return FracCyclo12(*(x - y for x, y in zip(self.v, o.v)))

    def __mul__(self, o):
        a1, b1, c1, d1 = self.v
        a2, b2, c2, d2 = o.v
        return FracCyclo12(
            a1 * a2 + 3 * b1 * b2 - c1 * c2 - 3 * d1 * d2,
            a1 * b2 + b1 * a2 - c1 * d2 - d1 * c2,
            a1 * c2 + c1 * a2 + 3 * (b1 * d2 + d1 * b2),
            a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2,
        )

    def conj(self):
        a, b, c, d = self.v
        return FracCyclo12(a, b, -c, -d)

    def inverse(self):
        a, b, c, d = self.v
        p = a * a + 3 * b * b + c * c + 3 * d * d
        q = 2 * a * b + 2 * c * d
        n = p * p - 3 * q * q
        return self.conj() * FracCyclo12(p / n, -q / n, 0, 0)

    def __truediv__(self, o):
        return self * o.inverse()

    def real(self):
        return FracCyclo12(self.v[0], self.v[1], 0, 0)

    def imag(self):
        return FracCyclo12(self.v[2], self.v[3], 0, 0)

    def is_zero(self):
        return not any(self.v)


def _oracle_sign(a, b):
    """Sign of a + b*sqrt3 by bracketing sqrt3 between dyadic rationals."""
    if a == 0 and b == 0:
        return 0
    k = 4
    while True:
        lo = Fraction(isqrt(3 * 4**k), 2**k)
        ends = (a + b * lo, a + b * (lo + Fraction(1, 2**k)))
        if min(ends) > 0:
            return 1
        if max(ends) < 0:
            return -1
        k *= 2


def _random_coordinate(rng):
    kind = rng.randrange(5)
    if kind == 0:
        return Fraction(0)
    if kind == 1:
        return Fraction(rng.randint(-20, 20))
    if kind == 2:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 12))
    if kind == 3:
        # large, mostly coprime numerators and denominators
        return Fraction(rng.randint(-(10**18), 10**18), rng.randint(1, 10**15))
    # a shared power-of-two-and-three denominator, so sums cancel factors
    return Fraction(rng.randint(-50, 50), 2 ** rng.randint(0, 40) * 3 ** rng.randint(0, 20))


def _random_pair(rng):
    coords = [[_random_coordinate(rng) for _ in range(4)] for _ in range(2)]
    if rng.random() < 0.05:
        coords[rng.randrange(2)] = [0, 0, 0, 0]
    if rng.random() < 0.1:
        coords[1] = list(coords[0])
    return coords


@pytest.mark.parametrize("seed", range(5))
def test_arithmetic_matches_the_fraction_oracle(seed):
    rng = random.Random(seed)
    for _ in range(120):
        cx, cy = _random_pair(rng)
        x, y = Cyclo12(*cx), Cyclo12(*cy)
        ox, oy = FracCyclo12(*cx), FracCyclo12(*cy)
        assert x.coords() == ox.v
        assert (x + y).coords() == (ox + oy).v
        assert (x - y).coords() == (ox - oy).v
        assert (x * y).coords() == (ox * oy).v
        assert x.conj().coords() == ox.conj().v
        assert x.real().coords() == ox.real().v
        assert x.imag().coords() == ox.imag().v
        assert (x == y) == (ox.v == oy.v)
        if oy.is_zero():
            with pytest.raises(ZeroDivisionError, match="inverse of zero"):
                x / y
        else:
            assert y.inverse().coords() == oy.inverse().v
            assert (x / y).coords() == (ox / oy).v
        for part in (x.real(), x.imag()):
            a, b, _, _ = part.coords()
            assert tower_sign_real(part) == sign_sqrt3(a, b) == _oracle_sign(a, b)
