from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from hessk3.correspond import _UNIT_ST
from hessk3.eisenstein import (
    OMEGA,
    OMEGA2,
    ONE,
    UNITS,
    ZERO,
    Eisenstein,
    canonical_associate,
    eis_divmod,
    eis_gcd_ext,
    exact_div,
    g2_column_reduce,
    pair_steps,
)
from hessk3.sampling import make_rng

eis = st.builds(Eisenstein, st.integers(-50, 50), st.integers(-50, 50))
eis_nonzero = eis.filter(lambda x: not x.is_zero())


def test_ring_basics():
    w = OMEGA
    assert w * w == Eisenstein(-1, -1)  # w^2 = -1 - w
    assert w * w * w == ONE
    assert (Eisenstein(2, 1) * Eisenstein(1, 1)).norm() == Eisenstein(2, 1).norm() * Eisenstein(1, 1).norm()
    assert sorted(u.norm() for u in UNITS) == [1] * 6
    assert len(set(UNITS)) == 6


@pytest.mark.parametrize(
    "op",
    [
        lambda x: x + 0.5,
        lambda x: 0.5 + x,
        lambda x: x - 0.5,
        lambda x: 0.5 - x,
        lambda x: x * 0.5,
        lambda x: 0.5 * x,
    ],
)
def test_float_operand_is_a_type_error(op):
    with pytest.raises(TypeError):
        op(Eisenstein(1, 0))


@pytest.mark.parametrize(
    "op",
    [
        lambda x: x + Fraction(1, 2),
        lambda x: Fraction(1, 2) + x,
        lambda x: x - Fraction(1, 2),
        lambda x: Fraction(1, 2) - x,
        lambda x: x * Fraction(1, 2),
        lambda x: Fraction(1, 2) * x,
    ],
)
def test_fraction_operand_is_a_type_error(op):
    with pytest.raises(TypeError):
        op(Eisenstein(1, 0))


def test_equality_holds_only_between_eisenstein_values():
    assert Eisenstein(1, 0) != 1
    assert Eisenstein(1, 0) != (1, 0)
    assert ONE == Eisenstein(1, 0)


def test_equal_values_hash_equal_and_find_the_same_entry():
    built = OMEGA * OMEGA
    assert built is not OMEGA2 and built == Eisenstein(-1, -1)
    assert hash(built) == hash(Eisenstein(-1, -1)) == hash((-1, -1))
    assert _UNIT_ST[built] == _UNIT_ST[OMEGA2]


@pytest.mark.parametrize("k", [3, 1, -2, 0, True, False])
def test_int_and_bool_operands_on_both_sides(k):
    x = Eisenstein(3, 5)
    assert x + k == k + x == Eisenstein(3 + k, 5)
    assert x - k == Eisenstein(3 - k, 5)
    assert k - x == Eisenstein(k - 3, -5)
    assert x * k == k * x == Eisenstein(3 * k, 5 * k)


def test_instances_have_no_dict():
    assert not hasattr(Eisenstein(1, 2), "__dict__")


def test_conj_and_two_re():
    x = Eisenstein(3, 5)
    assert x.conj() == Eisenstein(-2, -5)
    assert x + x.conj() == Eisenstein(x.two_re(), 0)
    assert (x * x.conj()) == Eisenstein(x.norm(), 0)


# frozen division oracles, each re-checked by multiplying back
DIVMOD_CASES = [
    (Eisenstein(0, 1), Eisenstein(1, 0), Eisenstein(0, 1), Eisenstein(0, 0)),
    (Eisenstein(5, 0), Eisenstein(2, 1), Eisenstein(2, -2), Eisenstein(-1, 0)),
    (Eisenstein(1, 1), Eisenstein(2, 0), Eisenstein(0, 0), Eisenstein(1, 1)),
]


@pytest.mark.parametrize("x,y,q,r", DIVMOD_CASES)
def test_divmod_frozen(x, y, q, r):
    got_q, got_r = eis_divmod(x, y)
    assert (got_q, got_r) == (q, r)
    assert q * y + r == x
    assert r.norm() < y.norm()


def test_divmod_zero_divisor():
    with pytest.raises(ValueError, match="zero divisor"):
        eis_divmod(ONE, ZERO)


@given(eis, eis_nonzero)
def test_divmod_euclidean(x, y):
    q, r = eis_divmod(x, y)
    assert q * y + r == x
    assert 4 * r.norm() <= 3 * y.norm()


def test_divmod_euclidean_bulk():
    # the hypothesis test above explores corners; this covers volume
    rng = make_rng(2024)
    for _ in range(10000):
        x = Eisenstein(rng.randint(-50, 50), rng.randint(-50, 50))
        y = Eisenstein(rng.randint(-50, 50), rng.randint(-50, 50))
        if y.is_zero():
            continue
        q, r = eis_divmod(x, y)
        assert q * y + r == x
        assert r.norm() < y.norm()


def test_canonical_associate_frozen():
    assert canonical_associate(ZERO) == (ZERO, ONE)
    for u in UNITS:
        assoc, unit = canonical_associate(u)
        assert assoc == ONE
        assert u * unit == ONE
    assoc, unit = canonical_associate(Eisenstein(-3, -2))
    assert assoc.a > assoc.b >= 0
    assert Eisenstein(-3, -2) * unit == assoc


@given(eis_nonzero)
def test_canonical_associate_idempotent(x):
    assoc, unit = canonical_associate(x)
    assert x * unit == assoc
    assert unit in UNITS
    again, u2 = canonical_associate(assoc)
    assert again == assoc and u2 == ONE
    # sector: a > b >= 0
    assert assoc.a > assoc.b >= 0


GCD_CASES = [
    (Eisenstein(3, 0), Eisenstein(0, 2), Eisenstein(1, 0), Eisenstein(1, 0), Eisenstein(1, 1)),
    (Eisenstein(2, 0), Eisenstein(1, 1), Eisenstein(1, 0), Eisenstein(0, 0), Eisenstein(0, -1)),
]


@pytest.mark.parametrize("a,b,d,x,y", GCD_CASES)
def test_gcd_frozen(a, b, d, x, y):
    got = eis_gcd_ext(a, b)
    assert got == (d, x, y)
    assert a * x + b * y == d


def test_gcd_trivial_right_zero():
    d, x, y = eis_gcd_ext(Eisenstein(-3, 0), ZERO)
    assert d == Eisenstein(3, 0) and y == ZERO
    assert Eisenstein(-3, 0) * x == d


def test_gcd_both_zero():
    with pytest.raises(ValueError, match="gcd of two zeros"):
        eis_gcd_ext(ZERO, ZERO)


@given(eis, eis)
def test_gcd_properties(a, b):
    if a.is_zero() and b.is_zero():
        return
    d, x, y = eis_gcd_ext(a, b)
    assert a * x + b * y == d
    if not a.is_zero():
        exact_div(a, d)
    if not b.is_zero():
        exact_div(b, d)
    assert canonical_associate(d)[0] == d


def test_g2_column_reduce_frozen():
    a, d = g2_column_reduce(Eisenstein(3, 0), Eisenstein(0, 2))
    assert a == ((Eisenstein(3, 0), Eisenstein(4, 4)), (Eisenstein(0, -2), Eisenstein(3, 0)))
    assert d == ONE
    a, d = g2_column_reduce(ONE, ZERO)
    assert a == ((ONE, ZERO), (ZERO, ONE)) and d == ONE
    a, d = g2_column_reduce(Eisenstein(1, 2), ZERO)
    assert a == ((ONE, ZERO), (ZERO, ONE)) and d == Eisenstein(1, 2)


def test_g2_column_reduce_precondition():
    with pytest.raises(ValueError, match="not congruent"):
        g2_column_reduce(Eisenstein(2, 0), ZERO)


@settings(max_examples=200)
@given(
    st.builds(Eisenstein, st.integers(-20, 20).map(lambda n: 2 * n + 1), st.integers(-10, 10).map(lambda n: 2 * n)),
    st.builds(Eisenstein, st.integers(-10, 10).map(lambda n: 2 * n), st.integers(-10, 10).map(lambda n: 2 * n)),
)
def test_g2_column_reduce_postconditions(alpha, beta):
    a, d = g2_column_reduce(alpha, beta)
    det = a[0][0] * a[1][1] - a[0][1] * a[1][0]
    assert det == ONE
    for i in range(2):
        for j in range(2):
            want = 1 if i == j else 0
            assert (a[i][j].a - want) % 2 == 0 and a[i][j].b % 2 == 0
    assert a[0][0] * alpha + a[0][1] * beta == d
    assert a[1][0] * alpha + a[1][1] * beta == ZERO
    # alpha / delta must be odd in the fixed associate choice
    ratio = exact_div(alpha, d)
    assert ratio.a % 2 == 1 and ratio.b % 2 == 0


def test_units_order_is_fixed():
    assert UNITS == (ONE, -ONE, OMEGA, -OMEGA, OMEGA2, -OMEGA2)


def test_pair_steps_on_a_zero_partner_yield_nothing():
    for m in (1, -1, 7, -13):
        assert list(pair_steps(m, 0)) == []


def test_pair_steps_clear_the_partner_and_halve_it():
    rng = make_rng(41)
    for _ in range(500):
        m = 2 * rng.randint(-10**6, 10**6) + 1
        n = rng.randint(-10**6, 10**6)
        for c, d in pair_steps(m, n):
            m += 2 * c * n
            before, n = n, n + d * m
            assert 2 * abs(n) <= abs(before)
            assert m % 2 == 1
        assert n == 0
