"""Seeded exact samplers for fuzz checks.

Everything is driven by random.Random(seed) so suites are reproducible;
all outputs are exact (Fractions, Eisenstein integers, Cyclo12 words).
Chart points are built with explicit positive imaginary slack, so domain
membership holds by construction rather than by rejection.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .domain import Point, dm_from_chart
from .eisenstein import UNITS, Eisenstein
from .hermitian import m2e
from .lattice import mat_id, mat_neg, mat_prod, U1, W0
from .tower import Cyclo12

__all__ = [
    "make_rng",
    "sample_fraction",
    "sample_eisenstein",
    "sample_g2_matrix",
    "sample_gl2_matrix",
    "sample_hgamma1_word",
    "sample_hgamma0_word",
    "sample_so0_word",
    "sample_orth_so0",
    "sample_orth_plus",
    "sample_chart_point",
    "sample_node_point",
    "sample_eckardt_point",
    "sample_ns_point",
    "sample_km_point",
    "sample_lambda",
]


def make_rng(seed: int) -> random.Random:
    return random.Random(seed)


def sample_fraction(rng, num: int = 9, den: int = 5) -> Fraction:
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def sample_eisenstein(rng, bound: int = 3) -> Eisenstein:
    return Eisenstein(rng.randint(-bound, bound), rng.randint(-bound, bound))


_ID2 = m2e(((1, 0), (0, 1)))

# The samplers draw a word of 2x2 factors and apply each to the running
# matrix m as it is drawn: m times a factor is a column operation on m in
# closed form, so no matrix product is taken.


def _times_elementary(rng, m, even: bool):
    """m ((1, e), (0, 1)), which adds e col0 to col1, or m ((1, 0), (e, 1)),
    which adds e col1 to col0, for a drawn e (doubled when even)."""
    e = sample_eisenstein(rng, 2)
    if even:
        e = e * 2
    (a, b), (c, d) = m
    if rng.randrange(2):
        return (a, b + e * a), (c, d + e * c)
    return (a + e * b, b), (c + e * d, d)


def sample_g2_matrix(rng, steps: int = 5):
    """Unit-determinant matrix congruent to the identity mod 2: a product
    of steps factors, each an even elementary matrix, diag(1, -1) or -I."""
    m = _ID2
    for _ in range(steps):
        kind = rng.randrange(4)
        if kind < 2:
            m = _times_elementary(rng, m, even=True)
        elif kind == 2:
            (a, b), (c, d) = m
            m = (a, -b), (c, -d)
        else:
            m = mat_neg(m)
    return m


def sample_gl2_matrix(rng, steps: int = 5):
    """Unit-determinant matrix, no congruence constraint: a product of
    steps factors, each an elementary matrix or diag(u, 1) for a unit u."""
    m = _ID2
    for _ in range(steps):
        if rng.randrange(3):
            m = _times_elementary(rng, m, even=False)
        else:
            u = UNITS[rng.randrange(6)]
            (a, b), (c, d) = m
            m = (a * u, b), (c * u, d)
    return m


def _herm_params(rng, bound: int = 2):
    return tuple(rng.randint(-bound, bound) for _ in range(4))


def _token_word(rng, length: int, draws):
    """length tokens, each from a draw picked uniformly from draws."""
    return [draws[rng.randrange(len(draws))](rng) for _ in range(length)]


_GAMMA1_DRAWS = (
    lambda rng: ("gA", sample_g2_matrix(rng, 3)),
    lambda rng: ("gBu", _herm_params(rng)),
    lambda rng: ("gBl", _herm_params(rng)),
)
# gamma0 adds general unit-determinant gA tokens, drawn second
_GAMMA0_DRAWS = (
    _GAMMA1_DRAWS[0],
    lambda rng: ("gA", sample_gl2_matrix(rng, 3)),
    *_GAMMA1_DRAWS[1:],
)


def sample_hgamma1_word(rng, length: int):
    return _token_word(rng, length, _GAMMA1_DRAWS)


def sample_hgamma0_word(rng, length: int):
    return _token_word(rng, length, _GAMMA0_DRAWS)


def sample_so0_word(rng, length: int):
    from .correspond import ORTH_TOKEN_MATS

    names = sorted(ORTH_TOKEN_MATS)
    word = []
    for _ in range(length):
        p = rng.choice((-2, -1, 1, 2))
        word.append((rng.choice(names), p))
    return word


def sample_orth_so0(rng, length: int):
    from .correspond import orth_word_matrix

    return orth_word_matrix(sample_so0_word(rng, length))


def sample_orth_plus(rng, length: int):
    """Element of O+ in any of the four (determinant, parity) cosets."""
    head = [U1] * rng.randrange(2) + [W0] * rng.randrange(2)
    return mat_prod(head + [sample_orth_so0(rng, length)], mat_id(6))


def _ci(re: Fraction, im: Fraction) -> Cyclo12:
    return Cyclo12(re, 0, im, 0)


def sample_chart_point(rng) -> Point:
    """Generic point of the plus component in the chart."""
    y3 = Fraction(rng.randint(1, 6), rng.randint(1, 3))
    y5 = sample_fraction(rng, 2, 3)
    y6 = sample_fraction(rng, 2, 3)
    slack = Fraction(rng.randint(1, 5), rng.randint(1, 3))
    y4 = (y5 * y5 - y5 * y6 + y6 * y6) / y3 + slack
    z3 = Cyclo12(sample_fraction(rng), sample_fraction(rng, 2, 3), y3, 0)
    z4 = Cyclo12(sample_fraction(rng), sample_fraction(rng, 2, 3), y4, 0)
    z5 = Cyclo12(sample_fraction(rng, 3, 3), 0, y5, 0)
    z6 = Cyclo12(sample_fraction(rng, 3, 3), 0, y6, 0)
    return dm_from_chart(z3, z4, z5, z6)


def sample_node_point(rng) -> Point:
    """On the node divisor: z2 = 1 by solving for z4."""
    while True:
        z5 = Fraction(rng.randint(-1, 1), rng.randint(3, 5))
        z6 = Fraction(rng.randint(-1, 1), rng.randint(3, 5))
        q56 = z5 * z5 - z5 * z6 + z6 * z6
        if q56 < Fraction(1, 2):
            break
    x3 = sample_fraction(rng)
    y3 = Fraction(rng.randint(1, 6), rng.randint(1, 3))
    z3 = _ci(x3, y3)
    c = q56 - Fraction(1, 2)
    z4 = Cyclo12(c) / z3
    return dm_from_chart(z3, z4, _ci(z5, Fraction(0)), _ci(z6, Fraction(0)))


def _locus_point(rng, z5: Cyclo12, z6: Cyclo12, qim: Fraction) -> Point:
    y3 = Fraction(rng.randint(1, 6), rng.randint(1, 3))
    slack = Fraction(rng.randint(1, 5), rng.randint(1, 3))
    y4 = qim / y3 + slack
    z3 = _ci(sample_fraction(rng), y3)
    z4 = _ci(sample_fraction(rng), y4)
    return dm_from_chart(z3, z4, z5, z6)


def sample_eckardt_point(rng) -> Point:
    x5 = sample_fraction(rng, 3, 3)
    y5 = sample_fraction(rng, 2, 3)
    z5 = _ci(x5, y5)
    z6 = z5 * 2
    return _locus_point(rng, z5, z6, 3 * y5 * y5)


def sample_ns_point(rng) -> Point:
    x5 = sample_fraction(rng, 3, 3)
    y5 = sample_fraction(rng, 2, 3)
    z5 = _ci(x5, y5)
    return _locus_point(rng, z5, Cyclo12(0), y5 * y5)


def sample_km_point(rng) -> Point:
    x5 = sample_fraction(rng, 3, 3)
    y5 = sample_fraction(rng, 2, 3)
    z5 = _ci(x5, y5)
    z6 = Cyclo12(Fraction(1, 2))
    return _locus_point(rng, z5, z6, y5 * y5)


def sample_lambda(rng, distinct: bool = True):
    """Five nonzero pentahedral coefficients, pairwise distinct by default."""
    while True:
        lam = tuple(
            Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(5)
        )
        if any(x == 0 for x in lam):
            continue
        if distinct and len(set(lam)) != 5:
            continue
        return lam