"""Caller input at the library's entry points.

Each rule for an exact input lives in one place: the scalar guards in
errors, the coefficient count in cubic, lattice vectors and 6x6 integer
matrices in lattice, and chart points in domain.  The regression tests
below are inputs that used to be answered; the property checks that the
entry points answer only well-formed input and otherwise raise TypeError
or ValueError.
"""

from fractions import Fraction
from functools import partial

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from hessk3 import lattice
from hessk3.correspond import decompose_so0, herm_to_orth, is_so0, orth_to_herm, psi_hom
from hessk3.cubic import classify, elem_sym_values, hessian_equations, hessian_line_check
from hessk3.domain import Q0, act, dm_membership, psi
from hessk3.eisenstein import ONE, ZERO, Eisenstein
from hessk3.errors import InputTypeError, integer, rational
from hessk3.heegner import chart_flags, perp_equivalence, perp_flags
from hessk3.hermitian import F4_ID, m2e, membership, moebius, p1_action, token_matrix, token_power
from hessk3.lattice import G1, GRAM, mat_id, orthogonal_complement, translation_h
from hessk3.poly import elem_sym_polys
from hessk3.tower import C_ZERO, Cyclo12


@pytest.mark.parametrize("guard", [integer, rational])
@pytest.mark.parametrize("x", [True, 0.5, "1", None])
def test_scalar_guards_raise_one_type_and_value_error(guard, x):
    with pytest.raises(InputTypeError, match="^x: expected an") as caught:
        guard(x, "x")
    assert isinstance(caught.value, TypeError) and isinstance(caught.value, ValueError)


@pytest.mark.parametrize("lam", [(1, 2, 3, 4), (1, 2, 3, 4, 5, 6)])
def test_lambda_of_the_wrong_length_is_rejected(lam):
    with pytest.raises(ValueError, match="lambda: expected five coefficients"):
        hessian_equations(lam)
    with pytest.raises(ValueError, match="lambda: expected five coefficients"):
        hessian_line_check(lam, (0, 1))


@pytest.mark.parametrize("v", [(1, 0, 0, 0, 0, 0, 7), (1, 0, 0, 0, 0)])
def test_lattice_vector_of_the_wrong_length_is_rejected(v):
    with pytest.raises(ValueError, match="v: expected six coordinates"):
        orthogonal_complement(v)


@pytest.mark.parametrize("z", [Q0 + (C_ZERO,), Q0[:5]], ids=["seven", "five"])
@pytest.mark.parametrize("fn", [psi, dm_membership, chart_flags, perp_flags, perp_equivalence])
def test_chart_point_of_the_wrong_length_is_rejected(fn, z):
    with pytest.raises(ValueError, match="z: expected six coordinates"):
        fn(z)


@pytest.mark.parametrize("z", [Q0 + (C_ZERO,), Q0[:5]], ids=["seven", "five"])
def test_act_rejects_a_point_of_the_wrong_length(z):
    # both used to answer with six coordinates
    with pytest.raises(ValueError, match="z: expected six coordinates"):
        act(G1, z)


@pytest.mark.parametrize(
    "g",
    [G1[:5], G1 + (G1[0],), tuple(r[:5] for r in G1), tuple(r + (0,) for r in G1)],
    ids=["five-rows", "seven-rows", "five-columns", "seven-columns"],
)
def test_act_rejects_a_matrix_that_is_not_6x6(g):
    # each used to answer: with five or seven coordinates, or with z6 or a
    # seventh column ignored
    with pytest.raises(ValueError, match="g: expected a 6x6 integer matrix"):
        act(g, Q0)


@pytest.mark.parametrize("x", [Fraction(1, 2), True, Cyclo12(1)])
def test_act_rejects_a_matrix_entry_that_is_not_an_int(x):
    # each used to answer
    g = ((x,) + G1[0][1:],) + G1[1:]
    with pytest.raises(TypeError, match="matrix entry: expected an integer"):
        act(g, Q0)


@pytest.mark.parametrize("pair", [(0, 9), (-1, 0), (2, 2), (0, 1, 2)])
def test_hessian_line_check_rejects_a_bad_pair(pair):
    # (0, 9) raised IndexError, (-1, 0) answered for X5
    with pytest.raises(ValueError, match="pair: expected two distinct indices in 0..4"):
        hessian_line_check((1, 2, 3, 4, 5), pair)


def test_hessian_line_check_rejects_a_bool_index():
    with pytest.raises(TypeError, match="pair index: expected an integer, got bool"):
        hessian_line_check((1, 2, 3, 4, 5), (True, 2))


def test_a_bool_is_not_a_rational():
    with pytest.raises(TypeError, match=r"lambda\[0\]: expected an exact rational, got bool"):
        classify((True, 2, 3, 4, 5))
    with pytest.raises(TypeError, match="field coordinate: expected an exact rational, got bool"):
        Cyclo12(True)


# The reflection in v = (1, 3, 0, 0, 0, 0), x -> x - b(x, v) v / 3 with
# b(v, v) = 6: a rational isometry, its own inverse, with entries -1/3 and -3.
_V = (1, 3, 0, 0, 0, 0)
_QV = lattice.mat_vec(GRAM, _V)
_REFLECTION = tuple(tuple(int(i == j) - Fraction(_V[i] * _QV[j], 3) for j in range(6)) for i in range(6))
_ISOMETRY_ENTRY_POINTS = {
    "is_orthogonal": lattice.is_orthogonal,
    "isometry_inverse": lattice.isometry_inverse,
    "orientation": lattice.orientation,
    "block_parity": lattice.block_parity,
    "disc_action": lattice.disc_action,
    "to_s5": lattice.to_s5,
    "is_in_k3": lattice.is_in_k3,
    "is_in_enr": lattice.is_in_enr,
    "is_so0": is_so0,
    "decompose_so0": decompose_so0,
    "orth_to_herm": orth_to_herm,
}
_PREDICATES = {"is_orthogonal", "is_so0"}


@pytest.mark.parametrize(
    "g",
    [
        _REFLECTION,
        tuple(tuple(float(i == j) for j in range(6)) for i in range(6)),
        tuple(tuple(i == j for j in range(6)) for i in range(6)),
    ],
    ids=["rational-reflection", "float-identity", "bool-identity"],
)
@pytest.mark.parametrize("name", sorted(_ISOMETRY_ENTRY_POINTS))
def test_isometry_entry_points_refuse_a_matrix_that_is_not_over_the_integers(name, g):
    # each used to answer or fail inside the arithmetic: isometry_inverse
    # floored the reflection's -1/3, disc_action returned Fractions, to_s5
    # of the float identity and decompose_so0 of the bool one answered
    assert lattice.mat_mul(g, g) == lattice.mat_id()
    with pytest.raises(InputTypeError, match="matrix entry: expected an integer"):
        _ISOMETRY_ENTRY_POINTS[name](g)


@pytest.mark.parametrize(
    "g",
    [G1[:5], G1 + (G1[0],), tuple(r + (0,) for r in G1), lattice.mat_id(5)],
    ids=["five-rows", "seven-rows", "seven-columns", "5x5"],
)
def test_an_integer_matrix_of_another_shape_is_no_isometry(g):
    # all but seven-columns used to fail inside a product with "mismatched shapes"
    assert not lattice.is_orthogonal(g) and not is_so0(g)
    with pytest.raises(ValueError, match="orientation of a non-isometry"):
        lattice.orientation(g)


def test_m2e_rejects_a_float_entry():
    with pytest.raises(TypeError, match="matrix entry: expected an integer, got float"):
        m2e(((0.5, 0), (0, 2)))


@pytest.mark.parametrize("x", [Eisenstein(0.5, 0), Eisenstein(True, 0)], ids=["float", "bool"])
def test_m2e_rejects_an_eisenstein_entry_without_int_coordinates(x):
    # both used to be answered; the gA entry points refused them later
    with pytest.raises(InputTypeError, match="matrix entry: expected an Eisenstein integer"):
        m2e(((x, 0), (0, 1)))


_GA_ENTRY_POINTS = {
    "psi_hom": psi_hom,
    "token_matrix": lambda a: token_matrix(("gA", a)),
    "token_power": lambda a: token_power(("gA", a), 0),
    "token_power 2": lambda a: token_power(("gA", a), 2),
}


@pytest.mark.parametrize(
    "a",
    [((Eisenstein(1.0, 0), ZERO), (ZERO, ONE)), ((1, 0), (0, 1)), ((ONE, ZERO), (ZERO, True))],
    ids=["float-coordinate", "plain-ints", "bool"],
)
@pytest.mark.parametrize("name", sorted(_GA_ENTRY_POINTS))
def test_gA_blocks_are_matrices_of_eisenstein_integers(name, a):
    # the float coordinate used to be answered by every entry point, the
    # plain ints raised AttributeError inside the determinant (a square
    # answered an int matrix, token_power at 0 the identity), the bool one
    # was answered
    with pytest.raises(InputTypeError, match="matrix entry: expected an Eisenstein integer"):
        _GA_ENTRY_POINTS[name](a)


@pytest.mark.parametrize("name", sorted(_GA_ENTRY_POINTS))
def test_gA_blocks_have_unit_determinant(name):
    # a power used to skip the test: a square answered diag(4, 1) and
    # token_power at 0 the identity token
    with pytest.raises(ValueError, match="unit"):
        _GA_ENTRY_POINTS[name](m2e(((2, 0), (0, 1))))


@pytest.mark.parametrize(
    "fm, pt, message",
    [
        (F4_ID, ((5, 0), (3, 0)), "point is not in P1"),
        (F4_ID, ((0, 0), (0, 0)), "point is not in P1"),
        (F4_ID, ((1, 0),), "point is not in P1"),
        ((((0, 0), (0, 0)), ((0, 0), (0, 0))), ((1, 0), (0, 0)), "matrix is not invertible over F4"),
        ((((1, 0), (1, 0)), ((1, 0), (1, 0))), ((1, 0), (0, 0)), "matrix is not invertible over F4"),
        ((((1, 0), (0, 0)), ((0, 0), (2, 0))), ((1, 0), (0, 0)), "matrix is not invertible over F4"),
    ],
    ids=["point-off-f4", "zero-point", "short-point", "zero-matrix", "singular", "entry-off-f4"],
)
def test_p1_action_checks_both_arguments(fm, pt, message):
    # the first answered ((1, 0), (1, 0)), the zero matrix raised
    # InvariantViolation("projective image vanished")
    with pytest.raises(ValueError, match=message):
        p1_action(fm, pt)


# -- the contract as a property ------------------------------------------------

_INT, _RAT, _EIS = "int", "rational", "Eisenstein integer"
# an entry of m2e: an int, or an Eisenstein integer taken as it is
_ZW = "int or Eisenstein integer"
_GA = ({2}, ({2}, _EIS))
_POINT = ({6}, _RAT)
# a chart point has the shape _POINT but is drawn with z1 = 1 most of the time
_CHART = "chart point"


def _spread(fn):
    """fn taking the entries of a tuple as its arguments, anything else as one."""
    return lambda xs: fn(*xs) if type(xs) is tuple else fn(xs)


# each entry point with the shape of its one argument: a scalar kind, or
# (the allowed lengths, the shape of each entry)
_ENTRY_POINTS = {
    "translation_h": (_spread(translation_h), ({4}, _INT)),
    "token_matrix gBu": (lambda m: token_matrix(("gBu", m)), ({4}, _INT)),
    "herm_to_orth gBu": (lambda m: herm_to_orth(False, False, [("gBu", m)]), ({4}, _INT)),
    "herm_to_orth gBl": (lambda m: herm_to_orth(False, False, [("gBl", m)]), ({4}, _INT)),
    "m2e": (m2e, ({2}, ({2}, _ZW))),
    "membership": (membership, ({4}, ({4}, _EIS))),
    # the identity's denominator is I, so a well-formed tau is answered
    "moebius tau": (partial(moebius, mat_id(4, ONE, ZERO)), ({2}, ({2}, _RAT))),
    "orthogonal_complement": (orthogonal_complement, ({6}, _INT)),
    "classify": (classify, ({5}, _RAT)),
    "elem_sym_values": (elem_sym_values, ({5}, _RAT)),
    "hessian_equations": (hessian_equations, ({5}, _RAT)),
    "dm_membership": (dm_membership, _CHART),
    "chart_flags": (chart_flags, _CHART),
    "act": (partial(act, G1), _CHART),
    "act matrix": (lambda g: act(g, Q0), ({6}, ({6}, _INT))),
    "Cyclo12": (_spread(Cyclo12), (set(range(5)), _RAT)),
    "Poly5.eval": (elem_sym_polys()[1].eval, ({5}, _RAT)),
    **{f"{name} gA": (fn, _GA) for name, fn in _GA_ENTRY_POINTS.items()},
    # the two predicates answer False for an integer matrix of another
    # shape, since it is no isometry of M; the others raise on it
    **{
        name: (fn, (set(range(8)), (set(range(8)), _INT)) if name in _PREDICATES else ({6}, ({6}, _INT)))
        for name, fn in _ISOMETRY_ENTRY_POINTS.items()
    },
}

_EXACT = {
    _INT: st.integers(-2, 2),
    _RAT: st.integers(-2, 2) | st.fractions(-2, 2, max_denominator=3),
    _EIS: st.builds(Eisenstein, st.integers(-1, 1), st.integers(-1, 1)),
}
_JUNK = (
    st.booleans()
    | st.floats(-2, 2)
    | st.text(max_size=2)
    | st.none()
    | st.lists(st.integers(-2, 2), max_size=7).map(tuple)
)


def _fits(value, shape) -> bool:
    if shape == _CHART:
        return _fits(value, _POINT)
    if shape == _INT:
        return type(value) is int
    if shape == _RAT:
        return type(value) in (int, Fraction)
    if shape == _EIS:
        return type(value) is Eisenstein and type(value.a) is int and type(value.b) is int
    if shape == _ZW:
        return type(value) is int or _fits(value, _EIS)
    lengths, entry = shape
    return type(value) is tuple and len(value) in lengths and all(_fits(x, entry) for x in value)


def _normalized(draw):
    """The drawn value with its first coordinate set to 1, four times in five."""
    z, k = draw
    return (1,) + z[1:] if k and type(z) is tuple and z else z


def _values(shape):
    """Values of the shape, now and then with a wrong length or a junk entry."""
    if shape == _CHART:
        # a point with z1 != 1 stops at the chart check, so most draws are
        # normalized, and five, six and seven coordinates are drawn alike,
        # so most draws reach the length and type guards behind that check
        return st.tuples(_values(({5, 6, 7}, _RAT)), st.integers(0, 4)).map(_normalized)
    if shape in (_EIS, _ZW):
        # coordinates in -1..1 make unit determinants common; an Eisenstein
        # entry is most easily mistaken for a plain int or an Eisenstein
        # with a float coordinate, so two entries in three are those
        floats = st.integers(-1, 1).map(float)
        exact = _EXACT[_EIS] | st.integers(-1, 1) | st.builds(Eisenstein, floats, st.integers(-1, 1))
    elif isinstance(shape, str):
        exact = _EXACT[shape]
    else:
        lengths, entry = shape
        # a length from 0 to 7 about one time in five, else an allowed one
        size = st.integers(0, 9).flatmap(
            lambda k: st.integers(0, 7) if k < 2 else st.sampled_from(sorted(lengths))
        )
        exact = size.flatmap(lambda n: st.tuples(*[_values(entry)] * n))
    return st.integers(0, 19).flatmap(lambda k: _JUNK if k == 0 else exact)


@pytest.mark.parametrize("name", sorted(_ENTRY_POINTS))
# no shrink phase: a fault in an entry guard fails several rows, and
# shrinking those failures took minutes; the first failure is reported as
# drawn
@settings(
    max_examples=10, derandomize=True, deadline=None, phases=[p for p in Phase if p is not Phase.shrink]
)
@given(data=st.data())
def test_entry_points_answer_only_well_formed_input(name, data):
    fn, shape = _ENTRY_POINTS[name]
    arg = data.draw(_values(shape))
    try:
        fn(arg)
    except (TypeError, ValueError):
        return
    assert _fits(arg, shape), f"{name} answered {arg!r}"
