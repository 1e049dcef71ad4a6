"""Quadratic elementary functions phi(x) = -a||x||^2 + <u,x> and the
duality map between points and elements."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from absprox import (
    InfeasibleCoefficientError,
    PhiElement,
    duality_map_element,
    duality_map_inverse,
)
from absprox.phi import check_coefficient, duality_preimages, duality_slopes


def test_phi_element_coerces_u_to_vector():
    phi = PhiElement(0.5, 2.0)
    assert phi.u.shape == (1,)
    assert phi.dim == 1


def test_phi_equality_compares_coefficient_and_slope():
    assert PhiElement(1.0, (2.0,)) == PhiElement(1, [2.0])
    assert hash(PhiElement(1.0, (2.0,))) == hash(PhiElement(1, [2.0]))
    assert PhiElement(1.0, (2.0,)) != PhiElement(2.0, (2.0,))
    assert PhiElement(1.0, (2.0,)) != PhiElement(1.0, (3.0,))


# --- duality map -----------------------------------------------------------


def test_duality_map_worked_example():
    phi = duality_map_element((2.0, 2.0), 0.5, 1.0)
    assert phi.a == 1.0
    assert np.allclose(phi.u, [8.0, 8.0])


def test_duality_map_boundary_coefficient():
    # at a = -1/(2 gamma) the slope collapses to zero
    phi = duality_map_element((3.0,), 0.5, -1.0)
    assert np.allclose(phi.u, [0.0])


def test_duality_map_infeasible_raises():
    with pytest.raises(InfeasibleCoefficientError):
        duality_map_element((1.0,), 0.5, -1.5)


def test_duality_inverse_point():
    res = duality_map_inverse(PhiElement(1.0, (8.0, 0.0)), 0.5)
    assert res is not None
    assert np.allclose(res, [2.0, 0.0])


# points to send through the forward map at gamma = 0.5, where the threshold is a = -1
_ANY_POINTS = ([0.0, 0.0], [3.0, -2.0], [-1e300, 1e-300])


def test_duality_inverse_whole_space():
    # on the threshold every point maps to (a, 0): the preimage of (a, 0) is
    # the whole space, which is no one point
    assert duality_map_inverse(PhiElement(-1.0, (0.0, 0.0)), 0.5) is None
    for y in _ANY_POINTS:
        assert duality_map_element(y, 0.5, -1.0) == PhiElement(-1.0, (0.0, 0.0))


def test_duality_inverse_empty():
    # on the threshold every slope is 0, so no point maps to (a, (1, 0))
    assert duality_map_inverse(PhiElement(-1.0, (1.0, 0.0)), 0.5) is None
    for y in _ANY_POINTS:
        assert not np.any(duality_map_element(y, 0.5, -1.0).u)


def test_duality_inverse_below_threshold_is_empty():
    # 2*gamma*a < -1 with any slope: no element of J_gamma has this a
    assert duality_map_inverse(PhiElement(-2.0, (0.0,)), 0.5) is None
    for y in _ANY_POINTS:
        with pytest.raises(InfeasibleCoefficientError):
            duality_map_element(y[:1], 0.5, -2.0)


def test_duality_inverse_decides_the_threshold_exactly():
    # just above the threshold J_gamma's element still has a preimage
    res = duality_map_inverse(duality_map_element([5e12], 1.0, -0.5 + 1e-13), 1.0)
    assert res is not None and res.tolist() == [5e12]
    # just below it nothing maps to phi, whatever u is
    assert duality_map_inverse(PhiElement(-0.5 - 1e-13, [0.0]), 1.0) is None
    with pytest.raises(InfeasibleCoefficientError):
        duality_map_element([5e12], 1.0, -0.5 - 1e-13)
    # a huge gamma puts the threshold at a subnormal, not at a = 0
    res = duality_map_inverse(PhiElement(0.0, [0.0]), 1e308)
    assert res is not None and res.tolist() == [0.0]


def test_the_float_just_below_the_threshold_is_refused():
    # gamma*a rounds to -0.5, but 2*gamma*a < -1: no element of J_3 has this a
    a = -0.16666666666666669
    assert a == np.nextafter(-0.5 / 3.0, -np.inf)
    with pytest.raises(InfeasibleCoefficientError):
        check_coefficient(3.0, a)
    with pytest.raises(InfeasibleCoefficientError):
        duality_map_element([1.0], 3.0, a)
    assert duality_map_inverse(PhiElement(a, [-5.551115123125783e-17]), 3.0) is None


@pytest.mark.parametrize("gamma", [3.0, 7.0, 10.0, 1e-300, 1e308] + [k / 7.0 for k in range(1, 50)])
def test_an_admitted_coefficient_has_an_element_that_maps_back(gamma):
    # the coefficients within 3 ulps of the threshold: each one that
    # check_coefficient admits builds an element with a preimage, and each
    # one it refuses has none
    near = [-0.5 / gamma]
    for _ in range(3):
        near = [np.nextafter(near[0], -np.inf), *near, np.nextafter(near[-1], np.inf)]
    for a in map(float, near):
        try:
            check_coefficient(gamma, a)
        except InfeasibleCoefficientError:
            assert duality_map_inverse(
                PhiElement(a, [(1.0 / gamma + 2.0 * a) * 2.0]), gamma) is None
        else:
            phi = duality_map_element([2.0], gamma, a)
            # a point, or on the threshold (a, 0), whose preimage is the whole space
            assert duality_map_inverse(phi, gamma) is not None or (
                a == -0.5 / gamma and not np.any(phi.u))


@given(
    gamma=st.floats(0.01, 10.0),
    a=st.floats(-5.0, 10.0),
    x=st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=4),
)
@settings(max_examples=300, deadline=None)
def test_duality_round_trip(gamma, a, x):
    """J_gamma followed by its inverse recovers the point whenever the
    coefficient is admissible (2 gamma a > -1)."""
    if 2.0 * gamma * a <= -1.0 + 1e-9:
        return
    x = np.asarray(x)
    phi = duality_map_element(x, gamma, a)
    res = duality_map_inverse(phi, gamma)
    assert res is not None
    assert np.allclose(res, x, rtol=0, atol=1e-9 * max(1.0, float(np.abs(x).max())))


# --- the duality map on rows ------------------------------------------------

# (gamma, a, u) rows: feasible ones of mixed scale, a threshold row with u = 0
# (the whole space) and one with u != 0 (empty), a row below the threshold
# (empty), J_1's element of [5e12] just above the threshold, and gamma = 1e308
_ROWS = [
    (0.5, 1.0, [8.0, 0.0]),
    (3.0, 0.25, [-1.5, 2.0]),
    (0.5, -1.0, [0.0, 0.0]),
    (0.5, -1.0, [1.0, 0.0]),
    (0.5, -2.0, [0.0, 3.0]),
    (1.0, -0.5 + 1e-13, [(1.0 + 2.0 * (-0.5 + 1e-13)) * 5e12, 0.0]),
    (1e308, 0.0, [0.0, 0.0]),
    (1e-3, 10.0, [2.0, -1.0]),
    (7.0, 3.0, [1e-300, -4.0]),
]


def _columns(rows):
    gamma, a, u = zip(*rows)
    return np.array(u), np.array(gamma), np.array(a)


def test_row_preimages_are_each_rows_inverse_bit_for_bit():
    u, gamma, a = _columns(_ROWS)
    points, is_point = duality_preimages(u, gamma, a)
    for i, (g, a_i, u_i) in enumerate(_ROWS):
        res = duality_map_inverse(PhiElement(a_i, u_i), g)
        assert bool(is_point[i]) is (res is not None)
        if is_point[i]:
            assert points[i].tobytes() == res.tobytes()
    assert is_point.tolist() == [True, True, False, False, False, True, True, True, True]
    assert points[5].tolist() == [5e12, 0.0]


def test_row_slopes_are_each_rows_element_bit_for_bit():
    # the slopes of the admitted rows, threshold rows included, each at x = u
    rows = [row for row in _ROWS if row[0] * row[1] * 2.0 >= -1.0]
    x, gamma, a = _columns(rows)
    slopes = duality_slopes(x, gamma, a)
    expect = np.array([duality_map_element(x_i, g, a_i).u for g, a_i, x_i in rows])
    assert slopes.tobytes() == expect.tobytes()


def test_row_preimages_divide_only_the_point_rows():
    # a threshold row's denominator is 0: dividing every row would warn
    u, gamma, a = _columns(_ROWS)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        duality_preimages(u, gamma, a)


def _refusal(call):
    with pytest.raises(ValueError) as err:
        call()
    return type(err.value), str(err.value)


# a later row refuses too, with another error or message than the first one's
_REFUSED_BLOCKS = {
    "gamma-zero": (1, (0.0, 1.0, [1.0])),
    "a-nan": (2, (2.0, np.nan, [1.0])),
}


@pytest.mark.parametrize("bad_row, bad", _REFUSED_BLOCKS.values(), ids=_REFUSED_BLOCKS)
def test_a_row_block_refuses_as_its_first_refused_rows_point_call(bad_row, bad):
    rows = [(0.5, 1.0, [2.0]), (1.0, 0.0, [3.0]), (2.0, 1.0, [-1.0]), (4.0, np.nan, [1.0])]
    rows[bad_row] = bad
    u, gamma, a = _columns(rows)
    g, a_bad, u_bad = bad
    assert _refusal(lambda: duality_slopes(u, gamma, a)) == _refusal(
        lambda: duality_map_element(u_bad, g, a_bad))
    assert _refusal(lambda: duality_preimages(u, gamma, a)) == _refusal(
        lambda: duality_map_inverse(PhiElement(a_bad, u_bad), g))


def test_row_slopes_refuse_a_row_below_the_threshold_in_python_floats():
    u, gamma, a = _columns([(0.5, 1.0, [2.0]), (0.5, -1.5, [1.0]), (0.5, np.nan, [1.0])])
    assert _refusal(lambda: duality_slopes(u, gamma, a)) == (
        InfeasibleCoefficientError,
        "a=-1.5 violates 2*gamma*a >= -1 at gamma=0.5: no element of the duality map has it")
