"""Quadratic elementary functions phi(x) = -a||x||^2 + <u,x> and the
duality map between points and elements."""

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from absprox import (
    InfeasibleCoefficientError,
    PhiElement,
    ResultKind,
    duality_map_element,
    duality_map_inverse,
)
from absprox.phi import check_coefficient


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
    assert res.kind is ResultKind.POINT
    assert np.allclose(res.point, [2.0, 0.0])


def test_duality_inverse_whole_space():
    res = duality_map_inverse(PhiElement(-1.0, (0.0, 0.0)), 0.5)
    assert res.kind is ResultKind.WHOLE_SPACE


def test_duality_inverse_empty():
    res = duality_map_inverse(PhiElement(-1.0, (1.0, 0.0)), 0.5)
    assert res.kind is ResultKind.EMPTY


def test_duality_inverse_below_threshold_is_empty():
    # 2*gamma*a < -1 with any slope: no preimage
    res = duality_map_inverse(PhiElement(-2.0, (0.0,)), 0.5)
    assert res.kind is ResultKind.EMPTY


def test_duality_inverse_decides_the_threshold_exactly():
    # just above the threshold J_gamma's element still has a preimage
    res = duality_map_inverse(duality_map_element([5e12], 1.0, -0.5 + 1e-13), 1.0)
    assert res.kind is ResultKind.POINT and res.point.tolist() == [5e12]
    # just below it nothing maps to phi, whatever u is
    assert duality_map_inverse(PhiElement(-0.5 - 1e-13, [0.0]), 1.0).kind is ResultKind.EMPTY
    # a huge gamma puts the threshold at a subnormal, not at a = 0
    res = duality_map_inverse(PhiElement(0.0, [0.0]), 1e308)
    assert res.kind is ResultKind.POINT and res.point.tolist() == [0.0]


def test_the_float_just_below_the_threshold_is_refused():
    # gamma*a rounds to -0.5, but 2*gamma*a < -1: no element of J_3 has this a
    a = -0.16666666666666669
    assert a == np.nextafter(-0.5 / 3.0, -np.inf)
    with pytest.raises(InfeasibleCoefficientError):
        check_coefficient(3.0, a)
    with pytest.raises(InfeasibleCoefficientError):
        duality_map_element([1.0], 3.0, a)
    assert duality_map_inverse(PhiElement(a, [-5.551115123125783e-17]), 3.0).kind is ResultKind.EMPTY


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
            kind = duality_map_inverse(PhiElement(a, [(1.0 / gamma + 2.0 * a) * 2.0]), gamma).kind
            assert kind is ResultKind.EMPTY
        else:
            assert duality_map_inverse(duality_map_element([2.0], gamma, a), gamma).kind in (
                ResultKind.POINT, ResultKind.WHOLE_SPACE)


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
    assert res.kind is ResultKind.POINT
    assert np.allclose(res.point, x, rtol=0, atol=1e-9 * max(1.0, float(np.abs(x).max())))

