"""Abstract proximal operator: closed forms, the generic argmin fallback,
indicator specialization, and fixed-point classification."""

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from absprox import (
    AbsPlusSquare,
    Ball,
    Box,
    Halfspace,
    IndicatorSet,
    InfeasibleCoefficientError,
    InnerSolver,
    NormSquare,
    ProxRequest,
    QuadraticForm,
    SmoothBlackBox,
    UnboundedObjectiveError,
    VerdictKind,
    classify_fixed_point,
    prox_abs_square_closed_form,
    prox_indicator,
    prox_via_argmin,
)
from absprox.reference import grid_argmin_1d
from absprox.rng import XorShift64Star

Q3 = np.array([[-2.0, 2, 2], [2, 2, -2], [2, -2, 2]])
Q5 = np.array([[1.0, 0, -1, 1, 0], [0, 1, 1, -1, 0], [-1, 1, -1, 1, 1],
               [1, -1, 1, -1, 1], [0, 0, 1, 1, 1]])


# --- closed form for |x| + x^2 ----------------------------------------------


def test_closed_form_worked_example():
    # gamma=1, a0=0: s=1, shrink (s*x0 - 1)/(s + 2)
    assert prox_abs_square_closed_form(3.0, 1.0, 0.0) == pytest.approx(2.0 / 3.0)


def test_closed_form_dead_zone():
    assert prox_abs_square_closed_form(0.5, 1.0, 0.0) == 0.0
    assert prox_abs_square_closed_form(0.0, 1.0, 0.0) == 0.0
    assert prox_abs_square_closed_form(-0.5, 1.0, 0.0) == 0.0


def test_closed_form_negative_branch():
    assert prox_abs_square_closed_form(-3.0, 1.0, 0.0) == pytest.approx(-2.0 / 3.0)


def test_closed_form_boundary_weight():
    # 2*gamma*a0 = -1 makes s = 0: pure f, minimized at the kink
    assert prox_abs_square_closed_form(5.0, 10.0, -0.05) == 0.0


def test_closed_form_infeasible():
    with pytest.raises(InfeasibleCoefficientError):
        prox_abs_square_closed_form(1.0, 1.0, -1.0)


def test_closed_form_matches_brute_force_on_draws():
    rng = XorShift64Star(11)
    for _ in range(200):
        gamma = rng.uniform(0.01, 10.0)
        a0 = rng.uniform(-1.0 / (2.0 * gamma), 10.0)
        x0 = rng.uniform(-20.0, 20.0)
        w = 0.5 / gamma + a0
        h = lambda z: np.abs(z) + z * z + w * (z - x0) ** 2
        assert prox_abs_square_closed_form(x0, gamma, a0) == pytest.approx(
            grid_argmin_1d(h, -25.0, 25.0), abs=1e-8)


# --- generic prox -----------------------------------------------------------


def test_prox_dispatches_closed_form():
    got = prox_via_argmin(ProxRequest(AbsPlusSquare(), np.array([3.0]), 1.0, 0.0))
    assert got[0] == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_prox_norm_square_midpoint():
    got = prox_via_argmin(ProxRequest(NormSquare(gamma=1.0, dim=2), np.array([2.0, 0.0]), 1.0, 0.0))
    assert np.allclose(got, [1.0, 0.0])


def test_prox_quadratic_solves_linear_system():
    x0 = np.array([1.0, -1.0, 2.0])
    req = ProxRequest(QuadraticForm(Q3), x0, 0.05, 0.0)
    got = prox_via_argmin(req)
    w = req.weight
    assert np.allclose((Q3 + w * np.eye(3)) @ got, w * x0, atol=1e-10)


def test_prox_quadratic_unbounded():
    cases = [
        # min eigenvalue of Q3 is -4; weight 1/(2*1) + 0 = 0.5 cannot dominate it
        (Q3, 1.0, 0.0),
        # weight 1/(2*0.5) + 2 = 3 is exactly -min eig of Q5: singular, and
        # the error type must not depend on the last bit of the eigenvalue
        (Q5, 0.5, 2.0),
    ]
    for q, gamma, a0 in cases:
        with pytest.raises(UnboundedObjectiveError):
            prox_via_argmin(ProxRequest(QuadraticForm(q), np.zeros(q.shape[0]),
                                        gamma, a0))


def test_prox_indicator_is_projection():
    ball = Ball(np.zeros(2), 1.0)
    got = prox_via_argmin(ProxRequest(IndicatorSet(ball), np.array([3.0, 4.0]), 0.7, 0.2))
    assert np.allclose(got, [0.6, 0.8], atol=1e-12)


def test_prox_indicator_helper_matches_projection_explicitly():
    sets = [Ball(np.array([1.0, 0.0]), 2.0),
            Box(np.array([-1.0, -2.0]), np.array([3.0, 2.0])),
            Halfspace(np.array([1.0, 1.0]), 2.0)]
    rng = XorShift64Star(21)
    for s in sets:
        for _ in range(50):
            x = rng.uniform_vector(-6.0, 6.0, 2)
            assert np.allclose(prox_indicator(s, x, 0.3), s.project(x), atol=1e-12)


def test_prox_request_validation():
    with pytest.raises(InfeasibleCoefficientError):
        ProxRequest(AbsPlusSquare(), np.array([1.0]), 1.0, -0.6)  # 2*g*a0 < -1
    req = ProxRequest(AbsPlusSquare(), np.array([1.0]), 2.0, 0.5)
    assert req.weight == pytest.approx(0.75)
    with pytest.raises(ValueError):
        ProxRequest(AbsPlusSquare(), np.array([1.0]), -1.0, 0.0)


def test_prox_blackbox_uses_inner_solver():
    g = SmoothBlackBox(
        value=lambda p: float(p[0] ** 4),
        gradient=lambda p: np.array([4.0 * p[0] ** 3]),
        kappa=lambda p: 0.0,
        eps=0.1,
    )
    req = ProxRequest(g, np.array([2.0]), 1.0, 0.0)
    got = prox_via_argmin(req)
    w = req.weight
    brute = grid_argmin_1d(lambda z: z**4 + w * (z - 2.0) ** 2, -10, 10)
    assert got[0] == pytest.approx(brute, abs=1e-7)


@given(gamma=st.floats(0.01, 10.0), a0=st.floats(0.0, 10.0))
@settings(max_examples=200, deadline=None)
def test_minimizer_is_fixed_point(gamma, a0):
    """x0 = 0 minimizes |x| + x^2, so every prox there returns 0."""
    got = prox_via_argmin(ProxRequest(AbsPlusSquare(), np.array([0.0]), gamma, a0))
    assert got[0] == 0.0


def test_prox_output_certifies_regularized_minimum():
    # the returned point must beat 10^3 sampled candidates
    req = ProxRequest(AbsPlusSquare(), np.array([4.0]), 0.5, 1.0)
    xp = float(prox_via_argmin(req)[0])
    w = req.weight
    h = lambda z: abs(z) + z * z + w * (z - 4.0) ** 2
    rng = XorShift64Star(13)
    best = min(h(rng.uniform(-10.0, 10.0)) for _ in range(1000))
    assert h(xp) <= best + 1e-8


# --- inner solver -----------------------------------------------------------


def test_inner_solver_1d_quartic():
    s = InnerSolver()
    got = s.minimize_1d(lambda z: (z - 1.5) ** 4 + z, 0.0)
    brute = grid_argmin_1d(lambda z: (z - 1.5) ** 4 + z, -10, 10)
    assert got == pytest.approx(brute, abs=1e-6)


def test_inner_solver_nd_bowl():
    s = InnerSolver()
    got = s.minimize_nd(lambda p: float((p[0] - 1) ** 2 + 2 * (p[1] + 0.5) ** 2), np.zeros(2))
    assert np.allclose(got, [1.0, -0.5], atol=1e-6)


def test_inner_solver_multistart_escapes_local_basin():
    # double well with tilt: local min near +1, global near -1
    h = lambda p: float((p[0] ** 2 - 1.0) ** 2 + 0.3 * p[0])
    s = InnerSolver()
    got = s.minimize_nd(h, np.array([0.9]))
    assert got[0] < 0.0


# --- fixed-point classification ---------------------------------------------


def test_classify_global_minimum():
    v = classify_fixed_point(1.0, 3.0)
    assert v.kind is VerdictKind.GLOBAL_MIN


def test_classify_equal_coefficients_is_global():
    assert classify_fixed_point(2.0, 2.0).kind is VerdictKind.GLOBAL_MIN


def test_classify_critical_with_modulus():
    v = classify_fixed_point(3.0, 1.0)
    assert v.kind is VerdictKind.A_CRITICAL
    assert v.modulus == pytest.approx(2.0)
