"""Abstract proximal operator: closed forms, the certified inner solver,
and the indicator specialization."""

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
    NormSquare,
    PhiElement,
    ProxRequest,
    PsgAdaptiveV2,
    PsgConstantGamma,
    QuadraticForm,
    SmoothBlackBox,
    SolverToleranceError,
    UnboundedObjectiveError,
    duality_map_element,
    duality_map_inverse,
    prox_abs_square_closed_form,
    prox_indicator,
    prox_via_argmin,
    subgrad_at,
)
from absprox.checks import Q3, Q5, closed_form_prox
from absprox.reference import grid_argmin_1d
from absprox.rng import XorShift64Star


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
    [(_, ok, detail)] = closed_form_prox(XorShift64Star(11), 200)
    assert ok, detail


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
        # weight 0 on a singular Q whose computed min eig is 1.1e-16 > 0:
        # LAPACK, not a guard, refuses the solve
        (np.array([[1.0, 3.0], [3.0, 9.0]]), 0.5, -1.0),
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
    # a request is one point of f's dimension
    with pytest.raises(ValueError, match="dimension mismatch"):
        ProxRequest(AbsPlusSquare(), np.zeros((2, 1)), 1.0, 0.0)
    for f, x0 in [(AbsPlusSquare(), [1.0, 2.0]), (NormSquare(gamma=1.0), [1.0, 2.0, 3.0])]:
        with pytest.raises(ValueError, match=r"oracle dim 1, point of shape \(\d,\)"):
            ProxRequest(f, x0, 1.0, 0.0)


NAN = float("nan")


@pytest.mark.parametrize("build", [
    lambda: PsgConstantGamma(gamma0=NAN, a0=1.0),
    lambda: PsgAdaptiveV2(gamma0=1.0, a0=0.0, epsilon=NAN),
    lambda: NormSquare(NAN),
    lambda: Ball(np.zeros(2), NAN),
    lambda: Box([0.0, NAN], [1.0, 1.0]),
    lambda: Box([0.0, 0.0], [1.0, NAN]),
    lambda: Halfspace([NAN, 1.0], 0.0),
    lambda: SmoothBlackBox(value=lambda p: 0.0, gradient=lambda p: p,
                           kappa=lambda p: 0.0, eps=NAN),
    lambda: ProxRequest(AbsPlusSquare(), [1.0], gamma=NAN, a0=0.0),
    lambda: duality_map_element([1.0], NAN, 0.0),
    lambda: duality_map_element([1.0], 1.0, NAN),
    lambda: duality_map_inverse(PhiElement(0.0, [1.0]), NAN),
    lambda: duality_map_inverse(PhiElement(NAN, [1.0]), 1.0),
    lambda: prox_abs_square_closed_form(1.0, NAN, 0.0),
    lambda: prox_abs_square_closed_form(1.0, 1.0, NAN),
    lambda: prox_abs_square_closed_form(3.0, -1.0, 0.1),
    lambda: prox_abs_square_closed_form(3.0, 0.0, 0.1),
    lambda: subgrad_at(IndicatorSet(Ball(np.zeros(2), 1.0)), [0.0, 0.0], NAN),
    lambda: prox_indicator(Ball(np.zeros(2), 1.0), [3.0, 4.0], NAN),
], ids=["schedule-gamma0", "adaptive-v2-epsilon", "norm-square-gamma", "ball-radius",
        "box-lo", "box-hi", "halfspace-normal", "blackbox-eps", "prox-request-gamma",
        "duality-element-gamma", "duality-element-a", "duality-inverse-gamma",
        "duality-inverse-a", "abs-square-gamma", "abs-square-a0", "abs-square-gamma-negative",
        "abs-square-gamma-zero", "indicator-subgrad-a", "indicator-prox-gamma"])
def test_nan_fails_each_positivity_check(build):
    # NaN fails every comparison, so a check written `x <= 0` would accept it;
    # the closed form also once took a negative gamma, and divided by a zero one
    with pytest.raises(ValueError):
        build()


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


def _blackbox(value, gradient, kappa, dim=1):
    return SmoothBlackBox(value=value, gradient=gradient, kappa=lambda p: kappa,
                          eps=1e-3, dim=dim)


def _cos_blackbox(dim, kappa):
    # g = sum(cos x_i) + 0.05||x||^2, so g'' >= -0.9 and kappa = 0.45 suffices
    return _blackbox(lambda p: float(np.sum(np.cos(p)) + 0.05 * float(p @ p)),
                     lambda p: -np.sin(p) + 0.1 * p, kappa, dim)


def _residual(g, req, z):
    return float(np.linalg.norm(g.gradient(z) + 2.0 * req.weight * (z - req.x0)))


def test_inner_solver_1d_quartic():
    g = _blackbox(lambda p: float((p[0] - 1.5) ** 4 + p[0]),
                  lambda p: np.array([4.0 * (p[0] - 1.5) ** 3 + 1.0]), 0.0)
    got = prox_via_argmin(ProxRequest(g, np.array([0.0]), 1.0, 0.0))
    brute = grid_argmin_1d(lambda z: (z - 1.5) ** 4 + z + 0.5 * z * z, -10, 10)
    assert got[0] == pytest.approx(brute, abs=1e-7)


def test_inner_solver_nd_bowl():
    g = _blackbox(lambda p: float((p[0] - 1) ** 2 + 2 * (p[1] + 0.5) ** 2),
                  lambda p: np.array([2.0 * (p[0] - 1), 4.0 * (p[1] + 0.5)]), 0.0, dim=2)
    got = prox_via_argmin(ProxRequest(g, np.zeros(2), 1.0, 0.0))
    # weight 1/2: z_0 = 1/(1 + 1/2), z_1 = -1/(2 + 1/2)
    assert np.allclose(got, [2.0 / 3.0, -0.4], rtol=0, atol=1e-9)


def test_inner_solver_certifies_or_raises_on_a_double_well():
    # tilted double well: local min near +1, global near -1; g'' = 12z^2 - 4,
    # so the honest curvature bound is kappa = 2
    g = _blackbox(lambda p: float((p[0] ** 2 - 1.0) ** 2 + 0.3 * p[0]),
                  lambda p: np.array([4.0 * p[0] * (p[0] ** 2 - 1.0) + 0.3]), 2.0)
    # weight 2.5 > kappa: h is strongly convex and the answer is its global min
    got = prox_via_argmin(ProxRequest(g, np.array([0.9]), 1.0, 2.0))
    brute = grid_argmin_1d(lambda z: (z * z - 1.0) ** 2 + 0.3 * z + 2.5 * (z - 0.9) ** 2,
                           -10, 10)
    assert got[0] == pytest.approx(brute, abs=1e-7)
    # weight 0.5 < kappa: margin 2(0.5 - 2) = -3, so no certificate
    with pytest.raises(SolverToleranceError, match="margin -3") as caught:
        prox_via_argmin(ProxRequest(g, np.array([0.9]), 1.0, 0.0))
    assert np.all(np.isfinite(caught.value.best))
    # a gradient that is never finite leaves the stop rule unmet
    broken = _blackbox(g.value, lambda p: np.array([np.nan]), 2.0)
    with pytest.raises(SolverToleranceError, match="residual nan"):
        prox_via_argmin(ProxRequest(broken, np.array([0.9]), 1.0, 2.0))


def test_inner_solver_converges_at_a_resonant_weight():
    # weight 4: 2w + g'' is 8 near the argmin, where halving from step 1
    # once stalled the finite-difference multistart at residual 7e-5
    g = _cos_blackbox(2, 1.0)
    req = ProxRequest(g, np.array([1.35775027, 1.21972358]), 0.5, 3.0)
    assert _residual(g, req, prox_via_argmin(req)) <= 1e-8


def test_inner_solver_is_stationary_on_random_prox_requests():
    rng = np.random.default_rng(606)
    boxes = {d: _cos_blackbox(d, 0.5) for d in (1, 2, 3)}
    worst = 0.0
    for k in range(500):
        d = int(rng.integers(1, 4))
        # gamma = 1/2, so a0 = 0, 1, 3 give the weights 1, 2 and 4
        a0 = (0.0, 1.0, 3.0)[k % 3] if k % 2 else float(rng.uniform(0.0, 8.0))
        req = ProxRequest(boxes[d], rng.uniform(-6.0, 6.0, d), 0.5, a0)
        worst = max(worst, _residual(boxes[d], req, prox_via_argmin(req)))
    assert worst <= 1e-8
