"""Abstract proximal operator: closed forms, the certified inner solver,
and the indicator specialization."""

import hashlib
import itertools

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


def test_prox_norm_square_away_from_weight_1():
    # at 1/(2 gamma') + w = 1 (the midpoint case) w (c + w) equals w / (c + w),
    # and 0.5 gamma' stands in for 0.5 / gamma' at gamma' = 1; here c = 2 and
    # w = 1/(2 * 0.5) + 0.3 = 1.3
    x0 = np.array([2.0, -1.0])
    req = ProxRequest(NormSquare(gamma=0.25, dim=2), x0, 0.5, 0.3)
    assert req.weight == pytest.approx(1.3, rel=1e-15)
    assert np.allclose(prox_via_argmin(req), 1.3 * x0 / (2.0 + 1.3), rtol=1e-14, atol=0.0)


def test_prox_norm_square_at_weight_0_is_f_s_minimizer():
    # weight 0 leaves f alone, whose minimizer is +0.0; the factor w / (...)
    # = 0 times x0 would give -0.0 at a negative x0
    req = ProxRequest(NormSquare(gamma=1.0, dim=2), np.array([-3.0, 2.0]), 0.5, -1.0)
    assert req.weight == 0.0
    assert prox_via_argmin(req).tobytes() == np.zeros(2).tobytes()


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
        # refused by the one rule min eig + weight > 0
        (Q5, 0.5, 2.0),
    ]
    for q, gamma, a0 in cases:
        with pytest.raises(UnboundedObjectiveError):
            prox_via_argmin(ProxRequest(QuadraticForm(q), np.zeros(q.shape[0]),
                                        gamma, a0))


def test_prox_quadratic_at_weight_0_on_a_psd_q_whose_min_eig_rounds_above_0():
    # [[1, 3], [3, 9]] is singular, but its computed min eig is 1.1e-16 > 0,
    # so the rule admits weight 0; Q is PSD, so z = 0 minimizes <z, Qz>
    f = QuadraticForm(np.array([[1.0, 3.0], [3.0, 9.0]]))
    assert f.min_eigenvalue > 0.0
    z = prox_via_argmin(ProxRequest(f, np.zeros(2), 0.5, -1.0))
    assert f.value(z) == 0.0


def test_prox_of_the_zero_quadratic_is_w_x0_over_w_bit_for_bit():
    # fb without a set runs f = QuadraticForm(0): its three bundled fb-hessian
    # CSV digests rest on this; the product (w x0) * (1 / w) misses these
    # bits on nearly half of these draws.  The draws hold no zero entry: the
    # products with V = I turn a -0.0 entry into +0.0
    rng = np.random.default_rng(2028)
    for n in range(1, 6):
        f = QuadraticForm(np.zeros((n, n)))
        for _ in range(400):
            gamma = 10.0 ** rng.uniform(-3.0, 3.0)
            x0 = rng.standard_normal(n) * 10.0 ** rng.uniform(-8.0, 8.0, n)
            req = ProxRequest(f, x0, gamma, rng.uniform(-0.4, 4.0) / gamma)
            w = req.weight
            assert prox_via_argmin(req).tobytes() == ((w * req.x0) / w).tobytes()


def test_prox_quadratic_agrees_with_a_dense_solve_within_16_kappa_eps():
    # relative to the LAPACK solve of (Q + w I) z = w x0, within 16 kappa eps
    # with kappa = (max |lam| + w) / (min lam + w); the worst ratio to
    # kappa eps is 6.1 on these draws, and was 9.5 over 3,000 such requests
    rng = np.random.default_rng(64)
    eps = np.finfo(float).eps
    for _ in range(200):
        n = int(rng.integers(1, 65))
        a = rng.standard_normal((n, n))
        f = QuadraticForm(a + a.T)
        lam = f.min_eigenvalue
        gamma = 10.0 ** rng.uniform(-2.0, 2.0)
        # a weight w >= 0 with min eig + w >= 1e-6 max(1, |min eig|)
        w = 10.0 ** rng.uniform(-6.0, 1.0) * max(1.0, abs(lam)) + max(-lam, 0.0)
        req = ProxRequest(f, rng.standard_normal(n), gamma, w - 0.5 / gamma)
        w = req.weight
        want = np.linalg.solve(f.q + w * np.eye(n), w * req.x0)
        kappa = (np.abs(f.eigenvalues).max() + w) / (lam + w)
        got = prox_via_argmin(req)
        assert np.linalg.norm(got - want) <= 16.0 * kappa * eps * np.linalg.norm(want)


def test_prox_quadratic_is_admitted_one_ulp_above_minus_min_eig():
    # min eig of Q5 is exactly -3: weight 3 is refused, the next float admitted
    f = QuadraticForm(Q5)
    assert f.min_eigenvalue == -3.0
    with pytest.raises(UnboundedObjectiveError):
        prox_via_argmin(ProxRequest(f, np.ones(5), 0.5, 2.0))
    req = ProxRequest(f, np.ones(5), 0.5, np.nextafter(2.0, np.inf))
    assert req.weight == np.nextafter(3.0, np.inf)
    assert np.isfinite(prox_via_argmin(req)).all()


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


def test_prox_indicator_refuses_a_zero_gamma():
    ball = Ball(np.zeros(2), 1.0)
    with pytest.raises(ValueError, match="gamma must be positive"):
        prox_indicator(ball, [3.0, 4.0], 0.0)
    assert prox_indicator(ball, [3.0, 4.0], 5e-324).tolist() == ball.project([3.0, 4.0]).tolist()


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


@pytest.mark.parametrize("x0", [1e100, 1e103])
def test_inner_solver_refuses_a_far_start_it_cannot_measure(x0):
    # ||h'(x0)||^2 overflows at 1e100 (h' = 4e300), and h'(x0) is inf at
    # 1e103; the minimizer is near 1.7e33, so x0 is no certified answer
    g = _blackbox(lambda p: float(p[0] ** 4), lambda p: np.array([4.0 * p[0] ** 3]), 0.0)
    with np.errstate(over="ignore"), pytest.raises(SolverToleranceError):
        prox_via_argmin(ProxRequest(g, [x0], 0.5, 0.0))


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


def test_inner_solver_certifies_only_a_positive_margin():
    # g = z.z with kappa = 2: at gamma = 1/2 the weight is 1 + a0, and the
    # margin 2(w - kappa) is 0 at a0 = 1
    g = _blackbox(lambda p: float(p @ p), lambda p: 2.0 * p, 2.0, dim=2)
    x0 = np.array([1.0, -2.0])
    with pytest.raises(SolverToleranceError, match="margin 0$"):
        prox_via_argmin(ProxRequest(g, x0, 0.5, 1.0))
    # weight 2.5: the minimizer w x0 / (1 + w)
    got = prox_via_argmin(ProxRequest(g, x0, 0.5, 1.5))
    assert np.allclose(got, x0 * 2.5 / 3.5, rtol=0, atol=1e-12)


@pytest.mark.parametrize("x0, a0, value_calls", [
    # the first trial lands at ||h'|| = 0.99995 r, short of the 1 - 1e-4
    # factor, so Armijo is consulted: h at x0 and at the trial
    (2.0 / (2.0 - 5e-5), 0.0, 2),
    # the first trial lands at ||h'|| equal to (1 - 1e-4) r in floating
    # point, which the gradient test accepts
    (1.2500625031251562, 0.5, 0),
], ids=["short-of-the-factor", "at-the-factor"])
def test_inner_solver_gradient_test_boundary(x0, a0, value_calls):
    # g = z^2 and weight w = 1 + a0: h'(x0) = 2 x0 = r, so the first step
    # 1/r moves to x0 - 1, where ||h'|| = 2 (1 + w) - 2 x0 = ((1 + w)/x0 - 1) r
    calls = []

    def value(p):
        calls.append(p)
        return float(p @ p)

    g = _blackbox(value, lambda p: 2.0 * p, 0.0)
    got = prox_via_argmin(ProxRequest(g, np.array([x0]), 0.5, a0))
    assert len(calls) == value_calls
    assert got[0] == pytest.approx(x0 * (1.0 + a0) / (2.0 + a0), rel=1e-12)


def test_inner_solver_halves_a_step_that_raises_h_by_less_than_the_armijo_term():
    # g = z^2 and weight 1: h = z^2 + (z - x0)^2 has h'' = 4, and the first
    # step 1/r overshoots the minimizer x0/2 by the factor 2.0001.  The trial
    # x0 - 1 fails the gradient test and raises h by about r^2 1e-4 / 4, less
    # than the Armijo term 1e-4 step r^2 = r 1e-4: it must be refused, so the
    # next gradient is taken at the halved step x0 - 0.5, not at the
    # Barzilai-Borwein step from the trial
    x0 = 2.0 / 2.0001
    seen = []

    def gradient(p):
        seen.append(float(p[0]))
        return 2.0 * p

    g = _blackbox(lambda p: float(p @ p), gradient, 0.0)
    got = prox_via_argmin(ProxRequest(g, np.array([x0]), 0.5, 0.0))
    assert seen[:3] == [x0, x0 - 1.0, x0 - 0.5]
    assert got[0] == pytest.approx(x0 / 2.0, rel=1e-12)


def test_inner_solver_stops_at_a_residual_equal_to_its_tolerance():
    # g = 1e-10 z at x0 = 0: the residual ||h'(x0)|| = 1e-10 is the tolerance
    # 1e-10 max(1, r, ||x0||) itself, which the stop rule accepts
    g = _blackbox(lambda p: 1e-10 * float(p[0]), lambda p: np.full(1, 1e-10), 0.0)
    assert prox_via_argmin(ProxRequest(g, np.zeros(1), 0.5, 0.0)).tolist() == [0.0]


def test_inner_solver_tries_a_step_of_exactly_1e_16():
    # g = 1e16 z at x0 = 0 and weight 1: the first step 1/||h'(x0)|| is 1e-16,
    # the least the descent tries; it passes Armijo, and the Barzilai-Borwein
    # step after it lands on the minimizer -1e16 / 2
    g = _blackbox(lambda p: 1e16 * float(p[0]), lambda p: np.full(1, 1e16), 0.0)
    got = prox_via_argmin(ProxRequest(g, np.zeros(1), 0.5, 0.0))
    assert got[0] == pytest.approx(-0.5e16, rel=1e-12)


def test_inner_solver_takes_at_most_500_steps():
    # g = z at weight 0: h' = 1 everywhere, so each unit step passes Armijo,
    # s'y = 0 keeps the step at 1, and the descent never stops on its own
    calls = itertools.count(1)

    def gradient(p):
        # the 500-step cap takes 501 calls; a descent that runs past it fails here
        if next(calls) > 10_000:
            raise RuntimeError("more than 10,000 gradient calls")
        return np.ones(1)

    g = _blackbox(lambda p: float(p[0]), gradient, 0.0)
    with pytest.raises(SolverToleranceError, match="after 500 steps"):
        prox_via_argmin(ProxRequest(g, np.zeros(1), 0.5, -1.0))


# sha256 of the answers' bytes, frozen before the inner solver stopped
# evaluating h where its gradient test decides: the residual checks above
# pass for any step sequence that converges, these pin the sequence
_RANDOM_REQUESTS_SHA256 = "603b288a762382262020808fc152a7e6e9cade64d66f46cebeeff0ce5f3e216d"
_DOUBLE_WELL_GRID_SHA256 = "f94fa1819853d5f9a03db25d28737c2f7617bf881fef7c3f8aaa596aa5b4685c"


def _double_well(value=None):
    # the tilted double well above: g'' = 12z^2 - 4, so kappa = 2
    value = value or (lambda p: float((p[0] ** 2 - 1.0) ** 2 + 0.3 * p[0]))
    return _blackbox(value, lambda p: np.array([4.0 * p[0] * (p[0] ** 2 - 1.0) + 0.3]), 2.0)


def test_inner_solver_answers_on_random_prox_requests_are_pinned():
    # the 500 requests of the stationarity test above, drawn the same way;
    # 15 of their trials are accepted by Armijo, where h(z) is read
    rng = np.random.default_rng(606)
    boxes = {d: _cos_blackbox(d, 0.5) for d in (1, 2, 3)}
    digest = hashlib.sha256()
    for k in range(500):
        d = int(rng.integers(1, 4))
        a0 = (0.0, 1.0, 3.0)[k % 3] if k % 2 else float(rng.uniform(0.0, 8.0))
        digest.update(prox_via_argmin(ProxRequest(boxes[d], rng.uniform(-6.0, 6.0, d), 0.5, a0))
                      .tobytes())
    assert digest.hexdigest() == _RANDOM_REQUESTS_SHA256


def test_inner_solver_answers_on_a_double_well_grid_are_pinned():
    g = _double_well()
    digest = hashlib.sha256()
    for a0 in (2.0, 5.0):  # weights 2.5 and 5.5, both above kappa
        for x0 in np.linspace(-3.0, 3.0, 61):
            digest.update(prox_via_argmin(ProxRequest(g, np.array([x0]), 1.0, a0)).tobytes())
    assert digest.hexdigest() == _DOUBLE_WELL_GRID_SHA256


def test_inner_solver_never_calls_value_where_the_gradient_test_decides():
    calls = []

    def counted(p):
        calls.append(p)
        return float((p[0] - 1) ** 2 + 2 * (p[1] + 0.5) ** 2)

    def broken(p):
        raise AssertionError("value called")

    grad = lambda p: np.array([2.0 * (p[0] - 1), 4.0 * (p[1] + 0.5)])
    req = lambda value: ProxRequest(_blackbox(value, grad, 0.0, dim=2), np.zeros(2), 1.0, 0.0)
    got = prox_via_argmin(req(counted))
    assert calls == []
    assert np.array_equal(prox_via_argmin(req(broken)), got)


def test_inner_solver_calls_value_where_its_armijo_test_is_consulted():
    calls = []

    def counted(p):
        calls.append(p)
        return float((p[0] ** 2 - 1.0) ** 2 + 0.3 * p[0])

    got = prox_via_argmin(ProxRequest(_double_well(counted), np.array([0.9]), 1.0, 2.0))
    assert calls != []
    brute = grid_argmin_1d(lambda z: (z * z - 1.0) ** 2 + 0.3 * z + 2.5 * (z - 0.9) ** 2,
                           -10, 10)
    assert got[0] == pytest.approx(brute, abs=1e-7)
