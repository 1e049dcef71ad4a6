"""Oracle suite: evaluation, feasible coefficient ranges, subdifferential
selectors, and the set descriptors."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from absprox import (
    AbsPlusSquare,
    Ball,
    Box,
    EmptySubdifferentialError,
    Halfspace,
    IndicatorSet,
    InfeasibleCoefficientError,
    NormSquare,
    PhiElement,
    ProxRequest,
    QuadraticForm,
    SmoothBlackBox,
    eval_oracle,
    feasible_range,
    phi,
    prox_via_argmin,
    subgrad_at,
)
import absprox
from absprox import checks
from absprox.checks import Q3, Q5, certificates
from absprox.reference import subgrad_inequality_sampler


def test_eval_each_kind():
    assert eval_oracle(NormSquare(gamma=0.5, dim=2), (2.0, 0.0)) == 4.0
    assert eval_oracle(QuadraticForm(Q3), (1.0, 0.0, 0.0)) == -2.0
    assert eval_oracle(AbsPlusSquare(), (-2.0,)) == 6.0
    ind = IndicatorSet(Ball(np.zeros(2), 1.0))
    assert eval_oracle(ind, (0.5, 0.0)) == 0.0
    assert eval_oracle(ind, (2.0, 0.0)) == np.inf


def _random_symmetric(n):
    m = np.random.default_rng(n).uniform(-1.0, 1.0, (n, n))
    return m + m.T


_BOUNDARY_SETS = [
    # (set, rows inside, on the boundary, within tolerance and outside it)
    (Ball(np.array([0.5, -0.5]), 2.0),
     [[0.5, -0.5], [2.5, -0.5], [0.5, 1.5], [1.7, 1.1], [2.5 + 1e-9, -0.5], [2.5 + 1e-8, -0.5],
      [9.0, 0.0]]),
    (Box(np.array([-1.0, -2.0]), np.array([3.0, 2.0])),
     [[0.0, 0.0], [-1.0, -2.0], [3.0, 2.0], [3.0 + 3e-9, 0.0], [3.0 + 5e-9, 0.0],
      [-1.0, 2.5], [np.nan, 0.0]]),
    (Halfspace(np.array([1.0, 1.0]), 2.0),
     [[0.0, 0.0], [1.0, 1.0], [0.3, 1.7], [2.0 + 2e-9, 0.0], [2.0 + 5e-9, 0.0], [5.0, 5.0]]),
]


def _uniform(dim, lo=-5.0, hi=5.0, m=500):
    return np.random.default_rng(dim).uniform(lo, hi, (m, dim))


def _value(f):
    return (lambda x: eval_oracle(f, x)), _uniform(f.dim), ()


def _coefficients(lo, hi, m=500):
    return np.random.default_rng(m).uniform(lo, hi, m)


# (method, block, per-row coefficients): a block's coefficients are (m, 1)
# columns, a row's its own floats
_BLOCK_CASES = {
    "norm-square": _value(NormSquare(gamma=0.7, dim=16)),
    "quadratic-3": _value(QuadraticForm(Q3)),
    "quadratic-5": _value(QuadraticForm(Q5)),
    "quadratic-8": _value(QuadraticForm(_random_symmetric(8))),
    "quadratic-64": _value(QuadraticForm(_random_symmetric(64))),
    "abs+square": _value(AbsPlusSquare()),
    "indicator": _value(IndicatorSet(Ball(np.zeros(4), 3.0))),
    "blackbox": _value(SmoothBlackBox(value=lambda p: float(np.cos(p).sum()),
                                      gradient=lambda p: -np.sin(p), kappa=lambda p: 0.5,
                                      eps=1e-6, dim=2)),
    "feasible-range-quadratic": (lambda x: feasible_range(QuadraticForm(Q3), x), _uniform(3), ()),
    "feasible-range-abs+square": (lambda x: feasible_range(AbsPlusSquare(), x), _uniform(1), ()),
    "feasible-range-indicator": (lambda x: feasible_range(IndicatorSet(Ball(np.zeros(4), 3.0)), x),
                                 _uniform(4, -1.4, 1.4), ()),
    "feasible-range-blackbox": (lambda x: feasible_range(SmoothBlackBox(
        value=lambda p: 0.0, gradient=lambda p: p, kappa=lambda p: float(p @ p), eps=1.0, dim=2),
        x), _uniform(2), ()),
    # one point takes ndarray.dot, a block np.matvec: the same bits per row
    **{f"slope-quadratic-{n}": (QuadraticForm(q).slope, _uniform(n), (_coefficients(-1.0, 5.0),))
       for n, q in ((3, Q3), (5, Q5), (8, _random_symmetric(8)), (64, _random_symmetric(64)))},
    "slope-abs+square": (AbsPlusSquare().slope, np.vstack([_uniform(1)[:-2], [[0.0], [-0.0]]]),
                         (_coefficients(-1.0, 5.0),)),
    # a >= -1/(2 gamma) = -0.714...
    "slope-norm-square": (NormSquare(gamma=0.7, dim=16).slope, _uniform(16),
                          (_coefficients(-0.7, 5.0),)),
    "slope-indicator": (IndicatorSet(Ball(np.zeros(4), 3.0)).slope, _uniform(4),
                        (_coefficients(0.0, 5.0),)),
    "slope-blackbox": (SmoothBlackBox(value=lambda p: float(np.cos(p).sum()),
                                      gradient=lambda p: -np.sin(p), kappa=lambda p: 0.5,
                                      eps=1e-6, dim=2).slope, _uniform(2),
                       (_coefficients(-1.0, 5.0),)),
}


@pytest.mark.parametrize("method, block, coefficients", _BLOCK_CASES.values(), ids=_BLOCK_CASES)
def test_block_evaluation_is_each_rows_value_bit_for_bit(method, block, coefficients):
    got = method(block, *(c[:, None] for c in coefficients))
    rows = [method(y, *(float(c[i]) for c in coefficients)) for i, y in enumerate(block)]
    assert np.asarray(got).tobytes() == np.array(rows).tobytes()


# the quadratic's point forms (ndarray.dot) against its block forms
# (np.matvec, np.vecdot), row by row; prints the number of differing entries
_KERNEL_CHILD = """
import numpy as np
from absprox import ProxRequest, QuadraticForm
from absprox.checks import Q3, Q5
m = np.random.default_rng(64).uniform(-1.0, 1.0, (64, 64))
bad = 0
for q in (Q3, Q5, m + m.T):
    f, n = QuadraticForm(q), len(q)
    x = np.random.default_rng(n).uniform(-5.0, 5.0, (200, n))
    a = np.random.default_rng(n + 1).uniform(0.0, 5.0, 200) - f.min_eigenvalue
    reqs = [ProxRequest(f, y, 0.5, float(c)) for y, c in zip(x, a)]
    w = np.array([r.weight for r in reqs])[:, None]
    v = f.eigenvectors
    for block, rows in ((f.value(x), [f.value(y) for y in x]),
                        (f.slope(x, a[:, None]), [f.slope(y, float(c)) for y, c in zip(x, a)]),
                        (np.matvec(v, np.matvec(v.T, w * x) / (f.eigenvalues + w)),
                         [f.prox(r) for r in reqs])):
        bad += int(np.sum(block != np.array(rows)))
print(bad)
"""


@pytest.mark.parametrize("core", ["Haswell", "Nehalem"])
def test_point_and_block_quadratic_bits_agree_under_each_blas_kernel(core):
    # only the child's environment changes; OPENBLAS_VERBOSE=2 makes OpenBLAS
    # name the kernel it selected
    env = dict(os.environ, OPENBLAS_CORETYPE=core, OPENBLAS_VERBOSE="2",
               PYTHONPATH=str(Path(absprox.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", _KERNEL_CHILD], env=env, capture_output=True,
                         text=True, timeout=60)
    if f"Core: {core}" not in out.stderr.splitlines():
        pytest.skip(f"the installed OpenBLAS does not select {core}: {out.stderr[-200:]!r}")
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["0"]


@pytest.mark.parametrize("f, a", [
    (NormSquare(gamma=0.5, dim=2), [0.5, -1.0, -1.5, -2.0]),
    (IndicatorSet(Ball(np.zeros(2), 1.0)), [0.5, 0.0, -1.0, -2.0]),
], ids=["norm-square", "indicator"])
def test_a_block_slope_refuses_as_its_first_refused_row(f, a):
    block = _uniform(2, m=len(a))
    with pytest.raises(InfeasibleCoefficientError) as row_err:
        for y, a_row in zip(block, a):
            f.slope(y, a_row)
    with pytest.raises(InfeasibleCoefficientError) as block_err:
        f.slope(block, np.array(a)[:, None])
    assert str(block_err.value) == str(row_err.value)


@pytest.mark.parametrize("s, points", _BOUNDARY_SETS, ids=["ball", "box", "halfspace"])
def test_block_indicator_and_contains_match_rows_on_the_boundary(s, points):
    block = np.array(points)
    rows = [eval_oracle(IndicatorSet(s), y) for y in block]
    assert eval_oracle(IndicatorSet(s), block).tobytes() == np.array(rows).tobytes()
    assert list(s.contains(block)) == [s.contains(y) for y in block]
    # the rows straddle the set: some inside, some outside
    assert 0.0 in rows and np.inf in rows


def test_eval_oracle_block_contract():
    f = NormSquare(gamma=0.5, dim=2)
    assert isinstance(eval_oracle(f, (1.0, 2.0)), float)
    assert eval_oracle(f, [[1.0, 2.0], [0.0, 0.0], [2.0, 0.0]]).tolist() == [5.0, 0.0, 4.0]
    for bad in (np.zeros((4, 3)), np.zeros(3), np.zeros((2, 2, 2))):
        with pytest.raises(ValueError, match="dimension mismatch"):
            eval_oracle(f, bad)
    # the other entry points take one point only
    ind = IndicatorSet(Ball(np.zeros(2), 1.0))
    for entry in (feasible_range, lambda f, x: subgrad_at(f, x, 1.0)):
        with pytest.raises(ValueError, match="dimension mismatch"):
            entry(ind, [[0.1], [0.2]])


def test_black_box_callback_sees_one_row_per_call():
    seen = []

    def value(p):
        seen.append(p.copy())
        return float(p @ p)

    g = SmoothBlackBox(value=value, gradient=lambda p: 2.0 * p, kappa=lambda p: 0.0,
                       eps=1.0, dim=3)
    block = np.arange(12.0).reshape(4, 3)
    assert eval_oracle(g, block).tolist() == [5.0, 50.0, 149.0, 302.0]
    assert len(seen) == 4
    assert all(p.shape == (3,) and np.array_equal(p, row) for p, row in zip(seen, block))


def test_feasible_ranges():
    assert feasible_range(NormSquare(gamma=2.0), (1.0,)) == -0.25
    assert feasible_range(QuadraticForm(Q3), np.ones(3)) == pytest.approx(4.0, abs=1e-9)
    assert feasible_range(AbsPlusSquare(), (0.0,)) == -1.0
    a_min = feasible_range(IndicatorSet(Ball(np.zeros(2), 1.0)), (0.0, 0.0))
    assert type(a_min) is float and a_min == -np.inf
    assert -1e9 >= a_min and not np.nan >= a_min


def test_quadratic_form_rejects_bad_matrices():
    # symmetry is exact, so a 1e-13 asymmetry is refused; LAPACK returns NaN
    # eigenvalues for a NaN entry instead of failing, so non-finite input
    # must be refused before the eigensolve
    for q in (np.ones((2, 3)), np.array([[1.0, 2.0], [0.0, 1.0]]),
              np.array([[1.0, 2.0], [2.0 + 1e-13, 1.0]]),
              np.array([[np.nan, 0.0], [0.0, 1.0]]),
              np.array([[np.inf, 0.0], [0.0, 1.0]])):
        with pytest.raises(ValueError):
            QuadraticForm(q)


def test_norm_square_refuses_a_zero_gamma():
    # f = ||x||^2 / (2 gamma) would divide by zero
    with pytest.raises(ValueError, match="gamma must be positive"):
        NormSquare(gamma=0.0)


def test_halfspace_refuses_a_zero_normal():
    # {x : <0, x> <= b} is everything or nothing, and its projection divides by 0
    with pytest.raises(ValueError, match="halfspace normal must be nonzero"):
        Halfspace(np.zeros(2), 1.0)


def test_a_box_with_lo_equal_to_hi_is_one_point():
    point = Box([1.0, -2.0], [1.0, -2.0])
    for x in ([0.0, 0.0], [5.0, -7.0], [1.0, -2.0]):
        assert point.project(x).tolist() == [1.0, -2.0]


def test_feasible_range_outside_indicator_domain():
    with pytest.raises(EmptySubdifferentialError):
        feasible_range(IndicatorSet(Ball(np.zeros(2), 1.0)), (3.0, 0.0))


def test_subgrad_norm_square_formula():
    phi = subgrad_at(NormSquare(gamma=0.5, dim=2), (1.0, -2.0), 3.0)
    assert phi == PhiElement(3.0, (8.0, -16.0))  # (1/gamma + 2a) x


def test_subgrad_quadratic_formula():
    x = np.array([1.0, 1.0, 1.0])
    phi = subgrad_at(QuadraticForm(Q3), x, 4.0)
    assert np.allclose(phi.u, 2.0 * (Q3 @ x + 4.0 * x))


def test_subgrad_abs_plus_square():
    phi = subgrad_at(AbsPlusSquare(), (2.0,), 0.0)
    assert phi.u[0] == 5.0
    phi = subgrad_at(AbsPlusSquare(), (-1.0,), 1.0)
    assert phi.u[0] == -5.0


def test_subgrad_selector_at_kink():
    # any u in [-1,1] works at x=0; the selector picks the midpoint
    assert subgrad_at(AbsPlusSquare(), (0.0,), -1.0).u[0] == 0.0


@pytest.mark.parametrize("f, x", [
    (NormSquare(gamma=0.5, dim=2), [1.0, -2.0]),
    (QuadraticForm(Q3), [0.1, 0.2, -0.3]),
    (AbsPlusSquare(), [0.5]),
    (IndicatorSet(Ball(np.zeros(2), 1.0)), [0.3, 0.4]),
    (SmoothBlackBox(value=lambda p: float(p @ p), gradient=lambda p: 2.0 * p,
                    kappa=lambda p: 0.0, eps=0.1, dim=2), [1.0, -2.0]),
], ids=["norm-square", "quadratic", "abs-plus-square", "indicator", "black-box"])
def test_every_oracle_kind_answers_the_whole_protocol(f, x):
    x = np.array(x)
    assert np.isfinite(f.value(x))
    a = max(f.feasible_range(x), 0.0) + 1.0
    assert subgrad_at(f, x, a) == PhiElement(a, f.slope(x, a))
    req = ProxRequest(f, x, 1.0, a)
    assert np.array_equal(prox_via_argmin(req), f.prox(req))
    # the coefficient is always the caller's choice, the black box's too
    with pytest.raises(TypeError):
        subgrad_at(f, x)


def test_subgrad_infeasible_coefficient():
    with pytest.raises(InfeasibleCoefficientError):
        subgrad_at(QuadraticForm(Q3), np.ones(3), 3.9)


def test_a_coefficient_1e_9_below_the_threshold_is_refused():
    # AbsPlusSquare's threshold is exactly -1
    assert subgrad_at(AbsPlusSquare(), [0.5], -1.0).a == -1.0
    with pytest.raises(InfeasibleCoefficientError):
        subgrad_at(AbsPlusSquare(), [0.5], -1.0 - 1e-9)


def test_subgrad_blackbox_default_and_identity():
    g = SmoothBlackBox(
        value=lambda p: float(p[0] ** 2),
        gradient=lambda p: np.array([2.0 * p[0]]),
        kappa=lambda p: 0.0,
        eps=0.1,
    )
    x = np.array([3.0])
    assert g.feasible_range(x) + g.eps == pytest.approx(0.1)
    phi = subgrad_at(g, x, g.feasible_range(x) + g.eps)
    # u - 2 a x recovers the gradient by construction
    assert np.allclose(phi.u - 2.0 * phi.a * x, [6.0])


def test_indicator_subgrad_positive_a():
    ball = Ball(np.zeros(2), 1.0)
    x = np.array([0.6, 0.8])
    phi = subgrad_at(IndicatorSet(ball), x, 2.0)
    assert np.allclose(phi.u, 2.0 * 2.0 * x)


def test_indicator_subgrad_at_a_0():
    # a = 0 is the least coefficient of the canonical selection u = 2a x
    phi = subgrad_at(IndicatorSet(Ball(np.zeros(2), 1.0)), (0.5, 0.0), 0.0)
    assert phi.a == 0.0 and phi.u.tolist() == [0.0, 0.0]


def test_indicator_subgrad_negative_a_has_no_selector():
    with pytest.raises(InfeasibleCoefficientError):
        subgrad_at(IndicatorSet(Ball(np.zeros(2), 1.0)), (0.5, 0.0), -1.0)


# --- global inequality, sampled --------------------------------------------


def _sampled_ok(f, x, a):
    [(_, ok, _)] = certificates([(f, x, a, 5)], num=300)
    return ok


def test_global_inequality_all_certified_kinds():
    assert _sampled_ok(AbsPlusSquare(), [1.5], 0.3)
    assert _sampled_ok(NormSquare(gamma=0.5, dim=2), [1.0, -1.0], 0.0)
    assert _sampled_ok(QuadraticForm(Q3), [1.0, 1.0, 1.0], 4.5)
    assert _sampled_ok(IndicatorSet(Ball(np.zeros(2), 1.0)), [0.3, 0.4], 2.0)


def test_certificates_report_a_nan_margin():
    # NaN off |y| <= 3: the check fails, and its detail must not read "inf"
    g = SmoothBlackBox(value=lambda p: float(p @ p) if np.abs(p).max() <= 3.0 else np.nan,
                       gradient=lambda p: 2.0 * p, kappa=lambda p: 0.0, eps=1.0, dim=2)
    [(_, ok, detail)] = certificates([(g, np.zeros(2), 1.0, 5), (AbsPlusSquare(), [1.5], 0.3, 5)],
                                     num=100)
    assert not ok
    assert "nan" in detail


def _nan_off_box():
    # NaN off |y| <= 3, so its certificate fails
    return SmoothBlackBox(value=lambda p: float(p @ p) if np.abs(p).max() <= 3.0 else np.nan,
                          gradient=lambda p: 2.0 * p, kappa=lambda p: 0.0, eps=1.0, dim=2)


def test_certificates_of_interleaved_oracles_are_the_case_by_case_checks(monkeypatch):
    f1, f2, g = AbsPlusSquare(), QuadraticForm(Q3), _nan_off_box()
    ball = IndicatorSet(Ball(np.zeros(2), 1.0))
    cases = [(f1, [1.5], 0.3, 1), (f2, [1.0, 1.0, 1.0], 4.5, 2), (f1, [0.7], -1.0, 3),
             (g, np.zeros(2), 1.0, 4), (ball, [0.3, 0.4], 2.0, 5), (f2, [1.0, 0.0, -1.0], 4.0, 6),
             (f1, [-2.0], 0.0, 7)]
    calls, rows = [], checks.subgrad_inequality_rows

    def spy(*args, **kwargs):
        rep = rows(*args, **kwargs)
        calls.append((args[4], rep))
        return rep

    monkeypatch.setattr(checks, "subgrad_inequality_rows", spy)
    [(_, ok, detail)] = certificates(cases, num=100)
    # one call per oracle, in the order each first appears, its cases in order
    assert [seeds for seeds, _ in calls] == [(1, 3, 7), (2, 6), (4,), (5,)]
    got = {seed: (rep, i) for seeds, rep in calls for i, seed in enumerate(seeds)}
    reps = []
    for f, x, a, seed in cases:
        one = subgrad_inequality_sampler(lambda y: eval_oracle(f, y), x, a,
                                         subgrad_at(f, x, a).u, num=100, seed=seed)
        rep, i = got[seed]
        assert float(rep["worst_margin"][i]).hex() == one["worst_margin"].hex()
        assert rep["worst_point"][i].tobytes() == one["worst_point"].tobytes()
        reps.append(one)
    assert not ok and not all(one["passed"] for one in reps)
    assert detail == f"worst margin {np.min([one['worst_margin'] for one in reps]):.3g}"
    # without the failing case: every case passes, and the worst margin is
    # the least of the cases'
    del cases[3], reps[3]
    [(_, ok, detail)] = certificates(cases, num=100)
    assert ok and detail == f"worst margin {min(one['worst_margin'] for one in reps):.3g}"


def test_certificates_raise_the_first_refused_case_in_case_order(monkeypatch):
    f, ball = AbsPlusSquare(), IndicatorSet(Ball(np.zeros(2), 1.0))
    good, below = (f, [1.5], 0.3, 1), (f, [0.5], -5.0, 2)
    wrong_dim = (ball, [0.3], 1.0, 3)
    monkeypatch.setattr(checks, "subgrad_inequality_rows", None)  # nothing is sampled
    with pytest.raises(ValueError, match="dimension mismatch"):
        certificates([good, wrong_dim, below], num=50)
    with pytest.raises(InfeasibleCoefficientError, match="below the feasible threshold"):
        certificates([good, below, wrong_dim], num=50)


def test_global_inequality_at_feasible_boundary():
    # the closed threshold itself must still satisfy the inequality
    assert _sampled_ok(AbsPlusSquare(), [0.7], -1.0)
    assert _sampled_ok(QuadraticForm(Q3), [1.0, 0.0, -1.0], 4.0)
    assert _sampled_ok(NormSquare(gamma=1.0, dim=1), [2.0], -0.5)


def test_global_inequality_blackbox_with_global_bound():
    # cos has curvature bounded by 1 everywhere, so kappa = 1/2 certifies
    g = SmoothBlackBox(
        value=lambda p: float(np.cos(p[0])),
        gradient=lambda p: np.array([-np.sin(p[0])]),
        kappa=lambda p: 0.0,
        eps=0.5,
    )
    assert _sampled_ok(g, [0.7], 0.5)


@given(
    a_extra=st.floats(0.0, 5.0),
    x=st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3),
    y=st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3),
)
@settings(max_examples=300, deadline=None)
def test_quadratic_inequality_is_algebraic(a_extra, x, y):
    """For f = <x,Qx> the margin is exactly (y-x)^T (Q + aI) (y-x) >= 0."""
    f = QuadraticForm(Q3)
    x, y = np.asarray(x), np.asarray(y)
    a = 4.0 + a_extra
    phi = subgrad_at(f, x, a)
    lhs = eval_oracle(f, y) - eval_oracle(f, x)
    rhs = -a * float(y @ y - x @ x) + float(phi.u @ (y - x))
    assert lhs - rhs >= -1e-8 * max(1.0, float(y @ y))


# --- set descriptors --------------------------------------------------------


BALL = Ball(np.array([1.0, 0.0]), 2.0)
BOX = Box(np.array([-1.0, -2.0]), np.array([3.0, 2.0]))
HALF = Halfspace(np.array([1.0, 1.0]), 2.0)


def test_projections():
    assert np.allclose(BALL.project((9.0, 0.0)), [3.0, 0.0])
    assert np.allclose(BOX.project((10.0, -10.0)), [3.0, -2.0])
    assert np.allclose(HALF.project((3.0, 3.0)), [1.0, 1.0])
    # projections are idempotent
    for s in (BALL, BOX, HALF):
        y = s.project((7.0, -4.0))
        assert np.allclose(s.project(y), y)


def test_contains():
    assert BALL.contains((1.0, 1.9))
    assert not BALL.contains((4.0, 0.0))
    assert HALF.contains((0.0, 0.0))
    assert not HALF.contains((2.0, 1.0))


def test_a_point_1e_6_outside_a_unit_ball_is_not_contained():
    # the slack is 1e-9 of the set's size, here 1
    ball = Ball(np.zeros(2), 1.0)
    assert ball.contains([1.0 + 1e-10, 0.0])
    assert not ball.contains([1.0 + 1e-6, 0.0])
    assert IndicatorSet(ball).value(np.array([1.0 + 1e-6, 0.0])) == np.inf


def test_a_point_exactly_at_the_slack_is_contained():
    # each set's slack is 1e-9 times its size, here 1; a point that far out
    # is inside, and the next float beyond it is not
    cases = [(Ball(np.zeros(1), 1.0), 1.0 + 1e-9, np.inf),
             (Box(np.zeros(1), np.ones(1)), -1e-9, -np.inf),
             (Box(np.zeros(1), np.ones(1)), 1.0 + 1e-9, np.inf),
             (Halfspace(np.ones(1), 0.0), 1e-9, np.inf)]
    for s, edge, out in cases:
        assert s.contains(np.array([edge]))
        assert not s.contains(np.array([np.nextafter(edge, out)]))


def test_the_slack_scales_with_the_size_of_the_set():
    # 1e-9 times the radius 3, the width 4 and |b| / ||n|| = 3: a point 2/3 of
    # the slack out is inside, and one 4/3 of it out is not; the halfspace's
    # excess <n, x> - b reads the slack times ||n|| = 2
    ball, box = Ball(np.zeros(2), 3.0), Box([-1.0, 0.0], [3.0, 1.0])
    half = Halfspace(np.array([2.0, 0.0]), 6.0)
    for s, inside, outside in [(ball, [3.0 + 2e-9, 0.0], [3.0 + 4e-9, 0.0]),
                               (box, [3.0 + 2.6e-9, 0.5], [3.0 + 5.4e-9, 0.5]),
                               (box, [-1.0 - 2.6e-9, 0.5], [-1.0 - 5.4e-9, 0.5]),
                               (half, [3.0 + 2e-9, 0.0], [3.0 + 4e-9, 0.0])]:
        assert s.contains(np.array(inside)) and not s.contains(np.array(outside))
        assert s.contains(np.array([inside, outside])).tolist() == [True, False]


def test_a_box_with_an_unbounded_side_contains_what_it_projects_to():
    # the slack scales with the finite widths only: an infinite width would
    # make it infinite and admit every point
    box = Box([-np.inf], [0.0])
    assert box.project(np.array([5.0])).tolist() == [0.0]
    assert not box.contains(np.array([5.0]))
    assert eval_oracle(IndicatorSet(box), [5.0]) == np.inf
    assert box.contains(np.array([1e-9])) and not box.contains(np.array([2e-9]))
    # the widest finite side, 4, sets the slack of the other sides too
    box = Box([-np.inf, -1.0], [0.0, 3.0])
    assert box.contains(np.array([3e-9, 0.0])) and not box.contains(np.array([5e-9, 0.0]))
    # the whole plane stays the plane
    plane = Box(np.full(2, -np.inf), np.full(2, np.inf))
    assert plane.contains(np.array([1e300, -1e300])) and plane.contains(np.full(2, np.inf))


@pytest.mark.parametrize("make, message", [
    (lambda: Halfspace([1.0, 0.0], -np.inf), "halfspace normal and offset must be finite"),
    (lambda: Ball([np.nan, 0.0], 1.0), "ball center and radius must be finite"),
    (lambda: Ball([np.inf, 0.0], 1.0), "ball center and radius must be finite"),
    (lambda: Halfspace([1.0, 0.0], np.nan), "halfspace normal and offset must be finite"),
    (lambda: Halfspace([np.nan, 0.0], 0.0), "halfspace normal and offset must be finite"),
], ids=["halfspace-offset-minus-inf", "ball-nan-center", "ball-inf-center",
        "halfspace-nan-offset", "halfspace-nan-normal"])
def test_sets_refuse_non_finite_data(make, message):
    # each projected to NaN or [-inf, nan], or (the NaN normal) was refused
    # as a zero normal
    with pytest.raises(ValueError, match=message):
        make()


def test_a_point_on_the_boundary_is_its_own_projection_bit_for_bit():
    # |0.1 - 1.0| is 0.9 in floating point, and 1.0 + (0.1 - 1.0) is not 0.1
    x = np.array([0.1])
    assert Ball(np.ones(1), 0.9).project(x).tobytes() == x.tobytes()
    # <n, x> - b is 0.0 here, and x - 0.0 n would turn the -0.0 into +0.0
    x = np.array([-0.0, 1.0])
    assert Halfspace(np.array([-1.0, 1.0]), 1.0).project(x).tobytes() == x.tobytes()


def test_projections_of_far_points():
    # x . x overflows to inf here, and at 1.5e308 so does ||x||; the
    # projection must still land on the boundary point nearest x, not at
    # the centre or back at x
    ball = Ball(np.zeros(2), 1.0)
    for far in (1e200, 1.5e308):
        assert np.allclose(ball.project([far, far]), [2**-0.5, 2**-0.5], rtol=1e-15, atol=0)
    assert np.array_equal(ball.project([1e200, 0.0]), [1.0, 0.0])
    half = Halfspace(np.array([1e200, 0.0]), 1e200)  # {x : x_1 <= 1}
    assert np.array_equal(half.project([3.0, 5.0]), [1.0, 5.0])
    assert not half.contains([3.0, 5.0]) and half.contains([1.0, 5.0])
    tilted = Halfspace(np.array([1.5e308, 1.5e308]), 0.0)  # {x : x_1 + x_2 <= 0}
    assert np.array_equal(tilted.project([1.0, 1.0]), [0.0, 0.0])
    # ||n|| overflows too, which must not make every point a member
    assert tilted.contains([[1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]]).tolist() == [False, True, True]
    assert eval_oracle(IndicatorSet(tilted), [1.0, 1.0]) == np.inf
    # n . x overflows while n . n does not, or overflows as well
    for n, x, b, want in (([1.0, -1.0], [1e308, -1e308], 0.0, [0.0, 0.0]),
                          ([1e200, -1e200], [1e308, -1e308], 0.0, [0.0, 0.0]),
                          ([1.0, -1.0], [1.5e308, -0.5e308], 0.0, [5e307, 5e307]),
                          ([1.0, -1.0], [1.5e308, -1.5e308], 1e308, [5e307, -5e307])):
        got = Halfspace(np.array(n), b).project(x)
        assert np.allclose(got, want, rtol=1e-15, atol=0), (n, x, b)
    # n_i x_i overflow with opposite signs at a point on the boundary, where
    # contains, project and the indicator must agree that it is a member
    h, far = Halfspace(np.array([2.0, -2.0]), 0.0), np.array([1e308, 1e308])
    assert h.contains(far) and np.array_equal(h.project(far), far)
    assert eval_oracle(IndicatorSet(h), far) == 0.0
    assert h.contains(np.array([far, [1.0, 1.0], [1e308, -1e308]])).tolist() == [True, True, False]


class _Sub(np.ndarray):
    pass


_F64_CASES = [np.arange(3.0), np.arange(6.0).reshape(2, 3)]
_CONVERTED_CASES = [
    [1, 2.5], 3, 4.5, np.array(2.0), np.arange(3, dtype=np.float32),
    np.arange(3, dtype=">f8"), np.arange(3.0).view(_Sub), np.arange(3),
]


@pytest.mark.parametrize("x", _F64_CASES)
def test_vec_passes_float64_arrays_through(x):
    assert phi._vec(x) is x


@pytest.mark.parametrize("x", _CONVERTED_CASES)
def test_vec_converts_everything_else_as_numpy_does(x):
    got, want = phi._vec(x), np.atleast_1d(np.asarray(x, dtype=float))
    assert type(got) is type(want) is np.ndarray
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_phi_vec_passes_vectors_through_and_refuses_matrices():
    # the conversion keeps any shape; an element of the quadratic family
    # refuses a matrix, and so the point map does
    x = np.arange(3.0)
    assert phi._vec(x) is x
    with pytest.raises(ValueError, match="1-D"):
        phi.PhiElement(1.0, np.arange(6.0).reshape(2, 3))
    with pytest.raises(ValueError, match="1-D"):
        phi.PhiElement(1.0, [[1.0, 2.0]])
    with pytest.raises(ValueError, match="1-D"):
        phi.duality_map_element(np.arange(6.0).reshape(2, 3), 1.0, 0.0)
    with pytest.raises(ValueError, match="1-D"):
        phi.duality_map_element([[1.0, 2.0]], 1.0, 0.0)
