"""Iteration loops: schedules, stopping tags, records, and the three
globally convergent methods on the bundled problem instances."""

import itertools
import math
import warnings

import numpy as np
import pytest

from absprox import (
    AbsPlusSquare,
    Ball,
    Box,
    DegenerateStepError,
    FbConstant,
    Halfspace,
    IndicatorSet,
    InfeasibleCoefficientError,
    NormSquare,
    PpaAdditive,
    PsgAdaptiveV1,
    PsgAdaptiveV2,
    PsgConstantGamma,
    QuadraticForm,
    ScheduleDegenerateError,
    ScheduleInfeasibleError,
    SmoothBlackBox,
    STOP_GLOBAL_MIN,
    STOP_GUARD,
    STOP_NONFINITE,
    TheoremViolationWarning,
    EXPERIMENTS,
    check_fejer,
    run_config,
    run_fb,
    run_ppa,
    run_psg,
    schedule_step,
    write_csv,
)
from absprox.checks import Q3
from absprox.config import hessian_example
from absprox.experiments import named_experiment_configs, run_named_experiment
BALL3 = Ball(np.zeros(3), 1.0)


# --- schedules ---------------------------------------------------------------


def test_schedule_ppa_additive():
    assert schedule_step(PpaAdditive(gamma0=1.0, a0=1.0, delta=0.9), 1.0, 1.0) == (1.0, 1.9)


def test_schedule_psg_constant_decrement_and_guard():
    sched = PsgConstantGamma(gamma0=1.0, a0=200.0)
    assert schedule_step(sched, 1.0, 200.0, a_fn=4.0) == (1.0, 196.0)
    # past the guard the step still decrements; the run's weight check
    # (1 + 2 gamma (a_n - a_f) <= 0) is what stops it
    assert schedule_step(sched, 1.0, 7.0, 4.0) == (1.0, 3.0)


def test_schedule_adaptive_v1():
    sched = PsgAdaptiveV1(gamma0=1.0, a0=200.0, a_const=5.0)
    g, a = schedule_step(sched, 1.0, 200.0, a_fn=4.0)
    assert g == pytest.approx((200.0 - 4.0) / 5.0)
    assert a == 5.0
    # a zero constant could never step, so the constructor refuses it
    with pytest.raises(ValueError, match="a_const must be nonzero"):
        PsgAdaptiveV1(gamma0=1.0, a0=1.0, a_const=0.0)


def test_schedule_adaptive_v2_invariant():
    sched = PsgAdaptiveV2(gamma0=1.0, a0=4.0, epsilon=1.0)
    gamma, a = 1.0, 4.0
    for _ in range(30):
        gamma, a = schedule_step(sched, gamma, a, 3.0)
        # the update is built to keep 2 gamma (a - a_f) = 2 gamma eps - 1 > -1
        assert 2.0 * gamma * (a - 3.0) == pytest.approx(2.0 * gamma * 1.0 - 1.0, rel=1e-12)
        assert 2.0 * gamma * (a - 3.0) > -1.0


def test_schedule_adaptive_v2_degenerate():
    with pytest.raises(ScheduleDegenerateError):
        schedule_step(PsgAdaptiveV2(gamma0=1.0, a0=4.0, epsilon=1.0), 1.0, 4.0, -1.0)


def test_schedule_adaptive_v2_at_a_next_stepsize_of_exactly_zero():
    # gamma_1 = (1 * (3 - 4) + 1) / (4 + 1) = 0: no a_1 = -1/(2 gamma_1) + ...
    # is formed, the step answers NaN and the loop aborts on the stepsize
    gamma, a = schedule_step(PsgAdaptiveV2(1.0, 3.0, 1.0), 1.0, 3.0, 4.0)
    assert gamma == 0.0 and math.isnan(a)


def test_schedule_fb_constant():
    assert schedule_step(FbConstant(gamma0=0.1, a0=5.0, a_const=5.0), 0.1, 5.0, 2.0) == (0.1, 5.0)


def test_schedule_requires_positive_gamma0():
    with pytest.raises(ValueError):
        PsgConstantGamma(gamma0=-1.0, a0=1.0)


# --- proximal point ----------------------------------------------------------


def test_ppa_descent_and_dead_zone():
    res = run_ppa(AbsPlusSquare(), [-10.0], PpaAdditive(gamma0=1.0, a0=1.0, delta=0.9), 101)
    f = [r.f_xn for r in res.records]
    assert all(f[n + 1] <= f[n] + 1e-10 for n in range(len(f) - 1))
    assert res.final.x_n[0] == 0.0  # lands exactly on the kink
    assert res.terminal is None


def test_ppa_small_gamma_endpoint_frozen():
    res = run_ppa(AbsPlusSquare(), [-10.0], PpaAdditive(gamma0=0.01, a0=1.0, delta=0.9), 101)
    assert len(res.records) == 102
    assert res.final.x_n[0] == pytest.approx(-2.8705402858939593, rel=1e-12)
    assert res.final.f_xn == pytest.approx(11.110541818834132, rel=1e-12)


def test_ppa_global_min_certificate():
    # at a_0 = -1/(2 gamma) the regularizer weight vanishes: the prox
    # minimizes f itself, and the run stops with the certificate tag
    res = run_ppa(AbsPlusSquare(), [5.0], PpaAdditive(gamma0=0.5, a0=-1.0, delta=1.0), 50)
    assert res.terminal == STOP_GLOBAL_MIN
    assert res.final.stopped_by == STOP_GLOBAL_MIN
    assert res.final.x_n[0] == 0.0


def test_a_weight_of_1e_9_is_no_global_min_certificate():
    # 1/(2 gamma) + a_0 = 1 + (-1 + 1e-9) is about 1e-9, above the 1e-12
    # within which the weight counts as vanished
    res = run_ppa(AbsPlusSquare(), [5.0], PpaAdditive(gamma0=0.5, a0=-1.0 + 1e-9, delta=0.5), 3)
    assert [r.stopped_by for r in res.records] == [None] * 4


def test_a_weight_of_exactly_1e_12_is_a_global_min_certificate():
    # 1/(2 gamma) + a_0 = 2**-41 + (1e-12 - 2**-41) is exactly 1e-12 in floats
    a0 = 1e-12 - 2.0**-41
    assert 0.5 / 2.0**40 + a0 == 1e-12
    res = run_ppa(AbsPlusSquare(), [3.0], PpaAdditive(2.0**40, a0, delta=0.0), 5)
    assert len(res.records) == 2 and res.terminal == STOP_GLOBAL_MIN


@pytest.mark.parametrize("rise, warns", [(1e-6, True), (1e-11, False), (1e-10, False),
                                         (math.nextafter(1e-10, math.inf), True)],
                         ids=["1e-6", "1e-11", "1e-10", "1e-10-plus-one-ulp"])
def test_an_objective_rise_above_1e_10_warns(rise, warns):
    # with gradient -1 and weight 1/2 the prox moves from 0 to 1, where the
    # value rise * z rises by exactly rise
    g = SmoothBlackBox(value=lambda p: rise * float(p[0]), gradient=lambda p: np.array([-1.0]),
                       kappa=lambda p: 0.0, eps=0.1, dim=1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = run_ppa(g, [0.0], PpaAdditive(gamma0=1.0, a0=0.0), 1)
    assert res.records[1].x_n.tolist() == [1.0]
    flagged = [str(w.message) for w in caught if issubclass(w.category, TheoremViolationWarning)]
    assert flagged == [f"descent violated at iteration 0: f went from 0.0 to {rise}"] * warns


def test_ppa_schedule_infeasible():
    # decrement a_n - a_{n+1} = -2 lies below the oracle threshold -1
    with pytest.raises(ScheduleInfeasibleError):
        run_ppa(AbsPlusSquare(), [3.0], PpaAdditive(gamma0=1.0, a0=0.0, delta=2.0), 5)


def test_an_infeasible_decrement_names_itself_and_its_iterate():
    # a_0 = 0.5 steps to a_1 = 2.5: the decrement -2 lies below |x| + x^2's -1
    with pytest.raises(ScheduleInfeasibleError) as err:
        run_ppa(AbsPlusSquare(), [3.0], PpaAdditive(gamma0=1.0, a0=0.5, delta=2.0), 5)
    assert str(err.value) == ("schedule decrement a_n - a_(n+1) = -2.0 is below the "
                              "oracle's feasible threshold at iterate 1")


def test_ppa_fejer_column():
    star = np.zeros(1)
    res = run_ppa(AbsPlusSquare(), [-10.0], PpaAdditive(gamma0=1.0, a0=1.0, delta=0.9), 20)
    res.set_fejer(star)
    r5 = res.records[5]
    expect = (0.5 / r5.gamma_n + r5.a_n) * float(np.linalg.norm(star - r5.x_n)) ** 2
    assert r5.fejer == pytest.approx(expect, rel=1e-12)
    vals = [r.fejer for r in res.records]
    assert all(vals[n + 1] <= vals[n] + 1e-10 for n in range(len(vals) - 1))


@pytest.mark.parametrize("anchor", [[0.5], [0.5, 0.5]], ids=["short-1", "short-2"])
@pytest.mark.parametrize("entry", ["set_fejer", "check_fejer", "write_csv"])
def test_reference_of_the_wrong_dimension_raises(entry, anchor, tmp_path):
    # a 1-vector anchor would otherwise broadcast over a 3-D run
    res = run_psg(QuadraticForm(Q3), BALL3, [-5.0, 5.0, -5.0],
                  PsgConstantGamma(gamma0=1.0, a0=200.0), 5, a_f_override=4.0)
    call = {"set_fejer": lambda: res.set_fejer(anchor),
            "check_fejer": lambda: check_fejer(res.records, anchor, "ppa"),
            "write_csv": lambda: write_csv(res, str(tmp_path / "run.csv"), x_star=anchor)}
    with pytest.raises(ValueError, match="dimension mismatch"):
        call[entry]()


# --- a run's input checks ----------------------------------------------------


@pytest.mark.parametrize("run, message", [
    (lambda: run_ppa(QuadraticForm(Q3), [1.0, 0.0], PpaAdditive(1.0, 5.0), 5),
     "dimension mismatch: oracle dim 3, point of shape (2,)"),
    (lambda: run_fb(QuadraticForm(np.zeros((2, 2))), hessian_example(0.1), [1.0, 0.0, 0.0],
                    FbConstant(1.0, 5.0, a_const=5.0), 5),
     "dimension mismatch: oracle dim 2, point of shape (3,)"),
    (lambda: run_psg(QuadraticForm(Q3), BALL3, [0.5, 0.5, 0.5, 0.5],
                     PsgConstantGamma(1.0, 200.0), 5),
     "dimension mismatch: oracle dim 3, point of shape (4,)"),
    # a one-row block of the right width is not a point either
    (lambda: run_ppa(QuadraticForm(Q3), [[1.0, 0.0, 0.0]], PpaAdditive(1.0, 5.0), 5),
     "dimension mismatch: oracle dim 3, point of shape (1, 3)"),
    (lambda: run_fb(QuadraticForm(np.zeros((2, 2))), hessian_example(0.1), [[1.0, 0.0]],
                    FbConstant(1.0, 5.0, a_const=5.0), 5),
     "dimension mismatch: oracle dim 2, point of shape (1, 2)"),
    (lambda: run_psg(QuadraticForm(Q3), BALL3, [[0.5, 0.5, 0.5]],
                     PsgConstantGamma(1.0, 200.0), 5),
     "dimension mismatch: oracle dim 3, point of shape (1, 3)"),
], ids=["ppa", "fb", "psg", "ppa-row", "fb-row", "psg-row"])
def test_a_start_of_the_wrong_dimension_is_refused(run, message):
    with pytest.raises(ValueError) as err:
        run()
    assert str(err.value) == message


@pytest.mark.parametrize("run", [
    lambda x0: run_ppa(NormSquare(1.0, dim=3), x0, PpaAdditive(1.0, 5.0), 3),
    lambda x0: run_fb(QuadraticForm(np.zeros((3, 3))), SmoothBlackBox(
        value=lambda p: float(p @ p), gradient=lambda p: 2.0 * p, kappa=lambda p: 0.0, eps=0.1,
        dim=3), x0, FbConstant(1.0, 5.0, a_const=5.0), 3),
    lambda x0: run_psg(QuadraticForm(Q3), BALL3, x0, PsgConstantGamma(1.0, 200.0), 3),
], ids=["ppa", "fb", "psg"])
def test_a_run_keeps_its_own_copy_of_the_start(run):
    x0 = np.array([0.5, -0.25, 0.125])
    res = run(x0)
    x0[:] = 7.0
    assert res.records[0].x_n.tolist() == [0.5, -0.25, 0.125]


@pytest.mark.parametrize("run", [
    # the indicator's prox is the ball's projection of req.x0, which is the
    # record's own array, and returns it unchanged from inside the ball
    lambda x0: run_ppa(IndicatorSet(BALL3), x0, PpaAdditive(1.0, 0.0), 5),
    # from inside the ball the projection returns its argument
    lambda x0: run_psg(QuadraticForm(Q3), BALL3, x0, PsgConstantGamma(1.0, 200.0), 5),
], ids=["ppa-indicator", "psg"])
def test_records_own_their_iterates(run):
    xs = [r.x_n for r in run(np.array([0.5, -0.25, 0.125])).records]
    assert len(xs) == 6 and len({id(x) for x in xs}) == len(xs)
    before = [x.tobytes() for x in xs]
    for i, x in enumerate(xs):
        x[:] = 7.0
        assert [y.tobytes() for y in xs[:i] + xs[i + 1:]] == before[:i] + before[i + 1:]
        x[:] = np.frombuffer(before[i])


@pytest.mark.parametrize("run, message", [
    # a 3-D ball would broadcast the 1-D iterate to 3 coordinates through its
    # projection; it is refused before the first step
    (lambda: run_psg(AbsPlusSquare(), Ball(np.zeros(3), 0.1), [0.5],
                     PsgConstantGamma(1.0, 5.0), 5),
     "dimension mismatch: oracle dim 1, set dim 3"),
    # so would a gradient callback that answers 3 coordinates for one
    (lambda: run_fb(NormSquare(1.0), SmoothBlackBox(value=lambda p: 0.0,
                                                    gradient=lambda p: np.ones(3),
                                                    kappa=lambda p: 0.0, eps=0.1),
                    [0.5], FbConstant(1.0, 5.0, a_const=5.0), 5),
     "dimension mismatch: gradient of shape (3,) at a point of shape (1,)"),
    # and so would a black box's slope built on that gradient in psg
    (lambda: run_psg(SmoothBlackBox(value=lambda p: 0.0, gradient=lambda p: np.ones(3),
                                    kappa=lambda p: 0.0, eps=0.1),
                     Ball(np.zeros(1), 0.1), [0.5], PsgConstantGamma(1.0, 5.0), 5),
     "dimension mismatch: gradient of shape (3,) at a point of shape (1,)"),
], ids=["psg-set", "fb-gradient", "psg-slope"])
def test_an_iterate_a_step_reshapes_is_refused(run, message):
    with pytest.raises(ValueError) as err:
        run()
    assert str(err.value) == message


@pytest.mark.parametrize("f, set_c, x0, message", [
    # a 1-D ball broadcast against a 3-D iterate would run all the records
    (QuadraticForm(Q3), Ball(np.zeros(1), 1.0), [0.5, 0.1, 0.2],
     "dimension mismatch: oracle dim 3, set dim 1"),
    (AbsPlusSquare(), Halfspace(np.ones(3), -1.0), [0.5],
     "dimension mismatch: oracle dim 1, set dim 3"),
], ids=["ball-1-around-3-point", "halfspace-3-around-1-point"])
def test_a_set_of_the_wrong_dimension_is_refused(f, set_c, x0, message):
    with pytest.raises(ValueError) as err:
        run_psg(f, set_c, x0, PsgConstantGamma(1.0, 20.0), 5)
    assert str(err.value) == message


@pytest.mark.parametrize("f", [AbsPlusSquare(), QuadraticForm(np.array([[1.0]])),
                               NormSquare(1.0)],
                         ids=["abs+square-point", "quadratic-point", "norm-square-point"])
def test_a_gradient_of_the_wrong_shape_is_refused(f):
    # f's prox would fail in its own words (a LAPACK core dimension), read
    # only the first coordinate (|x| + x^2), or broadcast
    g = SmoothBlackBox(value=lambda p: 0.0, gradient=lambda p: np.ones(3),
                       kappa=lambda p: 0.0, eps=0.1)
    with pytest.raises(ValueError) as err:
        run_fb(f, g, [0.5], FbConstant(1.0, 5.0, a_const=5.0), 5)
    assert str(err.value) == "dimension mismatch: gradient of shape (3,) at a point of shape (1,)"


# --- projected subgradient ---------------------------------------------------


def test_psg_constant_guard_stop_frozen_endpoint():
    sched = PsgConstantGamma(gamma0=1.0, a0=200.0)
    res = run_psg(QuadraticForm(Q3), BALL3, [-5.0, 5.0, -5.0], sched, 101,
                  a_f_override=4.0)
    assert len(res.records) == 51
    assert res.terminal == STOP_GUARD
    assert res.final.stopped_by == STOP_GUARD
    assert res.final.f_xn == pytest.approx(-3.9999984870526388, rel=1e-12)


def test_psg_records_oracle_coefficient():
    sched = PsgConstantGamma(gamma0=1.0, a0=200.0)
    res = run_psg(QuadraticForm(Q3), BALL3, [-5.0, 5.0, -5.0], sched, 10,
                  a_f_override=4.0)
    assert res.records[0].a_fn == 4.0
    assert np.isnan(res.records[-1].a_fn)  # horizon record: nothing queried yet


def test_psg_defaults_to_feasible_threshold():
    # without an override the oracle's own a_min = 4 drives the subgradient
    sched = PsgConstantGamma(gamma0=1.0, a0=200.0)
    res = run_psg(QuadraticForm(Q3), BALL3, [-5.0, 5.0, -5.0], sched, 10)
    assert res.records[0].a_fn == pytest.approx(4.0, abs=1e-9)


def test_psg_refuses_a_pin_below_the_oracles_threshold():
    with pytest.raises(InfeasibleCoefficientError) as err:
        run_psg(QuadraticForm(Q3), BALL3, [-5.0, 5.0, -5.0], PsgConstantGamma(1.0, 200.0), 5,
                a_f_override=3.0)
    assert str(err.value) == "a=3.0 below the feasible threshold a_min=4.0"


def test_psg_iterates_feasible_after_first_step():
    res = run_psg(QuadraticForm(Q3), BALL3, [-5.0, 5.0, -5.0],
                  PsgConstantGamma(gamma0=1.0, a0=200.0), 101, a_f_override=4.0)
    for r in res.records[1:]:
        assert float(np.linalg.norm(r.x_n)) <= 1.0 + 1e-12


def test_psg_from_a_far_start_lands_on_the_ball():
    # ||x0||^2 overflows; the first step must still project onto the
    # boundary point nearest z and record a finite step length
    res = run_psg(QuadraticForm(np.eye(2)), Ball(np.zeros(2), 1.0), [1e200, 1e200],
                  PsgConstantGamma(gamma0=0.1, a0=1.0), 1)
    x1 = res.records[1].x_n
    assert np.allclose(x1, [2**-0.5, 2**-0.5], rtol=1e-15, atol=0)
    assert res.records[1].f_xn == pytest.approx(1.0)
    assert res.records[1].step_norm == pytest.approx(2**0.5 * 1e200)


def test_psg_adaptive_v2_runs_full_horizon_frozen():
    sched = PsgAdaptiveV2(gamma0=1.0, a0=4.0, epsilon=1.0)
    q5 = np.array([[1.0, 0, -1, 1, 0], [0, 1, 1, -1, 0], [-1, 1, -1, 1, 1],
                   [1, -1, 1, -1, 1], [0, 0, 1, 1, 1]])
    res = run_psg(QuadraticForm(q5), Ball(np.zeros(5), 1.0),
                  [-10.0, 10.0, -10.0, 10.0, -10.0], sched, 101)
    assert len(res.records) == 102
    assert res.terminal is None
    assert res.final.f_xn == pytest.approx(-3.0, abs=1e-8)


def test_psg_nonfinite_schedule_aborts():
    sched = PsgAdaptiveV1(gamma0=1.0, a0=200.0, a_const=-5.0)
    res = run_psg(QuadraticForm(Q3), BALL3, [-5.0, 5.0, -5.0], sched, 20, a_f_override=4.0)
    assert res.terminal == STOP_NONFINITE
    assert res.final.stopped_by == STOP_NONFINITE


def test_psg_adaptive_v1_with_a_negative_a_below_the_threshold_runs_on():
    # a = -3 < a_f = -2 (Q = diag(2, 3)): gamma_{n+1} = gamma_n (a - a_f)/a = gamma_n/3
    sched = PsgAdaptiveV1(gamma0=0.4, a0=-3.0, a_const=-3.0)
    res = run_psg(QuadraticForm(np.diag([2.0, 3.0])), Ball(np.zeros(2), 1.0), [0.8, -0.5],
                  sched, 30)
    assert len(res.records) == 31
    assert res.terminal is None
    assert [r.a_fn for r in res.records[:-1]] == [-2.0] * 30
    assert [r.gamma_n for r in res.records[:3]] == pytest.approx([0.4, 0.4 / 3, 0.4 / 9])
    assert all(r.gamma_n > 0 for r in res.records)


# --- the loop's non-finite test ----------------------------------------------


_PLANE = Box(np.full(2, -np.inf), np.full(2, np.inf))


def _psg_on_the_plane(gradient, x0):
    """psg on a black box with a^f = kappa = 0, so each step is x - gradient(x)."""
    g = SmoothBlackBox(value=lambda p: 0.0, gradient=gradient, kappa=lambda p: 0.0, eps=0.1,
                       dim=2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = run_psg(g, _PLANE, x0, PsgConstantGamma(1.0, 0.0), 5)
    return res, [f"{w.filename}: {w.message}" for w in caught]


def test_a_finite_iterate_whose_entries_sum_past_the_float_range_runs_on():
    # 1e308 + 1e308 overflows, but both entries are finite
    res, warned = _psg_on_the_plane(lambda p: np.zeros(2), [1e308, 1e308])
    assert res.terminal is None
    assert [r.x_n.tolist() for r in res.records] == [[1e308, 1e308]] * 6
    assert warned == []


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
def test_an_iterate_with_a_non_finite_entry_stops_at_its_record(bad):
    # the first step goes from (0.5, 0.5) to (1.5, 0.5), the second to (1.5, 0.5 - bad)
    res, warned = _psg_on_the_plane(
        lambda p: np.array([-1.0, 0.0]) if p[0] < 1.0 else np.array([0.0, bad]), [0.5, 0.5])
    assert [r.stopped_by for r in res.records] == [None, STOP_NONFINITE]
    assert res.final.x_n.tolist() == [1.5, 0.5]
    assert warned == []


# --- forward-backward --------------------------------------------------------


def _quadratic_blackbox():
    # a_g = kappa + eps = 4.0 exactly, the threshold of <x, Q3 x>
    return SmoothBlackBox(
        value=lambda p: float(p @ Q3 @ p),
        gradient=lambda p: 2.0 * (Q3 @ p),
        kappa=lambda p: 3.5,
        eps=0.5,
        dim=3,
    )


def test_fb_requires_blackbox():
    with pytest.raises(TypeError):
        run_fb(IndicatorSet(BALL3), QuadraticForm(Q3), np.zeros(3),
               FbConstant(gamma0=1.0, a0=5.0, a_const=5.0), 3)


def test_fb_degenerate_weight_raises_under_constant_schedule():
    with pytest.raises(DegenerateStepError):
        run_fb(IndicatorSet(BALL3), _quadratic_blackbox(), [0.5, 0.0, 0.0],
               FbConstant(gamma0=1.0, a0=0.0, a_const=0.0), 3)


def test_fb_weight_of_exactly_zero_is_degenerate():
    # at [0, 0] a_g = kappa + eps = 1.5, so c = 1/(2 * 0.5) + 0.5 - 1.5 = 0.0
    f, g = QuadraticForm(np.zeros((2, 2))), hessian_example(0.5)
    with pytest.raises(DegenerateStepError, match=r"= 0\.0 <= 0 at iteration 0"):
        run_fb(f, g, [0.0, 0.0], FbConstant(gamma0=0.5, a0=0.5, a_const=0.5), 3)
    res = run_fb(f, g, [0.0, 0.0], PsgConstantGamma(gamma0=0.5, a0=0.5), 3)
    assert len(res.records) == 1 and res.terminal == STOP_GUARD


def test_a_next_stepsize_of_exactly_zero_aborts():
    # gamma_1 = gamma_0 (a_0 - a_f) / a_const = 1 * (4 - 4) / 4 = 0
    res = run_psg(QuadraticForm(Q3), BALL3, [0.5, 0.0, 0.0],
                  PsgAdaptiveV1(1.0, 4.0, a_const=4.0), 5, a_f_override=4.0)
    assert len(res.records) == 1 and res.terminal == STOP_NONFINITE


@pytest.mark.parametrize("sched", [FbConstant(1.0, 1.0, a_const=1.0), PsgConstantGamma(1.0, 1.0)],
                         ids=["fb-constant", "psg-constant"])
@pytest.mark.parametrize("f", [NormSquare(1.0), AbsPlusSquare(), QuadraticForm(np.array([[2.0]])),
                               IndicatorSet(Ball(np.zeros(1), 1.0))],
                         ids=["norm-square", "abs-square", "quadratic", "indicator"])
def test_fb_refuses_a_nan_curvature_coefficient(f, sched):
    # a NaN a_g makes the prox coefficient a_n - a_g NaN, which the prox
    # request refuses whatever f is (the CLI maps the error to exit 3)
    g = SmoothBlackBox(value=lambda p: float(p @ p), gradient=lambda p: 2.0 * p,
                       kappa=lambda p: np.nan, eps=0.1, dim=1)
    with pytest.raises(InfeasibleCoefficientError):
        run_fb(f, g, [0.5], sched, 3)


def test_fb_hessian_sweep_guard_stop_frozen():
    from absprox.config import hessian_example

    g = hessian_example(0.1)
    zero = QuadraticForm(np.zeros((2, 2)))
    res = run_fb(zero, g, [-5.0, -1.0], PsgConstantGamma(gamma0=0.1, a0=200.0), 1001)
    assert len(res.records) == 74
    assert res.terminal == STOP_GUARD
    assert res.final.x_n[0] == pytest.approx(-1.132991123074689, rel=1e-10)
    assert res.final.x_n[1] == pytest.approx(-2.5491194587063757, rel=1e-10)
    assert all(np.all(np.isfinite(r.x_n)) for r in res.records)


def test_fb_descent_asserted_under_lipschitz_condition():
    # strongly dominated step: f = indicator of a huge ball (inactive),
    # g a 1-D convex parabola; descent must hold and no warning fires
    g = SmoothBlackBox(
        value=lambda p: float(p[0] ** 2),
        gradient=lambda p: np.array([2.0 * p[0]]),
        kappa=lambda p: 0.0,
        eps=0.01,
        dim=1,
    )
    big = IndicatorSet(Ball(np.zeros(1), 1e6))
    res = run_fb(big, g, [5.0], FbConstant(gamma0=0.2, a0=1.0, a_const=1.0), 40)
    f = [r.f_xn for r in res.records]
    assert all(f[n + 1] <= f[n] + 1e-10 for n in range(len(f) - 1))
    assert abs(res.final.x_n[0]) < 1e-3


# --- theorem-violation plumbing ----------------------------------------------


def _ascending_blackbox():
    # a value that grows with every call makes each step look like ascent
    calls = itertools.count()
    return SmoothBlackBox(value=lambda p: float(next(calls)), gradient=lambda p: np.zeros(1),
                          kappa=lambda p: 0.0, eps=0.1, dim=1)


def test_descent_violation_raises_under_the_error_filter():
    g = _ascending_blackbox()
    with warnings.catch_warnings():
        warnings.simplefilter("error", TheoremViolationWarning)
        with pytest.raises(TheoremViolationWarning, match="descent violated at iteration 0"):
            run_ppa(g, [1.0], PpaAdditive(gamma0=1.0, a0=1.0, delta=0.0), 3)


def test_descent_warning_points_at_the_caller_of_run():
    g, s = _ascending_blackbox(), PpaAdditive(gamma0=1.0, a0=1.0, delta=0.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run_ppa(g, [1.0], s, 1)
    flagged = [w for w in caught if issubclass(w.category, TheoremViolationWarning)]
    assert [w.filename for w in flagged] == [__file__]


def test_a_nan_objective_fails_both_descent_checks():
    # f is NaN for |x| <= 0.9, so the first prox step from 1.0 lands on a NaN
    calls = itertools.count(1)

    def gradient(p):
        # the run makes 25 calls; an inner descent that never stops fails here
        if next(calls) > 1000:
            raise RuntimeError("more than 1000 gradient calls")
        return 2.0 * p

    g = SmoothBlackBox(value=lambda p: np.nan if abs(p[0]) <= 0.9 else float(p @ p),
                       gradient=gradient, kappa=lambda p: 0.0, eps=0.1, dim=1)
    s = PpaAdditive(0.5, 6.0, delta=-1.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = run_ppa(g, [1.0], s, 5)
    flagged = [str(w.message) for w in caught if issubclass(w.category, TheoremViolationWarning)]
    # each step from a NaN is a violation too
    assert flagged == ["descent violated at iteration 0: f went from 1.0 to nan"] + [
        f"descent violated at iteration {n}: f went from nan to nan" for n in range(1, 5)]
    assert np.isnan([r.f_xn for r in res.records[1:]]).all()
    rep = check_fejer(res.records, [0.0], "ppa")
    assert (rep.objective_monotone, rep.objective_first_violation) == (False, 0)


# --- a sweep's members run alone ---------------------------------------------


def _fields(res):
    """Every record field: floats by their hex form (so NaN equals NaN), x_n
    by its shape and bytes."""
    return [(r.n, *(float(v).hex() for v in (r.gamma_n, r.a_n, r.a_fn, r.f_xn, r.step_norm,
                                             r.fejer)),
             r.x_n.shape, r.x_n.tobytes(), r.stopped_by) for r in res.records]


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_a_bundled_sweeps_members_are_their_own_runs(name):
    runs = [run for _, run in run_named_experiment(name)]
    for cfg, run in zip(named_experiment_configs(name), runs, strict=True):
        assert _fields(run.result) == _fields(run_config(cfg).result)


def test_psg_runs_leave_at_their_own_stops():
    f = QuadraticForm(Q3)
    x0s = [[-5.0, 5.0, -5.0], [0.3, -0.2, 0.1], [0.5, 0.5, 0.0], [1.0, 2.0, 3.0]]
    scheds = [PsgConstantGamma(1.0, 20.0),  # a falls by a_f = 4 until the guard stops it
              PsgAdaptiveV1(1.0, 5.0, a_const=-5.0),  # gamma_1 < 0: non-finite abort
              PsgAdaptiveV1(1.0, 5.0, a_const=1e-320),  # gamma_1 = inf: non-finite abort
              PsgAdaptiveV2(1.0, 5.0, epsilon=1.0)]  # runs to the horizon
    runs = [run_psg(f, BALL3, x0, s, 30, a_f_override=4.0) for x0, s in zip(x0s, scheds)]
    assert [res.terminal for res in runs] == [STOP_GUARD, STOP_NONFINITE, STOP_NONFINITE, None]
    assert [len(res.records) for res in runs] == [6, 1, 1, 31]


def test_a_far_psg_start_runs_past_its_overflowing_norms():
    # the far member's v . v overflows in its step norm and projection
    f = QuadraticForm(Q3)
    x0s = [[1e200] * 3, [-5.0, 5.0, -5.0]]
    scheds = [PsgConstantGamma(1.0, 20.0), PsgConstantGamma(1.0, 24.0)]
    runs = [run_psg(f, BALL3, x0, s, 30, a_f_override=4.0) for x0, s in zip(x0s, scheds)]
    assert runs[0].records[1].step_norm == 3**0.5 * 1e200
    assert [len(res.records) for res in runs] == [6, 7]


def test_psg_stops_on_its_guard_where_the_denominator_is_exactly_zero():
    # NormSquare(0.5)'s threshold is a_f = -1, so 1 + 2 gamma (a - a_f) =
    # 1 + 2 (-1.5 + 1) = 0 at the start: the guard stops there, before any step
    f = NormSquare(gamma=0.5, dim=2)
    res = run_psg(f, Ball(np.zeros(2), 1.0), [0.5, 0.5], PsgConstantGamma(1.0, -1.5), 5)
    assert [r.stopped_by for r in res.records] == [STOP_GUARD]
    assert res.records[0].a_fn == -1.0
