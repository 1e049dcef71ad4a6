"""Convergence diagnostics: anchored monotonicity checks over recorded runs."""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from absprox import (
    AbsPlusSquare,
    Ball,
    Box,
    EmptySubdifferentialError,
    IndicatorSet,
    InfeasibleCoefficientError,
    NormSquare,
    PpaAdditive,
    PsgAdaptiveV2,
    PsgConstantGamma,
    QuadraticForm,
    SmoothBlackBox,
    check_fejer,
    diagnostics,
    run_ppa,
    run_psg,
    subgrad_at,
)
from absprox.checks import Q3
from absprox.diagnostics import _psg_slack


def _v_min():
    f = QuadraticForm(Q3)
    v = f.eigenvectors[:, 0]
    return v / np.linalg.norm(v)


def test_ppa_run_is_fejer_and_descending():
    res = run_ppa(AbsPlusSquare(), [-10.0], PpaAdditive(gamma0=1.0, a0=1.0, delta=0.9), 60)
    rep = check_fejer(res.records, np.zeros(1), "ppa")
    assert rep.fejer_monotone
    assert rep.objective_monotone
    assert rep.fejer_first_violation is None
    assert rep.step_sq_sum >= 0.0
    assert len(rep.dist_series) == len(res.records)


def test_psg_run_quasi_fejer_with_oracle_slack():
    f = QuadraticForm(Q3)
    res = run_psg(f, Ball(np.zeros(3), 1.0), [-5.0, 5.0, -5.0],
                  PsgConstantGamma(gamma0=1.0, a0=200.0), 101, a_f_override=4.0)
    v = _v_min()
    # anchor at the minimizer on the sphere matching the iterate's sign
    if float(v @ res.final.x_n) < 0:
        v = -v
    rep = check_fejer(res.records, v, "psg", f=f)
    assert rep.fejer_monotone
    assert len(rep.quasi_fejer_slack) == len(res.records) - 1
    assert all(e >= 0.0 for e in rep.quasi_fejer_slack)


def test_check_fejer_validates_inputs():
    with pytest.raises(ValueError):
        check_fejer([], np.zeros(1), "ppa")
    res = run_ppa(AbsPlusSquare(), [2.0], PpaAdditive(gamma0=1.0, a0=1.0, delta=0.5), 3)
    with pytest.raises(ValueError):
        check_fejer(res.records, np.zeros(1), "newton")


def test_check_fejer_refuses_psg_without_its_oracle():
    # without f the allowance would be zero: a stronger inequality than the theorem's
    f = QuadraticForm(Q3)
    res = run_psg(f, Ball(np.zeros(3), 1.0), [-5.0, 5.0, -5.0],
                  PsgConstantGamma(gamma0=1.0, a0=200.0), 5, a_f_override=4.0)
    with pytest.raises(ValueError, match="needs the oracle f"):
        check_fejer(res.records, _v_min(), "psg")


def test_check_fejer_detects_violation():
    # a deliberately wrong anchor: distances to it are not monotone
    res = run_ppa(AbsPlusSquare(), [-10.0], PpaAdditive(gamma0=1.0, a0=1.0, delta=0.9), 60)
    rep = check_fejer(res.records, np.array([4.0]), "ppa")
    assert not rep.fejer_monotone
    assert rep.fejer_first_violation is not None


def test_a_nan_allowance_is_a_violation_at_its_step():
    f = QuadraticForm(Q3)
    records = run_psg(f, Ball(np.zeros(3), 1.0), [-5.0, 5.0, -5.0],
                      PsgConstantGamma(gamma0=1.0, a0=200.0), 30, a_f_override=4.0).records
    # an infinite a^f at record 2 makes U NaN, and with it every other allowance
    with np.errstate(invalid="ignore"):
        rep = check_fejer(_with(records, 2, a_fn=np.inf), _v_min(), "psg", f=f)
    assert np.isnan(rep.quasi_fejer_slack[0]) and rep.quasi_fejer_slack[2] == np.inf
    assert (rep.fejer_monotone, rep.fejer_first_violation) == (False, 0)


def test_a_nan_objective_is_a_rise_at_the_first_step_it_touches():
    records = run_ppa(AbsPlusSquare(), [-10.0],
                      PpaAdditive(gamma0=1.0, a0=1.0, delta=0.9), 6).records
    rep = check_fejer(_with(records, 3, f_xn=np.nan), np.zeros(1), "ppa")
    assert (rep.objective_monotone, rep.objective_first_violation) == (False, 2)
    assert rep.fejer_monotone


@pytest.mark.parametrize("rise, flagged", [(1e-6, True), (1e-10, False)],
                         ids=["1e-6", "1e-10"])
def test_a_relative_objective_rise_is_flagged_above_1e_9(rise, flagged):
    # the records' f is about 11 here, so the tolerance scales with |f|
    records = run_ppa(AbsPlusSquare(), [-10.0],
                      PpaAdditive(gamma0=1.0, a0=1.0, delta=0.9), 6).records
    rep = check_fejer(_with(records, 3, f_xn=records[2].f_xn * (1.0 + rise)), np.zeros(1), "ppa")
    assert (rep.objective_monotone, rep.objective_first_violation) == (
        (False, 2) if flagged else (True, None))


def test_a_far_psg_run_sums_no_step_terms():
    # psg's b_n is 0, so its b_n s_n^2 terms are 0, also where s_n^2 overflows
    f = QuadraticForm(Q3)
    with np.errstate(over="ignore", invalid="ignore"):
        res = run_psg(f, Ball(np.zeros(3), 1.0), [1e200] * 3,
                      PsgConstantGamma(gamma0=1.0, a0=20.0), 30, a_f_override=4.0)
        rep = check_fejer(res.records, _v_min(), "psg", f=f)
    assert res.records[1].step_norm == 3**0.5 * 1e200  # its square overflows
    assert rep.step_sq_sum == 0.0


# --- the psg allowance ----------------------------------------------------------


def _slack_per_record(records, f):
    """The psg allowance with one ``subgrad_at`` per queried record."""
    steps = records[:-1]
    gamma, a, a_f = (np.array([getattr(r, name) for r in steps])
                     for name in ("gamma_n", "a_n", "a_fn"))
    v = np.zeros((len(steps), steps[0].x_n.size))
    for i, r in enumerate(steps):
        if not np.isnan(r.a_fn):
            v[i] = 2.0 * r.a_fn * r.x_n - subgrad_at(f, r.x_n, r.a_fn).u
    big_u = float(np.sqrt(np.vecdot(v, v)).max())
    denom = np.where(np.isnan(a_f), 1.0, 1.0 + 2.0 * gamma * (a - a_f))
    return np.divide(gamma * gamma * big_u * big_u, denom,
                     out=np.full_like(denom, np.inf), where=denom > 0)


def _q8():
    m = np.random.default_rng(8).uniform(-1.0, 1.0, (8, 8))
    return QuadraticForm(m + m.T)


def _black_box():
    return SmoothBlackBox(value=lambda p: float(np.cos(p).sum()), gradient=lambda p: -np.sin(p),
                          kappa=lambda p: 0.5, eps=1e-6, dim=2)


def _abs_square_run():
    records = run_psg(AbsPlusSquare(), Ball(np.zeros(1), 2.0), [1.5],
                      PsgConstantGamma(1.0, 5.0), 12).records
    # iterates at 0 and -0, where the slope selects u = 0
    zeros = {2: [0.0], 5: [-0.0]}
    return [replace(r, x_n=np.array(zeros[k])) if k in zeros else r
            for k, r in enumerate(records)]


_PSG_RUNS = {
    "quadratic-8": lambda: (run_psg(_q8(), Ball(np.zeros(8), 1.0), np.linspace(-0.4, 0.3, 8),
                                    PsgAdaptiveV2(1.0, 4.0, 1.0), 30).records, _q8()),
    "abs+square": lambda: (_abs_square_run(), AbsPlusSquare()),
    "norm-square": lambda: (run_psg(NormSquare(0.7, dim=3), Box(-np.ones(3), np.ones(3)),
                                    [2.0, -1.0, 0.5], PsgConstantGamma(1.0, 5.0), 12).records,
                            NormSquare(0.7, dim=3)),
    "indicator": lambda: (run_psg(IndicatorSet(Ball(np.zeros(2), 1.0)), Ball(np.zeros(2), 1.0),
                                  [0.3, -0.2], PsgConstantGamma(1.0, 5.0), 12,
                                  a_f_override=0.5).records,
                          IndicatorSet(Ball(np.zeros(2), 1.0))),
    "blackbox": lambda: (run_psg(_black_box(), Ball(np.zeros(2), 2.0), [1.0, -0.5],
                                 PsgAdaptiveV2(1.0, 2.0, 1.0), 12).records, _black_box()),
}


@pytest.mark.parametrize("run", _PSG_RUNS.values(), ids=_PSG_RUNS)
def test_psg_slack_is_the_per_record_queries_bit_for_bit(run):
    records, f = run()
    assert len(records) > 5 and not np.isnan(records[0].a_fn)
    slack = _psg_slack(records, f)
    assert slack.tobytes() == _slack_per_record(records, f).tobytes()
    # an indicator's u = 2 a x leaves no allowance
    assert slack.any() != isinstance(f, IndicatorSet)


def test_psg_slack_without_queries_is_zero():
    records, f = _PSG_RUNS["quadratic-8"]()
    unqueried = [replace(r, a_fn=np.nan) for r in records]
    assert _psg_slack(unqueried, f).tolist() == [0.0] * (len(records) - 1)
    # nothing is queried, so nothing is checked either
    assert _psg_slack(unqueried, QuadraticForm(Q3)).tolist() == [0.0] * (len(records) - 1)


def _with(records, k, **fields):
    return records[:k] + [replace(records[k], **fields)] + records[k + 1:]


def _refusals():
    q_records, q = _PSG_RUNS["quadratic-8"]()
    ind_records, ind = _PSG_RUNS["indicator"]()
    outside = dict(x_n=np.array([3.0, 0.0]))
    # at a 1-D point, 3 coordinates would broadcast rather than fail
    three = SmoothBlackBox(value=lambda p: 0.0, gradient=lambda p: np.ones(3),
                           kappa=lambda p: -np.inf, eps=1e-6)
    return {
        "below-a-min": (_with(q_records, 3, a_fn=-q.min_eigenvalue - 1.0), q,
                        InfeasibleCoefficientError),
        "outside-the-set": (_with(ind_records, 2, **outside), ind, EmptySubdifferentialError),
        "wrong-dimension": (q_records, QuadraticForm(Q3), ValueError),
        # the block's gradients are refused as each record's are
        "wrong-gradient": (_abs_square_run(), three, ValueError),
        # two refused records: the earlier one's error, though its refusal
        # comes later in a record's checks
        "first-refusal-wins": (_with(_with(ind_records, 4, **outside), 2, a_fn=-1.0), ind,
                               InfeasibleCoefficientError),
    }


@pytest.mark.parametrize("case", _refusals())
def test_a_refused_record_raises_its_per_record_error(case):
    records, f, cls = _refusals()[case]
    with pytest.raises(cls) as per_record:
        _slack_per_record(records, f)
    with pytest.raises(cls) as err:
        check_fejer(records, np.zeros(records[0].x_n.size), "psg", f)
    assert type(err.value) is type(per_record.value)
    assert str(err.value) == str(per_record.value)


class _Counting:
    """An oracle that forwards to ``f`` and counts its method calls."""

    def __init__(self, f):
        self.f, self.calls = f, Counter()

    def __getattr__(self, name):
        attr = getattr(self.f, name)
        if not callable(attr):
            return attr

        def counted(*args):
            self.calls[name] += 1
            return attr(*args)

        return counted


def test_the_psg_allowance_is_one_slope_call(monkeypatch):
    f = _Counting(_q8())
    res = run_psg(f, Ball(np.zeros(8), 1.0), np.linspace(-0.4, 0.3, 8),
                  PsgAdaptiveV2(1.0, 4.0, 1.0), 30)
    subgrad_calls = []

    def counted_subgrad_at(*args):
        subgrad_calls.append(args)
        return subgrad_at(*args)

    monkeypatch.setattr(diagnostics, "subgrad_at", counted_subgrad_at, raising=False)
    f.calls.clear()
    check_fejer(res.records, np.zeros(8), "psg", f)
    assert f.calls["slope"] == 1
    assert subgrad_calls == []
