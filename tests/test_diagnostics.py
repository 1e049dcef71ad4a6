"""Convergence diagnostics: anchored monotonicity checks over recorded runs."""

import numpy as np
import pytest

from absprox import (
    AbsPlusSquare,
    Ball,
    PpaAdditive,
    PsgConstantGamma,
    QuadraticForm,
    check_fejer,
    run_ppa,
    run_psg,
)
from absprox.checks import Q3


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


def test_check_fejer_detects_violation():
    # a deliberately wrong anchor: distances to it are not monotone
    res = run_ppa(AbsPlusSquare(), [-10.0], PpaAdditive(gamma0=1.0, a0=1.0, delta=0.9), 60)
    rep = check_fejer(res.records, np.array([4.0]), "ppa")
    assert not rep.fejer_monotone
    assert rep.fejer_first_violation is not None
