"""Metamorphic relations: exact symmetries of the problem that the iterations
keep bit for bit, with no arbiter to compare against.

- R1, negation: x0 -> -x0 (the ball centred at 0 maps to itself, and the
  quadratics and |x| + x^2 are even).  Every iterate and the Fejér
  reference are negated; every other field of every record is equal.
- R2, scaling by 4: x0, the ball's radius and the Fejér reference times 4.
  Every iterate and ``step_norm`` scale by 4, ``f_xn`` and ``fejer`` by 16,
  and every other field is equal.  |x| + x^2 is not homogeneous, so R2 is
  not asked of it.

Negation and multiplication by a power of two are exact in binary floating
point, so each relation holds on every field of every record, compared as
bytes.  One exception: a zero iterate entry is compared as +0.0, because the
closed-form prox of |x| + x^2 answers +0.0 in its dead zone from either
side, where R1 would ask for -0.0.  The draws are fixed (seeded numpy
generators).
"""

import struct

import numpy as np
import pytest

from absprox import (AbsPlusSquare, Ball, PpaAdditive, PsgConstantGamma, QuadraticForm, STOP_GUARD,
                     run_ppa, run_psg)


def _bits(v: float) -> bytes:
    return struct.pack("<d", v)


def _image(res, x_star, s: float):
    """The fields of every record, Fejér column against x_star, with the
    iterates scaled by s (a zero entry as +0.0), their norms by |s| and the
    objective and Fejér terms by s^2, as bytes."""
    res.set_fejer(x_star)
    return [(r.n, _bits(r.gamma_n), _bits(r.a_n), _bits(r.a_fn), (s * r.x_n + 0.0).tobytes(),
             _bits(s * s * r.f_xn), _bits(abs(s) * r.step_norm), _bits(s * s * r.fejer),
             r.stopped_by) for r in res.records]


def _assert_relation(run, x0, x_star, s):
    """run(s) is run(1) under the map x -> s x, on every record's every field."""
    base = run(x0, 1.0)
    assert _image(run(s * x0, s), s * x_star, 1.0) == _image(base, x_star, s)


def _symmetric(rng, n):
    m = rng.uniform(-2.0, 2.0, (n, n))
    return 0.5 * (m + m.T)


def _psg_draws(count):
    rng = np.random.default_rng(26)
    for _ in range(count):
        n = int(rng.integers(2, 7))
        f = QuadraticForm(_symmetric(rng, n))
        lam = f.min_eigenvalue
        # a0 spends its budget within the horizon in some runs, not in others
        sched = PsgConstantGamma(float(rng.uniform(0.05, 2.0)),
                                 float(-lam + rng.uniform(0.0, 60.0) * max(1.0, abs(lam))))
        radius = float(rng.uniform(0.5, 2.0))
        yield (f, sched, radius, rng.uniform(-5.0, 5.0, n), rng.uniform(-1.0, 1.0, n))


@pytest.mark.parametrize("s", [-1.0, 4.0], ids=["R1-negation", "R2-scale-4"])
def test_psg_over_a_centred_ball_keeps_negation_and_scaling(s):
    stops = set()
    for f, sched, radius, x0, x_star in _psg_draws(40):
        def run(x, k, f=f, sched=sched, radius=radius):
            res = run_psg(f, Ball(np.zeros(f.dim), abs(k) * radius), x, sched, 60)
            stops.add(res.terminal)
            return res
        _assert_relation(run, x0, x_star, s)
    # both ends of a run occur among the draws: the guard and the horizon
    assert stops == {STOP_GUARD, None}


def _ppa_quadratic_draws(count):
    rng = np.random.default_rng(27)
    for _ in range(count):
        n = int(rng.integers(2, 7))
        f = QuadraticForm(_symmetric(rng, n))
        lam = f.min_eigenvalue
        # a decrement -delta > -lambda_min is feasible, and a0 keeps every
        # step's weight 1/(2 gamma) + a_n above -lambda_min for 20 steps
        delta = min(lam, 0.0) - 0.5
        sched = PpaAdditive(float(rng.uniform(0.05, 2.0)), 1.0 - 21.0 * delta, delta=delta)
        yield f, sched, rng.uniform(-5.0, 5.0, n), rng.uniform(-1.0, 1.0, n)


@pytest.mark.parametrize("s", [-1.0, 4.0], ids=["R1-negation", "R2-scale-4"])
def test_ppa_on_a_quadratic_keeps_negation_and_scaling(s):
    for f, sched, x0, x_star in _ppa_quadratic_draws(20):
        _assert_relation(lambda x, k, f=f, sched=sched: run_ppa(f, x, sched, 20),
                         x0, x_star, s)


def test_ppa_on_abs_plus_square_keeps_negation():
    rng = np.random.default_rng(28)
    f = AbsPlusSquare()
    for _ in range(120):
        # delta < 1 keeps each decrement a_n - a_{n+1} = -delta above -1,
        # and a_n stays above 0 for the 30 steps
        sched = PpaAdditive(float(rng.uniform(0.01, 10.0)), float(rng.uniform(3.0, 5.0)),
                            delta=float(rng.uniform(-0.1, 1.0)))
        _assert_relation(lambda x, k, sched=sched: run_ppa(f, x, sched, 30),
                         rng.uniform(-20.0, 20.0, 1), rng.uniform(-1.0, 1.0, 1), -1.0)
