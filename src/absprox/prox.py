"""The quadratically regularized proximal operator.

For a step size gamma and coefficient a0 >= -1/(2 gamma), the proximal
output at x0 is any

    x  in  argmin_z  f(z) + (1/(2 gamma) + a0) ||z - x0||^2.

Every bundled oracle class except the smooth black box carries its closed
form as ``f.prox(req)``.  For the black box an inner solver descends on the
box's own gradient and certifies its answer by the stationarity residual
and the strong-convexity margin that the box's curvature bound gives; an
answer it cannot certify raises ``SolverToleranceError``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .oracles import (
    Oracle,
    SetDescriptor,
    SmoothBlackBox,
    UnboundedObjectiveError,
    eval_oracle,
    prox_abs_square_closed_form,
)
from .phi import InfeasibleCoefficientError

__all__ = [
    "ProxRequest",
    "UnboundedObjectiveError",
    "SolverToleranceError",
    "prox_via_argmin",
    "prox_abs_square_closed_form",
    "prox_indicator",
]


class SolverToleranceError(RuntimeError):
    """The inner solver could not certify its answer; carries that point."""

    def __init__(self, message: str, best: np.ndarray):
        super().__init__(message)
        self.best = np.asarray(best)


@dataclass(frozen=True)
class ProxRequest:
    f: Oracle
    x0: np.ndarray
    gamma: float
    a0: float

    def __post_init__(self):
        object.__setattr__(self, "x0", np.atleast_1d(np.asarray(self.x0, dtype=float)))
        if not self.gamma > 0:
            raise ValueError("gamma must be positive")
        if not 2.0 * self.gamma * self.a0 >= -1.0:  # a NaN a0 fails too
            raise InfeasibleCoefficientError(
                f"a0={self.a0} violates a0 >= -1/(2*gamma) = {-1 / (2 * self.gamma)}"
            )

    @property
    def weight(self) -> float:
        """The regularization coefficient 1/(2 gamma) + a0 (>= 0)."""
        return 1.0 / (2.0 * self.gamma) + self.a0


# the inner solver's stop rule: ||h'(z)|| <= _INNER_RTOL * max(1, ||h'(x0)||,
# ||x0||), within _INNER_MAX_STEPS accepted steps
_INNER_RTOL = 1e-10
_INNER_MAX_STEPS = 500


def _inner_argmin(f: SmoothBlackBox, x0: np.ndarray, w: float) -> np.ndarray:
    """Certified minimizer of h(z) = g(z) + w||z - x0||^2 for a black box g.

    Descends from x0 on h'(z) = grad g(z) + 2w(z - x0) with Barzilai-Borwein
    steps s's/s'y (1.0 when s'y <= 0; the first step is 1/max(1, ||h'(x0)||)).
    A trial point is accepted when ||h'|| falls by the factor 1 - 1e-4 or h
    passes Armijo with c = 1e-4, else the step is halved; below 1e-16 the
    descent gives up.  Once ||h'|| is below about sqrt(eps |h|) a value test
    cannot see a decrease, so the gradient-norm test carries the last steps.

    The answer z is certified: with g's curvature bound kappa (Hess g >=
    -2 kappa I) the margin m = 2(w - kappa(z)) bounds Hess h from below, so
    ||z - z*|| <= ||h'(z)|| / m wherever kappa bounds the curvature, and z is
    the global minimizer when it does so everywhere.  When the stop rule is
    not met or m <= 0, raises ``SolverToleranceError`` carrying z.
    """

    def h(z):
        d = z - x0
        return eval_oracle(f, z) + w * float(d @ d)

    def dh(z):
        return np.asarray(f.gradient(z), dtype=float).reshape(z.shape) + 2.0 * w * (z - x0)

    z = x0.copy()
    grad = dh(z)
    r, v = float(np.linalg.norm(grad)), h(z)
    tol = _INNER_RTOL * max(1.0, r, float(np.linalg.norm(x0)))
    step = 1.0 / max(1.0, r)
    steps = 0
    while not r <= tol and steps < _INNER_MAX_STEPS:
        while step >= 1e-16:
            trial = z - step * grad
            g_t = dh(trial)
            r_t, v_t = float(np.linalg.norm(g_t)), h(trial)
            if r_t <= (1.0 - 1e-4) * r or v_t <= v - 1e-4 * step * r * r:
                break
            step *= 0.5
        else:  # no acceptable step above 1e-16
            break
        s, y = trial - z, g_t - grad
        sy = float(s @ y)
        step = float(s @ s) / sy if sy > 0.0 else 1.0
        z, grad, r, v = trial, g_t, r_t, v_t
        steps += 1
    margin = 2.0 * (w - float(f.kappa(z)))
    if not (r <= tol and margin > 0.0):
        raise SolverToleranceError(
            f"inner prox not certified after {steps} steps: residual {r:.3g} "
            f"(tolerance {tol:.3g}), margin {margin:.3g}", z)
    return z


def prox_indicator(c: SetDescriptor, x, gamma: float) -> np.ndarray:
    """Proximal point of an indicator: the projection onto the set.

    Independent of gamma — included for interface symmetry.  At x = 0 the
    result is Proj_C(0) like everywhere else; no special casing.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    return c.project(x)


def prox_via_argmin(req: ProxRequest) -> np.ndarray:
    """A minimizer of h(z) = f(z) + (1/(2 gamma) + a0)||z - x0||^2.

    Uses the oracle's closed form (``f.prox``) when it has one, otherwise
    the certified inner solver (see ``_inner_argmin``), which raises
    ``SolverToleranceError`` when it cannot certify its answer.  When the
    regularized objective is unbounded below (QuadraticForm with min
    eigenvalue + weight <= 0) raises ``UnboundedObjectiveError``.
    """
    f = req.f
    if not isinstance(f, SmoothBlackBox):
        return f.prox(req)
    return _inner_argmin(f, req.x0, req.weight)
