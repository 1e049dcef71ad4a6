"""The quadratically regularized proximal operator.

For a step size gamma and coefficient a0 >= -1/(2 gamma), the proximal
output at a point x0 is any

    x  in  argmin_z  f(z) + (1/(2 gamma) + a0) ||z - x0||^2.

A ``ProxRequest`` holds one such (x0, gamma, a0).  Every oracle class
carries its own prox as ``f.prox(req)``: a closed form, or for the smooth
black box an inner solver that descends on the box's own gradient and
certifies its answer by the stationarity residual and the strong-convexity
margin that the box's curvature bound gives (an answer it cannot certify
raises ``oracles.SolverToleranceError``).  It imports ``ProxRequest`` and
the |x| + x^2 closed form, which oracles exports; bench/tracing.py wraps it.
"""

from __future__ import annotations

import numpy as np

from .oracles import ProxRequest, SetDescriptor, prox_abs_square_closed_form

__all__ = [
    "prox_via_argmin",
    "prox_indicator",
]


def prox_indicator(c: SetDescriptor, x, gamma: float) -> np.ndarray:
    """Proximal point of an indicator: the projection onto the set.

    Independent of gamma — included for interface symmetry.  At x = 0 the
    result is Proj_C(0) like everywhere else; no special casing.
    """
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    return c.project(x)


def prox_via_argmin(req: ProxRequest) -> np.ndarray:
    """A minimizer of h(z) = f(z) + (1/(2 gamma) + a0)||z - x0||^2, from the
    oracle's own ``prox``.

    Raises ``UnboundedObjectiveError`` when the regularized objective is
    unbounded below (QuadraticForm with min eigenvalue + weight <= 0) and
    ``SolverToleranceError`` when a black box's inner solver cannot certify
    its answer.
    """
    return req.f.prox(req)
