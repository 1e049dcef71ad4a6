"""The quadratically regularized proximal operator.

For a step size gamma and coefficient a0 >= -1/(2 gamma), the proximal
output at a point x0 is any

    x  in  argmin_z  f(z) + (1/(2 gamma) + a0) ||z - x0||^2.

A :class:`ProxRequest` holds one such (x0, gamma, a0).  Every oracle class
carries its own prox as ``f.prox(req)``: a closed form, or for the smooth
black box an inner solver that descends on the box's own gradient and
certifies its answer by the stationarity residual and the strong-convexity
margin that the box's curvature bound gives (an answer it cannot certify
raises ``oracles.SolverToleranceError``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .oracles import Oracle, SetDescriptor, _vec, prox_abs_square_closed_form
from .phi import check_coefficient

__all__ = [
    "ProxRequest",
    "prox_via_argmin",
    "prox_abs_square_closed_form",
    "prox_indicator",
]


@dataclass(frozen=True)
class ProxRequest:
    """The prox of ``f`` at one point ``x0`` of f's dimension n (anything
    else, a 2-D ``x0`` included, raises ``ValueError``); ``gamma`` and
    ``a0`` are checked by ``check_coefficient``."""

    f: Oracle
    x0: np.ndarray
    gamma: float
    a0: float

    def __post_init__(self):
        x0 = _vec(self.x0)
        if x0.shape != (self.f.dim,):
            raise ValueError(f"dimension mismatch: oracle dim {self.f.dim}, "
                             f"point of shape {x0.shape}")
        object.__setattr__(self, "x0", x0)
        check_coefficient(self.gamma, self.a0)

    @property
    def weight(self) -> float:
        """The regularization coefficient 1/(2 gamma) + a0 (>= 0)."""
        return 1.0 / (2.0 * self.gamma) + self.a0


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
