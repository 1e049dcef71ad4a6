"""The quadratically regularized proximal operator.

For a step size gamma and coefficient a0 >= -1/(2 gamma), the proximal
output at x0 is any

    x  in  argmin_z  f(z) + (1/(2 gamma) + a0) ||z - x0||^2.

Every oracle class carries its own prox as ``f.prox(req)``: a closed form,
or for the smooth black box an inner solver that descends on the box's own
gradient and certifies its answer by the stationarity residual and the
strong-convexity margin that the box's curvature bound gives (an answer it
cannot certify raises ``oracles.SolverToleranceError``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .oracles import Oracle, SetDescriptor, prox_abs_square_closed_form
from .phi import check_coefficient

__all__ = [
    "ProxRequest",
    "prox_via_argmin",
    "prox_abs_square_closed_form",
    "prox_indicator",
]


@dataclass(frozen=True)
class ProxRequest:
    """The prox of ``f`` at ``x0``: a point (n,), or a block (m, n) whose m
    members' ``gamma`` and ``a0`` are (m, 1) columns.  Each member's pair
    is checked as a point's would be."""

    f: Oracle
    x0: np.ndarray
    gamma: float
    a0: float

    def __post_init__(self):
        object.__setattr__(self, "x0", np.atleast_1d(np.asarray(self.x0, dtype=float)))
        for gamma, a0 in self.pairs():
            check_coefficient(gamma, a0)

    def pairs(self) -> list[tuple[float, float]]:
        """(gamma, a0) of each member: one pair for a point, m for a block."""
        if self.x0.ndim == 1:
            return [(self.gamma, self.a0)]
        if not np.shape(self.gamma) == np.shape(self.a0) == (len(self.x0), 1):
            raise ValueError("a block request takes gamma and a0 as (m, 1) columns")
        return list(zip(self.gamma[:, 0].tolist(), self.a0[:, 0].tolist()))

    def members(self) -> list[ProxRequest]:
        """Each member of a block as its own point request."""
        return [ProxRequest(self.f, row, gamma, a0)
                for row, (gamma, a0) in zip(self.x0, self.pairs())]

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
