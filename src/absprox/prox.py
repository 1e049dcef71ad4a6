"""The quadratically regularized proximal operator and criticality verdicts.

For a step size gamma and coefficient a0 >= -1/(2 gamma), the proximal
output at x0 is any

    x  in  argmin_z  f(z) + (1/(2 gamma) + a0) ||z - x0||^2.

Every bundled oracle class except the smooth black box carries its closed
form as ``f.prox(req)``; a derivative-free inner solver covers black-box
functions at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

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
from .reference import fd_gradient, golden_section_min
from .rng import XorShift64Star

__all__ = [
    "ProxRequest",
    "InnerSolver",
    "UnboundedObjectiveError",
    "SolverToleranceError",
    "prox_via_argmin",
    "prox_abs_square_closed_form",
    "prox_indicator",
    "VerdictKind",
    "CriticalityVerdict",
    "classify_fixed_point",
]


class SolverToleranceError(RuntimeError):
    """Inner solver failed to reach tolerance; carries its best iterate."""

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
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if 2.0 * self.gamma * self.a0 < -1.0:
            raise InfeasibleCoefficientError(
                f"a0={self.a0} violates a0 >= -1/(2*gamma) = {-1 / (2 * self.gamma)}"
            )

    @property
    def weight(self) -> float:
        """The regularization coefficient 1/(2 gamma) + a0 (>= 0)."""
        return 1.0 / (2.0 * self.gamma) + self.a0


class InnerSolver:
    """Derivative-free argmin at desk scale, with fixed settings.

    1-D: golden section on [x0 - B, x0 + B] with B = max(10, 4|x0|) and
    tolerance ``TOL``, then one refinement pass around the answer.
    n-D: projected gradient (finite-difference gradients) with backtracking
    inside the box x0 +- max(10, 4|x0|), from ``NUM_STARTS`` deterministic
    starts (x0, the box centre, then ``SEED``-driven uniform draws), at most
    ``MAX_ITER`` steps each.  The output is the best point found; it is not
    certified as a global minimizer, and the n-D search can stall short of
    stationarity without saying so.
    """

    TOL = 1e-10
    MAX_ITER = 2000
    NUM_STARTS = 8
    SEED = 7

    def minimize_1d(self, h: Callable[[float], float], x0: float) -> float:
        b = max(10.0, 4.0 * abs(x0))
        z = golden_section_min(h, x0 - b, x0 + b, tol=self.TOL)
        # one refinement pass around the first answer
        w = max(1e-6, 1e-3 * b)
        return golden_section_min(h, z - w, z + w, tol=self.TOL)

    def minimize_nd(self, h: Callable[[np.ndarray], float], x0: np.ndarray) -> np.ndarray:
        x0 = np.atleast_1d(np.asarray(x0, dtype=float))
        n = x0.size
        lo = x0 - np.maximum(10.0, 4.0 * np.abs(x0))
        hi = x0 + np.maximum(10.0, 4.0 * np.abs(x0))
        rng = XorShift64Star(self.SEED)
        starts = [np.clip(x0, lo, hi), 0.5 * (lo + hi)]
        while len(starts) < self.NUM_STARTS:
            starts.append(rng.uniform_vector(lo, hi, n))

        best_x, best_v = None, np.inf
        for s in starts:
            x = s.copy()
            v = h(x)
            for _ in range(self.MAX_ITER):
                grad = fd_gradient(h, x)
                gn = float(np.linalg.norm(grad))
                if gn <= self.TOL * max(1.0, abs(v)):
                    break
                step = 1.0
                moved = False
                while step > 1e-16:
                    cand = np.clip(x - step * grad, lo, hi)
                    cv = h(cand)
                    if cv < v - 1e-4 * step * gn * gn:
                        x, v, moved = cand, cv, True
                        break
                    step *= 0.5
                if not moved:
                    break
            if v < best_v:
                best_x, best_v = x, v
        if best_x is None:
            raise SolverToleranceError("no start produced a finite value", x0)
        return best_x


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
    the inner solver, whose output is the best point it found.  When the
    regularized objective is unbounded below (QuadraticForm with min
    eigenvalue + weight <= 0) raises ``UnboundedObjectiveError``.
    """
    f, x0, w = req.f, req.x0, req.weight
    if not isinstance(f, SmoothBlackBox):
        return f.prox(req)

    def h(z):
        z = np.atleast_1d(np.asarray(z, dtype=float))
        d = z - x0
        return eval_oracle(f, z) + w * float(d @ d)

    solver = InnerSolver()
    if f.dim == 1:
        z = solver.minimize_1d(lambda t: h(np.array([t])), float(x0[0]))
        return np.array([z])
    return solver.minimize_nd(h, x0)


class VerdictKind(Enum):
    GLOBAL_MIN = "global_min"
    A_CRITICAL = "a_critical"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class CriticalityVerdict:
    kind: VerdictKind
    modulus: float = 0.0  # the a in "a-critical"; positive when A_CRITICAL


def classify_fixed_point(a1: float, a2: float) -> CriticalityVerdict:
    """Classify a proximal fixed point from its two duality coefficients.

    A fixed point produced with entering coefficient a1 and certified with
    exiting coefficient a2 is a global minimizer when a2 >= a1; otherwise
    it is weakly critical with modulus a1 - a2 > 0, i.e.
    f(y) - f(x0) >= -(a1 - a2)||y - x0||^2 for all y.  A nonpositive
    modulus always upgrades to the global verdict.
    """
    gap = a2 - a1
    if gap >= 0.0:
        return CriticalityVerdict(VerdictKind.GLOBAL_MIN)
    return CriticalityVerdict(VerdictKind.A_CRITICAL, modulus=-gap)
