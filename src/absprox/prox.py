"""The quadratically regularized proximal operator and criticality verdicts.

For a step size gamma and coefficient a0 >= -1/(2 gamma), the proximal
output at x0 is any

    x  in  argmin_z  f(z) + (1/(2 gamma) + a0) ||z - x0||^2.

Closed forms exist for all the bundled oracle classes; a derivative-free
inner solver covers black-box functions at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .oracles import (
    AbsPlusSquare,
    IndicatorSet,
    NormSquare,
    Oracle,
    QuadraticForm,
    SetDescriptor,
    SmoothBlackBox,
    eval_oracle,
)
from .phi import InfeasibleCoefficientError
from .reference import golden_section_min
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


class UnboundedObjectiveError(ValueError):
    """The regularized objective has no minimizer (unbounded below)."""


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
    """Derivative-free global argmin at desk scale.

    1-D: coarse-free golden section on [x0 - B, x0 + B] with
    B = max(10, 4|x0|), tolerance 1e-10, then one local refinement pass.
    n-D: projected gradient (finite-difference gradients) with backtracking
    from 8 deterministic starts inside a configured box.
    """

    def __init__(self, box_lo=None, box_hi=None, tol: float = 1e-10,
                 max_iter: int = 2000, num_starts: int = 8, seed: int = 7):
        self.box_lo = box_lo
        self.box_hi = box_hi
        self.tol = tol
        self.max_iter = max_iter
        self.num_starts = num_starts
        self.seed = seed

    def minimize_1d(self, h: Callable[[float], float], x0: float) -> float:
        b = max(10.0, 4.0 * abs(x0))
        z = golden_section_min(h, x0 - b, x0 + b, tol=self.tol)
        # one refinement pass around the first answer
        w = max(1e-6, 1e-3 * b)
        return golden_section_min(h, z - w, z + w, tol=self.tol)

    def minimize_nd(self, h: Callable[[np.ndarray], float], x0: np.ndarray) -> np.ndarray:
        from .reference import fd_gradient

        x0 = np.atleast_1d(np.asarray(x0, dtype=float))
        n = x0.size
        if self.box_lo is None or self.box_hi is None:
            lo = x0 - np.maximum(10.0, 4.0 * np.abs(x0))
            hi = x0 + np.maximum(10.0, 4.0 * np.abs(x0))
        else:
            lo = np.broadcast_to(np.asarray(self.box_lo, dtype=float), (n,)).copy()
            hi = np.broadcast_to(np.asarray(self.box_hi, dtype=float), (n,)).copy()
        rng = XorShift64Star(self.seed)
        starts = [np.clip(x0, lo, hi), 0.5 * (lo + hi)]
        while len(starts) < self.num_starts:
            starts.append(rng.uniform_vector(lo, hi, n))

        best_x, best_v = None, np.inf
        for s in starts:
            x = s.copy()
            v = h(x)
            for _ in range(self.max_iter):
                grad = fd_gradient(h, x)
                gn = float(np.linalg.norm(grad))
                if gn <= self.tol * max(1.0, abs(v)):
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


def prox_abs_square_closed_form(x0: float, gamma: float, a0: float) -> float:
    """Closed-form proximal point of f(x) = |x| + x^2.

    With s = 1/gamma + 2*a0 the minimizer of |z| + z^2 + (s/2)(z - x0)^2 is

        (s*x0 + 1)/(s + 2)   if s*x0 < -1,
        (s*x0 - 1)/(s + 2)   if s*x0 >  1,
        0                    otherwise.

    The denominator s + 2 comes from stationarity (1 + 2z from f plus
    s*(z - x0) from the regularizer) and is confirmed against a brute-force
    grid argmin; see the README note on the denominator.
    """
    if 2.0 * gamma * a0 < -1.0:
        raise InfeasibleCoefficientError("2*gamma*a0 >= -1 is required")
    s = 1.0 / gamma + 2.0 * a0
    t = s * x0
    if t < -1.0:
        return (t + 1.0) / (s + 2.0)
    if t > 1.0:
        return (t - 1.0) / (s + 2.0)
    return 0.0


def prox_indicator(c: SetDescriptor, x, gamma: float) -> np.ndarray:
    """Proximal point of an indicator: the projection onto the set.

    Independent of gamma — included for interface symmetry.  At x = 0 the
    result is Proj_C(0) like everywhere else; no special casing.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    return c.project(x)


def prox_via_argmin(req: ProxRequest, solver: InnerSolver | None = None) -> np.ndarray:
    """A global minimizer of h(z) = f(z) + (1/(2 gamma) + a0)||z - x0||^2.

    Uses the closed form when the oracle admits one, otherwise the inner
    solver.  When the regularized objective is unbounded below
    (QuadraticForm with min eigenvalue + weight < 0) raises
    ``UnboundedObjectiveError``.
    """
    f, x0, w = req.f, req.x0, req.weight
    if isinstance(f, AbsPlusSquare):
        return np.array([prox_abs_square_closed_form(float(x0[0]), req.gamma, req.a0)])
    if isinstance(f, NormSquare):
        # (1/(2 gp) + w) z = w x0
        return (w / (0.5 / f.gamma + w)) * x0 if w > 0.0 else np.zeros_like(x0)
    if isinstance(f, QuadraticForm):
        if f.min_eigenvalue + w < 0.0:
            raise UnboundedObjectiveError(
                "regularized quadratic is unbounded below: min eig "
                f"{f.min_eigenvalue} + weight {w} < 0"
            )
        if f.min_eigenvalue + w == 0.0:
            raise UnboundedObjectiveError(
                "regularized quadratic is singular at the bottom of its spectrum"
            )
        try:
            return np.linalg.solve(f.q + w * np.eye(f.dim), w * x0)
        except np.linalg.LinAlgError as e:
            # w within rounding of -min eig: which of the two guards above
            # or LAPACK catches it depends on the last bit of the eigenvalue
            raise UnboundedObjectiveError(
                f"regularized quadratic is singular: min eig {f.min_eigenvalue} "
                f"+ weight {w}"
            ) from e
    if isinstance(f, IndicatorSet):
        # w = 0 makes every point of C a minimizer; the projection is the
        # deterministic representative in either case
        return f.set.project(x0)
    # black box: derivative-free search
    solver = solver or InnerSolver()

    def h(z):
        z = np.atleast_1d(np.asarray(z, dtype=float))
        d = z - x0
        return eval_oracle(f, z) + w * float(d @ d)

    if req.f.dim == 1:
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
