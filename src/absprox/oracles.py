"""Subgradient oracles for the supported function classes.

Every oracle evaluates its function and produces elements (a, u) of the
quadratic-minorant subdifferential at a point: phi(y) = -a||y||^2 + <u,y>
with f(y) - f(x) >= phi(y) - phi(x) for all y.  Supported classes:

* ``NormSquare(gamma)``     -- f(x) = ||x||^2 / (2 gamma)
* ``QuadraticForm(Q)``      -- f(x) = <x, Qx>, Q symmetric (possibly indefinite);
  its spectrum comes from LAPACK (``numpy.linalg.eigh``), never from the
  Jacobi solver in :mod:`absprox.reference`, which stays independent so it
  can cross-check it
* ``AbsPlusSquare()``       -- f(x) = |x| + x^2 on the line
* ``IndicatorSet(C)``       -- f = 0 on C, +inf outside, C a ball/box/halfspace
* ``SmoothBlackBox(...)``   -- caller-supplied smooth g with a curvature bound

The feasible coefficients form a half-line a >= a_min whose endpoint depends
on the class; requesting a below it raises ``InfeasibleCoefficientError``.
Each class carries its own formulas as methods; ``eval_oracle``,
``feasible_range`` and ``subgrad_at`` are the entry points, which check the
point's dimension and the requested coefficient.  ``eval_oracle`` also takes
a block (m, n) of points and returns their m values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .phi import InfeasibleCoefficientError, PhiElement

__all__ = [
    "Ball",
    "Box",
    "Halfspace",
    "NormSquare",
    "QuadraticForm",
    "AbsPlusSquare",
    "IndicatorSet",
    "SmoothBlackBox",
    "FeasibleRange",
    "EmptySubdifferentialError",
    "eval_oracle",
    "feasible_range",
    "subgrad_at",
]


class EmptySubdifferentialError(ValueError):
    """The subdifferential at the requested point is empty (x outside dom f)."""


_F64 = np.dtype(np.float64)


def _vec(x) -> np.ndarray:
    if type(x) is np.ndarray and x.dtype is _F64 and x.ndim:
        return x  # what the conversion below would return
    return np.atleast_1d(np.asarray(x, dtype=float))


def _norm(v: np.ndarray) -> float:
    """||v|| of a 1-D array: sqrt(v . v), bit for bit what np.linalg.norm
    computes, or the overflow-safe ``math.hypot`` where v . v overflows."""
    nd = math.sqrt(v.dot(v))
    return nd if nd != math.inf else math.hypot(*v)


# membership slack of the sets' ``contains``, relative to the set's size
_CONTAINS_TOL = 1e-9


# ---------------------------------------------------------------------------
# Set descriptors with exact projections
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Ball:
    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", _vec(self.center))
        object.__setattr__(self, "radius", float(self.radius))
        if not self.radius > 0:
            raise ValueError("ball radius must be positive")

    @property
    def dim(self) -> int:
        return self.center.size

    def char_size(self) -> float:
        return max(1.0, self.radius)

    def project(self, x) -> np.ndarray:
        x = _vec(x)
        d = x - self.center
        nd = math.sqrt(d.dot(d))  # np.linalg.norm's arithmetic
        if nd <= self.radius:
            return x
        if nd == math.inf:  # d . d overflows; d scaled to max |d_i| = 1 points the same way
            d = d / np.abs(d).max()
            nd = math.sqrt(d.dot(d))
        return self.center + (self.radius / nd) * d

    def contains(self, x):
        d = _vec(x) - self.center
        # sqrt(d . d) per row is how np.linalg.norm computes one vector's norm
        return np.sqrt(np.vecdot(d, d)) <= self.radius + _CONTAINS_TOL * self.char_size()


@dataclass(frozen=True)
class Box:
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lo", _vec(self.lo))
        object.__setattr__(self, "hi", _vec(self.hi))
        if self.lo.size != self.hi.size or not np.all(self.lo <= self.hi):
            raise ValueError("box bounds must satisfy lo <= hi componentwise")

    @property
    def dim(self) -> int:
        return self.lo.size

    def char_size(self) -> float:
        return max(1.0, float(np.max(self.hi - self.lo)))

    def project(self, x) -> np.ndarray:
        return np.clip(_vec(x), self.lo, self.hi)

    def contains(self, x):
        x = _vec(x)
        pad = _CONTAINS_TOL * self.char_size()
        return np.all((x >= self.lo - pad) & (x <= self.hi + pad), axis=-1)


@dataclass(frozen=True)
class Halfspace:
    """{x : <normal, x> <= offset}"""

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        object.__setattr__(self, "normal", _vec(self.normal))
        object.__setattr__(self, "offset", float(self.offset))
        if not _norm(self.normal) > 0.0:
            raise ValueError("halfspace normal must be nonzero")

    @property
    def dim(self) -> int:
        return self.normal.size

    def char_size(self) -> float:
        return max(1.0, abs(self.offset) / _norm(self.normal))

    def project(self, x) -> np.ndarray:
        x = _vec(x)
        n = self.normal
        excess = float(n @ x) - self.offset
        if excess <= 0.0:
            return x
        nn = float(n @ n)
        if nn == math.inf:  # n . n overflows; rescale the normal to max |n_i| = 1
            scale = float(np.abs(n).max())
            n = n / scale
            excess, nn = float(n @ x) - self.offset / scale, float(n @ n)
        return x - (excess / nn) * n

    def contains(self, x):
        nn = _norm(self.normal)
        return (np.vecdot(_vec(x), self.normal) - self.offset
                <= _CONTAINS_TOL * self.char_size() * nn)


SetDescriptor = Ball | Box | Halfspace


# ---------------------------------------------------------------------------
# Oracle function classes
# ---------------------------------------------------------------------------
#
# Each class carries its behaviour: ``value(x)``, ``feasible_range(x)`` (the
# admissible coefficients at x), ``element(x, a)`` (the subdifferential
# element for an admissible a) and, except SmoothBlackBox, ``prox(req)``
# (the closed-form proximal point for a ProxRequest).  ``value`` and the
# sets' ``contains`` take a point (n,) or a block (m, n) of points, one
# result per row, each row bit for bit its single-point result.  The methods
# assume points of the right dimension; callers go through the module
# functions below, which check it.


class UnboundedObjectiveError(ValueError):
    """The regularized objective has no minimizer (unbounded below)."""


@dataclass(frozen=True)
class FeasibleRange:
    """Half-line of admissible coefficients a >= a_min; NaN is never admitted."""

    a_min: float

    def admits(self, a: float) -> bool:
        return a >= self.a_min


@dataclass(frozen=True)
class NormSquare:
    """f(x) = ||x||^2 / (2 gamma)."""

    gamma: float
    dim: int = 1

    def __post_init__(self):
        if not self.gamma > 0:
            raise ValueError("gamma must be positive")

    def value(self, x):
        return np.vecdot(x, x) / (2.0 * self.gamma)

    def feasible_range(self, x) -> FeasibleRange:
        return FeasibleRange(-1.0 / (2.0 * self.gamma))

    def element(self, x, a: float) -> PhiElement:
        return PhiElement(a, (1.0 / self.gamma + 2.0 * a) * x)

    def prox(self, req) -> np.ndarray:
        # (1/(2 gp) + w) z = w x0
        x0, w = req.x0, req.weight
        return (w / (0.5 / self.gamma + w)) * x0 if w > 0.0 else np.zeros_like(x0)


@dataclass(frozen=True)
class QuadraticForm:
    """f(x) = <x, Qx> with Q symmetric; may be indefinite."""

    q: np.ndarray
    eigenvalues: np.ndarray = field(init=False, compare=False)
    eigenvectors: np.ndarray = field(init=False, compare=False)

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise ValueError("Q must be square")
        if not np.isfinite(q).all():
            raise ValueError("Q must be finite")
        if np.abs(q - q.T).max() > 1e-12 * max(1.0, np.abs(q).max()):
            raise ValueError("Q must be symmetric")
        object.__setattr__(self, "q", q)
        w, v = np.linalg.eigh(q)
        object.__setattr__(self, "eigenvalues", w)
        object.__setattr__(self, "eigenvectors", v)

    @property
    def dim(self) -> int:
        return self.q.shape[0]

    @property
    def min_eigenvalue(self) -> float:
        return float(self.eigenvalues[0])

    def value(self, x):
        # the rows' x @ q @ x bit for bit; a block x @ q is not
        return np.vecdot(np.matvec(self.q.T, x), x)

    def feasible_range(self, x) -> FeasibleRange:
        return FeasibleRange(-self.min_eigenvalue)

    def element(self, x, a: float) -> PhiElement:
        return PhiElement(a, 2.0 * (self.q @ x + a * x))

    def prox(self, req) -> np.ndarray:
        """Raises ``UnboundedObjectiveError`` when min eig + weight <= 0."""
        x0, w = req.x0, req.weight
        if self.min_eigenvalue + w < 0.0:
            raise UnboundedObjectiveError(
                "regularized quadratic is unbounded below: min eig "
                f"{self.min_eigenvalue} + weight {w} < 0"
            )
        if self.min_eigenvalue + w == 0.0:
            raise UnboundedObjectiveError(
                "regularized quadratic is singular at the bottom of its spectrum"
            )
        try:
            return np.linalg.solve(self.q + w * np.eye(self.dim), w * x0)
        except np.linalg.LinAlgError as e:
            # w within rounding of -min eig: which of the two guards above
            # or LAPACK catches it depends on the last bit of the eigenvalue
            raise UnboundedObjectiveError(
                f"regularized quadratic is singular: min eig {self.min_eigenvalue} "
                f"+ weight {w}"
            ) from e


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
    if not 2.0 * gamma * a0 >= -1.0:
        raise InfeasibleCoefficientError("2*gamma*a0 >= -1 is required")
    s = 1.0 / gamma + 2.0 * a0
    t = s * x0
    if t < -1.0:
        return (t + 1.0) / (s + 2.0)
    if t > 1.0:
        return (t - 1.0) / (s + 2.0)
    return 0.0


@dataclass(frozen=True)
class AbsPlusSquare:
    """f(x) = |x| + x^2 on the real line."""

    @property
    def dim(self) -> int:
        return 1

    def value(self, x):
        t = x[..., 0]
        return np.abs(t) + t * t

    def feasible_range(self, x) -> FeasibleRange:
        return FeasibleRange(-1.0)

    def element(self, x, a: float) -> PhiElement:
        t = float(x[0])
        slope = np.sign(t) if t != 0.0 else 0.0
        return PhiElement(a, np.array([slope + 2.0 * (a + 1.0) * t]))

    def prox(self, req) -> np.ndarray:
        return np.array([prox_abs_square_closed_form(float(req.x0[0]), req.gamma, req.a0)])


@dataclass(frozen=True)
class IndicatorSet:
    """f = 0 on the set, +inf outside."""

    set: SetDescriptor

    @property
    def dim(self) -> int:
        return self.set.dim

    def value(self, x):
        return np.where(self.set.contains(x), 0.0, np.inf)

    def feasible_range(self, x) -> FeasibleRange:
        if not self.set.contains(x):
            raise EmptySubdifferentialError(
                "point lies outside the indicator's set; subdifferential is empty"
            )
        return FeasibleRange(-np.inf)

    def element(self, x, a: float) -> PhiElement:
        # x = Proj_C(u/(2a)) holds with u = 2a*x whenever a >= 0; there is no
        # canonical selection on the a < 0 branch.
        if a < 0.0:
            raise InfeasibleCoefficientError("no canonical indicator subgradient for a < 0")
        return PhiElement(a, 2.0 * a * x)

    def prox(self, req) -> np.ndarray:
        # w = 0 makes every point of C a minimizer; the projection is the
        # deterministic representative in either case
        return self.set.project(req.x0)


@dataclass(frozen=True)
class SmoothBlackBox:
    """Caller-supplied smooth g with a curvature-bound callback kappa.

    ``kappa(z)`` must bound the curvature of -g near z in the library's
    convention, Hess g >= -2 kappa(z) I, so that a >= kappa makes
    z -> g(z) + a||z - x||^2 convex there; the default coefficient is
    kappa(x) + eps.  The callbacks must be pure and re-entrant.  When kappa
    is only a local bound the produced elements are certified locally, not
    globally.  ``value`` is the callback itself, called on one point at a
    time (``eval_oracle`` loops over the rows of a block).  There is no
    closed-form prox, so the inner solver descends on ``gradient`` and
    certifies its answer with kappa.
    """

    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    kappa: Callable[[np.ndarray], float]
    eps: float
    dim: int = 1

    def __post_init__(self):
        if not self.eps > 0:
            raise ValueError("eps must be positive")

    def default_coefficient(self, x) -> float:
        return float(self.kappa(_vec(x))) + self.eps

    def feasible_range(self, x) -> FeasibleRange:
        return FeasibleRange(float(self.kappa(x)))

    def element(self, x, a: float) -> PhiElement:
        return PhiElement(a, 2.0 * a * x + _vec(self.gradient(x)))


Oracle = NormSquare | QuadraticForm | AbsPlusSquare | IndicatorSet | SmoothBlackBox


def _check_dim(f: Oracle, x: np.ndarray):
    if x.shape != (f.dim,):
        raise ValueError(f"dimension mismatch: oracle dim {f.dim}, point of shape {x.shape}")


def eval_oracle(f: Oracle, x) -> float | np.ndarray:
    """f(x); +inf for an indicator evaluated outside its set.

    A point (n,) gives a float, a block (m, n) the array of its m row values.
    A black box's callback sees one row at a time.
    """
    x = _vec(x)
    if x.ndim > 2 or x.shape[-1] != f.dim:
        raise ValueError(f"dimension mismatch: oracle dim {f.dim}, points of shape {x.shape}")
    if x.ndim == 1:
        return float(f.value(x))
    if isinstance(f, SmoothBlackBox):
        return np.array([float(f.value(row)) for row in x])
    return f.value(x)


def feasible_range(f: Oracle, x) -> FeasibleRange:
    """Admissible coefficients a at x.  Raises if x is outside dom f."""
    x = _vec(x)
    _check_dim(f, x)
    return f.feasible_range(x)


def subgrad_at(f: Oracle, x, a: float | None = None) -> PhiElement:
    """A certified subdifferential element (a, u) of f at x.

    ``a`` defaults to kappa(x) + eps for SmoothBlackBox; other oracles
    require it explicitly.  For AbsPlusSquare at 0 the admissible slopes
    form the interval [-1, 1] and the selector returns the midpoint u = 0.
    """
    x = _vec(x)
    _check_dim(f, x)
    if a is None:
        if isinstance(f, SmoothBlackBox):
            a = f.default_coefficient(x)
        else:
            raise TypeError("coefficient a is required for this oracle")
    a = float(a)
    rng = feasible_range(f, x)
    if not rng.admits(a):
        raise InfeasibleCoefficientError(
            f"a={a} below the feasible threshold a_min={rng.a_min}"
        )
    return f.element(x, a)
