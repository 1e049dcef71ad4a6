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
point's dimension and the requested coefficient.
"""

from __future__ import annotations

import itertools
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
    "indicator_subgrad_check",
    "proximal_normal_vector",
]


class EmptySubdifferentialError(ValueError):
    """The subdifferential at the requested point is empty (x outside dom f)."""


def _vec(x) -> np.ndarray:
    return np.atleast_1d(np.asarray(x, dtype=float))


# ---------------------------------------------------------------------------
# Set descriptors with exact projections
# ---------------------------------------------------------------------------
#
# Each set also answers the two tests behind ``indicator_subgrad_check``:
# ``normal_cone_contains(x, u, tol, scale)`` -- u in N(x, C), with x interior
# decided at ``tol`` and u's off-cone residual compared with ``scale`` -- and
# ``is_farthest(x, p, size)`` -- x maximizes ||y - p|| over C to within size.


@dataclass(frozen=True)
class Ball:
    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", _vec(self.center))
        object.__setattr__(self, "radius", float(self.radius))
        if self.radius <= 0:
            raise ValueError("ball radius must be positive")

    @property
    def dim(self) -> int:
        return self.center.size

    def char_size(self) -> float:
        return max(1.0, self.radius)

    def project(self, x) -> np.ndarray:
        x = _vec(x)
        d = x - self.center
        nd = float(np.linalg.norm(d))
        if nd <= self.radius:
            return x
        return self.center + (self.radius / nd) * d

    def contains(self, x, tol: float = 1e-9) -> bool:
        x = _vec(x)
        return float(np.linalg.norm(x - self.center)) <= self.radius + tol * self.char_size()

    def normal_cone_contains(self, x, u, tol: float, scale: float) -> bool:
        d = x - self.center
        nd = float(np.linalg.norm(d))
        if nd < self.radius - tol * self.char_size():  # interior point
            return float(np.linalg.norm(u)) <= scale
        t = float(u @ d) / (self.radius**2)
        return t >= -tol and float(np.linalg.norm(u - t * d)) <= scale

    def is_farthest(self, x, p, size: float) -> bool:
        d = p - self.center
        nd = float(np.linalg.norm(d))
        if nd <= size:
            # every boundary point is a maximizer
            return abs(float(np.linalg.norm(x - self.center)) - self.radius) <= size
        far = self.center - (self.radius / nd) * d
        return float(np.linalg.norm(x - far)) <= size


@dataclass(frozen=True)
class Box:
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lo", _vec(self.lo))
        object.__setattr__(self, "hi", _vec(self.hi))
        if self.lo.size != self.hi.size or np.any(self.lo > self.hi):
            raise ValueError("box bounds must satisfy lo <= hi componentwise")

    @property
    def dim(self) -> int:
        return self.lo.size

    def char_size(self) -> float:
        return max(1.0, float(np.max(self.hi - self.lo)))

    def project(self, x) -> np.ndarray:
        return np.clip(_vec(x), self.lo, self.hi)

    def contains(self, x, tol: float = 1e-9) -> bool:
        x = _vec(x)
        pad = tol * self.char_size()
        return bool(np.all(x >= self.lo - pad) and np.all(x <= self.hi + pad))

    def vertices(self) -> np.ndarray:
        if self.dim > 16:
            raise ValueError("vertex enumeration limited to dimension <= 16")
        corners = itertools.product(*zip(self.lo, self.hi))
        return np.array(list(corners), dtype=float)

    def normal_cone_contains(self, x, u, tol: float, scale: float) -> bool:
        pad = tol * self.char_size()
        for i in range(self.dim):
            at_hi = x[i] >= self.hi[i] - pad
            at_lo = x[i] <= self.lo[i] + pad
            if at_hi and u[i] < -scale:
                return False
            if at_lo and u[i] > scale:
                return False
            if not at_hi and not at_lo and abs(u[i]) > scale:
                return False
        return True

    def is_farthest(self, x, p, size: float) -> bool:
        best = max(float(np.linalg.norm(v - p)) for v in self.vertices())
        return float(np.linalg.norm(x - p)) >= best - size


@dataclass(frozen=True)
class Halfspace:
    """{x : <normal, x> <= offset}"""

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        object.__setattr__(self, "normal", _vec(self.normal))
        object.__setattr__(self, "offset", float(self.offset))
        if float(np.linalg.norm(self.normal)) == 0.0:
            raise ValueError("halfspace normal must be nonzero")

    @property
    def dim(self) -> int:
        return self.normal.size

    def char_size(self) -> float:
        return max(1.0, abs(self.offset) / float(np.linalg.norm(self.normal)))

    def project(self, x) -> np.ndarray:
        x = _vec(x)
        n = self.normal
        excess = float(n @ x) - self.offset
        if excess <= 0.0:
            return x
        return x - (excess / float(n @ n)) * n

    def contains(self, x, tol: float = 1e-9) -> bool:
        x = _vec(x)
        nn = float(np.linalg.norm(self.normal))
        return float(self.normal @ x) - self.offset <= tol * self.char_size() * nn

    def normal_cone_contains(self, x, u, tol: float, scale: float) -> bool:
        n = self.normal
        nn = float(np.linalg.norm(n))
        if float(n @ x) < self.offset - tol * self.char_size() * nn:  # interior
            return float(np.linalg.norm(u)) <= scale
        t = float(u @ n) / (nn * nn)
        return t >= -tol and float(np.linalg.norm(u - t * n)) <= scale

    def is_farthest(self, x, p, size: float) -> bool:
        raise NotImplementedError(
            "farthest-point check is unsupported for halfspaces (unbounded set)"
        )


SetDescriptor = Ball | Box | Halfspace


# ---------------------------------------------------------------------------
# Oracle function classes
# ---------------------------------------------------------------------------
#
# Each class carries its behaviour: ``value(x)``, ``feasible_range(x)`` (the
# admissible coefficients at x), ``element(x, a)`` (the subdifferential
# element for an admissible a) and, except SmoothBlackBox, ``prox(req)``
# (the closed-form proximal point for a ProxRequest).  The methods assume a
# point of the right dimension; callers go through the module functions
# below, which check it.


class UnboundedObjectiveError(ValueError):
    """The regularized objective has no minimizer (unbounded below)."""


@dataclass(frozen=True)
class FeasibleRange:
    """Half-line of admissible coefficients: a >= a_min (a > a_min if open)."""

    a_min: float
    open: bool = False

    def admits(self, a: float) -> bool:
        if self.a_min == -np.inf:
            return True
        return a > self.a_min if self.open else a >= self.a_min


@dataclass(frozen=True)
class NormSquare:
    """f(x) = ||x||^2 / (2 gamma)."""

    gamma: float
    dim: int = 1

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")

    def value(self, x) -> float:
        return float(x @ x) / (2.0 * self.gamma)

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

    def value(self, x) -> float:
        return float(x @ self.q @ x)

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
    if 2.0 * gamma * a0 < -1.0:
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

    def value(self, x) -> float:
        t = float(x[0])
        return abs(t) + t * t

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

    def value(self, x) -> float:
        return 0.0 if self.set.contains(x) else np.inf

    def feasible_range(self, x) -> FeasibleRange:
        if not self.set.contains(x):
            raise EmptySubdifferentialError(
                "point lies outside the indicator's set; subdifferential is empty"
            )
        return FeasibleRange(-np.inf, open=True)

    def element(self, x, a: float) -> PhiElement:
        # x = Proj_C(u/(2a)) holds with u = 2a*x whenever a >= 0; there is no
        # canonical selection on the a < 0 branch.
        if a < 0.0:
            raise InfeasibleCoefficientError(
                "no canonical indicator subgradient for a < 0; use "
                "indicator_subgrad_check to certify a candidate"
            )
        return PhiElement(a, 2.0 * a * x)

    def prox(self, req) -> np.ndarray:
        # w = 0 makes every point of C a minimizer; the projection is the
        # deterministic representative in either case
        return self.set.project(req.x0)


@dataclass(frozen=True)
class SmoothBlackBox:
    """Caller-supplied smooth g with a curvature-bound callback kappa.

    ``kappa(x)`` must dominate the local curvature of -g (i.e. a >= kappa(x)
    makes z -> g(z) + a||z - x||^2-ish models convex near x); the default
    coefficient is kappa(x) + eps.  Both callbacks must be pure and
    re-entrant.  When kappa is only a local bound the produced elements are
    certified locally, not globally.  ``value`` is the callback itself; there
    is no closed-form prox, so the inner solver minimizes it.
    """

    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    kappa: Callable[[np.ndarray], float]
    eps: float
    dim: int = 1

    def __post_init__(self):
        if self.eps <= 0:
            raise ValueError("eps must be positive")

    def default_coefficient(self, x) -> float:
        return float(self.kappa(_vec(x))) + self.eps

    def feasible_range(self, x) -> FeasibleRange:
        return FeasibleRange(float(self.kappa(x)))

    def element(self, x, a: float) -> PhiElement:
        return PhiElement(a, 2.0 * a * x + _vec(self.gradient(x)))


Oracle = NormSquare | QuadraticForm | AbsPlusSquare | IndicatorSet | SmoothBlackBox


def _check_dim(f: Oracle, x: np.ndarray):
    if x.size != f.dim:
        raise ValueError(f"dimension mismatch: oracle dim {f.dim}, point dim {x.size}")


def eval_oracle(f: Oracle, x) -> float:
    """f(x); +inf for an indicator evaluated outside its set."""
    x = _vec(x)
    _check_dim(f, x)
    return float(f.value(x))


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


# ---------------------------------------------------------------------------
# Indicator subdifferential: membership test and proximal normals
# ---------------------------------------------------------------------------


def indicator_subgrad_check(c: SetDescriptor, x, phi: PhiElement,
                            tol: float = 1e-9) -> bool:
    """True iff (a, u) belongs to the indicator subdifferential at x in C.

    a > 0: x = Proj_C(u / 2a).  a = 0: u lies in the normal cone at x.
    a < 0: x maximizes ||y - u/2a|| over C -- closed form for balls,
    vertex enumeration for boxes; halfspaces are unbounded, so that branch
    is unsupported.
    """
    x = _vec(x)
    if not c.contains(x, tol):
        raise EmptySubdifferentialError("x is not in the set")
    a, u = phi.a, phi.u
    size = tol * c.char_size()
    if a > 0.0:
        return float(np.linalg.norm(x - c.project(u / (2.0 * a)))) <= size
    if a == 0.0:
        return c.normal_cone_contains(x, u, tol, tol * max(1.0, float(np.linalg.norm(u))))
    return c.is_farthest(x, u / (2.0 * a), size)


def proximal_normal_vector(c: SetDescriptor, x, phi: PhiElement) -> np.ndarray:
    """The proximal normal v = u - 2a*x carried by a certified element.

    There is a t > 0 with x = Proj_C(x + t*v); concretely t = 1 when a <= 0
    and t = 1/(2a) when a > 0.
    """
    x = _vec(x)
    if not indicator_subgrad_check(c, x, phi):
        raise ValueError("element failed the indicator subdifferential check")
    return phi.u - 2.0 * phi.a * x
