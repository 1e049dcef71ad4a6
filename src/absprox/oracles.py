"""Subgradient oracles for the supported function classes.

Every oracle evaluates its function and produces elements (a, u) of the
quadratic-minorant subdifferential at a point: phi(y) = -a||y||^2 + <u,y>
with f(y) - f(x) >= phi(y) - phi(x) for all y.  Supported classes:

* ``NormSquare(gamma)``     -- f(x) = ||x||^2 / (2 gamma)
* ``QuadraticForm(Q)``      -- f(x) = <x, Qx>, Q symmetric (possibly indefinite);
  its spectrum comes from LAPACK (``numpy.linalg.eigh``), never from the
  Jacobi solver in :mod:`absprox.reference`, which stays independent so it
  can cross-check it; its prox solves through that spectrum
* ``AbsPlusSquare()``       -- f(x) = |x| + x^2 on the line
* ``IndicatorSet(C)``       -- f = 0 on C, +inf outside, C a ball/box/halfspace
* ``SmoothBlackBox(...)``   -- caller-supplied smooth g with a curvature bound

The feasible coefficients form a half-line a >= a_min whose endpoint depends
on the class; requesting a below it raises ``InfeasibleCoefficientError``.
Each class carries its own formulas and its own prox as methods, the black
box included: its ``prox`` is a certified inner solver (see
``_inner_argmin``), and ``slope(x, a)``, its one formula for the u of an
element (a, u).  ``eval_oracle``, ``feasible_range`` and ``subgrad_at`` are
the entry points: they check the point's dimension and the coefficient,
which the methods assume.  ``eval_oracle`` and ``feasible_range`` also take
a block (m, n) of points and return their m values.  Any other input is one
point, checked by ``_point``, as are ``subgrad_at``'s, every ``prox``'s (a
``ProxRequest``'s) and each run's start in :mod:`absprox.algorithms`.  Every
point, block and set datum is converted by the one helper ``phi._vec``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .phi import InfeasibleCoefficientError, PhiElement, _vec, check_coefficient, duality_slopes

__all__ = [
    "Ball",
    "Box",
    "Halfspace",
    "NormSquare",
    "QuadraticForm",
    "AbsPlusSquare",
    "IndicatorSet",
    "SmoothBlackBox",
    "ProxRequest",
    "prox_abs_square_closed_form",
    "EmptySubdifferentialError",
    "UnboundedObjectiveError",
    "SolverToleranceError",
    "eval_oracle",
    "feasible_range",
    "subgrad_at",
]


class EmptySubdifferentialError(ValueError):
    """The subdifferential at the requested point is empty (x outside dom f)."""


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
        if not (np.isfinite(self.center).all() and math.isfinite(self.radius)):
            raise ValueError("ball center and radius must be finite")
        if not self.radius > 0:
            raise ValueError("ball radius must be positive")

    @property
    def dim(self) -> int:
        return self.center.size

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
        return np.sqrt(np.vecdot(d, d)) <= self.radius + _CONTAINS_TOL * max(1.0, self.radius)


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

    def project(self, x) -> np.ndarray:
        return np.clip(_vec(x), self.lo, self.hi)

    def contains(self, x):
        x, width = _vec(x), self.hi - self.lo
        # the slack scales with the widest finite side, so an unbounded side
        # keeps it finite
        pad = _CONTAINS_TOL * float(np.max(width[np.isfinite(width)], initial=1.0))
        return np.all((x >= self.lo - pad) & (x <= self.hi + pad), axis=-1)


@dataclass(frozen=True)
class Halfspace:
    """{x : <normal, x> <= offset}"""

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        object.__setattr__(self, "normal", _vec(self.normal))
        object.__setattr__(self, "offset", float(self.offset))
        if not (np.isfinite(self.normal).all() and math.isfinite(self.offset)):
            raise ValueError("halfspace normal and offset must be finite")
        if not _norm(self.normal) > 0.0:
            raise ValueError("halfspace normal must be nonzero")

    @property
    def dim(self) -> int:
        return self.normal.size

    def _excess(self, x: np.ndarray):
        """(n, e, s) for a point x or per row of a block: the normal n, rescaled
        with the offset b to max |n_i| = 1 where n . n overflows, and
        s e = n . x - b.  s is 1 unless the products n_i x_i overflow at a
        finite point; there s = max |x_i| and e is computed on x / s, so a
        far point on the boundary reads 0, not inf or NaN."""
        n, b = self.normal, self.offset
        if float(n @ n) == math.inf:
            scale = float(np.abs(n).max())
            n, b = n / scale, b / scale
        e = np.vecdot(x, n) - b
        if np.isfinite(e).all():
            return n, e, 1.0
        s = np.where(np.isfinite(e) | ~np.isfinite(x).all(axis=-1), 1.0, np.abs(x).max(axis=-1))
        return n, np.vecdot(x / s[..., None], n) - b / s, s

    def project(self, x) -> np.ndarray:
        x = _vec(x)
        n, e, s = self._excess(x)
        return x if e <= 0.0 else s * (x / s - (e / float(n @ n)) * n)

    def contains(self, x):
        n, e, s = self._excess(_vec(x))
        return e * s <= _CONTAINS_TOL * max(1.0, abs(self.offset) / _norm(self.normal)) * _norm(n)


SetDescriptor = Ball | Box | Halfspace


# ---------------------------------------------------------------------------
# Oracle function classes
# ---------------------------------------------------------------------------
#
# Each class carries its behaviour: ``value(x)``, ``feasible_range(x)`` (the
# least admissible coefficient a_min at x), ``slope(x, a)`` (the u of the
# subdifferential element (a, u) for an admissible a) and ``prox(req)`` (the
# proximal point for a ProxRequest, which holds one point: a closed form, or
# for SmoothBlackBox the certified inner solver).
# ``value``, ``feasible_range``, ``slope`` and the sets' ``contains`` take a
# point (n,) or a block (m, n) of points, one result per row, each row bit
# for bit its single-point result (a refused row raises its own error); the
# certificate sampler and the Fejér check's allowance call them on a block.
# A set's ``project`` takes one point: a run steps one point at a time.
# The black box's callbacks see one row at a time.  A block's coefficients
# ``a`` are an (m, 1) column.  A constant ``feasible_range`` is one float
# for any block.  The methods assume points of the right dimension and, in
# ``slope``, an admissible a; the module functions below check both.


class UnboundedObjectiveError(ValueError):
    """The regularized objective has no minimizer (unbounded below)."""


class SolverToleranceError(RuntimeError):
    """The inner solver could not certify its answer; carries that point."""

    def __init__(self, message: str, best: np.ndarray):
        super().__init__(message)
        self.best = np.asarray(best)


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
        object.__setattr__(self, "x0", _point(self.f, self.x0))
        check_coefficient(self.gamma, self.a0)

    @property
    def weight(self) -> float:
        """The regularization coefficient 1/(2 gamma) + a0 (>= 0)."""
        return 1.0 / (2.0 * self.gamma) + self.a0


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

    def feasible_range(self, x) -> float:
        return -1.0 / (2.0 * self.gamma)

    def slope(self, x, a):
        """(1/gamma + 2a) x: J_gamma's slopes, one ``duality_slopes`` call on
        the rows of a block or on a point as one row; a refused row raises
        its ``check_coefficient`` error."""
        rows = np.atleast_2d(x)
        return duality_slopes(rows, np.full(len(rows), self.gamma),
                              np.broadcast_to(a, (len(rows), 1)).ravel()).reshape(x.shape)

    def prox(self, req) -> np.ndarray:
        # (1/(2 gp) + w) z = w x0
        w = req.weight
        return np.where(w > 0.0, (w / (0.5 / self.gamma + w)) * req.x0, 0.0)


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
        if not np.array_equal(q, q.T):
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
        return np.vecdot(np.matvec(self.q.T, x), x)

    def feasible_range(self, x) -> float:
        return -self.min_eigenvalue

    def slope(self, x, a):
        qx = np.matvec(self.q, x)
        qx += a * x  # 2 (qx + a x), in place
        qx *= 2.0
        return qx

    def prox(self, req) -> np.ndarray:
        """argmin <z, Qz> + w||z - x0||^2 = V ((V^T (w x0)) / (lam + w)),
        through the spectrum (lam, V) that construction computed.

        Raises ``UnboundedObjectiveError`` unless min eig + weight > 0, the
        one condition under which the minimizer exists.
        """
        w, lam = req.weight, self.min_eigenvalue
        if not lam + w > 0.0:
            raise UnboundedObjectiveError(
                f"regularized quadratic has no minimizer: min eig {lam} + weight {w} <= 0"
            )
        v = self.eigenvectors
        # w x0 first, then a division by lam + w: on Q = 0 (V = I) this is
        # (w x0) / w bit for bit, which the fb-hessian digests pin; a product
        # with 1 / (lam + w) differs in the last bit on many points
        return v @ ((v.T @ (w * req.x0)) / (self.eigenvalues + w))


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
    check_coefficient(gamma, a0)
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

    def feasible_range(self, x) -> float:
        return -1.0

    def slope(self, x, a):
        # at 0 the admissible slopes form the interval [-1, 1]; the selector
        # returns its midpoint u = 0
        t = x[..., :1]
        return np.where(t != 0.0, np.sign(t), 0.0) + 2.0 * (a + 1.0) * t

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

    def feasible_range(self, x) -> float:
        if not self.set.contains(x).all():
            raise EmptySubdifferentialError(
                "point lies outside the indicator's set; subdifferential is empty"
            )
        return -math.inf

    def slope(self, x, a):
        # x = Proj_C(u/(2a)) holds with u = 2a*x whenever a >= 0; there is no
        # canonical selection on the a < 0 branch.
        if np.any(a < 0.0):
            raise InfeasibleCoefficientError("no canonical indicator subgradient for a < 0")
        return 2.0 * a * x

    def prox(self, req) -> np.ndarray:
        # w = 0 makes every point of C a minimizer; the projection is the
        # deterministic representative in either case
        return self.set.project(req.x0)


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
    The gradient test runs first, and h (so g's ``value``) is evaluated only
    where it fails: at that trial, and at the current iterate z at most once,
    on its first such trial; that h(z) is dropped when z moves.

    The answer z is certified: with g's curvature bound kappa (Hess g >=
    -2 kappa I) the margin m = 2(w - kappa(z)) bounds Hess h from below, so
    ||z - z*|| <= ||h'(z)|| / m wherever kappa bounds the curvature, and z is
    the global minimizer when it does so everywhere.  When the stop rule is
    not met, m <= 0, or the tolerance is inf (an inf h'(x0)), raises
    ``SolverToleranceError`` carrying z.
    """

    def h(z):
        d = z - x0
        return float(f.value(z)) + w * float(d @ d)

    def dh(z):
        return f.gradient_at(z) + 2.0 * w * (z - x0)

    z = x0.copy()
    grad = dh(z)
    r, v = _norm(grad), None  # v: h(z) once a trial from z fails the gradient test
    tol = _INNER_RTOL * max(1.0, r, _norm(x0))
    step = 1.0 / max(1.0, r)
    steps = 0
    while not r <= tol and steps < _INNER_MAX_STEPS:
        while step >= 1e-16:
            trial = z - step * grad
            g_t = dh(trial)
            r_t = _norm(g_t)
            if r_t <= (1.0 - 1e-4) * r:
                break
            if v is None:
                v = h(z)
            if h(trial) <= v - 1e-4 * step * r * r:
                break
            step *= 0.5
        else:  # no acceptable step above 1e-16
            break
        s, y = trial - z, g_t - grad
        sy = float(s @ y)
        step = float(s @ s) / sy if sy > 0.0 else 1.0
        z, grad, r, v = trial, g_t, r_t, None
        steps += 1
    margin = 2.0 * (w - float(f.kappa(z)))
    if not (r <= tol < math.inf and margin > 0.0):
        raise SolverToleranceError(
            f"inner prox not certified after {steps} steps: residual {r:.3g} "
            f"(tolerance {tol:.3g}), margin {margin:.3g}", z)
    return z


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
    closed-form prox, so ``prox`` descends on ``gradient`` and certifies its
    answer with kappa.  The prox calls ``value`` only where its Armijo test
    is consulted, which may be nowhere; since the callbacks are pure, a
    skipped call cannot be observed.  ``run_ppa`` and ``run_fb`` still
    evaluate ``value`` at every record, so a broken ``value`` still fails a
    run.
    """

    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    kappa: Callable[[np.ndarray], float]
    eps: float
    dim: int = 1

    def __post_init__(self):
        if not self.eps > 0:
            raise ValueError("eps must be positive")

    def feasible_range(self, x):
        if x.ndim > 1:
            return np.array([float(self.kappa(row)) for row in x])
        return float(self.kappa(x))

    def gradient_at(self, x) -> np.ndarray:
        """grad g at a point, or at each row of a block (the callback sees one
        row at a time); ``ValueError`` unless it has the point's shape."""
        if x.ndim > 1:
            return np.array([self.gradient_at(row) for row in x])
        grad = _vec(self.gradient(x))
        if grad.shape != x.shape:
            raise ValueError(f"dimension mismatch: gradient of shape {grad.shape} "
                             f"at a point of shape {x.shape}")
        return grad

    def slope(self, x, a):
        return 2.0 * a * x + self.gradient_at(x)

    def prox(self, req) -> np.ndarray:
        """Raises ``SolverToleranceError`` when the answer is not certified."""
        return _inner_argmin(self, req.x0, req.weight)


Oracle = NormSquare | QuadraticForm | AbsPlusSquare | IndicatorSet | SmoothBlackBox


def _point(f: Oracle, x) -> np.ndarray:
    """x as one point (n,) of f's dimension n; anything else raises ``ValueError``."""
    x = _vec(x)
    if x.shape != (f.dim,):
        raise ValueError(f"dimension mismatch: oracle dim {f.dim}, point of shape {x.shape}")
    return x


def _rows(f: Oracle, x) -> np.ndarray:
    """x as a block (m, n) of f's dimension n, or else as one point (``_point``)."""
    x = _vec(x)
    return x if x.ndim == 2 and x.shape[1] == f.dim else _point(f, x)


def eval_oracle(f: Oracle, x) -> float | np.ndarray:
    """f(x); +inf for an indicator evaluated outside its set.

    A point (n,) gives a float, a block (m, n) the array of its m row values;
    ``_point`` refuses any other shape.  A black box's callback sees one row at a time.
    """
    x = _rows(f, x)
    if x.ndim == 1:
        return float(f.value(x))
    if isinstance(f, SmoothBlackBox):
        return np.array([float(f.value(row)) for row in x])
    return f.value(x)


def feasible_range(f: Oracle, x) -> float | np.ndarray:
    """a_min, the least admissible coefficient at x: the admissible ones are
    a >= a_min, which no NaN satisfies.  Raises if x is outside dom f.  A
    block (m, n) gives the m rows' values; a black box's callback sees one
    row at a time."""
    x = _rows(f, x)
    a_min = f.feasible_range(x)
    return a_min if x.ndim == 1 else np.full(len(x), a_min)


def subgrad_at(f: Oracle, x, a: float) -> PhiElement:
    """A certified subdifferential element (a, ``f.slope(x, a)``) of f at x, for
    a coefficient a >= ``feasible_range(f, x)`` (a black box's usual choice
    is ``f.feasible_range(x) + f.eps``)."""
    x = _point(f, x)
    a = _admit(a, f.feasible_range(x))
    return PhiElement(a, f.slope(x, a))


def _admit(a: float | None, a_min: float) -> float:
    """The coefficient a, or a_min where a is None; refused unless a >= a_min."""
    a = a_min if a is None else float(a)
    if not a >= a_min:
        raise InfeasibleCoefficientError(f"a={a} below the feasible threshold a_min={a_min}")
    return a
