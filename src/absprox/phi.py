"""Quadratic elementary functions and the norm-square duality map.

The whole library works with the family of elementary functions

    phi(x) = -a * ||x||^2 + <u, x> + c,

represented by :class:`PhiElement` through (a, u): the constant c cancels
from every subgradient identity.  For g(x) = ||x||^2 / (2*gamma) the
subdifferential with respect to this family admits a closed form: the
"duality map" J_gamma(x) consists of every (a, (1/gamma + 2a) x) with
2*gamma*a >= -1, and its inverse maps an element back to the point (None
where the preimage is empty or, on the threshold, the whole space).

``check_coefficient`` decides whether a step size gamma and a coefficient a
are admissible (gamma > 0 and 2*gamma*a >= -1, the inverse map's rule too);
the norm-square oracle, the prox request and the closed-form prox ask it.
The map's formulas are written once, for rows (``duality_slopes`` and
``duality_preimages``, one gamma and one a per row); the point maps are
one-row calls of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PhiElement",
    "check_coefficient",
    "duality_map_element",
    "duality_map_inverse",
    "duality_preimages",
    "duality_slopes",
    "InfeasibleCoefficientError",
]


class InfeasibleCoefficientError(ValueError):
    """Raised when a requested coefficient a lies outside its feasible range."""


_F64 = np.dtype(np.float64)


def _vec(u) -> np.ndarray:
    if type(u) is np.ndarray and u.dtype is _F64 and u.ndim == 1:
        return u  # what the conversion below would return
    out = np.atleast_1d(np.asarray(u, dtype=float))
    if out.ndim != 1:
        raise ValueError("expected a 1-D vector")
    return out


@dataclass(frozen=True, eq=False)
class PhiElement:
    """One elementary function phi(x) = -a||x||^2 + <u,x>, compared by value."""

    a: float
    u: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "u", _vec(self.u))

    @property
    def dim(self) -> int:
        return self.u.size

    def __eq__(self, other):
        if not isinstance(other, PhiElement):
            return NotImplemented
        return (self.a == other.a and self.u.shape == other.u.shape
                and bool(np.all(self.u == other.u)))

    def __hash__(self):
        return hash((self.a, self.u.tobytes()))


def _admissible(gamma, a):
    """2*gamma*a >= -1, without forming 2*gamma, which overflows for a huge
    gamma; elementwise for arrays of gamma and a."""
    # a is the threshold -0.5/gamma, bit for bit the -1/(2*gamma) callers
    # compute, or above it
    return (a == -0.5 / gamma) | (1.0 + 2.0 * (gamma * a) > 0.0)


def check_coefficient(gamma: float, a: float) -> None:
    """Refuse a step size gamma that is not positive (``ValueError``) and a
    coefficient a with 2*gamma*a < -1, which no element of J_gamma has
    (``InfeasibleCoefficientError``).  A NaN fails the test it enters."""
    if not gamma > 0.0:
        raise ValueError("gamma must be positive")
    if not _admissible(gamma, a):
        raise InfeasibleCoefficientError(
            f"a={a} violates 2*gamma*a >= -1 at gamma={gamma}: "
            "no element of the duality map has it"
        )


def duality_slopes(x, gamma, a) -> np.ndarray:
    """The slopes (1/gamma_i + 2 a_i) x_i of J_gamma_i(x_i)'s elements, one
    per row of the (m, n) block ``x``, with ``gamma`` and ``a`` of shape (m,).

    The first row that ``check_coefficient`` refuses raises its error, with
    the message of that row's own call.
    """
    gamma, a = np.asarray(gamma, dtype=float), np.asarray(a, dtype=float)
    # a refused row may divide by zero (it raises below), and a factor may
    # overflow to inf, as it does in float arithmetic
    with np.errstate(all="ignore"):
        refused = ~((gamma > 0.0) & _admissible(gamma, a))
        factor = 1.0 / gamma + 2.0 * a
    if refused.any():
        i = int(refused.argmax())
        check_coefficient(gamma[i].item(), a[i].item())
    return factor[:, None] * x


def duality_preimages(u, gamma, a) -> tuple[np.ndarray, np.ndarray]:
    """The preimages of the elements (a_i, u_i), one per row of the (m, n)
    block ``u``, under J_gamma_i: ``(points, is_point)``.

    ``is_point[i]`` is true exactly when row i's preimage is one point, and
    then ``points[i]`` is that point, gamma u / (1 + 2 gamma a),
    computed for those rows only; the other rows are NaN.  The first row
    whose gamma is not positive (``ValueError``) or whose a is NaN
    (``InfeasibleCoefficientError``) raises.
    """
    u = np.asarray(u, dtype=float)
    gamma, a = np.asarray(gamma, dtype=float), np.asarray(a, dtype=float)
    refused = ~(gamma > 0.0) | np.isnan(a)
    if refused.any():
        if not gamma[int(refused.argmax())] > 0.0:
            raise ValueError("gamma must be positive")
        raise InfeasibleCoefficientError("a=nan is no coefficient of the quadratic family")
    with np.errstate(over="ignore"):  # 2*gamma*a or 0.5/gamma may overflow to inf, as in floats
        is_point = _admissible(gamma, a) & (a != -0.5 / gamma)
        g = gamma[is_point]
        denom = 1.0 + 2.0 * (g * a[is_point])
    points = np.full(u.shape, np.nan)
    points[is_point] = g[:, None] * u[is_point] / denom[:, None]
    return points, is_point


def duality_map_element(x, gamma: float, a: float) -> PhiElement:
    """One element of J_gamma(x): (a, (1/gamma + 2a) x).

    J_gamma(x) is the subdifferential of ||.||^2/(2 gamma) at x within the
    quadratic family; its members are exactly the coefficients with
    2*gamma*a >= -1.
    """
    return PhiElement(a, duality_slopes(_vec(x)[None], [gamma], [a])[0])


def duality_map_inverse(phi: PhiElement, gamma: float) -> np.ndarray | None:
    """The one preimage point of phi under the duality map, or None.

    None where the preimage is not one point: below the threshold a =
    -1/(2*gamma) it is empty, and on it, where every x maps to (a, 0), it is
    the whole space when u = 0 and empty otherwise.  Above it the point is
    gamma*u / (1 + 2*gamma*a).  A NaN a raises ``InfeasibleCoefficientError``.
    """
    points, is_point = duality_preimages(phi.u[None], [gamma], [phi.a])
    return points[0] if is_point[0] else None
