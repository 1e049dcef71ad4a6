"""Quadratic elementary functions and the norm-square duality map.

The whole library works with the family of elementary functions

    phi(x) = -a * ||x||^2 + <u, x> + c,

represented by :class:`PhiElement`.  For g(x) = ||x||^2 / (2*gamma) the
subdifferential with respect to this family admits a closed form: the
"duality map" J_gamma(x) consists of every (a, (1/gamma + 2a) x) with
2*gamma*a >= -1, and its inverse maps an element back to the point (or to
the whole space / the empty set in the degenerate cases).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

__all__ = [
    "PhiElement",
    "ResultKind",
    "SetValuedResult",
    "eval_phi",
    "sub_phi",
    "duality_map_element",
    "duality_map_inverse",
    "phi_geq_minorant",
    "InfeasibleCoefficientError",
]


class InfeasibleCoefficientError(ValueError):
    """Raised when a requested coefficient a lies outside its feasible range."""


def _vec(u) -> np.ndarray:
    out = np.atleast_1d(np.asarray(u, dtype=float))
    if out.ndim != 1:
        raise ValueError("expected a 1-D vector")
    return out


@dataclass(frozen=True, eq=False)
class PhiElement:
    """One elementary function phi(x) = -a||x||^2 + <u,x> + c.

    The constant c never matters for subgradient identities (differences of
    values cancel it) but is kept because the affine-minorant conversion
    produces a nonzero one.  Equality accordingly compares (a, u) only.
    """

    a: float
    u: np.ndarray
    c: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "u", _vec(self.u))
        object.__setattr__(self, "c", float(self.c))

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


class ResultKind(Enum):
    POINT = "point"
    WHOLE_SPACE = "whole_space"
    EMPTY = "empty"


@dataclass(frozen=True)
class SetValuedResult:
    """Inverse-duality-map result: a point, all of R^n, or nothing."""

    kind: ResultKind
    point: np.ndarray | None = field(default=None)

    @staticmethod
    def of_point(x) -> "SetValuedResult":
        return SetValuedResult(ResultKind.POINT, _vec(x))

    @staticmethod
    def whole_space() -> "SetValuedResult":
        return SetValuedResult(ResultKind.WHOLE_SPACE)

    @staticmethod
    def empty() -> "SetValuedResult":
        return SetValuedResult(ResultKind.EMPTY)


def eval_phi(phi: PhiElement, x) -> float:
    """Evaluate phi(x) = -a||x||^2 + <u,x> + c."""
    x = _vec(x)
    if x.size != phi.dim:
        raise ValueError(f"dimension mismatch: phi has dim {phi.dim}, x has {x.size}")
    return -phi.a * float(x @ x) + float(phi.u @ x) + phi.c


def sub_phi(p: PhiElement, q: PhiElement) -> PhiElement:
    """Componentwise difference (a_p - a_q, u_p - u_q, c_p - c_q)."""
    if p.dim != q.dim:
        raise ValueError("dimension mismatch")
    return PhiElement(p.a - q.a, p.u - q.u, p.c - q.c)


def duality_map_element(x, gamma: float, a: float) -> PhiElement:
    """One element of J_gamma(x): (a, (1/gamma + 2a) x).

    J_gamma(x) is the subdifferential of ||.||^2/(2 gamma) at x within the
    quadratic family; its members are exactly the coefficients with
    2*gamma*a >= -1.
    """
    x = _vec(x)
    if not gamma > 0.0:
        raise ValueError("gamma must be positive")
    if not 2.0 * gamma * a >= -1.0:
        raise InfeasibleCoefficientError(
            f"no element with a={a} exists in the duality map: 2*gamma*a = "
            f"{2 * gamma * a}, not >= -1"
        )
    return PhiElement(a, (1.0 / gamma + 2.0 * a) * x, 0.0)


def duality_map_inverse(phi: PhiElement, gamma: float) -> SetValuedResult:
    """Preimage of phi under the duality map.

    Point(gamma*u / (1 + 2*gamma*a)) when 2*gamma*a > -1; the whole space
    when a = -1/(2*gamma) and u = 0 (so phi is -||.||^2/(2 gamma) + c, a
    global minorant of g everywhere); empty otherwise.
    """
    if not gamma > 0.0:
        raise ValueError("gamma must be positive")
    denom = 1.0 + 2.0 * gamma * phi.a
    boundary = 1.0 / (2.0 * gamma)
    if denom > 0.0 and abs(phi.a + boundary) > 1e-12 * max(1.0, boundary):
        return SetValuedResult.of_point(gamma * phi.u / denom)
    if abs(phi.a + boundary) <= 1e-12 * max(1.0, boundary):
        if float(np.linalg.norm(phi.u)) <= 1e-12:
            return SetValuedResult.whole_space()
        return SetValuedResult.empty()
    return SetValuedResult.empty()


def phi_geq_minorant(phi: PhiElement, x) -> PhiElement:
    """Affine minorant of phi touching at x.

    For a < 0 the quadratic -a||.||^2 is convex, so the tangent plane at x,
    psi = (0, -2a*x + u, a||x||^2 + c), satisfies psi(x) = phi(x) and
    psi <= phi everywhere.  Elements with a >= 0 already lie in the
    lsc-concave-side family and are returned unchanged.
    """
    if phi.a >= 0.0:
        return phi
    x = _vec(x)
    if x.size != phi.dim:
        raise ValueError("dimension mismatch")
    u_psi = -2.0 * phi.a * x + phi.u
    c_psi = phi.a * float(x @ x) + phi.c
    return PhiElement(0.0, u_psi, c_psi)
