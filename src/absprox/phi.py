"""Quadratic elementary functions and the norm-square duality map.

The whole library works with the family of elementary functions

    phi(x) = -a * ||x||^2 + <u, x> + c,

represented by :class:`PhiElement` through (a, u): the constant c cancels
from every subgradient identity.  For g(x) = ||x||^2 / (2*gamma) the
subdifferential with respect to this family admits a closed form: the
"duality map" J_gamma(x) consists of every (a, (1/gamma + 2a) x) with
2*gamma*a >= -1, and its inverse maps an element back to the point (or to
the whole space / the empty set in the degenerate cases).

``check_coefficient`` decides whether a step size gamma and a coefficient a
are admissible (gamma > 0 and 2*gamma*a >= -1, the inverse map's rule too);
the norm-square oracle, the prox request and the closed-form prox ask it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

__all__ = [
    "PhiElement",
    "ResultKind",
    "SetValuedResult",
    "check_coefficient",
    "duality_map_element",
    "duality_map_inverse",
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


def _admissible(gamma: float, a: float) -> bool:
    """2*gamma*a >= -1, without forming 2*gamma, which overflows for a huge gamma."""
    # a is the threshold -0.5/gamma, bit for bit the -1/(2*gamma) callers
    # compute, or above it
    return a == -0.5 / gamma or 1.0 + 2.0 * (gamma * a) > 0.0


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


def duality_map_element(x, gamma: float, a: float) -> PhiElement:
    """One element of J_gamma(x): (a, (1/gamma + 2a) x).

    J_gamma(x) is the subdifferential of ||.||^2/(2 gamma) at x within the
    quadratic family; its members are exactly the coefficients with
    2*gamma*a >= -1.
    """
    x = _vec(x)
    check_coefficient(gamma, a)
    return PhiElement(a, (1.0 / gamma + 2.0 * a) * x)


def duality_map_inverse(phi: PhiElement, gamma: float) -> SetValuedResult:
    """Preimage of phi under the duality map.

    Empty for a coefficient ``check_coefficient`` refuses.  On the threshold
    a = -1/(2*gamma): the whole space when u = 0 (so phi is -||.||^2/(2
    gamma), a global minorant of g everywhere), empty otherwise.  Above it:
    Point(gamma*u / (1 + 2*gamma*a)).  A NaN a raises
    ``InfeasibleCoefficientError``: it is no coefficient at all.
    """
    if not gamma > 0.0:
        raise ValueError("gamma must be positive")
    if np.isnan(phi.a):
        raise InfeasibleCoefficientError("a=nan is no coefficient of the quadratic family")
    if not _admissible(gamma, phi.a):
        return SetValuedResult.empty()
    if phi.a == -0.5 / gamma:
        return SetValuedResult.empty() if np.any(phi.u) else SetValuedResult.whole_space()
    return SetValuedResult.of_point(gamma * phi.u / (1.0 + 2.0 * (gamma * phi.a)))
