"""Proximal-point, forward-backward, and projected-subgradient iterations.

All three methods share the coefficient/stepsize schedules and one
iteration loop: each supplies only its step (a prox or a projection plus
its guard; it touches no record), and the loop owns the records, the
non-finite abort, the descent check and the stopping rules.  A run emits
a :class:`RunResult` holding one :class:`IterationRecord` per iterate;
the last record's stop tag says how the run ended (None at the horizon).
The records are the run's only store: :func:`column` reads a field of
them as an array and :func:`sq_distances` the squared distances of an
iterate block to a reference point.  Runs are deterministic given their
inputs.  Proximal point's descent guarantee is checked at runtime and
reported through :class:`TheoremViolationWarning`, which the warnings
filter turns into an error where a caller wants one; guard conditions
terminate runs with a recorded stop tag instead of an exception wherever
a stop is an expected outcome of the update rule itself.

The loop steps one point: a run's scalars are floats and its iterate an
(n,) array.  ``run_ppa``, ``run_fb`` and ``run_psg`` each hand it their
step, and a bundled sweep runs its members alone, one point run each.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .oracles import Oracle, ProxRequest, SetDescriptor, SmoothBlackBox, _admit, _norm, _point
from .phi import _vec
from .prox import prox_via_argmin

__all__ = [
    "Schedule",
    "PpaAdditive",
    "PsgConstantGamma",
    "PsgAdaptiveV1",
    "PsgAdaptiveV2",
    "FbConstant",
    "schedule_step",
    "IterationRecord",
    "RunResult",
    "run_ppa",
    "run_fb",
    "run_psg",
    "TheoremViolationWarning",
    "ScheduleInfeasibleError",
    "ScheduleDegenerateError",
    "DegenerateStepError",
    "STOP_GUARD",
    "STOP_GLOBAL_MIN",
    "STOP_NONFINITE",
]


class TheoremViolationWarning(UserWarning):
    """A guaranteed monotonicity property failed numerically."""


class ScheduleInfeasibleError(ValueError):
    """Schedule decrement falls outside the oracle's feasible range."""


class ScheduleDegenerateError(ZeroDivisionError):
    """An adaptive schedule hit a division by zero."""


class DegenerateStepError(ValueError):
    """The regularizer weight vanished where the method requires it positive."""


STOP_GUARD = "stepsize-guard"
STOP_GLOBAL_MIN = "global-min-certificate"
STOP_NONFINITE = "nonfinite-abort"


# ---------------------------------------------------------------------------
# Schedules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Schedule:
    """Common schedule state: initial stepsize gamma0 > 0 and coefficient a0.

    Each kind supplies ``step(gamma_n, a_n, a_fn)`` -> (gamma_next, a_next)
    and refuses its own out-of-range values at construction.  The class fact
    ``fb_weight_raises``: a vanishing forward-backward weight is an error
    rather than the schedule's stopping rule.
    """

    gamma0: float
    a0: float
    fb_weight_raises: ClassVar[bool] = False

    def __post_init__(self):
        if not self.gamma0 > 0:
            raise ValueError("gamma0 must be positive")


@dataclass(frozen=True)
class PpaAdditive(Schedule):
    """a_{n+1} = a_n + delta, gamma fixed."""

    delta: float = 0.0
    fb_weight_raises = True

    def step(self, gamma_n, a_n, a_fn):
        return gamma_n, a_n + self.delta


@dataclass(frozen=True)
class PsgConstantGamma(Schedule):
    """a_{n+1} = a_n - a_n^f, gamma fixed; stops once a falls below the guard."""

    def step(self, gamma_n, a_n, a_fn):
        return gamma_n, a_n - a_fn


@dataclass(frozen=True)
class PsgAdaptiveV1(Schedule):
    """a fixed at a_const; gamma_{n+1} = gamma_n (a_n - a_n^f) / a_{n+1}.

    a_const = 0 is refused: the stepsize would divide by it at every step.
    Either sign is accepted.  The next gamma is positive when a_n - a_n^f
    has the sign of a_const: a_n > a_n^f for a_const > 0, a_n < a_n^f for
    a_const < 0.  Otherwise it is not, and the run ends on nonfinite-abort.
    """

    a_const: float

    def __post_init__(self):
        super().__post_init__()
        if self.a_const == 0.0:
            raise ValueError("a_const must be nonzero")

    def step(self, gamma_n, a_n, a_fn):
        return gamma_n * (a_n - a_fn) / self.a_const, self.a_const


@dataclass(frozen=True)
class PsgAdaptiveV2(Schedule):
    """gamma_{n+1} = (gamma_n (a_n - a_n^f) + 1)/(a_n^f + eps), then
    a_{n+1} = -1/(2 gamma_{n+1}) + a^f + eps, so the next guard value is
    2 gamma_{n+1} eps - 1 > -1 by construction."""

    epsilon: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")

    def step(self, gamma_n, a_n, a_fn):
        if a_fn + self.epsilon == 0.0:
            raise ScheduleDegenerateError("adaptive stepsize divides by a^f + eps = 0")
        gamma_next = (gamma_n * (a_n - a_fn) + 1.0) / (a_fn + self.epsilon)
        a_next = -1.0 / (2.0 * gamma_next) + a_fn + self.epsilon if gamma_next > 0 else np.nan
        return gamma_next, a_next


@dataclass(frozen=True)
class FbConstant(Schedule):
    """a fixed, gamma fixed."""

    a_const: float = 0.0
    fb_weight_raises = True

    def step(self, gamma_n, a_n, a_fn):
        return gamma_n, self.a_const


def schedule_step(sched: Schedule, gamma_n: float, a_n: float,
                  a_fn: float = np.nan):
    """Advance one schedule step: (gamma_next, a_next).

    ``a_fn`` is the oracle coefficient queried at the current iterate; only
    the subgradient-driven kinds use it.  The guard that ends decrement
    schedules is the methods' own weight check, not part of the step.
    """
    return sched.step(gamma_n, a_n, a_fn)


# ---------------------------------------------------------------------------
# Run records and the shared iteration loop
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class IterationRecord:
    n: int
    gamma_n: float
    a_n: float
    a_fn: float  # oracle coefficient queried at x_n (NaN when none was)
    x_n: np.ndarray
    f_xn: float
    step_norm: float
    fejer: float = np.nan  # (1/(2 gamma_n) + a_n)||x_star - x_n||^2, see set_fejer
    stopped_by: str | None = None


@dataclass
class RunResult:
    records: list[IterationRecord]

    @property
    def final(self) -> IterationRecord:
        return self.records[-1]

    @property
    def terminal(self) -> str | None:
        """The stop tag that ended the run, or None at the horizon."""
        return self.records[-1].stopped_by

    def set_fejer(self, x_star) -> None:
        """Fill every record's Fejér column against the reference ``x_star``."""
        weight = 0.5 / column(self.records, "gamma_n") + column(self.records, "a_n")
        sq = sq_distances(column(self.records, "x_n"), x_star)
        for r, v in zip(self.records, (weight * sq).tolist()):
            r.fejer = v


def column(records: list[IterationRecord], name: str) -> np.ndarray:
    """The field ``name`` of every record as an array (``x_n``: an (N+1, n) block)."""
    return np.array([getattr(r, name) for r in records], dtype=float)


def sq_distances(x: np.ndarray, x_star) -> np.ndarray:
    """||x_star - x_n||^2 for every row x_n of the (N+1, n) iterate block
    ``x``, with the bits of each row's own ``d @ d``; ValueError unless
    ``x_star`` has the iterates' dimension."""
    x_star = _vec(x_star)
    if x_star.shape != x.shape[1:]:
        raise ValueError(f"dimension mismatch: reference {x_star.shape}, iterates {x.shape}")
    d = x_star - x
    return np.vecdot(d, d)


def _iterate(x0: np.ndarray, sched: Schedule, n_iter: int, value, step,
             check_descent: bool = False) -> RunResult:
    """The loop the three methods share (one run, one (n,) iterate).

    ``x0`` is the start that ``oracles._point`` checked; record 0 holds a
    copy.  Every later record keeps the array its step returned, copied only
    when the step returned its input x_n (an indicator's prox or a set's
    ``project`` may), so no two records share an iterate.  Every record's
    objective is ``value``, the oracles' own (no step
    changes the iterate's shape: the set's dimension and a black box's
    gradient are checked).
    ``step(n, x_n, gamma_n, a_n)`` advances from iterate n and returns
    ``(a_fn, out)``: the coefficient it queried at x_n (NaN when none was),
    which the loop records, and ``out``, None when the method's guard stops
    the run at iterate n, else ``(x_next, gamma_next, a_next, tag)``: a tag
    stops the run at the new record.  Non-finite or nonpositive-stepsize
    updates abort.  Under ``check_descent`` each step checks objective
    descent and warns with :class:`TheoremViolationWarning` on a
    violation; a NaN objective on either side of the step is one.
    """
    x = x0.copy()
    rec = IterationRecord(0, sched.gamma0, sched.a0, np.nan, x, float(value(x)), 0.0)
    records = [rec]
    stop = None
    for n in range(n_iter):
        rec.a_fn, out = step(n, rec.x_n, rec.gamma_n, rec.a_n)
        if out is None:
            stop = STOP_GUARD
            break
        x_next, gamma_next, a_next, tag = out
        # a finite sum has finite entries; where the sum overflows, the exact test decides
        finite = (math.isfinite(gamma_next) and math.isfinite(a_next)
                  and (math.isfinite(sum(x_next.tolist())) or np.isfinite(x_next).all()))
        if not finite or gamma_next <= 0:
            stop = STOP_NONFINITE
            break
        f_next = float(value(x_next))
        if check_descent and not f_next <= rec.f_xn + 1e-10:
            # 3: _iterate, run_ppa, then its caller
            warnings.warn(f"descent violated at iteration {n}: f went from "
                          f"{rec.f_xn} to {f_next}", TheoremViolationWarning, stacklevel=3)
        step_norm = _norm(x_next - rec.x_n)
        rec = IterationRecord(n + 1, gamma_next, a_next, np.nan,
                              x_next.copy() if x_next is rec.x_n else x_next, f_next, step_norm)
        records.append(rec)
        if tag is not None:
            stop = tag
            break
    rec.stopped_by = stop
    return RunResult(records)


# ---------------------------------------------------------------------------
# The three methods
# ---------------------------------------------------------------------------


def run_ppa(f: Oracle, x0, sched: Schedule, n_iter: int) -> RunResult:
    """Proximal-point iteration x_{n+1} in argmin f(z) + (1/2g + a_n)||z-x_n||^2.

    Stops at the horizon ``n_iter``, or with a global-minimizer certificate
    when 1/(2 gamma) + a_n hits zero (the next prox output then minimizes f
    itself).  Objective descent f(x_{n+1}) <= f(x_n) is checked each step;
    a violation warns with :class:`TheoremViolationWarning`.  The consumed
    subgradient difference has coefficient a_n - a_{n+1}, which must stay
    feasible for f at the new iterate (``ScheduleInfeasibleError``).
    """
    def step(n, x, gamma, a):
        x_next = prox_via_argmin(ProxRequest(f, x, gamma, a))
        gamma_next, a_next = schedule_step(sched, gamma, a)
        if not a - a_next >= f.feasible_range(x_next):
            raise ScheduleInfeasibleError(
                f"schedule decrement a_n - a_(n+1) = {a - a_next} is below the "
                f"oracle's feasible threshold at iterate {n + 1}"
            )
        tag = STOP_GLOBAL_MIN if abs(0.5 / gamma + a) <= 1e-12 else None
        return np.nan, (x_next, gamma_next, a_next, tag)

    return _iterate(_point(f, x0), sched, n_iter, f.value, step, check_descent=True)


def run_fb(f: Oracle, g: SmoothBlackBox, x0, sched: Schedule, n_iter: int) -> RunResult:
    """Forward-backward splitting for f + g with smooth black-box g.

    Each step queries a_n^g (the curvature rule of g) and grad g(x_n), then solves

        x_{n+1} in argmin f(z) + <grad g(x_n), z> + (1/2g + a_n - a_n^g)||z - x_n||^2,

    i.e. a prox of f at the shifted center x_n - grad g(x_n)/(2c) with
    c = 1/(2 gamma) + a_n - a_n^g.  A vanishing c raises
    ``DegenerateStepError`` under a constant schedule and is a recorded stop
    under decrement/adaptive schedules (where it is the schedule's own
    stopping rule).  A gradient whose shape is not the point's raises
    ``ValueError`` ("dimension mismatch").  Objective descent is not
    asserted: its sufficient condition 1/gamma + a_n + a_{n+1} >= a_n^g +
    L_g/2 needs a Lipschitz constant L_g of grad g, which the black box does
    not carry.
    """
    if not isinstance(g, SmoothBlackBox):
        raise TypeError("g must be a SmoothBlackBox oracle")

    def step(n, x, gamma, a):
        a_g = g.feasible_range(x) + g.eps
        grad = g.gradient_at(x)
        c = 0.5 / gamma + a - a_g
        if c <= 0.0:
            if sched.fb_weight_raises:
                raise DegenerateStepError(
                    f"regularizer weight 1/(2 gamma) + a_n - a_n^g = {c} <= 0 "
                    f"at iteration {n}"
                )
            return a_g, None
        x_next = prox_via_argmin(ProxRequest(f, x - grad / (2.0 * c), gamma, a - a_g))
        gamma_next, a_next = schedule_step(sched, gamma, a, a_g)
        return a_g, (x_next, gamma_next, a_next, None)

    return _iterate(_point(g, _point(f, x0)), sched, n_iter,
                    lambda x: float(f.value(x)) + float(g.value(x)), step)


def run_psg(f: Oracle, set_c: SetDescriptor, x0, sched: Schedule, n_iter: int,
            a_f_override: float | None = None) -> RunResult:
    """Projected subgradient for min f over a closed set C.

    Each step queries (a_n^f, u_n^f = ``f.slope(x_n, a_n^f)``), a_n^f pinned by
    ``a_f_override`` (refused below the oracle's feasible threshold at x_n)
    or else that threshold; the schedule steps with the same a_n^f.  The update is

        z = ((1 + 2 g a_n) x_n - g u_n^f) / (1 + 2 g (a_n - a_n^f)),
        x_{n+1} = Proj_C(z),

    stopping with a recorded guard tag when the denominator is no longer
    positive.  The initial point may lie outside C; the first update
    projects onto it.  A set whose dimension is not f's is refused with
    ``ValueError`` before the first record.
    """
    if set_c.dim != f.dim:
        raise ValueError(f"dimension mismatch: oracle dim {f.dim}, set dim {set_c.dim}")

    def step(n, x, gamma, a):
        a_f = _admit(a_f_override, f.feasible_range(x))
        u = f.slope(x, a_f)
        denom = 1.0 + 2.0 * gamma * (a - a_f)
        if denom <= 0.0:
            return a_f, None
        x_next = set_c.project(((1.0 + 2.0 * gamma * a) * x - gamma * u) / denom)
        gamma_next, a_next = schedule_step(sched, gamma, a, a_f)
        return a_f, (x_next, gamma_next, a_next, None)

    return _iterate(_point(f, x0), sched, n_iter, f.value, step)
