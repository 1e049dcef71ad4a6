"""Proximal-point, forward-backward, and projected-subgradient iterations.

All three methods share the coefficient/stepsize schedules and one
iteration loop: each supplies only its step (a prox or a projection plus
its guard), and the loop owns the records, the non-finite abort, the
descent check and the stopping rules.  A run emits a :class:`RunResult`
holding one :class:`IterationRecord` per iterate.  Runs
are deterministic given their inputs.  Monotonicity guarantees are checked
at runtime and reported through :class:`TheoremViolationWarning` (or raised
as :class:`TheoremViolationError` under ``strict=True``); guard conditions
terminate runs with a recorded stop tag instead of an exception wherever a
stop is an expected outcome of the update rule itself.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import ClassVar

import numpy as np

from .oracles import Oracle, SetDescriptor, SmoothBlackBox, eval_oracle, feasible_range, subgrad_at
from .prox import ProxRequest, prox_via_argmin

__all__ = [
    "Schedule",
    "PpaAdditive",
    "PsgConstantGamma",
    "PsgAdaptiveV1",
    "PsgAdaptiveV2",
    "FbConstant",
    "schedule_step",
    "IterationRecord",
    "TerminalKind",
    "Terminal",
    "RunResult",
    "run_ppa",
    "run_fb",
    "run_psg",
    "TheoremViolationWarning",
    "TheoremViolationError",
    "ScheduleInfeasibleError",
    "ScheduleDegenerateError",
    "DegenerateStepError",
    "STOP_GUARD",
    "STOP_GLOBAL_MIN",
    "STOP_NONFINITE",
    "STOP_STEP_NORM",
]


class TheoremViolationWarning(UserWarning):
    """A guaranteed monotonicity property failed numerically."""


class TheoremViolationError(RuntimeError):
    """Strict-mode version of :class:`TheoremViolationWarning`."""


class ScheduleInfeasibleError(ValueError):
    """Schedule decrement falls outside the oracle's feasible range."""


class ScheduleDegenerateError(ZeroDivisionError):
    """An adaptive schedule hit a division by zero."""


class DegenerateStepError(ValueError):
    """The regularizer weight vanished where the method requires it positive."""


STOP_GUARD = "stepsize-guard"
STOP_GLOBAL_MIN = "global-min-certificate"
STOP_NONFINITE = "nonfinite-abort"
STOP_STEP_NORM = "step-norm"


def _flag(message: str, strict: bool):
    if strict:
        raise TheoremViolationError(message)
    # 4: _flag, _iterate, run_*, then the caller of run_*
    warnings.warn(message, TheoremViolationWarning, stacklevel=4)


# ---------------------------------------------------------------------------
# Schedules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Schedule:
    """Common schedule state: initial stepsize gamma0 > 0 and coefficient a0.

    Each kind supplies ``step(gamma_n, a_n, a_fn)`` -> (gamma_next, a_next).
    Two class facts steer the methods: ``fb_weight_raises`` (a vanishing
    forward-backward weight is an error rather than the schedule's stopping
    rule) and ``a_f_pin`` (an oracle coefficient psg uses instead of the
    feasible threshold).
    """

    gamma0: float
    a0: float
    fb_weight_raises: ClassVar[bool] = False
    a_f_pin: ClassVar[float | None] = None

    def __post_init__(self):
        if self.gamma0 <= 0:
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
    """a fixed at a_const; gamma_{n+1} = gamma_n (a_n - a_f) / a_{n+1}."""

    a_const: float = 0.0
    a_f_const: float = 0.0

    @property
    def a_f_pin(self) -> float:
        return self.a_f_const

    def step(self, gamma_n, a_n, a_fn):
        if self.a_const == 0.0:
            raise ScheduleDegenerateError("adaptive stepsize divides by a_{n+1} = 0")
        return gamma_n * (a_n - self.a_f_const) / self.a_const, self.a_const


@dataclass(frozen=True)
class PsgAdaptiveV2(Schedule):
    """gamma_{n+1} = (gamma_n (a_n - a_n^f) + 1)/(a_n^f + eps), then
    a_{n+1} = -1/(2 gamma_{n+1}) + a^f + eps, so the next guard value is
    2 gamma_{n+1} eps - 1 > -1 by construction."""

    epsilon: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        if self.epsilon <= 0:
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


@dataclass
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


class TerminalKind(Enum):
    MAX_ITER = "max-iter"
    STOP_RULE = "stop-rule"
    CONVERGED = "converged"


@dataclass(frozen=True)
class Terminal:
    kind: TerminalKind
    tag: str | None = None


@dataclass
class RunResult:
    records: list[IterationRecord]
    terminal: Terminal

    @property
    def final(self) -> IterationRecord:
        return self.records[-1]

    @property
    def iterates(self) -> np.ndarray:
        return np.array([r.x_n for r in self.records])

    def set_fejer(self, x_star) -> None:
        """Fill every record's Fejér column against the reference ``x_star``."""
        x_star = np.atleast_1d(np.asarray(x_star, dtype=float))
        for r in self.records:
            d = x_star - r.x_n
            r.fejer = (0.5 / r.gamma_n + r.a_n) * float(d @ d)


def _iterate(x0, sched: Schedule, n_iter: int, objective, step,
             step_tol: float | None, strict: bool, objective_name: str = "f") -> RunResult:
    """The loop the three methods share.

    ``step(rec)`` advances from the current record (it may fill
    ``rec.a_fn``).  It returns None when the method's guard stops the run
    at ``rec``, else ``(x_next, gamma_next, a_next, descends, tag)``:
    ``descends`` asks for the objective-descent check, and a tag stops the
    run at the new record.  Non-finite or nonpositive-stepsize updates
    abort; with ``step_tol`` set, three consecutive steps with
    ||x_{n+1}-x_n|| <= step_tol * max(1, ||x_{n+1}||) end the run as converged.
    """
    x = np.array(x0, dtype=float, ndmin=1)
    rec = IterationRecord(0, sched.gamma0, sched.a0, np.nan, x, float(objective(x)), 0.0)
    records = [rec]
    stop = TerminalKind.MAX_ITER, None
    small_steps = 0
    for n in range(n_iter):
        out = step(rec)
        if out is None:
            stop = TerminalKind.STOP_RULE, STOP_GUARD
            break
        x_next, gamma_next, a_next, descends, tag = out
        if not (math.isfinite(gamma_next) and math.isfinite(a_next)
                and np.isfinite(x_next).all()) or gamma_next <= 0:
            stop = TerminalKind.STOP_RULE, STOP_NONFINITE
            break
        f_next = float(objective(x_next))
        if descends and f_next > rec.f_xn + 1e-10:
            _flag(f"descent violated at iteration {n}: {objective_name} went from "
                  f"{rec.f_xn} to {f_next}", strict)
        step_norm = float(np.linalg.norm(x_next - rec.x_n))
        rec = IterationRecord(n + 1, gamma_next, a_next, np.nan,
                              np.array(x_next, dtype=float), f_next, step_norm)
        records.append(rec)
        if tag is not None:
            stop = TerminalKind.STOP_RULE, tag
            break
        if step_tol is not None:
            tiny = step_norm <= step_tol * max(1.0, float(np.linalg.norm(x_next)))
            small_steps = small_steps + 1 if tiny else 0
            if small_steps >= 3:
                stop = TerminalKind.CONVERGED, STOP_STEP_NORM
                break
    rec.stopped_by = stop[1]
    return RunResult(records, Terminal(*stop))


# ---------------------------------------------------------------------------
# The three methods
# ---------------------------------------------------------------------------


def run_ppa(f: Oracle, x0, sched: Schedule, n_iter: int,
            step_tol: float | None = None, strict: bool = False) -> RunResult:
    """Proximal-point iteration x_{n+1} in argmin f(z) + (1/2g + a_n)||z-x_n||^2.

    Stops at the horizon ``n_iter``; or with a global-minimizer certificate
    when 1/(2 gamma) + a_n hits zero (the next prox output then minimizes f
    itself); or, when ``step_tol`` is set, after three consecutive steps
    with ||x_{n+1}-x_n|| <= step_tol * max(1, ||x_{n+1}||).  Objective
    descent f(x_{n+1}) <= f(x_n) is asserted each step.
    """
    def step(rec):
        gamma, a = rec.gamma_n, rec.a_n
        x_next = prox_via_argmin(ProxRequest(f, rec.x_n, gamma, a))
        gamma_next, a_next = schedule_step(sched, gamma, a)
        # the consumed subgradient difference has coefficient a_n - a_{n+1};
        # it must stay feasible for f at the new iterate
        if not feasible_range(f, x_next).admits(a - a_next):
            raise ScheduleInfeasibleError(
                f"schedule decrement a_n - a_(n+1) = {a - a_next} is below the "
                f"oracle's feasible threshold at iterate {rec.n + 1}"
            )
        certificate = abs(0.5 / gamma + a) <= 1e-12
        return x_next, gamma_next, a_next, True, STOP_GLOBAL_MIN if certificate else None

    return _iterate(x0, sched, n_iter, lambda x: eval_oracle(f, x), step, step_tol, strict)


def run_fb(f: Oracle, g: SmoothBlackBox, x0, sched: Schedule, n_iter: int,
           a_g_override: float | None = None, lipschitz_g: float | None = None,
           step_tol: float | None = None, strict: bool = False) -> RunResult:
    """Forward-backward splitting for f + g with smooth black-box g.

    Each step queries a_n^g (the curvature rule of g, unless pinned by
    ``a_g_override``) and grad g(x_n), then solves

        x_{n+1} in argmin f(z) + <grad g(x_n), z> + (1/2g + a_n - a_n^g)||z - x_n||^2,

    i.e. a prox of f at the shifted center x_n - grad g(x_n)/(2c) with
    c = 1/(2 gamma) + a_n - a_n^g.  A vanishing c raises
    ``DegenerateStepError`` under a constant schedule and is a recorded stop
    under decrement/adaptive schedules (where it is the schedule's own
    stopping rule).  Objective descent is asserted only when ``lipschitz_g``
    is supplied and the sufficient condition
    1/gamma + a_n + a_{n+1} >= a_n^g + L_g/2 holds.
    """
    if not isinstance(g, SmoothBlackBox):
        raise TypeError("g must be a SmoothBlackBox oracle")

    def step(rec):
        x, gamma, a = rec.x_n, rec.gamma_n, rec.a_n
        a_g = float(a_g_override) if a_g_override is not None else g.default_coefficient(x)
        grad = np.atleast_1d(np.asarray(g.gradient(x), dtype=float))
        rec.a_fn = a_g
        c = 0.5 / gamma + a - a_g
        if c <= 0.0:
            if sched.fb_weight_raises:
                raise DegenerateStepError(
                    f"regularizer weight 1/(2 gamma) + a_n - a_n^g = {c} <= 0 "
                    f"at iteration {rec.n}"
                )
            return None
        x_next = prox_via_argmin(ProxRequest(f, x - grad / (2.0 * c), gamma, a - a_g))
        gamma_next, a_next = schedule_step(sched, gamma, a, a_g)
        descends = (lipschitz_g is not None
                    and 1.0 / gamma + a + a_next >= a_g + lipschitz_g / 2.0)
        return x_next, gamma_next, a_next, descends, None

    return _iterate(x0, sched, n_iter, lambda x: eval_oracle(f, x) + eval_oracle(g, x),
                    step, step_tol, strict, objective_name="f+g")


def run_psg(f: Oracle, set_c: SetDescriptor, x0, sched: Schedule, n_iter: int,
            a_f_override: float | None = None,
            step_tol: float | None = None, strict: bool = False) -> RunResult:
    """Projected subgradient for min f over a closed set C.

    Each step queries (a_n^f, u_n^f) = subgrad_at(f, x_n, a^f) where a^f is
    either pinned by ``a_f_override``, taken from an adaptive schedule's
    constant, or the oracle's feasible threshold.  The update is

        z = ((1 + 2 g a_n) x_n - g u_n^f) / (1 + 2 g (a_n - a_n^f)),
        x_{n+1} = Proj_C(z),

    stopping with a recorded guard tag when the denominator is no longer
    positive.  The initial point may lie outside C; the first update
    projects onto it.
    """
    def step(rec):
        x, gamma, a = rec.x_n, rec.gamma_n, rec.a_n
        if a_f_override is not None:
            a_f = float(a_f_override)
        elif sched.a_f_pin is not None:
            a_f = sched.a_f_pin
        else:
            a_f = feasible_range(f, x).a_min
        u = subgrad_at(f, x, a_f).u
        rec.a_fn = a_f
        denom = 1.0 + 2.0 * gamma * (a - a_f)
        if denom <= 0.0:
            return None
        x_next = set_c.project(((1.0 + 2.0 * gamma * a) * x - gamma * u) / denom)
        gamma_next, a_next = schedule_step(sched, gamma, a, a_f)
        return x_next, gamma_next, a_next, False, None

    return _iterate(x0, sched, n_iter, lambda x: eval_oracle(f, x), step, step_tol, strict)
