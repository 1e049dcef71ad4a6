"""Proximal-point, forward-backward, and projected-subgradient iterations.

All three methods share the coefficient/stepsize schedules and one
iteration loop: each supplies only its step (a prox or a projection plus
its guard), and the loop owns the records, the non-finite abort, the
descent check and the stopping rules.  A run emits a :class:`RunResult`
holding one :class:`IterationRecord` per iterate; the last record's stop
tag says how the run ended (None at the horizon).  The records are the
run's only store: :func:`column` reads a field of them as an array and
:func:`sq_distances` their squared distances to a reference point.  Runs
are deterministic given their inputs.  Proximal point's descent guarantee
is checked at runtime and reported through
:class:`TheoremViolationWarning`, which the warnings filter turns into an
error where a caller wants one; guard conditions terminate runs with a
recorded stop tag instead of an exception wherever a stop is an expected
outcome of the update rule itself.

The loop comes in two shapes.  ``run_ppa``, ``run_fb`` and ``run_psg``
step one point: the run's scalars are floats and its iterate an (n,)
array.  :func:`run_block` runs the m members of a sweep (one method, one
problem, their own start points and schedules).  For proximal point and
projected subgradient it steps them as one (m, n) block: the vector work
of a step is done once for all members, each member's scalars stay floats
that its own schedule advances, and a member leaves the block at its own
stop.  Its records, and an error a member raises, are bit for bit those of
the member's own point run.  Forward-backward members run alone, one
``run_fb`` each: the black box's callbacks see one row at a time, so a
block step saved nothing there.  A single run keeps the point step, as a
block of one is slower than it.  The per-member checks (``_ppa_tag``,
``_psg_denominator``) are shared by both shapes.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .oracles import (Oracle, SetDescriptor, SmoothBlackBox, _admit, _norm, _row_norms,
                      eval_oracle, feasible_range)
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
    "RunResult",
    "column",
    "sq_distances",
    "run_ppa",
    "run_fb",
    "run_psg",
    "run_block",
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

    a_const: float = 0.0

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
        for r, v in zip(self.records, (weight * sq_distances(self.records, x_star)).tolist()):
            r.fejer = v


def column(records: list[IterationRecord], name: str) -> np.ndarray:
    """The field ``name`` of every record as an array (``x_n``: an (N+1, n) block)."""
    return np.array([getattr(r, name) for r in records], dtype=float)


def sq_distances(records: list[IterationRecord], x_star) -> np.ndarray:
    """||x_star - x_n||^2 for every record, with the bits of each row's own
    ``d @ d``; ValueError unless ``x_star`` has the iterates' dimension."""
    x_star = np.atleast_1d(np.asarray(x_star, dtype=float))
    x = column(records, "x_n")
    if x_star.shape != x.shape[1:]:
        raise ValueError(f"dimension mismatch: reference {x_star.shape}, iterates {x.shape}")
    d = x_star - x
    return np.vecdot(d, d)


def _iterate(x0, sched: Schedule, n_iter: int, objective, value, step,
             check_descent: bool = False) -> RunResult:
    """The point loop the three methods share (one run, one (n,) iterate).

    Record 0 takes ``objective``, which checks the start through
    ``eval_oracle``; later ones take ``value``, the oracles' own (no step
    changes the iterate's shape: the set's dimension and a black box's
    gradient are checked).
    ``step(rec)`` advances from the current record (it may fill
    ``rec.a_fn``).  It returns None when the method's guard stops the run
    at ``rec``, else ``(x_next, gamma_next, a_next, tag)``: a tag stops the
    run at the new record.  Non-finite or nonpositive-stepsize updates
    abort.  Under ``check_descent`` each step checks objective descent and
    warns with :class:`TheoremViolationWarning` on a violation; a NaN
    objective on either side of the step is one.
    """
    x = np.array(x0, dtype=float, ndmin=1)
    rec = IterationRecord(0, sched.gamma0, sched.a0, np.nan, x, float(objective(x)), 0.0)
    records = [rec]
    stop = None
    for n in range(n_iter):
        out = step(rec)
        if out is None:
            stop = STOP_GUARD
            break
        x_next, gamma_next, a_next, tag = out
        if not (math.isfinite(gamma_next) and math.isfinite(a_next)
                and np.isfinite(x_next).all()) or gamma_next <= 0:
            stop = STOP_NONFINITE
            break
        f_next = float(value(x_next))
        if check_descent and not f_next <= rec.f_xn + 1e-10:
            # 3: _iterate, run_ppa, then the caller of run_ppa
            warnings.warn(f"descent violated at iteration {n}: f went from "
                          f"{rec.f_xn} to {f_next}", TheoremViolationWarning, stacklevel=3)
        step_norm = _norm(x_next - rec.x_n)
        rec = IterationRecord(n + 1, gamma_next, a_next, np.nan,
                              np.array(x_next, dtype=float), f_next, step_norm)
        records.append(rec)
        if tag is not None:
            stop = tag
            break
    rec.stopped_by = stop
    return RunResult(records)


def _iterate_block(x0s, scheds: list[Schedule], n_iter: int, objective, step,
                   check_descent: bool = False) -> list[RunResult]:
    """The loop of :func:`_iterate` for m members stepped as one (m, n) block.

    ``step(recs, x, scheds)`` advances the live members, whose current
    records are ``recs`` and whose points are the rows of ``x``.  It returns
    ``(x_next, outs)``: ``outs[j]`` is None when member j's guard stops it
    at ``recs[j]``, else ``(gamma_next, a_next, tag)``, and ``x_next`` holds
    the rows of the members that went on, in order.  Each member then meets
    the checks of a point run and leaves the block at its own stop; its
    records are bit for bit those of its own point run.
    """
    x = np.array([np.array(x0, dtype=float, ndmin=1) for x0 in x0s])
    recs = [IterationRecord(0, s.gamma0, s.a0, np.nan, row, f, 0.0)
            for s, row, f in zip(scheds, x, objective(x).tolist())]
    runs = [[rec] for rec in recs]
    live, scheds = list(range(len(recs))), list(scheds)  # the members still stepping
    for n in range(n_iter):
        x_next, outs = step(recs, x, scheds)
        finite = np.isfinite(x_next).all(axis=-1).tolist()
        went, rows = [], []  # the members that went on, and their rows of x_next
        for j, out in enumerate(outs):
            if out is None:
                recs[j].stopped_by = STOP_GUARD
            elif not (math.isfinite(out[0]) and math.isfinite(out[1])
                      and finite[len(rows)]) or out[0] <= 0:
                recs[j].stopped_by = STOP_NONFINITE
                rows.append(None)
            else:
                went.append(j)
                rows.append(len(rows))
        if not went:
            break
        if len(went) < len(recs):
            x_next, x = x_next[[k for k in rows if k is not None]], x[went]
        new = []
        for j, row, f_next, step_norm in zip(went, x_next, objective(x_next).tolist(),
                                             _row_norms(x_next - x)):
            rec, (gamma_next, a_next, tag) = recs[j], outs[j]
            if check_descent and not f_next <= rec.f_xn + 1e-10:
                warnings.warn(f"descent violated at iteration {n}: f went from "
                              f"{rec.f_xn} to {f_next}", TheoremViolationWarning, stacklevel=3)
            new.append(IterationRecord(n + 1, gamma_next, a_next, np.nan, row, f_next,
                                       step_norm, stopped_by=tag))
            runs[live[j]].append(new[-1])
        stay = [p for p, rec in enumerate(new) if rec.stopped_by is None]
        recs, x = new, x_next
        if len(stay) < len(outs):  # a member left the block
            if not stay:
                break
            live, scheds = [live[went[p]] for p in stay], [scheds[went[p]] for p in stay]
            recs, x = [new[p] for p in stay], x_next[stay]
    return [RunResult(records) for records in runs]


# ---------------------------------------------------------------------------
# The three methods
# ---------------------------------------------------------------------------


def _column(values: list[float]) -> np.ndarray:
    """One scalar per member as a (k, 1) column."""
    return np.array(values).reshape(-1, 1)


def _ppa_tag(rec: IterationRecord, a_next: float, a_min: float) -> str | None:
    """Proximal point's checks after the step from ``rec``: the consumed
    subgradient difference has coefficient a_n - a_{n+1}, which must stay
    feasible for f at the new iterate; and the global-minimizer certificate."""
    if not rec.a_n - a_next >= a_min:
        raise ScheduleInfeasibleError(
            f"schedule decrement a_n - a_(n+1) = {rec.a_n - a_next} is below the "
            f"oracle's feasible threshold at iterate {rec.n + 1}"
        )
    return STOP_GLOBAL_MIN if abs(0.5 / rec.gamma_n + rec.a_n) <= 1e-12 else None


def run_ppa(f: Oracle, x0, sched: Schedule, n_iter: int) -> RunResult:
    """Proximal-point iteration x_{n+1} in argmin f(z) + (1/2g + a_n)||z-x_n||^2.

    Stops at the horizon ``n_iter``, or with a global-minimizer certificate
    when 1/(2 gamma) + a_n hits zero (the next prox output then minimizes f
    itself).  Objective descent f(x_{n+1}) <= f(x_n) is checked each step;
    a violation warns with :class:`TheoremViolationWarning`.
    """
    def step(rec):
        x_next = prox_via_argmin(ProxRequest(f, rec.x_n, rec.gamma_n, rec.a_n))
        gamma_next, a_next = schedule_step(sched, rec.gamma_n, rec.a_n)
        return x_next, gamma_next, a_next, _ppa_tag(rec, a_next, f.feasible_range(x_next))

    return _iterate(x0, sched, n_iter, lambda x: eval_oracle(f, x), f.value, step,
                    check_descent=True)


def _ppa_block(f: Oracle):
    def step(recs, x, scheds):
        gamma, a = _column([r.gamma_n for r in recs]), _column([r.a_n for r in recs])
        x_next = prox_via_argmin(ProxRequest(f, x, gamma, a))
        nexts = [schedule_step(s, r.gamma_n, r.a_n) for s, r in zip(scheds, recs)]
        return x_next, [(gamma_next, a_next, _ppa_tag(r, a_next, a_min))
                        for r, (gamma_next, a_next), a_min
                        in zip(recs, nexts, feasible_range(f, x_next).tolist())]

    return step


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

    def step(rec):
        x, gamma, a = rec.x_n, rec.gamma_n, rec.a_n
        a_g = g.default_coefficient(x)
        grad = g.gradient_at(x)
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
        return x_next, gamma_next, a_next, None

    return _iterate(x0, sched, n_iter, lambda x: eval_oracle(f, x) + eval_oracle(g, x),
                    lambda x: float(f.value(x)) + float(g.value(x)), step)


def _psg_denominator(rec: IterationRecord, a_f: float) -> float | None:
    """Projected subgradient's 1 + 2 gamma_n (a_n - a_n^f) at ``rec``, or None
    where the stepsize guard stops the run."""
    rec.a_fn = a_f
    denom = 1.0 + 2.0 * rec.gamma_n * (rec.a_n - a_f)
    return None if denom <= 0.0 else denom


def _require_set_dim(f: Oracle, set_c: SetDescriptor) -> None:
    if set_c.dim != f.dim:
        raise ValueError(f"dimension mismatch: oracle dim {f.dim}, set dim {set_c.dim}")


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
    _require_set_dim(f, set_c)

    def step(rec):
        x, gamma, a = rec.x_n, rec.gamma_n, rec.a_n
        a_f = _admit(a_f_override, f.feasible_range(x))
        u = f.slope(x, a_f)
        denom = _psg_denominator(rec, a_f)
        if denom is None:
            return None
        x_next = set_c.project(((1.0 + 2.0 * gamma * a) * x - gamma * u) / denom)
        gamma_next, a_next = schedule_step(sched, gamma, a, a_f)
        return x_next, gamma_next, a_next, None

    return _iterate(x0, sched, n_iter, lambda x: eval_oracle(f, x), f.value, step)


def _psg_block(f: Oracle, set_c: SetDescriptor, a_f_override: float | None):
    def step(recs, x, scheds):
        a_f = [_admit(a_f_override, a_min) for a_min in feasible_range(f, x).tolist()]
        u = f.slope(x, _column(a_f))
        denom = [_psg_denominator(r, af) for r, af in zip(recs, a_f)]
        went = [j for j, d in enumerate(denom) if d is not None]
        outs = [None] * len(recs)
        if not went:
            return x[:0], outs
        if len(went) < len(recs):
            x, u = x[went], u[went]
        c1 = _column([1.0 + 2.0 * recs[j].gamma_n * recs[j].a_n for j in went])
        gamma = _column([recs[j].gamma_n for j in went])
        x_next = set_c.project((c1 * x - gamma * u) / _column([denom[j] for j in went]))
        for j in went:
            outs[j] = (*schedule_step(scheds[j], recs[j].gamma_n, recs[j].a_n, a_f[j]), None)
        return x_next, outs

    return step


def run_block(algorithm: str, f: Oracle, x0s, scheds: list[Schedule], n_iter: int, *,
              g: SmoothBlackBox | None = None, set_c: SetDescriptor | None = None,
              a_f_override: float | None = None) -> list[RunResult]:
    """m runs of one method on one problem, in member order.

    ``algorithm`` is ``"ppa"``, ``"fb"`` (with ``g``) or ``"psg"`` (with
    ``set_c`` and ``a_f_override``); the members differ only in their start
    points ``x0s`` and their schedules.  Each member's records, and the
    error a member raises, are bit for bit those of its own ``run_ppa``,
    ``run_fb`` or ``run_psg``.  ppa and psg members are stepped as one
    (m, n) block, whose work is done once per step for all of them, through
    ``f``'s ``prox`` (ppa) or ``slope`` (psg); the first member to raise at
    the earliest step raises.  fb members run alone, one ``run_fb`` each,
    so the first member in order that raises raises.
    """
    if algorithm == "ppa":
        return _iterate_block(x0s, scheds, n_iter, lambda x: eval_oracle(f, x), _ppa_block(f),
                              check_descent=True)
    if algorithm == "fb":
        return [run_fb(f, g, x0, s, n_iter) for x0, s in zip(x0s, scheds)]
    if algorithm == "psg":
        _require_set_dim(f, set_c)
        return _iterate_block(x0s, scheds, n_iter, lambda x: eval_oracle(f, x),
                              _psg_block(f, set_c, a_f_override))
    raise ValueError(f"unknown algorithm {algorithm!r}")
