"""Post-hoc convergence diagnostics over recorded runs.

Turns the monotonicity statements behind the algorithms into a checkable
report: anchored (quasi-)monotonicity of the weighted squared distance to a
reference point and objective monotonicity.  Records are never mutated.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algorithms import IterationRecord, column, sq_distances
from .oracles import Oracle, feasible_range, subgrad_at

__all__ = [
    "DiagnosticsReport",
    "check_fejer",
]

_RTOL = 1e-9


@dataclass
class DiagnosticsReport:
    fejer_monotone: bool
    fejer_first_violation: int | None
    objective_monotone: bool
    objective_first_violation: int | None
    step_sq_sum: float
    dist_series: list[float] = field(default_factory=list)
    quasi_fejer_slack: list[float] = field(default_factory=list)


def _slopes(f: Oracle, x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """``f.slope`` of the rows of x at their coefficients a: one block call
    after one check of the block (dimension, domain, a >= a_min).  Where a
    row is refused, the rows are queried one by one through ``subgrad_at``,
    which raises the first refused row's own error."""
    try:
        if (a >= feasible_range(f, x)).all():
            return f.slope(x, a[:, None])
    except Exception:  # the row queries below raise the error of the row refused first
        pass
    return np.array([subgrad_at(f, row, a_row).u for row, a_row in zip(x, a)])


def _psg_slack(records: list[IterationRecord], f: Oracle) -> np.ndarray:
    """Per-step allowance eps_n = gamma_n^2 U^2 / (1 + 2 gamma_n (a_n - a_n^f)).

    U bounds ||2 a_n^f x_n - u_n^f|| along the run; the subgradients are
    re-queried from the oracle at the recorded coefficients, the queried
    records' x_n rows as one checked block (see ``_slopes``), each row bit
    for bit its own ``subgrad_at``.
    """
    steps = records[:-1]
    if not steps:
        return np.zeros(0)
    gamma, a, a_f, x = (column(steps, name) for name in ("gamma_n", "a_n", "a_fn", "x_n"))
    queried = ~np.isnan(a_f)
    v = np.zeros_like(x)
    if queried.any():
        x_q, a_q = x[queried], a_f[queried]
        v[queried] = 2.0 * a_q[:, None] * x_q - _slopes(f, x_q, a_q)
    big_u = float(np.sqrt(np.vecdot(v, v)).max())
    denom = np.where(queried, 1.0 + 2.0 * gamma * (a - a_f), 1.0)
    return np.divide(gamma * gamma * big_u * big_u, denom,
                     out=np.full_like(denom, np.inf), where=denom > 0)


def _first_rise(new: np.ndarray, old: np.ndarray,
                unknown: np.ndarray | bool = False) -> int | None:
    """The first step n with new[n] > old[n] beyond the relative tolerance,
    or where ``unknown[n]`` holds, or None."""
    bad = (new > old + _RTOL * np.maximum(1.0, np.maximum(np.abs(new), np.abs(old)))) | unknown
    return int(np.argmax(bad)) if bad.any() else None


def check_fejer(records: list[IterationRecord], x_star, alpha_rule: str,
                f: Oracle | None = None) -> DiagnosticsReport:
    """Check the anchored inequality a_{n+1} d_{n+1}^2 <= a_n d_n^2 - b_n s_n^2 + e_n.

    ``alpha_rule`` selects the weights: "ppa" uses alpha_n = b_n =
    1/(2 gamma_n) + a_n with no allowance; "psg" uses alpha_n =
    1 + 2 gamma_n a_n, b_n = 0, and the subgradient-magnitude allowance
    from the oracle ``f`` ("psg" without ``f`` raises ValueError); a
    NaN allowance counts as a violation at its step.  Also reports objective
    monotonicity over the same records, where a NaN objective on either side
    of a step counts as a rise.  Raises ValueError unless ``x_star``
    has the iterates' dimension.
    """
    if not records:
        raise ValueError("records must be nonempty")
    dist = np.sqrt(sq_distances(records, x_star))
    gamma, a = column(records, "gamma_n"), column(records, "a_n")
    if alpha_rule == "ppa":
        alpha = 0.5 / gamma + a
        beta = alpha[:-1]
        eps = np.zeros(len(records) - 1)
    elif alpha_rule == "psg":
        if f is None:
            raise ValueError("the psg allowance needs the oracle f")
        alpha = 1.0 + 2.0 * gamma * a
        beta = np.zeros(len(records) - 1)
        eps = _psg_slack(records, f)
    else:
        raise ValueError("alpha_rule must be 'ppa' or 'psg'")

    # a b_n s_n^2 term is 0 where b_n = 0, also where s_n^2 overflows (0 * inf is NaN)
    step = np.where(beta != 0.0, column(records, "step_norm")[1:], 0.0)
    # the check squares the reported distances through C pow, as Python's
    # float ** does: ** on an array multiplies, which can differ in the last bit
    weighted = alpha * np.float_power(dist, 2)
    # a NaN allowance bounds nothing, so its step counts as a violation
    fejer_bad = _first_rise(weighted[1:], weighted[:-1] - beta * step * step + eps,
                            np.isnan(eps))
    f_xn = column(records, "f_xn")
    # a NaN objective on either side of a step shows no descent
    obj_bad = _first_rise(f_xn[1:], f_xn[:-1], np.isnan(f_xn[1:]) | np.isnan(f_xn[:-1]))
    return DiagnosticsReport(
        fejer_monotone=fejer_bad is None,
        fejer_first_violation=fejer_bad,
        objective_monotone=obj_bad is None,
        objective_first_violation=obj_bad,
        # a plain left-to-right sum: np.sum's pairwise order moves the last bits
        step_sq_sum=float(sum((beta * np.float_power(step, 2)).tolist())),
        dist_series=dist.tolist(),
        quasi_fejer_slack=eps.tolist(),
    )
