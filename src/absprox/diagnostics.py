"""Post-hoc convergence diagnostics over recorded runs.

Turns the monotonicity statements behind the algorithms into a checkable
report: anchored (quasi-)monotonicity of the weighted squared distance to a
reference point and objective monotonicity.  Records are never mutated.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algorithms import IterationRecord
from .oracles import Oracle, subgrad_at

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


def _psg_slack(records: list[IterationRecord], f: Oracle | None) -> list[float]:
    """Per-step allowance eps_n = gamma_n^2 U^2 / (1 + 2 gamma_n (a_n - a_n^f)).

    U bounds ||2 a_n^f x_n - u_n^f|| along the run; the subgradients are
    re-queried from the oracle at the recorded coefficients.
    """
    if f is None:
        return [0.0] * max(len(records) - 1, 0)
    norms, denoms, gammas = [], [], []
    for r in records[:-1]:
        if np.isnan(r.a_fn):
            norms.append(0.0)
            denoms.append(1.0)
            gammas.append(r.gamma_n)
            continue
        u = subgrad_at(f, r.x_n, r.a_fn).u
        norms.append(float(np.linalg.norm(2.0 * r.a_fn * r.x_n - u)))
        denoms.append(1.0 + 2.0 * r.gamma_n * (r.a_n - r.a_fn))
        gammas.append(r.gamma_n)
    big_u = max(norms) if norms else 0.0
    return [
        (g * g * big_u * big_u / d) if d > 0 else np.inf
        for g, d in zip(gammas, denoms)
    ]


def check_fejer(records: list[IterationRecord], x_star, alpha_rule: str,
                f: Oracle | None = None) -> DiagnosticsReport:
    """Check the anchored inequality a_{n+1} d_{n+1}^2 <= a_n d_n^2 - b_n s_n^2 + e_n.

    ``alpha_rule`` selects the weights: "ppa" uses alpha_n = b_n =
    1/(2 gamma_n) + a_n with no allowance; "psg" uses alpha_n =
    1 + 2 gamma_n a_n, b_n = 0, and the subgradient-magnitude allowance
    (pass the oracle ``f`` to enable its computation, else it is zero).
    Also reports objective monotonicity over the same records.
    """
    if not records:
        raise ValueError("records must be nonempty")
    x_star = np.atleast_1d(np.asarray(x_star, dtype=float))
    dist = [float(np.linalg.norm(x_star - r.x_n)) for r in records]

    if alpha_rule == "ppa":
        alpha = [0.5 / r.gamma_n + r.a_n for r in records]
        beta = alpha[:-1]
        eps = [0.0] * (len(records) - 1)
    elif alpha_rule == "psg":
        alpha = [1.0 + 2.0 * r.gamma_n * r.a_n for r in records]
        beta = [0.0] * (len(records) - 1)
        eps = _psg_slack(records, f)
    else:
        raise ValueError("alpha_rule must be 'ppa' or 'psg'")

    fejer_ok, fejer_bad = True, None
    for n in range(len(records) - 1):
        lhs = alpha[n + 1] * dist[n + 1] ** 2
        step = records[n + 1].step_norm
        rhs = alpha[n] * dist[n] ** 2 - beta[n] * step * step + eps[n]
        if lhs > rhs + _RTOL * max(1.0, abs(lhs), abs(rhs)):
            fejer_ok, fejer_bad = False, n
            break

    obj_ok, obj_bad = True, None
    for n in range(len(records) - 1):
        cur, nxt = records[n].f_xn, records[n + 1].f_xn
        if nxt > cur + _RTOL * max(1.0, abs(cur), abs(nxt)):
            obj_ok, obj_bad = False, n
            break

    step_sq = sum(
        b * records[n + 1].step_norm ** 2 for n, b in enumerate(beta)
    )
    return DiagnosticsReport(
        fejer_monotone=fejer_ok,
        fejer_first_violation=fejer_bad,
        objective_monotone=obj_ok,
        objective_first_violation=obj_bad,
        step_sq_sum=float(step_sq),
        dist_series=dist,
        quasi_fejer_slack=list(eps),
    )
