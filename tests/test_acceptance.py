"""End-to-end acceptance checks.

One test per shipped guarantee, each printing a single PASS/FAIL line
(run with ``pytest tests/test_acceptance.py -v -s`` to see them) and then
asserting.  Tolerances and draw counts are part of the contract and are
not to be loosened here.  Criterion 10's old final-point clause
(|x_end| <= 1e-3 at gamma = 0.1) was replaced, not loosened: g is unbounded
below, the stepsize guard ends that run at a non-stationary point, and the
method promises no convergence there, so the criterion now checks the
iteration and its guard stop instead.
"""

import time
from pathlib import Path

import numpy as np

from absprox import (
    STOP_GUARD,
    STOP_NONFINITE,
    Ball,
    Box,
    Halfspace,
    IndicatorSet,
    InfeasibleCoefficientError,
    NormSquare,
    PhiElement,
    ProxRequest,
    PsgConstantGamma,
    QuadraticForm,
    SmoothBlackBox,
    duality_map_element,
    duality_map_inverse,
    prox_via_argmin,
    run_fb,
    run_psg,
    subgrad_at,
)
from absprox import checks
from absprox.checks import Q3, Q5
from absprox.diagnostics import check_fejer
from absprox.config import hessian_example
from absprox.experiments import run_named_experiment
from absprox.oracles import AbsPlusSquare
from absprox.reference import eig_sym, fd_gradient
from absprox.rng import XorShift64Star


def report(num: int, label: str, ok: bool, detail: str = ""):
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {label}"
    if detail and not ok:
        line += f" ({detail})"
    print(line)
    assert ok, line


def sweep(name: str):
    return {r.config.schedule.gamma0: r for _, r in run_named_experiment(name)}


def test_criterion_1_eigenvalues():
    t3 = min(_timed(eig_sym, Q3) for _ in range(5))
    t5 = min(_timed(eig_sym, Q5) for _ in range(5))
    results = checks.spectra()
    report(1, "eigenvalues (-4,2,4) and (-3,-1,1,2,2) to 1e-9 in under 1 ms, "
              "LAPACK's agree and the eigenvector residual is small",
           all(ok for _, ok, _ in results) and t3 < 1e-3 and t5 < 1e-3,
           f"{results}, t3={t3:.2e}s, t5={t5:.2e}s")


def _timed(fn, *args):
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def test_criterion_2_psg_constant_stepsize():
    t0 = time.perf_counter()
    runs = sweep("psg-q3-const")
    dt = time.perf_counter() - t0
    r1 = runs[1.0]
    gap = abs(r1.result.final.f_xn + 4.0)
    diag = check_fejer(r1.result.records, r1.x_star, "psg",
                       f=r1.config.f)
    small = runs[0.01].result
    early = (small.terminal == STOP_GUARD
             and len(small.records) < small.records[-1].n + 2
             and len(small.records) < 102)
    report(2, "constant stepsize reaches f=-4 within 1e-2, anchored "
              "inequality holds, gamma=0.01 stops on the guard, under 1 s",
           gap <= 1e-2 and diag.fejer_monotone and early and dt < 1.0,
           f"gap={gap:.2e}, fejer={diag.fejer_monotone}, "
           f"tag={small.terminal!r}, n={len(small.records)}, dt={dt:.2f}s")


def test_criterion_3_psg_adaptive_coupling():
    runs = sweep("psg-q5-adaptive-x02")
    gap = abs(runs[1.0].result.final.f_xn + 3.0)
    identity_ok = True
    for r in runs.values():
        eps = r.config.schedule.epsilon
        for rec in r.result.records[1:]:
            if np.isnan(rec.a_fn):
                continue  # final point queried no subgradient
            lhs = 2.0 * rec.gamma_n * (rec.a_n - rec.a_fn)
            rhs = 2.0 * rec.gamma_n * eps - 1.0
            if abs(lhs - rhs) > 1e-9 * max(1.0, abs(rhs)) or rhs <= -1.0:
                identity_ok = False
    report(3, "adaptive schedule reaches f=-3 within 1e-1 and keeps "
              "2*gamma*(a - a_f) = 2*gamma*eps - 1 > -1 at every step",
           gap <= 1e-1 and identity_ok,
           f"gap={gap:.2e}, identity_ok={identity_ok}")


def test_criterion_4_ppa_descent_and_anchor():
    runs = sweep("ppa-absq")
    descent_ok = anchor_ok = True
    for r in runs.values():
        recs = r.result.records
        for prev, cur in zip(recs, recs[1:]):
            if cur.f_xn > prev.f_xn + 1e-10:
                descent_ok = False
            v_prev = (0.5 / prev.gamma_n + prev.a_n) * float(prev.x_n @ prev.x_n)
            v_cur = (0.5 / cur.gamma_n + cur.a_n) * float(cur.x_n @ cur.x_n)
            if v_cur > v_prev + 1e-10 * max(1.0, abs(v_prev)):
                anchor_ok = False
    ends = [abs(float(runs[g].result.final.x_n[0])) for g in (0.1, 1.0, 10.0)]
    report(4, "proximal point descends, (1/2g+a)||x||^2 never grows, and "
              "|x_N| <= 1e-3 for gamma in {0.1, 1, 10}",
           descent_ok and anchor_ok and max(ends) <= 1e-3,
           f"descent={descent_ok}, anchor={anchor_ok}, ends={ends}")


def test_criterion_5_prox_closed_form_consistency():
    t0 = time.perf_counter()
    [(_, ok, detail)] = checks.closed_form_prox(XorShift64Star(555), 1000)
    dt = time.perf_counter() - t0
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    documented = "denominator" in readme.lower()
    report(5, "closed-form prox matches brute-force argmin to 1e-8 on 1000 "
              "draws in under 1 s; denominator note present in README",
           ok and dt < 1.0 and documented,
           f"{detail}, dt={dt:.2f}s, documented={documented}")


def test_criterion_6_subgradient_certificates():
    rng = np.random.default_rng(66)
    ball = Ball(np.array([0.5, -0.5]), 2.0)
    cos_g = SmoothBlackBox(value=lambda p: float(np.cos(p[0])),
                           gradient=lambda p: np.array([-np.sin(p[0])]),
                           kappa=lambda p: 0.5, eps=1e-6, dim=1)

    def draw(kind):
        if kind == "abs+square":
            return AbsPlusSquare(), rng.uniform(-10, 10, 1), -1.0 + 10 * rng.random()
        if kind == "norm-square":
            return (NormSquare(0.7, dim=3), rng.uniform(-10, 10, 3),
                    -1.0 / 1.4 + 10 * rng.random())
        if kind == "quadratic":
            return QuadraticForm(Q3), rng.uniform(-10, 10, 3), 4.0 + 10 * rng.random()
        if kind == "indicator":
            return IndicatorSet(ball), ball.project(rng.uniform(-6, 6, 2)), 10 * rng.random()
        # cosine with a curvature bound valid on the whole line
        return cos_g, rng.uniform(-10, 10, 1), 0.5 + 10 * rng.random()

    kinds = ("abs+square", "norm-square", "quadratic", "indicator", "blackbox")
    cases = [(*draw(kind), 9000 + i) for kind in kinds for i in range(100)]
    [(_, certified, detail)] = checks.certificates(cases, num=300)
    [(_, flagged, control)] = checks.below_threshold_control()
    report(6, "500 sampled certificates pass across all oracle kinds and the "
              "below-threshold control is flagged",
           certified and flagged and len({type(f) for f, *_ in cases}) == 5,
           f"certified={certified} ({detail}), flagged={flagged} ({control})")


def test_criterion_7_duality_map_identities():
    rng = np.random.default_rng(77)
    # the points sent through the forward map, from a stream of their own so
    # that the feasible draws stay those of test_reference's copy
    points = np.random.default_rng(7)
    feasible, empty_ok = [], True
    for i in range(1000):
        dim = 1 + i % 5
        gamma = float(10.0 ** rng.uniform(-2, 1))
        u = rng.uniform(-10, 10, dim)
        a = float(rng.uniform(-0.99, 20.0)) / (2.0 * gamma)  # 2*gamma*a > -1
        feasible.append((gamma, a, u))
        y = points.uniform(-10, 10, (2, dim))

        # strictly below the threshold the preimage is empty, u irrelevant:
        # no point has an element with this coefficient
        a_low = float(rng.uniform(-20.0, -1.001)) / (2.0 * gamma)
        v = u if i % 3 else np.zeros(dim)
        if duality_map_inverse(PhiElement(a_low, v), gamma) is not None:
            empty_ok = False
        try:
            duality_map_element(y[0], gamma, a_low)
            empty_ok = False
        except InfeasibleCoefficientError:
            pass
        # on the threshold every point maps to (a_edge, 0): the preimage of
        # (a_edge, u) is empty, and that of (a_edge, 0) is the whole space
        a_edge = -1.0 / (2.0 * gamma)
        if (duality_map_inverse(PhiElement(a_edge, u), gamma) is not None
                or np.any(duality_map_element(y[0], gamma, a_edge).u)):
            empty_ok = False
        zero = PhiElement(a_edge, np.zeros(dim))
        if (duality_map_inverse(zero, gamma) is not None
                or any(duality_map_element(y_k, gamma, a_edge) != zero for y_k in y)):
            empty_ok = False
    [(_, round_trip_ok, detail)] = checks.duality_round_trip(feasible)
    report(7, "inverse duality map round-trips on 1000 feasible draws and is "
              "empty exactly on the infeasible region",
           round_trip_ok and empty_ok,
           f"round_trip_ok={round_trip_ok} ({detail}), empty_ok={empty_ok}")


def test_criterion_8_indicator_prox_is_projection():
    rng = np.random.default_rng(88)
    ball = Ball(np.array([1.0, -0.5]), 2.0)
    box = Box(np.array([-1.0, -2.0]), np.array([3.0, 2.0]))
    half = Halfspace(np.array([1.0, 1.0]), 2.0)

    def proj_ball(x):
        d = x - ball.center
        n = float(np.linalg.norm(d))
        return x if n <= ball.radius else ball.center + (ball.radius / n) * d

    def proj_box(x):
        return np.clip(x, box.lo, box.hi)

    def proj_half(x):
        excess = float(half.normal @ x) - half.offset
        if excess <= 0.0:
            return x
        return x - (excess / float(half.normal @ half.normal)) * half.normal

    worst = 0.0
    for c, proj in ((ball, proj_ball), (box, proj_box), (half, proj_half)):
        for _ in range(1000):
            x = rng.uniform(-6, 6, 2)
            gamma = float(rng.uniform(0.1, 10.0))
            a0 = float(rng.uniform(-1.0 / (2.0 * gamma) + 0.01, 5.0))
            got = prox_via_argmin(ProxRequest(IndicatorSet(c), x, gamma, a0))
            worst = max(worst, float(np.abs(got - proj(x)).max()))
    report(8, "indicator prox equals the closed-form projection to 1e-12 "
              "on 1000 draws per set",
           worst <= 1e-12, f"worst={worst:.2e}")


def test_criterion_9_fb_psg_equivalence():
    g = SmoothBlackBox(value=lambda p: float(p @ Q3 @ p),
                       gradient=lambda p: 2.0 * (Q3 @ p),
                       kappa=lambda p: 3.5, eps=0.5, dim=3)  # a_g = 4.0 exactly
    ball = Ball(np.zeros(3), 1.0)
    sched = PsgConstantGamma(gamma0=1.0, a0=200.0)
    x0 = [-5.0, 5.0, -5.0]
    fb = run_fb(IndicatorSet(ball), g, x0, sched, 50)
    psg = run_psg(QuadraticForm(Q3), ball, x0, sched, 50, a_f_override=4.0)
    worst = max(float(np.abs(rf.x_n - rp.x_n).max())
                for rf, rp in zip(fb.records, psg.records))
    same = (len(fb.records) == len(psg.records)
            and fb.terminal == psg.terminal)
    report(9, "forward-backward and projected subgradient trajectories "
              "coincide to 1e-10 over 50 steps",
           same and worst <= 1e-10,
           f"same_shape={same}, worst={worst:.2e}")


def _fb_hessian_by_hand(cfg):
    """The documented fb iteration for f = 0 and the bundled g, written out
    without the library: the prox of f = 0 is the identity, so
    x_{n+1} = x_n - grad g(x_n)/(2 c_n) with c_n = 1/(2 gamma) + a_n - a_g(x_n),
    a_g(x, y) = y^2 + 1 + eps and a_{n+1} = a_n - a_g(x_n), stopping at the
    first c_n <= 0.  Returns the points x_n, the a_n and the a_g."""
    x, a = np.array(cfg.x0, dtype=float), float(cfg.schedule.a0)
    xs, a_ns, a_gs = [x], [a], []
    for _ in range(cfg.n_iter):
        a_g = x[1] ** 2 + 1.0 + cfg.g.eps
        c = 0.5 / cfg.schedule.gamma0 + a - a_g
        a_gs.append(a_g)
        if c <= 0.0:
            break
        grad = np.array([x[0] ** 3 / 3.0 + x[0], -(x[1] ** 3) / 3.0 - x[1]])
        x, a = x - grad / (2.0 * c), a - a_g
        xs.append(x)
        a_ns.append(a)
    return xs, a_ns, a_gs


def _rel_err(got, want) -> float:
    return float(np.max(np.abs(np.asarray(got) - np.asarray(want))
                        / np.maximum(1.0, np.abs(want))))


def test_criterion_10_fb_hessian_example():
    # g is unbounded below in y, so the psg_constant budget 1/(2 gamma) + a0
    # is spent on a_g >= 1 + eps per step and the guard ends every run at a
    # non-stationary point; the check is the iteration itself and that stop.
    runs = sweep("fb-hessian")
    finite = all(
        np.isfinite([rec.gamma_n, rec.a_n, rec.f_xn, rec.step_norm]).all()
        and np.isfinite(rec.x_n).all()
        for r in runs.values() for rec in r.result.records
    ) and all(r.result.terminal != STOP_NONFINITE for r in runs.values())

    g = hessian_example(0.1)
    identity_worst = fd_worst = 0.0
    for rec in runs[0.1].result.records:
        x, grad = rec.x_n, g.gradient(rec.x_n)
        for a in (g.default_coefficient(x), g.default_coefficient(x) + 1.7):
            u = subgrad_at(g, x, a).u
            scale = max(1.0, np.abs(grad).max(), np.abs(2.0 * a * x).max())
            identity_worst = max(identity_worst,
                                 float(np.abs(u - 2.0 * a * x - grad).max()) / scale)
        fd_worst = max(fd_worst,
                       float(np.abs(fd_gradient(g.value, x) - grad).max()))

    recompute_worst, guard_ok, bound_ok, details = 0.0, True, True, []
    for gamma, run in runs.items():
        cfg, recs = run.config, run.result.records
        xs, a_ns, a_gs = _fb_hessian_by_hand(cfg)
        if len(recs) != len(xs):
            recompute_worst = np.inf
        else:
            recompute_worst = max(
                recompute_worst,
                _rel_err([r.x_n for r in recs], xs),
                _rel_err([r.a_n for r in recs], a_ns),
                _rel_err([r.a_fn for r in recs], a_gs),
            )
        # the run's own guard values c_n, read from its records
        c_run = [0.5 / r.gamma_n + r.a_n - r.a_fn for r in recs]
        guard_ok &= (run.result.terminal == STOP_GUARD
                     and recs[-1].stopped_by == STOP_GUARD
                     and all(c > 0.0 for c in c_run[:-1]) and c_run[-1] <= 0.0)
        # c_n <= 1/(2 gamma) + a0 - (n + 1)(1 + eps), since every a_g >= 1 + eps
        max_steps = int(np.ceil((0.5 / gamma + cfg.schedule.a0) / (1.0 + cfg.g.eps)))
        bound_ok &= len(recs) - 1 <= max_steps < cfg.n_iter
        details.append(f"gamma={gamma}: {len(recs)} records vs {len(xs)} by hand, "
                       f"tag={run.result.terminal}, c_last={c_run[-1]:.3g}, "
                       f"max_steps={max_steps}")

    report(10, "fb-hessian runs stay finite, u-2ax recovers the gradient, "
               "finite differences agree to 1e-5, and for every gamma the "
               "records match an independent recomputation to 1e-10 and end "
               "on the stepsize guard within the (1/(2 gamma) + a0)/(1 + eps) "
               "step bound",
           finite and identity_worst <= 1e-12 and fd_worst <= 1e-5
           and recompute_worst <= 1e-10 and guard_ok and bound_ok,
           f"finite={finite}, identity_worst={identity_worst:.2e}, "
           f"fd_worst={fd_worst:.2e}, recompute_worst={recompute_worst:.2e}; "
           + "; ".join(details))
