"""Command-line interface.

Subcommands: ``run <config>`` executes one config file and writes its CSV;
``reproduce <name>`` runs a bundled experiment sweep; ``verify`` runs
the independent-oracle cross-check suites; ``list`` shows the bundled
experiment names.  Exit codes: 0 success, 1 a ``verify`` check failed,
2 config error (or an unreadable config), 3 runtime failure, unwritable
CSV, or guarantee violation (under strict mode).  Setting
``ABSPROX_STRICT=1`` promotes monotonicity warnings to failures.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .algorithms import (
    DegenerateStepError,
    ScheduleDegenerateError,
    ScheduleInfeasibleError,
    TheoremViolationError,
)
from .config import ConfigError, parse_config
from .experiments import EXPERIMENTS, run_config, run_named_experiment, write_csv
from .oracles import EmptySubdifferentialError
from .phi import InfeasibleCoefficientError
from .prox import SolverToleranceError, UnboundedObjectiveError

_RUNTIME_ERRORS = (
    TheoremViolationError,
    DegenerateStepError,
    ScheduleDegenerateError,
    ScheduleInfeasibleError,
    UnboundedObjectiveError,
    SolverToleranceError,
    EmptySubdifferentialError,
    InfeasibleCoefficientError,
    OSError,  # the CSV cannot be written
)


def _strict() -> bool:
    return os.environ.get("ABSPROX_STRICT", "") == "1"


def _cmd_run(args) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        print(f"error: cannot read config: {e}", file=sys.stderr)
        return 2
    try:
        cfg = parse_config(text)
    except ConfigError as e:
        for err in e.errors:
            print(f"config error: {err}", file=sys.stderr)
        return 2
    out = args.output or cfg.output
    if out is None:
        base = os.path.splitext(os.path.basename(args.config))[0]
        out = base + ".csv"
    try:
        run = run_config(cfg, strict=_strict())
        write_csv(run.result, out, x_star=run.x_star)
    except _RUNTIME_ERRORS as e:
        print(f"run failed: {e}", file=sys.stderr)
        return 3
    final = run.result.final
    print(f"{args.config}: {len(run.result.records)} records, "
          f"terminal={run.result.terminal.kind.value}"
          f"{'/' + run.result.terminal.tag if run.result.terminal.tag else ''}, "
          f"final f={final.f_xn:.12g} -> {out}")
    return 0


def _cmd_reproduce(args) -> int:
    if args.name not in EXPERIMENTS:
        print(f"unknown experiment {args.name!r}; known names:", file=sys.stderr)
        for name in sorted(EXPERIMENTS):
            print(f"  {name}", file=sys.stderr)
        return 2
    try:
        runs = run_named_experiment(args.name, out_dir=args.out_dir,
                                    strict=_strict())
    except _RUNTIME_ERRORS as e:
        print(f"run failed: {e}", file=sys.stderr)
        return 3
    for path, run in runs:
        final = run.result.final
        term = run.result.terminal
        tail = f"/{term.tag}" if term.tag else ""
        print(f"{path}: gamma0={run.config.gamma0:g} records={len(run.result.records)} "
              f"terminal={term.kind.value}{tail} final_f={final.f_xn:.12g}")
    return 0


def _cmd_list(_args) -> int:
    for name in sorted(EXPERIMENTS):
        print(f"{name:22s} {EXPERIMENTS[name]['about']}")
    return 0


def _cmd_verify(_args) -> int:
    """Cross-check the analytic code paths against the brute-force oracles."""
    from .oracles import (
        AbsPlusSquare,
        NormSquare,
        QuadraticForm,
        eval_oracle,
        feasible_range,
        subgrad_at,
    )
    from .phi import PhiElement, duality_map_element, duality_map_inverse
    from .prox import prox_abs_square_closed_form
    from .reference import eig_sym, grid_argmin_1d, subgrad_inequality_sampler
    from .rng import XorShift64Star

    failures = 0
    total = 0

    def check(label: str, ok: bool, detail: str = ""):
        nonlocal failures, total
        total += 1
        if ok:
            print(f"ok   {label}")
        else:
            failures += 1
            print(f"FAIL {label}" + (f" ({detail})" if detail else ""))

    q3 = np.array([[-2.0, 2, 2], [2, 2, -2], [2, -2, 2]])
    q5 = np.array([[1.0, 0, -1, 1, 0], [0, 1, 1, -1, 0], [-1, 1, -1, 1, 1],
                   [1, -1, 1, -1, 1], [0, 0, 1, 1, 1]])
    # the Jacobi arbiter against the known spectra and against the LAPACK
    # spectra that QuadraticForm runs on
    w3, v3 = eig_sym(q3)
    w5, _ = eig_sym(q5)
    f3, f5 = QuadraticForm(q3), QuadraticForm(q5)
    check("eigendecomposition 3x3 -> (-4, 2, 4), Jacobi and LAPACK",
          np.allclose(w3, [-4, 2, 4], atol=1e-9)
          and np.allclose(f3.eigenvalues, w3, atol=1e-9),
          f"Jacobi {w3}, LAPACK {f3.eigenvalues}")
    check("eigendecomposition 5x5 -> (-3, -1, 1, 2, 2), Jacobi and LAPACK",
          np.allclose(w5, [-3, -1, 1, 2, 2], atol=1e-9)
          and np.allclose(f5.eigenvalues, w5, atol=1e-9),
          f"Jacobi {w5}, LAPACK {f5.eigenvalues}")
    check("eigenvector residual ||Qv - wv|| small",
          float(np.abs(q3 @ v3 - v3 @ np.diag(w3)).max()) <= 1e-9)

    rng = XorShift64Star(2024)
    worst = 0.0
    for _ in range(1000):
        gamma = rng.uniform(0.01, 10.0)
        a0 = rng.uniform(-1.0 / (2.0 * gamma), 10.0)
        x0 = rng.uniform(-20.0, 20.0)
        closed = prox_abs_square_closed_form(x0, gamma, a0)
        w = 0.5 / gamma + a0

        def h(z):
            return np.abs(z) + z * z + w * (z - x0) ** 2

        brute = grid_argmin_1d(h, -25.0, 25.0)
        worst = max(worst, abs(closed - brute))
    check("closed-form prox of |x|+x^2 matches brute-force argmin (1000 draws)",
          worst <= 1e-8, f"worst |diff| = {worst:.3g}")

    ok = True
    oracles = [
        (AbsPlusSquare(), 1),
        (NormSquare(gamma=0.5, dim=2), 2),
        (f3, 3),
    ]
    for f, dim in oracles:
        for k in range(25):
            x = rng.uniform_vector(-5, 5, dim)
            a = feasible_range(f, x).a_min + rng.uniform(0.0, 5.0)
            phi = subgrad_at(f, x, a)
            rep = subgrad_inequality_sampler(
                lambda y, f=f: eval_oracle(f, y), x, phi.a, phi.u,
                num=200, seed=k + 1)
            ok = ok and rep["passed"]
    check("sampled global inequality for analytic subgradients", ok)

    # A coefficient 1e-3 below the threshold violates the inequality only in
    # a thin cone around the bottom eigenvector (solid-angle fraction ~4e-5),
    # so the control draws enough points to land in it deterministically.
    x_neg = np.array([1.0, 1, 1])
    bad_a = 4.0 - 1e-3
    bad_u = 2.0 * (q3 + bad_a * np.eye(3)) @ x_neg
    rep = subgrad_inequality_sampler(
        lambda y: eval_oracle(f3, y), x_neg, bad_a, bad_u, num=10_000, seed=6)
    check("sampler flags a coefficient below the feasible threshold", not rep["passed"])

    ok = True
    for k in range(1000):
        gamma = rng.uniform(0.01, 10.0)
        a = rng.uniform(-1.0 / (2.0 * gamma) + 1e-6, 10.0)
        u = rng.uniform_vector(-10, 10, 3)
        phi = PhiElement(a, u)
        inv = duality_map_inverse(phi, gamma)
        back = duality_map_element(inv.point, gamma, a)
        scale = max(1.0, float(np.linalg.norm(u)))
        ok = ok and abs(back.a - a) <= 1e-12 and \
            float(np.linalg.norm(back.u - u)) <= 1e-12 * scale
    check("duality map round trip (1000 draws)", ok)

    print(f"{total - failures}/{total} checks passed")
    return 0 if failures == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="absprox",
        description="Quadratic-minorant proximal methods: run experiments, "
                    "reproduce bundled sweeps, verify analytic kernels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a config file and write its CSV")
    p_run.add_argument("config")
    p_run.add_argument("--output", default=None, help="CSV path override")
    p_run.set_defaults(func=_cmd_run)

    p_rep = sub.add_parser("reproduce", help="run a bundled experiment sweep")
    p_rep.add_argument("name")
    p_rep.add_argument("--out-dir", default="results")
    p_rep.set_defaults(func=_cmd_reproduce)

    p_ver = sub.add_parser("verify", help="run independent-oracle cross-checks")
    p_ver.set_defaults(func=_cmd_verify)

    p_list = sub.add_parser("list", help="list bundled experiments")
    p_list.set_defaults(func=_cmd_list)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
