"""Command-line interface.

Subcommands: ``run <config>`` executes one config file and writes its CSV;
``reproduce <name>`` runs a bundled experiment sweep; ``verify`` runs
the independent-oracle cross-check suites; ``list`` shows the bundled
experiment names.  Exit codes: 0 success, 1 a ``verify`` check failed,
2 config error (or an unreadable config), 3 runtime failure, unwritable
CSV, or guarantee violation under ``ABSPROX_STRICT=1``; ``main`` maps
those library errors to 3 in one place.  A failed descent check of
``ppa`` (the only method that asserts descent) is a
``TheoremViolationWarning``; ``ABSPROX_STRICT=1`` makes the warnings filter
raise it for the duration of the command.  A run's ``terminal`` is
``max-iter`` at the horizon, else ``stop-rule/<tag>``.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings

from . import checks
from .algorithms import (
    DegenerateStepError,
    ScheduleDegenerateError,
    ScheduleInfeasibleError,
    TheoremViolationWarning,
)
from .config import ConfigError, parse_config
from .experiments import EXPERIMENTS, run_config, run_named_experiment, write_csv
from .oracles import EmptySubdifferentialError, SolverToleranceError, UnboundedObjectiveError
from .phi import InfeasibleCoefficientError

_RUNTIME_ERRORS = (
    TheoremViolationWarning,  # raised under ABSPROX_STRICT=1
    DegenerateStepError,
    ScheduleDegenerateError,
    ScheduleInfeasibleError,
    UnboundedObjectiveError,
    SolverToleranceError,
    EmptySubdifferentialError,
    InfeasibleCoefficientError,
    OSError,  # the CSV cannot be written
)


def _terminal(result) -> str:
    return f"stop-rule/{result.terminal}" if result.terminal else "max-iter"


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
    run = run_config(cfg)
    write_csv(run.result, out, x_star=run.x_star)
    print(f"{args.config}: {len(run.result.records)} records, "
          f"terminal={_terminal(run.result)}, final f={run.result.final.f_xn:.12g} -> {out}")
    return 0


def _cmd_reproduce(args) -> int:
    if args.name not in EXPERIMENTS:
        print(f"unknown experiment {args.name!r}; known names:", file=sys.stderr)
        for name in sorted(EXPERIMENTS):
            print(f"  {name}", file=sys.stderr)
        return 2
    for path, run in run_named_experiment(args.name, out_dir=args.out_dir):
        print(f"{path}: gamma0={run.config.schedule.gamma0:g} records={len(run.result.records)} "
              f"terminal={_terminal(run.result)} final_f={run.result.final.f_xn:.12g}")
    return 0


def _cmd_list(_args) -> int:
    for name in sorted(EXPERIMENTS):
        print(f"{name:22s} {EXPERIMENTS[name]['about']}")
    return 0


def _cmd_verify(_args) -> int:
    """Cross-check the analytic code paths against the brute-force oracles."""
    results = checks.verify_results()
    for label, ok, detail in results:
        print(f"ok   {label}" if ok else f"FAIL {label} ({detail})")
    passed = sum(ok for _, ok, _ in results)
    print(f"{passed}/{len(results)} checks passed")
    return 0 if passed == len(results) else 1


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
    with warnings.catch_warnings():
        if os.environ.get("ABSPROX_STRICT", "") == "1":
            warnings.simplefilter("error", TheoremViolationWarning)
        try:
            return args.func(args)
        except _RUNTIME_ERRORS as e:
            print(f"run failed: {e}", file=sys.stderr)
            return 3


if __name__ == "__main__":
    sys.exit(main())
