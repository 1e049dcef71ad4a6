"""Named experiments, config execution, and CSV emission.

Each named experiment is stored as config text and goes through the same
parser as user-supplied files; the members of its stepsize sweep differ
only in ``gamma0``.  CSV output is deterministic: fixed header,
17-significant-digit floats, NaN as an empty field.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from .algorithms import RunResult, column, run_fb, run_ppa, run_psg, sq_distances
from .config import ExperimentConfig, parse_config
from .reference import eig_sym

__all__ = [
    "EXPERIMENTS",
    "ExperimentRun",
    "run_config",
    "run_named_experiment",
    "write_csv",
    "CSV_HEADER",
]

CSV_HEADER = "iter,gamma,a_n,a_f,f_value,step_norm,dist_to_ref,fejer,stopped_by"


# ---------------------------------------------------------------------------
# The bundled problem instances
# ---------------------------------------------------------------------------

# 3x3 indefinite symmetric matrix with eigenvalues (-4, 2, 4)
Q3_TEXT = "[[-2,2,2];[2,2,-2];[2,-2,2]]"
# 5x5 indefinite symmetric matrix with eigenvalues (-3, -1, 1, 2, 2)
Q5_TEXT = ("[[1,0,-1,1,0];[0,1,1,-1,0];[-1,1,-1,1,1];"
           "[1,-1,1,-1,1];[0,0,1,1,1]]")


# ---------------------------------------------------------------------------
# Named experiments (config text with the sweep's stepsize as {gamma})
# ---------------------------------------------------------------------------

_PPA_ABSQ = """
# proximal point on |x| + x^2, additive coefficient schedule
algorithm = ppa
function = abs_plus_square
x0 = [-10]
gamma0 = {gamma}
a0 = 1
schedule = ppa_additive(0.9)
N = 101
reference = [0]
"""

_PSG_Q3_CONST = """
# projected subgradient, 3x3 indefinite quadratic over the unit ball,
# constant stepsize with decrementing coefficient
algorithm = psg
Q = {q3}
set = ball(0,1)
x0 = [-5,5,-5]
gamma0 = {gamma}
a0 = 200
a_f = 4
schedule = psg_constant
N = 101
reference = auto_eigen
"""

_PSG_Q3_ADAPTIVE = """
# projected subgradient, 3x3 quadratic, stepsize shrinks while a stays fixed
algorithm = psg
Q = {q3}
set = ball(0,1)
x0 = [-5,5,-5]
gamma0 = {gamma}
a0 = 5
a_f = 4
schedule = psg_adaptive_v1(5)
N = 101
reference = auto_eigen
"""

_PSG_Q5_CONST = """
# projected subgradient, 5x5 quadratic with two negative eigenvalues
algorithm = psg
Q = {q5}
set = ball(0,1)
x0 = {x0}
gamma0 = {gamma}
a0 = 200
a_f = 3
schedule = psg_constant
N = 101
reference = auto_eigen
"""

_PSG_Q5_ADAPTIVE = """
# projected subgradient, 5x5 quadratic, coupled gamma/a updates that keep
# the stepsize guard strictly satisfied
algorithm = psg
Q = {q5}
set = ball(0,1)
x0 = [-10,10,-10,10,-10]
gamma0 = {gamma}
a0 = 4
a_f = 3
schedule = psg_adaptive_v2(1)
N = 101
reference = auto_eigen
"""

_FB_HESSIAN = """
# forward-backward with f = 0 and the bundled smooth 2-D function;
# decrementing coefficient schedule with the stepsize-guard stop
algorithm = fb
function = hessian_example
x0 = [-5,-1]
gamma0 = {gamma}
a0 = 200
epsilon = 0.1
schedule = psg_constant
N = 1001
"""

EXPERIMENTS: dict[str, dict] = {
    "ppa-absq": {
        "template": _PPA_ABSQ,
        "gammas": (0.01, 0.1, 1.0, 10.0),
        "about": "proximal point on |x|+x^2, x0=-10, additive schedule, 4 stepsizes",
    },
    "psg-q3-const": {
        "template": _PSG_Q3_CONST,
        "gammas": (0.01, 0.1, 1.0, 10.0),
        "about": "projected subgradient, 3x3 quadratic on the unit ball, constant stepsize",
    },
    "psg-q3-adaptive": {
        "template": _PSG_Q3_ADAPTIVE,
        "gammas": (0.01, 0.1, 1.0, 10.0),
        "about": "projected subgradient, 3x3 quadratic, shrinking-stepsize rule",
    },
    "psg-q5-const-x01": {
        "template": _PSG_Q5_CONST,
        "gammas": (0.01, 0.1, 1.0, 10.0),
        "x0": "[-10,-10,-10,-10,-10]",
        "about": "projected subgradient, 5x5 quadratic, start in the shallow basin",
    },
    "psg-q5-const-x02": {
        "template": _PSG_Q5_CONST,
        "gammas": (0.01, 0.1, 1.0, 10.0),
        "x0": "[-10,10,-10,10,-10]",
        "about": "projected subgradient, 5x5 quadratic, start near the deep basin",
    },
    "psg-q5-adaptive-x02": {
        "template": _PSG_Q5_ADAPTIVE,
        "gammas": (0.01, 0.1, 1.0, 10.0),
        "about": "projected subgradient, 5x5 quadratic, coupled gamma/a updates",
    },
    "fb-hessian": {
        "template": _FB_HESSIAN,
        "gammas": (0.01, 0.1, 1.0),
        "about": "forward-backward on a 2-D function with an indefinite Hessian",
    },
}


def named_experiment_configs(name: str) -> list[ExperimentConfig]:
    """The per-stepsize configs of a named experiment: its template parsed
    once, at the first stepsize, and one member per stepsize with that
    ``gamma0``."""
    if name not in EXPERIMENTS:
        known = ", ".join(sorted(EXPERIMENTS))
        raise KeyError(f"unknown experiment {name!r}; known names: {known}")
    entry = EXPERIMENTS[name]
    gammas = entry["gammas"]
    cfg = parse_config(entry["template"].format(
        gamma=gammas[0], q3=Q3_TEXT, q5=Q5_TEXT, x0=entry.get("x0", "")))
    return [replace(cfg, schedule=replace(cfg.schedule, gamma0=g)) for g in gammas]


# ---------------------------------------------------------------------------
# Parsed config -> run
# ---------------------------------------------------------------------------


@dataclass
class ExperimentRun:
    config: ExperimentConfig
    result: RunResult
    x_star: np.ndarray | None


def _run(cfg: ExperimentConfig) -> RunResult:
    """The run of a parsed config, by its method's entry point."""
    if cfg.algorithm == "ppa":
        return run_ppa(cfg.f, cfg.x0, cfg.schedule, cfg.n_iter)
    if cfg.algorithm == "psg":
        return run_psg(cfg.f, cfg.set, cfg.x0, cfg.schedule, cfg.n_iter, a_f_override=cfg.a_f)
    return run_fb(cfg.f, cfg.g, cfg.x0, cfg.schedule, cfg.n_iter)


def _runs(cfgs: list[ExperimentConfig]) -> list[ExperimentRun]:
    """Run configs that share a reference, in order; then resolve it once
    and fill each run's Fejér column against it.

    A vector reference is used as it is.  ``auto_eigen`` (the parser admits
    it only for psg with ``Q`` over a ball(0, r)) is the minimizer of
    <x, Qx> over that ball nearest each run's final iterate x_N: 0 when Q's
    least eigenvalue (the Jacobi arbiter's) is not negative, else r P_E x_N
    / ||P_E x_N|| over its eigenspace E (the eigenvalues within 1e-9
    max(1, |lambda_min|) of it) or, where E is a line or orthogonal to x_N,
    r times the unit eigenvector signed toward x_N.  At r = 1 that is the
    eigenvector itself, whose bits the frozen ``dist_to_ref``/``fejer``
    columns carry.
    """
    results = [_run(cfg) for cfg in cfgs]
    ref = cfgs[0].reference
    eigen = None
    if isinstance(ref, str):  # auto_eigen
        lam, v = eig_sym(cfgs[0].f.q)
        r = cfgs[0].set.radius
        eigen = v[:, 0] / np.linalg.norm(v[:, 0])
        eigen = r * eigen if lam[0] < 0.0 else np.zeros_like(eigen)
        space = v[:, lam <= lam[0] + 1e-9 * max(1.0, abs(lam[0]))] if lam[0] < 0.0 else v[:, :1]
    runs = []
    for cfg, result in zip(cfgs, results):
        x_star = ref
        if eigen is not None:
            x_star = -eigen if float(eigen @ result.final.x_n) < 0.0 else eigen.copy()
            p = space @ (space.T @ result.final.x_n)
            norm = np.linalg.norm(p)
            if space.shape[1] > 1 and norm > 0.0:
                x_star = r * (p / norm)
        if x_star is not None:
            result.set_fejer(x_star)
        runs.append(ExperimentRun(config=cfg, result=result, x_star=x_star))
    return runs


def run_config(cfg: ExperimentConfig) -> ExperimentRun:
    """Execute the run of a parsed config on the objects it holds: a sweep
    of one member."""
    return _runs([cfg])[0]


def run_named_experiment(name: str,
                         out_dir: str | None = None) -> list[tuple[str, ExperimentRun]]:
    """Run every sweep member of a named experiment, one point run each, in
    sweep order; optionally write CSVs.

    Every member runs before any CSV is written, so a sweep whose member
    raises (the first such member in order) writes none.  ``auto_eigen`` is
    solved once per sweep.  Returns (csv_path_or_label, run) pairs in sweep
    order.
    """
    out = []
    for run in _runs(named_experiment_configs(name)):
        label = f"{name}-gamma{run.config.schedule.gamma0:g}.csv"
        if out_dir is not None:
            os.makedirs(out_dir, exist_ok=True)
            path = os.path.join(out_dir, label)
            write_csv(run.result, path, x_star=run.x_star)
            label = path
        out.append((label, run))
    return out


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------


# one record's numeric fields and the comma before its stop tag
_ROW = ",".join(["%d"] + ["%.17g"] * 7) + ",\n"


def write_csv(result: RunResult, path: str, x_star=None) -> None:
    """Write one run: fixed header, one row per record, NaN as empty field.

    Only the last record carries a stop tag (see ``RunResult.terminal``).
    Raises ValueError unless ``x_star`` has the iterates' dimension.
    """
    records = result.records
    dist = (np.full(len(records), np.nan) if x_star is None
            else np.sqrt(sq_distances(column(records, "x_n"), x_star)))
    values = []
    for r, d in zip(records, dist.tolist()):
        values += (r.n, r.gamma_n, r.a_n, r.a_fn, r.f_xn, r.step_norm, d, r.fejer)
    # "%.17g" writes NaN as "nan", which no other numeric field contains
    body = (_ROW * len(records) % tuple(values)).replace("nan", "")
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(f"{CSV_HEADER}\n{body[:-1]}{records[-1].stopped_by or ''}\n")
    except OSError as e:
        raise OSError(f"cannot write CSV to {path}: {e}") from e
