"""Named experiments, config execution, and CSV emission.

Each named experiment is stored as config text (one per stepsize in its
sweep) and goes through the same parser as user-supplied files.  CSV output
is deterministic: fixed header, 17-significant-digit floats, NaN as an
empty field.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .algorithms import RunResult, run_fb, run_ppa, run_psg, sq_distances
from .config import ExperimentConfig, build_schedule, build_set, parse_config
from .oracles import (
    AbsPlusSquare,
    IndicatorSet,
    QuadraticForm,
    SmoothBlackBox,
    eval_oracle,
)
from .reference import eig_sym

__all__ = [
    "EXPERIMENTS",
    "ExperimentRun",
    "build_oracle",
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


def _hessian_value(p: np.ndarray) -> float:
    x, y = float(p[0]), float(p[1])
    return x**4 / 12.0 + x**2 / 2.0 - y**4 / 12.0 - y**2 / 2.0


def _hessian_gradient(p: np.ndarray) -> np.ndarray:
    x, y = float(p[0]), float(p[1])
    return np.array([x**3 / 3.0 + x, -(y**3) / 3.0 - y])


def _hessian_kappa(p: np.ndarray) -> float:
    # magnitude of the negative Hessian eigenvalue -(y^2 + 1)
    return float(p[1]) ** 2 + 1.0


def hessian_example(eps: float) -> SmoothBlackBox:
    """The bundled 2-D smooth test function with one negative Hessian eigenvalue:
    g(x, y) = x^4/12 + x^2/2 - y^4/12 - y^2/2, curvature rule y^2 + 1 + eps.

    g is unbounded below along y, so it has no minimizer, and the bundled
    fb-hessian runs drift off in y.  kappa(x, y) = y^2 + 1 bounds the curvature of -g only
    near (x, y): at a point z, -g curves by z_y^2 + 1, which exceeds kappa
    wherever |z_y| > |y|.  So the oracle's elements are certified locally,
    not globally (see ``SmoothBlackBox``).
    """
    return SmoothBlackBox(value=_hessian_value, gradient=_hessian_gradient,
                          kappa=_hessian_kappa, eps=eps, dim=2)


# ---------------------------------------------------------------------------
# Named experiments (config text per stepsize)
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
schedule = psg_adaptive_v1(5,4)
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


def named_experiment_configs(name: str) -> list[tuple[float, ExperimentConfig]]:
    """The parsed per-stepsize configs of a named experiment."""
    if name not in EXPERIMENTS:
        known = ", ".join(sorted(EXPERIMENTS))
        raise KeyError(f"unknown experiment {name!r}; known names: {known}")
    entry = EXPERIMENTS[name]
    out = []
    for gamma in entry["gammas"]:
        text = entry["template"].format(
            gamma=gamma, q3=Q3_TEXT, q5=Q5_TEXT, x0=entry.get("x0", ""),
        )
        out.append((gamma, parse_config(text)))
    return out


# ---------------------------------------------------------------------------
# Config -> objects -> run
# ---------------------------------------------------------------------------


def build_oracle(cfg: ExperimentConfig):
    """Returns (f, g) where g is the smooth part (fb only, else None)."""
    if cfg.q is not None:
        return QuadraticForm(cfg.q), None
    if cfg.function == "abs_plus_square":
        return AbsPlusSquare(), None
    if cfg.function == "hessian_example":
        # smooth part g with f identically zero
        zero = QuadraticForm(np.zeros((2, 2)))
        return zero, hessian_example(cfg.epsilon)
    raise ValueError("config carries no oracle")


@dataclass
class ExperimentRun:
    config: ExperimentConfig
    result: RunResult
    x_star: np.ndarray | None
    f_star: float


def _resolve_reference(cfg, f, result, eigen: dict):
    """Reference point for diagnostics; eigen-based references pick the unit
    eigenvector of the smallest eigenvalue, signed toward the final iterate.

    The eigenvector comes from the Jacobi arbiter, not from the oracle's
    LAPACK decomposition: it is a diagnostic target, and the frozen
    ``dist_to_ref``/``fejer`` columns of the bundled sweeps carry its bits.
    ``eigen`` holds the unsigned vector per matrix, so the runs that share
    it solve once.  The parser admits ``auto_eigen`` only with ``Q``, so
    ``f`` is quadratic.
    """
    if cfg.reference is None:
        return None
    if isinstance(cfg.reference, str):  # auto_eigen
        key = f.q.tobytes()
        if key not in eigen:
            v = eig_sym(f.q)[1][:, 0]
            eigen[key] = v / np.linalg.norm(v)
        v = eigen[key]
        return -v if float(v @ result.final.x_n) < 0.0 else v.copy()
    return np.atleast_1d(np.asarray(cfg.reference, dtype=float))


def run_config(cfg: ExperimentConfig, *, _eigen: dict | None = None) -> ExperimentRun:
    """Build everything from a parsed config and execute the run.

    ``_eigen`` lets the members of one sweep share their ``auto_eigen``
    solve (see ``run_named_experiment``).
    """
    f, g = build_oracle(cfg)
    sched = build_schedule(cfg)
    if cfg.algorithm == "ppa":
        result = run_ppa(f, cfg.x0, sched, cfg.n_iter)
    elif cfg.algorithm == "psg":
        result = run_psg(f, build_set(cfg.set_desc), cfg.x0, sched, cfg.n_iter,
                         a_f_override=cfg.a_f)
    else:  # fb, whose config always names the smooth part
        if cfg.set_desc is not None:
            f = IndicatorSet(build_set(cfg.set_desc))
        result = run_fb(f, g, cfg.x0, sched, cfg.n_iter)

    # the reference is resolved after the run: auto_eigen signs it toward
    # the final iterate
    x_star = _resolve_reference(cfg, f, result, {} if _eigen is None else _eigen)
    f_star = np.nan
    if x_star is not None:
        f_star = eval_oracle(f, x_star)
        result.set_fejer(x_star)
    return ExperimentRun(config=cfg, result=result, x_star=x_star, f_star=f_star)


def run_named_experiment(name: str,
                         out_dir: str | None = None) -> list[tuple[str, ExperimentRun]]:
    """Run every sweep member of a named experiment; optionally write CSVs.

    Returns (csv_path_or_label, run) pairs in sweep order.  The members
    share one ``auto_eigen`` solve, held only for this call.
    """
    out = []
    eigen = {}
    for gamma, cfg in named_experiment_configs(name):
        run = run_config(cfg, _eigen=eigen)
        label = f"{name}-gamma{gamma:g}.csv"
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
            else np.sqrt(sq_distances(records, x_star)))
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
