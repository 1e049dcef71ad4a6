"""Quadratic-minorant subdifferentials, proximal operators, and globally
convergent first-order methods for a class of nonconvex problems.

The working family is the set of elementary quadratics
phi(x) = -a||x||^2 + <u,x> + c.  Subdifferentials taken against this family
stay globally certified even for nonconvex f, which makes proximal-point,
forward-backward, and projected-subgradient iterations globally analyzable;
this package implements the operators, the algorithms, their diagnostics,
and a small experiment CLI.
"""

from .phi import (
    InfeasibleCoefficientError,
    PhiElement,
    duality_map_element,
    duality_map_inverse,
)
from .oracles import (
    AbsPlusSquare,
    Ball,
    Box,
    EmptySubdifferentialError,
    Halfspace,
    IndicatorSet,
    NormSquare,
    ProxRequest,
    QuadraticForm,
    SmoothBlackBox,
    SolverToleranceError,
    UnboundedObjectiveError,
    eval_oracle,
    feasible_range,
    prox_abs_square_closed_form,
    subgrad_at,
)
from .prox import (
    prox_indicator,
    prox_via_argmin,
)
from .algorithms import (
    STOP_GLOBAL_MIN,
    STOP_GUARD,
    STOP_NONFINITE,
    DegenerateStepError,
    FbConstant,
    IterationRecord,
    PpaAdditive,
    PsgAdaptiveV1,
    PsgAdaptiveV2,
    PsgConstantGamma,
    RunResult,
    Schedule,
    ScheduleDegenerateError,
    ScheduleInfeasibleError,
    TheoremViolationWarning,
    run_fb,
    run_ppa,
    run_psg,
    schedule_step,
)
from .diagnostics import DiagnosticsReport, check_fejer
from .config import ConfigError, ExperimentConfig, parse_config
from .experiments import (
    EXPERIMENTS,
    run_config,
    run_named_experiment,
    write_csv,
)

__version__ = "0.1.0"
