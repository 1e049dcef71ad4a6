"""Flat `key = value` experiment configs.

Grammar::

    algorithm = psg                     # ppa | fb | psg
    Q = [[-2,2,2];[2,2,-2];[2,-2,2]]    # matrix rows separated by ';'
    set = ball(0,1)                     # ball(c,r) | box(lo,hi) | halfspace(n,b)
    x0 = [-5,5,-5]
    gamma0 = 1
    a0 = 200
    a_f = 4                             # optional oracle-coefficient pin
    schedule = psg_constant             # or name(args): ppa_additive(0.9), ...
    N = 101
    reference = auto_eigen              # or a vector; optional
    output = run.csv                    # optional

`#` starts a comment.  Parsing collects every error (with line numbers)
instead of stopping at the first.  It refuses what a run could not use:
unknown keys, non-finite numbers, keys the chosen algorithm never reads
(``set`` for ppa, ``a_f`` outside psg, ``epsilon`` outside fb), an oracle
the algorithm cannot take (fb runs only ``hessian_example``, which only
fb runs), ``auto_eigen`` without ``Q``, and sets or schedules their
constructors would reject.  A number given for a set's center, bounds or
normal stands for that number in every coordinate.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, fields

import numpy as np

from .algorithms import FbConstant, PpaAdditive, PsgAdaptiveV1, PsgAdaptiveV2, PsgConstantGamma
from .oracles import Ball, Box, Halfspace

__all__ = ["ExperimentConfig", "ConfigError", "parse_config", "build_set", "build_schedule"]

_ALGORITHMS = ("ppa", "fb", "psg")
_FUNCTIONS = ("abs_plus_square", "hessian_example")
# a schedule's arguments are its constructor's fields after gamma0 and a0
_SCHEDULES = {
    "ppa_additive": PpaAdditive,
    "psg_constant": PsgConstantGamma,
    "psg_adaptive_v1": PsgAdaptiveV1,
    "psg_adaptive_v2": PsgAdaptiveV2,
    "fb_constant": FbConstant,
}
_KNOWN_KEYS = (
    "algorithm", "function", "Q", "set", "x0", "gamma0", "a0", "a_f",
    "schedule", "N", "epsilon", "reference", "output",
)
# keys that only some algorithms read
_READ_BY = {"set": ("psg", "fb"), "a_f": ("psg",), "epsilon": ("fb",)}
_SETS = {"ball": Ball, "box": Box, "halfspace": Halfspace}


class ConfigError(ValueError):
    """Carries the full list of config problems, one string per error."""

    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = list(errors)


@dataclass
class ExperimentConfig:
    algorithm: str
    x0: np.ndarray
    gamma0: float
    a0: float
    schedule: tuple  # (name, (args...))
    n_iter: int
    function: str | None = None
    q: np.ndarray | None = None
    set_desc: tuple | None = None  # (kind, (args...))
    a_f: float | None = None
    epsilon: float | None = None
    reference: np.ndarray | str | None = None  # vector or "auto_eigen"
    output: str | None = None
    dim: int = field(init=False, default=0)

    def __post_init__(self):
        self.dim = int(np.atleast_1d(self.x0).size)


def _parse_number(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"malformed number {text.strip()!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text.strip()!r}")
    return value


def _parse_vector(text: str) -> np.ndarray:
    inner = text.strip()[1:-1].strip()
    if not inner:
        raise ValueError("empty vector")
    return np.array([_parse_number(t) for t in inner.split(",")], dtype=float)


def _parse_matrix(text: str) -> np.ndarray:
    body = text.strip()
    if not (body.startswith("[[") and body.endswith("]]")):
        raise ValueError("matrix must look like [[...];[...]]")
    rows = body[1:-1].split(";")
    parsed = [_parse_vector(r.strip()) for r in rows]
    lens = {len(r) for r in parsed}
    if len(lens) != 1:
        raise ValueError("matrix rows have unequal lengths")
    return np.array(parsed, dtype=float)


_CALL_RE = re.compile(r"^([a-z_0-9]+)\s*(?:\((.*)\))?$")


def _split_args(argtext: str) -> list[str]:
    """Split top-level comma-separated arguments, respecting brackets."""
    out, depth, cur = [], 0, []
    for ch in argtext:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch == "," and depth == 0:
            out.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    if cur:
        out.append("".join(cur).strip())
    return [a for a in out if a]


def _parse_set(text: str):
    m = _CALL_RE.match(text.strip())
    if not m:
        raise ValueError(f"malformed set descriptor {text!r}")
    kind, argtext = m.group(1), m.group(2) or ""
    args = _split_args(argtext)
    if kind not in _SETS:
        raise ValueError(f"unknown set kind {kind!r}")
    if len(args) != 2:
        raise ValueError(f"{kind} takes 2 arguments, got {len(args)}")
    first, second = (_parse_vector(a) if a.startswith("[") else _parse_number(a)
                     for a in args)
    if kind != "box" and isinstance(second, np.ndarray):
        raise ValueError(f"{kind} takes a number as its second argument")
    return kind, (first, second)


def _fit_set(desc: tuple, dim: int) -> tuple:
    """Broadcast a set descriptor's numbers to vectors of dimension ``dim``
    and check that the set can be built; raises ValueError."""
    kind, args = desc
    # both box bounds are vectors; a radius or an offset stays a number
    vectors = 2 if kind == "box" else 1
    if any(np.size(a) not in (1, dim) for a in args[:vectors]):
        raise ValueError("set descriptor dimension does not match x0")
    args = tuple(np.broadcast_to(a, dim).copy() for a in args[:vectors]) + args[vectors:]
    build_set((kind, args))
    return kind, args


def build_set(desc: tuple):
    """The set a (kind, args) descriptor names."""
    kind, args = desc
    return _SETS[kind](*args)


def build_schedule(cfg: ExperimentConfig):
    """The schedule a config names, with its gamma0 and a0."""
    name, args = cfg.schedule
    return _SCHEDULES[name](cfg.gamma0, cfg.a0, *args)


def _parse_schedule(text: str):
    m = _CALL_RE.match(text.strip())
    if not m:
        raise ValueError(f"malformed schedule {text!r}")
    name, argtext = m.group(1), m.group(2)
    if name not in _SCHEDULES:
        raise ValueError(
            f"unknown schedule {name!r} (known: {', '.join(sorted(_SCHEDULES))})"
        )
    args = tuple(_parse_number(a) for a in _split_args(argtext or ""))
    want = len(fields(_SCHEDULES[name])) - 2
    if len(args) != want:
        raise ValueError(f"schedule {name} takes {want} parameter(s), got {len(args)}")
    if name == "psg_adaptive_v2" and args[0] <= 0:
        raise ValueError("psg_adaptive_v2 epsilon must be positive")
    return name, args


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate config text; raises ConfigError listing every problem."""
    errors: list[str] = []
    raw: dict[str, str] = {}
    lines: dict[str, int] = {}

    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            errors.append(f"line {lineno}: expected 'key = value', got {stripped!r}")
            continue
        key, value = (s.strip() for s in stripped.split("=", 1))
        if key not in _KNOWN_KEYS:
            errors.append(f"line {lineno}: unknown key {key!r}")
            continue
        if key in raw:
            errors.append(f"line {lineno}: duplicate key {key!r}")
            continue
        raw[key] = value
        lines[key] = lineno

    def fail(key, msg):
        errors.append(f"line {lines.get(key, 0)}: {msg}")

    # required keys
    for key in ("algorithm", "x0", "gamma0", "a0", "schedule", "N"):
        if key not in raw:
            errors.append(f"missing required key {key!r}")

    algorithm = raw.get("algorithm", "")
    if "algorithm" in raw and algorithm not in _ALGORITHMS:
        fail("algorithm", f"algorithm must be one of {_ALGORITHMS}, got {algorithm!r}")

    x0 = None
    if "x0" in raw:
        try:
            x0 = _parse_vector(raw["x0"]) if raw["x0"].startswith("[") \
                else np.array([_parse_number(raw["x0"])])
        except ValueError as e:
            fail("x0", f"bad x0: {e}")

    def number(key, default=None):
        if key not in raw:
            return default
        try:
            return _parse_number(raw[key])
        except ValueError as e:
            fail(key, str(e))
            return default

    gamma0 = number("gamma0")
    a0 = number("a0")
    a_f = number("a_f")
    epsilon = number("epsilon")
    if gamma0 is not None and gamma0 <= 0:
        fail("gamma0", "gamma must be positive")
    if epsilon is not None and epsilon <= 0:
        fail("epsilon", "epsilon must be positive")

    n_iter = None
    if "N" in raw:
        try:
            n_val = _parse_number(raw["N"])
            if n_val != int(n_val) or n_val < 0:
                raise ValueError
            n_iter = int(n_val)
        except ValueError:
            fail("N", f"N must be a nonnegative integer, got {raw['N']!r}")

    q = None
    if "Q" in raw:
        try:
            q = _parse_matrix(raw["Q"])
            if q.shape[0] != q.shape[1]:
                raise ValueError("Q must be square")
            if not np.array_equal(q, q.T):
                raise ValueError("Q must be symmetric")
        except ValueError as e:
            fail("Q", f"bad matrix: {e}")
            q = None

    function = raw.get("function")
    if function is not None and function not in _FUNCTIONS:
        fail("function", f"function must be one of {_FUNCTIONS}, got {function!r}")

    if "Q" in raw and "function" in raw:
        fail("function", "give either Q or function, not both")
    if "Q" not in raw and "function" not in raw:
        errors.append("missing oracle: give Q or function")

    set_desc = None
    if "set" in raw:
        try:
            set_desc = _parse_set(raw["set"])
        except ValueError as e:
            fail("set", str(e))

    schedule = None
    if "schedule" in raw:
        try:
            schedule = _parse_schedule(raw["schedule"])
        except ValueError as e:
            fail("schedule", str(e))

    reference = None
    if "reference" in raw:
        ref = raw["reference"].strip()
        if ref == "auto_eigen":
            reference = "auto_eigen"
        elif ref.startswith("["):
            try:
                reference = _parse_vector(ref)
            except ValueError as e:
                fail("reference", f"bad reference vector: {e}")
        else:
            fail("reference", f"reference must be auto_eigen or a vector, got {ref!r}")

    # cross-field consistency (only when the pieces parsed)
    if x0 is not None:
        dim = x0.size
        if q is not None and q.shape != (dim, dim):
            fail("Q", f"Q is {q.shape[0]}x{q.shape[1]} but x0 has dimension {dim}")
        if function == "abs_plus_square" and dim != 1:
            fail("x0", "abs_plus_square is one-dimensional")
        if function == "hessian_example" and dim != 2:
            fail("x0", "hessian_example is two-dimensional")
        if set_desc is not None:
            try:
                set_desc = _fit_set(set_desc, dim)
            except ValueError as e:
                fail("set", str(e))
        if isinstance(reference, np.ndarray) and reference.size != dim:
            fail("reference", "reference vector dimension does not match x0")

    if algorithm == "psg" and "set" not in raw:
        errors.append("psg requires a set")
    for key, readers in _READ_BY.items():
        if key in raw and algorithm in _ALGORITHMS and algorithm not in readers:
            fail(key, f"{key} is not used by algorithm {algorithm}")
    if algorithm == "fb":
        if "Q" in raw or function not in (None, "hessian_example"):
            fail("Q" if "Q" in raw else "function",
                 "fb supports the hessian_example function")
        if epsilon is None:
            errors.append("fb requires epsilon (curvature margin)")
    elif function == "hessian_example" and algorithm in _ALGORITHMS:
        fail("function", f"hessian_example is the smooth part of fb, not an "
                         f"oracle for {algorithm}")
    if raw.get("output") == "":
        fail("output", "output needs a path")
    if isinstance(reference, str) and "Q" not in raw:  # auto_eigen
        fail("reference", "auto_eigen needs a quadratic oracle (Q)")

    if schedule is not None and algorithm in _ALGORITHMS:
        name = schedule[0]
        compatible = {
            "ppa": ("ppa_additive",),
            "psg": ("psg_constant", "psg_adaptive_v1", "psg_adaptive_v2"),
            "fb": ("fb_constant", "psg_constant", "psg_adaptive_v2"),
        }[algorithm]
        if name not in compatible:
            fail("schedule", f"schedule {name} is not usable with algorithm {algorithm}")

    if errors:
        raise ConfigError(errors)

    return ExperimentConfig(
        algorithm=algorithm, x0=x0, gamma0=gamma0, a0=a0, schedule=schedule,
        n_iter=n_iter, function=function, q=q, set_desc=set_desc, a_f=a_f,
        epsilon=epsilon, reference=reference, output=raw.get("output"),
    )
