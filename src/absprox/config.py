"""Flat `key = value` experiment configs, parsed into the objects a run takes.

Grammar::

    algorithm = psg                     # ppa | fb | psg
    Q = [[-2,2,2];[2,2,-2];[2,-2,2]]    # matrix rows separated by ';'
    function = abs_plus_square          # instead of Q: abs_plus_square | hessian_example
    set = ball(0,1)                     # ball(c,r) | box(lo,hi) | halfspace(n,b)
    x0 = [-5,5,-5]
    gamma0 = 1
    a0 = 200
    a_f = 4                             # optional oracle-coefficient pin
    epsilon = 0.1                       # fb's curvature margin
    schedule = psg_constant             # ppa_additive(d) | psg_adaptive_v1(a)
                                        # | psg_adaptive_v2(eps) | fb_constant(a)
    N = 101
    reference = auto_eigen              # or a vector; optional
    output = run.csv                    # optional

What each algorithm takes (one ``_METHODS`` row each)::

    algorithm  oracle              schedules                                       requires  reads
    ppa        Q, abs_plus_square  ppa_additive                                    -         -
    fb         hessian_example     fb_constant, psg_constant, psg_adaptive_v2      epsilon   set
    psg        Q, abs_plus_square  psg_constant, psg_adaptive_v1, psg_adaptive_v2  set       a_f

`#` starts a comment.  Parsing lists every error with its line number, by
one rule for every algorithm: a required key is met by being present, a
value that does not parse gets only its own error, and a parsed key,
oracle or schedule the algorithm's row does not list is refused.  It
refuses unknown keys, non-finite numbers, a stray or missing bracket (with
its column), an empty call argument, ``auto_eigen`` without ``Q``, and
what the constructors of the oracle, set and schedule reject.  A number
given for a set's center, bounds or normal stands for that number in every
coordinate.  A parsed :class:`ExperimentConfig` holds the objects its run takes.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple
from dataclasses import dataclass, fields
from functools import partial

import numpy as np

from .algorithms import (FbConstant, PpaAdditive, PsgAdaptiveV1, PsgAdaptiveV2, PsgConstantGamma,
                         Schedule)
from .oracles import (AbsPlusSquare, Ball, Box, Halfspace, IndicatorSet, Oracle, QuadraticForm,
                      SetDescriptor, SmoothBlackBox)

__all__ = ["ExperimentConfig", "ConfigError", "parse_config", "hessian_example"]


# One row per algorithm: the oracles it takes ("Q" or function names), the
# schedules it steps with, the keys it reads of those only some algorithms
# read, and the keys it requires, each with the words its refusal uses.
_Method = namedtuple("_Method", "oracles schedules reads requires", defaults=((), {}))


_METHODS = {
    "ppa": _Method(("Q", "abs_plus_square"), ("ppa_additive",)),
    "fb": _Method(("hessian_example",), ("fb_constant", "psg_constant", "psg_adaptive_v2"),
                  reads=("set", "epsilon"), requires={"epsilon": "epsilon (curvature margin)"}),
    "psg": _Method(("Q", "abs_plus_square"), ("psg_constant", "psg_adaptive_v1", "psg_adaptive_v2"),
                   reads=("set", "a_f"), requires={"set": "a set"}),
}
_OPTIONAL = {key for m in _METHODS.values() for key in m.reads}
_FUNCTIONS = {"abs_plus_square": 1, "hessian_example": 2}  # name -> dimension
# a schedule's arguments are its constructor's fields after gamma0 and a0
_SCHEDULES = {
    "ppa_additive": PpaAdditive,
    "psg_constant": PsgConstantGamma,
    "psg_adaptive_v1": PsgAdaptiveV1,
    "psg_adaptive_v2": PsgAdaptiveV2,
    "fb_constant": FbConstant,
}
_SETS = {"ball": Ball, "box": Box, "halfspace": Halfspace}


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
    """The 2-D smooth function ``function = hessian_example`` names, with one
    negative Hessian eigenvalue: g(x, y) = x^4/12 + x^2/2 - y^4/12 - y^2/2,
    curvature rule y^2 + 1 + eps.

    g is unbounded below along y, so it has no minimizer, and the bundled
    fb-hessian runs drift off in y.  kappa(x, y) = y^2 + 1 bounds the curvature of -g only
    near (x, y): at a point z, -g curves by z_y^2 + 1, which exceeds kappa
    wherever |z_y| > |y|.  So the oracle's elements are certified locally,
    not globally (see ``SmoothBlackBox``).
    """
    return SmoothBlackBox(value=_hessian_value, gradient=_hessian_gradient,
                          kappa=_hessian_kappa, eps=eps, dim=2)


class ConfigError(ValueError):
    """Carries the full list of config problems, one string per error."""

    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = list(errors)


@dataclass
class ExperimentConfig:
    """The objects a parsed config's run takes.  ``f`` is ``Q``'s
    ``QuadraticForm`` or ``AbsPlusSquare``; for fb it is the indicator of
    the set, or without one the zero ``QuadraticForm``, and ``g`` is
    ``hessian_example(epsilon)``.  ``set`` is psg's (None for ppa and fb).
    ``schedule`` carries ``gamma0`` and ``a0``."""

    algorithm: str
    x0: np.ndarray
    f: Oracle
    schedule: Schedule
    n_iter: int
    g: SmoothBlackBox | None = None
    set: SetDescriptor | None = None
    a_f: float | None = None
    reference: np.ndarray | str | None = None  # vector or "auto_eigen"
    output: str | None = None


def _parse_number(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"malformed number {text.strip()!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text.strip()!r}")
    return value


# the tokenizer visits only brackets; a separator splits where no "]"
# comes before the next "[", that is, outside an item's own [...]
_BRACKETS = re.compile(r"[][()]")
_CLOSERS = {"[": "]", "(": ")"}
_SEPARATORS = {sep: re.compile(sep + r"(?![^\[]*\])") for sep in ",;"}


def _split(text: str, opener: str, sep: str, nested: bool = False) -> tuple[str, list]:
    """``head(a, b)`` (``opener`` "(") or ``head[a, b]``: the head and the
    stripped ``sep``-separated items, ``[""]`` without brackets; an item may
    hold one ``[...]`` only when ``nested``.  A stray or missing bracket
    raises ValueError naming it and its column."""
    stack, start, end = [], len(text), len(text)  # open brackets; the outer pair
    for m in _BRACKETS.finditer(text):
        c, i = m.group(), m.start()
        if c in _CLOSERS and (c == opener if not stack else nested and len(stack) == 1 and c == "["):
            stack.append(i)
        elif stack and c == _CLOSERS[text[stack[-1]]]:
            start, end = stack.pop(), i
            if not stack:
                break
        else:
            raise ValueError(f"stray {c!r} at column {i + 1} of {text!r}")
    if stack:
        c, i = text[stack[-1]], stack[-1]
        raise ValueError(f"missing {_CLOSERS[c]!r} for the {c!r} at column {i + 1} of {text!r}")
    if end < len(text) - 1:
        raise ValueError(f"stray {text[end + 1]!r} at column {end + 2} of {text!r}")
    return text[:start].strip(), [t.strip() for t in _SEPARATORS[sep].split(text[start + 1:end])]


def _parse_vector(text: str) -> np.ndarray:
    items = _split(text, "[", ",")[1]  # the callers pass only text that starts with "["
    if items == [""]:
        raise ValueError("empty vector")
    return np.array([_parse_number(t) for t in items], dtype=float)


def _parse_matrix(text: str) -> QuadraticForm:
    head, rows = _split(text, "[", ";", nested=True)
    if head or not all(r.startswith("[") for r in rows):
        raise ValueError("matrix must look like [[...];[...]]")
    parsed = [_parse_vector(r) for r in rows]
    if len({len(r) for r in parsed}) != 1:
        raise ValueError("matrix rows have unequal lengths")
    return QuadraticForm(np.array(parsed, dtype=float))  # refuses a Q not square or symmetric


def _parse_count(text: str) -> int:
    try:
        value = _parse_number(text)
        if value == int(value) and value >= 0:
            return int(value)
    except ValueError:
        pass
    raise ValueError(f"N must be a nonnegative integer, got {text!r}")


_NAME_RE = re.compile(r"[a-z_0-9]+")


def _parse_call(text: str, what: str) -> tuple[str, list[str]]:
    """``name`` or ``name(args)``: the name and its comma-separated arguments."""
    name, args = _split(text, "(", ",", nested=True)
    if not _NAME_RE.fullmatch(name):
        raise ValueError(f"malformed {what} {text!r}")
    args = args if args != [""] else []
    if "" in args:
        raise ValueError(f"empty argument in {text!r}")
    return name, args


def _parse_set(text: str) -> tuple[str, tuple]:
    kind, args = _parse_call(text, "set descriptor")
    if kind not in _SETS:
        raise ValueError(f"unknown set kind {kind!r}")
    if len(args) != 2:
        raise ValueError(f"{kind} takes 2 arguments, got {len(args)}")
    first, second = (_parse_vector(a) if a.startswith("[") else _parse_number(a)
                     for a in args)
    if kind != "box" and isinstance(second, np.ndarray):
        raise ValueError(f"{kind} takes a number as its second argument")
    return kind, (first, second)


def _fit_set(desc: tuple, dim: int) -> SetDescriptor:
    """The set a (kind, args) descriptor names, its numbers broadcast to
    vectors of dimension ``dim``; raises ValueError."""
    kind, args = desc
    # both box bounds are vectors; a radius or an offset stays a number
    vectors = 2 if kind == "box" else 1
    if any(np.size(a) not in (1, dim) for a in args[:vectors]):
        raise ValueError("set descriptor dimension does not match x0")
    args = tuple(np.broadcast_to(a, dim).copy() for a in args[:vectors]) + args[vectors:]
    return _SETS[kind](*args)


def _parse_schedule(text: str) -> tuple[str, tuple]:
    name, args = _parse_call(text, "schedule")
    if name not in _SCHEDULES:
        raise ValueError(f"unknown schedule {name!r} (known: {', '.join(sorted(_SCHEDULES))})")
    args = tuple(_parse_number(a) for a in args)
    want = len(fields(_SCHEDULES[name])) - 2
    if len(args) != want:
        raise ValueError(f"schedule {name} takes {want} parameter(s), got {len(args)}")
    _SCHEDULES[name](1.0, 0.0, *args)  # its own checks, with a stand-in gamma0 and a0
    return name, args


def _parse_reference(text: str) -> np.ndarray | str:
    if text == "auto_eigen":
        return text
    if not text.startswith("["):
        raise ValueError(f"reference must be auto_eigen or a vector, got {text!r}")
    try:
        return _parse_vector(text)
    except ValueError as e:
        raise ValueError(f"bad reference vector: {e}") from None


def _parse_output(text: str) -> str:
    if not text:
        raise ValueError("output needs a path")
    return text


def _one_of(key: str, names, text: str) -> str:
    if text not in names:
        raise ValueError(f"{key} must be one of {tuple(names)}, got {text!r}")
    return text


# one parser per key, each taking the value text and returning the value or
# raising ValueError with the problem; its keys are the keys a config may have
_PARSERS = {
    "algorithm": partial(_one_of, "algorithm", _METHODS),
    "function": partial(_one_of, "function", _FUNCTIONS),
    "Q": _parse_matrix, "set": _parse_set, "schedule": _parse_schedule, "N": _parse_count,
    "x0": lambda t: _parse_vector(t) if t.startswith("[") else np.array([_parse_number(t)]),
    # their constructors check the ranges; epsilon's value is fb's g
    "gamma0": lambda t: Schedule(_parse_number(t), 0.0).gamma0,
    "epsilon": lambda t: hessian_example(_parse_number(t)),
    "a0": _parse_number, "a_f": _parse_number,
    "reference": _parse_reference, "output": _parse_output,
}
# reference prefixes its vector problems itself, as its other one has none
_PREFIXES = {"Q": "bad matrix: ", "x0": "bad x0: "}
_REQUIRED = ("algorithm", "x0", "gamma0", "a0", "schedule", "N")


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate config text and build its run's objects; raises
    ConfigError listing every problem."""
    errors, raw, lines = [], {}, {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            errors.append(f"line {lineno}: expected 'key = value', got {stripped!r}")
            continue
        key, value = (s.strip() for s in stripped.split("=", 1))
        if key not in _PARSERS:
            errors.append(f"line {lineno}: unknown key {key!r}")
        elif key in raw:
            errors.append(f"line {lineno}: duplicate key {key!r}")
        else:
            raw[key], lines[key] = value, lineno

    def fail(key, msg):
        errors.append(f"line {lines[key]}: {msg}")

    errors += [f"missing required key {key!r}" for key in _REQUIRED if key not in raw]
    vals = {}
    for key, value in raw.items():
        try:
            vals[key] = _PARSERS[key](value)
        except ValueError as e:
            fail(key, f"{_PREFIXES.get(key, '')}{e}")
    # a value that does not parse has only its own error: the checks below
    # read what parsed, and the required keys are met by being present
    if "Q" not in raw and "function" not in raw:
        errors.append("missing oracle: give Q or function")
    if "Q" in vals and "function" in vals:
        fail("function", "give either Q or function, not both")
    if raw.get("reference") == "auto_eigen" and "Q" not in raw:
        fail("reference", "auto_eigen needs a quadratic oracle (Q)")

    # cross-field consistency
    x0, q, set_c = vals.get("x0"), vals.get("Q"), None
    if x0 is not None:
        dim = x0.size
        if q is not None and q.dim != dim:
            fail("Q", f"Q is {q.dim}x{q.dim} but x0 has dimension {dim}")
        function_dim = _FUNCTIONS.get(vals.get("function"), dim)
        if function_dim != dim:
            fail("x0", f"{vals['function']} is {('one', 'two')[function_dim - 1]}-dimensional")
        if "set" in vals:
            try:
                set_c = _fit_set(vals["set"], dim)
            except ValueError as e:
                fail("set", str(e))
        reference = vals.get("reference")
        if isinstance(reference, np.ndarray) and reference.size != dim:
            fail("reference", "reference vector dimension does not match x0")

    algorithm = vals.get("algorithm")
    method = _METHODS.get(algorithm)
    if method is not None:
        errors += [f"{algorithm} requires {what}"
                   for key, what in method.requires.items() if key not in raw]
        for key in sorted(_OPTIONAL & vals.keys() - set(method.reads)):
            fail(key, f"{key} is not used by algorithm {algorithm}")
        for key, oracle in (("Q", "Q"), ("function", vals.get("function"))):
            if key in vals and oracle not in method.oracles:
                fail(key, f"oracle {oracle} is not usable with algorithm {algorithm}")
        if "schedule" in vals and vals["schedule"][0] not in method.schedules:
            fail("schedule", f"schedule {vals['schedule'][0]} is not usable with "
                             f"algorithm {algorithm}")
    if errors:
        raise ConfigError(errors)

    # every piece parsed, so no constructor below can refuse it
    g = vals["epsilon"] if algorithm == "fb" else None
    if g is not None:  # f = 0 unless a set constrains the iterates; fb has no psg set
        f = QuadraticForm(np.zeros((2, 2))) if set_c is None else IndicatorSet(set_c)
        set_c = None
    else:
        f = AbsPlusSquare() if q is None else q
    name, args = vals["schedule"]
    return ExperimentConfig(
        algorithm=algorithm, x0=x0, f=f, n_iter=vals["N"], g=g, set=set_c,
        schedule=_SCHEDULES[name](vals["gamma0"], vals["a0"], *args),
        a_f=vals.get("a_f"), reference=vals.get("reference"), output=vals.get("output"))
