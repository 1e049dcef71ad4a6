"""Spans around the library's public functions, recorded from outside it.

:class:`Tracer` rebinds each traced function in every ``absprox`` module
namespace that holds it (``from .oracles import subgrad_at`` copies the
name, so rebinding ``absprox.oracles.subgrad_at`` alone would miss the
callers in ``algorithms`` and ``diagnostics``), and patches methods on
their classes.  ``uninstall`` restores every original object.

Spans are aggregated as they close rather than stored: per key, the number
of calls and the self time, i.e. the span's duration minus the time its
child spans cover.  A call nested directly inside a span of the same key
(``prox_via_argmin`` calling the closed form) adds self time but is not
counted as a second call.  Counts include calls made from inside the
library, e.g. ``subgrad_at`` asking ``feasible_range``.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter

import numpy as np

import absprox
from absprox import (algorithms, cli, config, diagnostics, experiments, oracles, phi,
                     prox, reference, rng)


def _construct_key(self, *args, **kwargs):
    return f"oracles.construct.n{np.shape(self.q)[0]}"


def _prox_key(req, *args, **kwargs):
    return "prox.inner" if isinstance(req.f, absprox.SmoothBlackBox) else "prox.closed"


def _count_iters(tracer, result):
    tracer.extra["algorithms.iters"] += len(result.records) - 1


def _count_points(tracer, result):
    tracer.extra["reference.sampler_points"] += result["num_points"]


# (owner, attribute, span key or key function, hook on the result)
TARGETS = [
    (algorithms, "run_ppa", "algorithms.run", _count_iters),
    (algorithms, "run_fb", "algorithms.run", _count_iters),
    (algorithms, "run_psg", "algorithms.run", _count_iters),
    (algorithms, "schedule_step", "algorithms.schedule_step", None),
    (oracles.QuadraticForm, "__post_init__", _construct_key, None),
    (oracles, "subgrad_at", "oracles.subgrad", None),
    (oracles, "feasible_range", "oracles.feasible_range", None),
    (oracles, "eval_oracle", "oracles.eval", None),
    (oracles.Ball, "project", "oracles.project", None),
    (oracles.Box, "project", "oracles.project", None),
    (oracles.Halfspace, "project", "oracles.project", None),
    (prox, "prox_via_argmin", _prox_key, None),
    (prox, "prox_abs_square_closed_form", "prox.closed", None),
    (prox, "prox_indicator", "prox.closed", None),
    (reference, "eig_sym", "reference.eig_sym", None),
    (reference, "subgrad_inequality_sampler", "reference.sampler", _count_points),
    (reference, "grid_argmin_1d", "reference.grid_argmin", None),
    (reference, "golden_section_min", "reference.golden", None),
    (reference, "fd_gradient", "reference.fd_gradient", None),
    (rng.XorShift64Star, "uniform_vector", "rng.uniform_vector", None),
    (diagnostics, "check_fejer", "diagnostics.check_fejer", None),
    (config, "parse_config", "config.parse", None),
    (experiments, "run_config", "experiments.run_config", None),
    (experiments, "write_csv", "experiments.write_csv", None),
    (phi, "duality_map_element", "phi.duality", None),
    (phi, "duality_map_inverse", "phi.duality", None),
    (cli, "main", "cli.verify", None),
]


class Tracer:
    """Aggregating span recorder over :data:`TARGETS`."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = Counter()
        self.extra = Counter()
        self._stack = []  # open spans: [key, seconds covered by children]
        self._undo = []

    def reset(self):
        self.calls.clear()
        self.self_s.clear()
        self.extra.clear()

    def _wrap(self, fn, key, hook):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            k = key(*args, **kwargs) if callable(key) else key
            parent = stack[-1] if stack else None
            frame = [k, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                self.self_s[k] += dt - frame[1]
                if parent is not None:
                    parent[1] += dt
                if parent is None or parent[0] != k:
                    self.calls[k] += 1
            if hook is not None:
                hook(self, result)
            return result

        return traced

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in list(sys.modules.items())
                   if name == "absprox" or name.startswith("absprox.")]
        for owner, attr, key, hook in TARGETS:
            if isinstance(owner, type):
                original = owner.__dict__[attr]
                self._rebind(owner, attr, original, self._wrap(original, key, hook))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, key, hook)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, name, original, wrapper)

    def _rebind(self, owner, name, original, wrapper):
        setattr(owner, name, wrapper)
        self._undo.append((owner, name, original))

    def uninstall(self):
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
