"""The benchmark tracer's entry points still exist and still see the calls.

``bench/tracing.py`` wraps library functions by name; a refactor that stops
calling those names would silently zero the per-layer figures.  The module
is loaded from its source text, so nothing is written under ``bench/``.
"""

import types
from pathlib import Path

import pytest

from absprox import EXPERIMENTS, run_named_experiment

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    module = types.ModuleType("absprox_bench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), module.__dict__)
    return module


def test_every_target_exists(tracing):
    for owner, attr, *_ in tracing.TARGETS:
        if isinstance(owner, type):
            # defined on the class itself: an inherited one would be patched
            # on the wrong class
            assert attr in vars(owner), f"{owner.__name__}.{attr}"
        else:
            assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"


def test_bundled_sweeps_call_counts(tracing):
    with tracing.Tracer() as tracer:
        for name in EXPERIMENTS:
            run_named_experiment(name)
    calls = {key: tracer.calls[key] for key in (
        "algorithms.schedule_step", "oracles.subgrad", "oracles.feasible_range",
        "oracles.eval", "oracles.project", "prox.closed")}
    assert calls == {
        "algorithms.schedule_step": 2226,
        "oracles.subgrad": 1599,
        "oracles.feasible_range": 2003,
        "oracles.eval": 2515,
        "oracles.project": 1587,
        "prox.closed": 639,
    }
