"""The benchmark tracer's entry points still exist and still see the calls,
and a run still offers what the benchmark reads from it.

``bench/tracing.py`` wraps library functions by name; a refactor that stops
calling those names would silently zero the per-layer figures.  The bench
modules are loaded from their source text, so nothing is written under
``bench/``.
"""

import json
import types
from pathlib import Path

import numpy as np
import pytest

from absprox import (
    EXPERIMENTS,
    Ball,
    PsgAdaptiveV2,
    QuadraticForm,
    check_fejer,
    run_named_experiment,
    run_psg,
)
import absprox.checks
import absprox.reference
from absprox.checks import verify_results
from absprox.experiments import Q3

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(path: Path, name: str) -> types.ModuleType:
    module = types.ModuleType(name)
    module.__file__ = str(path)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


@pytest.fixture(scope="module")
def tracing():
    return _load(BENCH / "tracing.py", "absprox_bench_tracing")


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
        "algorithms.run", "algorithms.schedule_step", "oracles.subgrad",
        "oracles.feasible_range", "oracles.eval", "oracles.project", "prox.closed",
        "reference.eig_sym")}
    assert calls == {
        # every member runs alone, one run_ppa, run_psg or run_fb each
        "algorithms.run": 27,
        # one schedule step per member and step
        "algorithms.schedule_step": 2226,
        # a step asks the oracle's slope, which the tracer does not wrap
        "oracles.subgrad": 0,
        # a step asks the oracle's own feasible_range, which the tracer does
        # not wrap
        "oracles.feasible_range": 0,
        # a run checks its start with oracles._point and evaluates every
        # record through the value methods, neither of which the tracer wraps
        "oracles.eval": 0,
        # one projection per psg member and step
        "oracles.project": 1587,
        # one prox per ppa or fb member and step: the 404 ppa-absq and 235
        # fb-hessian steps
        "prox.closed": 639,
        # one auto_eigen solve per sweep, not per member
        "reference.eig_sym": 5,
    }
    # every member's records after its start
    assert tracer.extra["algorithms.iters"] == 2226


def test_verify_call_counts(tracing, monkeypatch):
    # the row sampler, which the tracer does not wrap, counted here
    rows = {"calls": 0, "rows": 0, "points": 0}
    inner = absprox.reference.subgrad_inequality_rows

    def counted(f, x, *args, **kwargs):
        rep = inner(f, x, *args, **kwargs)
        rows["calls"] += 1
        rows["rows"] += len(x)
        rows["points"] += len(x) * rep["num_points"]
        return rep

    for module in (absprox.reference, absprox.checks):
        monkeypatch.setattr(module, "subgrad_inequality_rows", counted)
    with tracing.Tracer() as tracer:
        verify_results()
    calls = {key: tracer.calls[key] for key in (
        "rng.uniform_vector", "reference.sampler", "reference.grid_argmin",
        "reference.eig_sym", "prox.closed", "phi.duality")}
    assert calls == {
        # one block each for the closed-form prox, the certificate cases of
        # each of the 3 oracles and the duality cases; the samplers draw
        # their lanes through rng.uniform_streams, which the tracer does
        # not wrap
        "rng.uniform_vector": 5,
        # the below-threshold control; the 75 certificates go to the row
        # sampler, one call per oracle
        "reference.sampler": 1,
        # the 1000 brute-force argmins are one block call
        "reference.grid_argmin": 1,
        "reference.eig_sym": 2,
        "prox.closed": 1000,
        # the tracer wraps only the point maps; the 25 NormSquare
        # certificate slopes and the round trip's 1000 cases go through the
        # row functions duality_slopes and duality_preimages, which it does not
        "phi.duality": 0,
    }
    # the control's 10,000 draws and 6 extreme points
    assert tracer.extra["reference.sampler_points"] == 10_006
    # 3 certificate calls and the control's one-row call check the 76 rows
    # and 25,306 points that 76 one-row calls checked
    assert rows == {"calls": 4, "rows": 76, "points": 25_306}


def test_quad_dim_call_counts(tracing, tmp_path):
    workloads = _load(BENCH / "workloads.py", "absprox_bench_workloads")
    unit = workloads.QuadDim(seed=4, tmp_dir=str(tmp_path))
    inp = unit.inputs(0)
    with tracing.Tracer() as tracer:
        out = unit.run(inp)
    assert unit.check(inp, out) == (True, 603, "")
    calls = {key: tracer.calls[key] for key in (
        "algorithms.run", "algorithms.schedule_step", "oracles.project", "oracles.eval",
        "oracles.feasible_range", "oracles.subgrad", "diagnostics.check_fejer",
        "oracles.construct.n8", "oracles.construct.n32", "oracles.construct.n64")}
    assert calls == {
        # one 200-step psg run per n = 8, 32, 64
        "algorithms.run": 3,
        "algorithms.schedule_step": 600,
        "oracles.project": 600,
        # each run checks its start with oracles._point, which the tracer
        # does not wrap
        "oracles.eval": 0,
        # each psg allowance checks its queried rows as one block, and the
        # block passes, so no row falls back to subgrad_at
        "oracles.feasible_range": 3,
        "oracles.subgrad": 0,
        "diagnostics.check_fejer": 3,
        # one eigensolve per n
        "oracles.construct.n8": 1,
        "oracles.construct.n32": 1,
        "oracles.construct.n64": 1,
    }
    assert tracer.extra["algorithms.iters"] == 600


def test_run_offers_what_the_bench_reads():
    # bench/test_bench.py, outside tier-1, compares runs row by row, dumps
    # record counts to JSON, perturbs a stored iterate, and compares reports
    f = QuadraticForm(Q3)

    def run():
        return run_psg(f, Ball(np.zeros(3), 1.0), [0.3, -0.2, 0.1],
                       PsgAdaptiveV2(gamma0=1.0, a0=5.0, epsilon=1.0), 20)

    def rows(res):
        return [(r.n, r.gamma_n, r.a_n, r.a_fn, r.x_n.tobytes(), r.f_xn, r.step_norm,
                 r.fejer, r.stopped_by) for r in res.records]

    first, second = run(), run()
    assert np.isnan(first.records[0].fejer) and np.isnan(first.final.a_fn)
    assert rows(first) == rows(second)  # NaN fields included
    assert json.loads(json.dumps([r.n for r in first.records])) == list(range(21))
    moved = first.records[2].x_n + 1e-4
    first.records[2].x_n = moved
    assert first.records[2].x_n is moved
    # an array field would make == raise instead of answering
    anchor = np.ones(3) / np.sqrt(3.0)
    assert vars(check_fejer(second.records, anchor, "psg", f=f)) == vars(
        check_fejer(second.records, anchor, "psg", f=f))
