"""One sha256 over every record of a fixed set of runs.

Not a test module (pytest collects only ``test_*.py``), so it adds no test
time.  Run it against two checkouts; a change that keeps every iterate's
bits prints the same digest on both::

    PYTHONPATH=<old>/src python tests/record_digest.py
    PYTHONPATH=<new>/src python tests/record_digest.py

The runs, in this order:

- the 27 members of the 7 bundled sweeps, Fejér column filled against the
  sweep's reference as ``reproduce`` fills it;
- seeded projected-subgradient runs (``PsgAdaptiveV2``, N = 200) on random
  indefinite quadratics over the unit ball, at n = 8, 32 and 64;
- seeded proximal-point runs (``PpaAdditive``) on the weakly convex black box
  g(x) = sum(cos x_i) + 0.05 ||x||^2 in 1-D and 2-D, whose every step goes
  through the inner solver.

Each record adds ``n``, ``gamma_n``, ``a_n``, ``a_fn``, the bytes of
``x_n``, ``f_xn``, ``step_norm``, ``fejer`` and ``stopped_by`` to the hash.
The script prints one line per group (``sweeps``, ``quad``, ``black-box``),
with that group's own digest, then the digest over all the runs; each line
gives its number of runs and records.  A change that moves one group's bits
then shows which.
"""

from __future__ import annotations

import hashlib
import struct
import sys

import numpy as np

import absprox
from absprox.experiments import EXPERIMENTS, run_named_experiment

SEEDS = range(4)
QUAD_DIMS = (8, 32, 64)


def _quad_runs(seed: int):
    rng = np.random.default_rng(seed)
    for n in QUAD_DIMS:
        v, _ = np.linalg.qr(rng.standard_normal((n, n)))
        lam = np.concatenate([[-1.0 - 0.5 * rng.random()], rng.uniform(-0.5, 1.0, n - 1)])
        q = (v * lam) @ v.T
        q = 0.5 * (q + q.T)
        x0 = rng.standard_normal(n)
        x0 *= rng.uniform(0.2, 0.9) / np.linalg.norm(x0)
        sched = absprox.PsgAdaptiveV2(gamma0=1.0, a0=abs(lam[0]) + 1.0, epsilon=1.0)
        yield absprox.run_psg(absprox.QuadraticForm(q), absprox.Ball(np.zeros(n), 1.0), x0,
                              sched, 200)


def _black_box_runs(seed: int):
    rng = np.random.default_rng([seed, 1])
    for dim in (1, 2):
        g = absprox.SmoothBlackBox(value=lambda x: float(np.sum(np.cos(x)) + 0.05 * float(x @ x)),
                                   gradient=lambda x: -np.sin(x) + 0.1 * x,
                                   kappa=lambda x: 1.0, eps=1e-3, dim=dim)
        x0 = rng.uniform(-6.0, 6.0, dim)
        yield absprox.run_ppa(g, x0, absprox.PpaAdditive(0.5, 6.0, delta=-2.0), 3)


def runs():
    """(group, result) for every run, in the order above."""
    for name in EXPERIMENTS:
        yield from (("sweeps", run.result) for _, run in run_named_experiment(name))
    for seed in SEEDS:
        yield from (("quad", result) for result in _quad_runs(seed))
    for seed in SEEDS:
        yield from (("black-box", result) for result in _black_box_runs(seed))


def _record_bytes(r) -> bytes:
    x = np.ascontiguousarray(r.x_n, dtype="<f8")
    return b"".join([struct.pack("<q3dq", r.n, r.gamma_n, r.a_n, r.a_fn, x.size), x.tobytes(),
                     struct.pack("<3d", r.f_xn, r.step_norm, r.fejer),
                     repr(r.stopped_by).encode("utf-8") + b"\n"])


def main() -> int:
    total, groups = [hashlib.sha256(), 0, 0], {}  # [sha256, runs, records]
    for group, result in runs():
        data = b"".join(_record_bytes(r) for r in result.records)
        for tally in (groups.setdefault(group, [hashlib.sha256(), 0, 0]), total):
            tally[0].update(data)
            tally[1] += 1
            tally[2] += len(result.records)
    for group, (h, count, records) in [*groups.items(), (None, total)]:
        name = f"{group}: " if group else ""
        print(f"{h.hexdigest()}  {name}{count} runs, {records} records")
    return 0


if __name__ == "__main__":
    sys.exit(main())
