"""The four benchmark workloads.

Each workload makes its inputs from the seed, runs one *unit* of library
work, and checks the unit's output.  Units call the library through
attributes of the ``absprox`` package looked up at call time (``absprox.run_psg``,
not a name imported once), so that a traced run sees the wrappers that
:mod:`tracing` installs.  Input generation and output checks run outside
the timed region.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os

import numpy as np

import absprox
import absprox.cli

HERE = os.path.dirname(os.path.abspath(__file__))

# quad-dim: dimensions, fixed psg horizon, and the accuracy gate on f(x_N)
QUAD_DIMS = (8, 32, 64)
QUAD_ITERS = 200
QUAD_TOL = 1e-8

# inner-prox: prox weights w = 1/(2 gamma0) + a_n run 7, 5, 3.  g'' lies in
# [-0.9, 1.1], so every regularized inner problem is strongly convex and its
# argmin unique.  The weights keep the Hessian's eigenvalues 2w + g'' clear
# of 2, 4, 8 and 16: the 2-D inner solver's backtracking halves from step 1,
# and an eigenvalue at 2/step stalls it unconverged and unflagged (see
# test_inner_solver_stalls_at_a_resonant_weight).
PPA_GAMMA0 = 0.5
PPA_A0 = 6.0
PPA_DELTA = -2.0
PPA_STEPS = 3
PPA_KAPPA = 1.0
PPA_EPS = 1e-3
# worst residual seen while choosing these settings was below 1e-7
RESIDUAL_TOL = 1e-5
# x0 is uniform on [-6, 6]^d, stratified: unit k draws from cell k mod
# CELLS^d of a CELLS-per-axis grid.  Unit cost varies sixfold with x0, and
# without strata the mean over one run varied by 11 % between seeds.
PPA_BOX = 6.0
PPA_CELLS = 6


class Workload:
    """One unit of work: ``inputs(k)`` -> ``run(inp)`` -> ``check(inp, out)``.

    ``check`` returns ``(ok, records, detail)``; ``records`` is the number of
    recorded iterations the unit produced.  ``layer_extras(inp, out)`` gives
    per-layer figures that come from outputs rather than from spans.
    """

    name = ""

    def __init__(self, seed: int, tmp_dir: str):
        self.seed = seed
        self.tmp_dir = tmp_dir

    def warm_up(self):
        out = self.run(self.inputs(0))
        ok, _, detail = self.check(self.inputs(0), out)
        if not ok:
            raise RuntimeError(f"{self.name}: warm-up output failed its check: {detail}")

    def inputs(self, k: int):
        return None

    def run(self, inp):
        raise NotImplementedError

    def check(self, inp, out):
        raise NotImplementedError

    def layer_extras(self, inp, out) -> dict:
        return {}


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Sweeps(Workload):
    """All 7 bundled experiments (27 runs) with their CSVs.  Takes no seed."""

    name = "sweeps"

    def __init__(self, seed, tmp_dir):
        super().__init__(seed, tmp_dir)
        with open(os.path.join(HERE, "sweeps_sha256.json"), encoding="utf-8") as fh:
            self.digests = json.load(fh)
        self.out_dir = os.path.join(tmp_dir, "sweeps")
        os.makedirs(self.out_dir, exist_ok=True)

    def warm_up(self):
        # one experiment: loads the config parser, the iterations and CSV writing
        self.inputs(0)
        absprox.run_named_experiment("ppa-absq", out_dir=self.out_dir)

    def inputs(self, k):
        # a unit must write every CSV itself; stale files would pass the check
        for name in os.listdir(self.out_dir):
            os.remove(os.path.join(self.out_dir, name))
        return None

    def run(self, inp):
        return [absprox.run_named_experiment(name, out_dir=self.out_dir)
                for name in absprox.EXPERIMENTS]

    def check(self, inp, out):
        records = sum(len(run.result.records) for runs in out for _, run in runs)
        written = sorted(os.listdir(self.out_dir))
        if written != sorted(self.digests):
            return False, records, f"CSV set differs: {written}"
        bad = [name for name in written
               if sha256_file(os.path.join(self.out_dir, name)) != self.digests[name]]
        if bad:
            return False, records, f"SHA-256 mismatch: {bad}"
        return True, records, ""

    def layer_extras(self, inp, out):
        size = sum(os.path.getsize(os.path.join(self.out_dir, name))
                   for name in os.listdir(self.out_dir))
        return {"experiments.csv_bytes": size}


VERIFY_PASSED = "7/7 checks passed"


class Verify(Workload):
    """``absprox verify`` with stdout captured.  Takes no seed."""

    name = "verify"

    def warm_up(self):
        # the verify kernels on tiny inputs: one eigensolve, sampler, grid argmin
        q = np.array([[-2.0, 2, 2], [2, 2, -2], [2, -2, 2]])
        absprox.reference.eig_sym(q)
        f = absprox.QuadraticForm(q)
        x = np.ones(3)
        el = absprox.subgrad_at(f, x, 4.0)
        absprox.reference.subgrad_inequality_sampler(
            lambda y: absprox.eval_oracle(f, y), x, el.a, el.u, num=10)
        absprox.reference.grid_argmin_1d(lambda z: np.abs(z) + z * z, -1.0, 1.0)

    def run(self, inp):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = absprox.cli.main(["verify"])
        return code, buf.getvalue()

    def check(self, inp, out):
        code, text = out
        lines = text.splitlines()
        checks = sum(1 for line in lines if line.startswith(("ok ", "FAIL ")))
        if code != 0 or VERIFY_PASSED not in lines:
            return False, checks, f"exit {code}, last line {lines[-1:]}"
        return True, checks, ""


def quad_problem(rng: np.random.Generator, n: int):
    """A symmetric indefinite Q with lambda_min <= -1 < -0.5 <= the rest.

    The spectral gap keeps psg convergence within a few dozen iterations.
    Returns (q, x0 inside the unit ball, lambda_min, its unit eigenvector),
    the last two from numpy.linalg.eigh, independent of the library.
    """
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = np.concatenate([[-1.0 - 0.5 * rng.random()], rng.uniform(-0.5, 1.0, n - 1)])
    q = (v * lam) @ v.T
    q = 0.5 * (q + q.T)
    w, vecs = np.linalg.eigh(q)
    x0 = rng.standard_normal(n)
    x0 *= rng.uniform(0.2, 0.9) / np.linalg.norm(x0)
    return q, x0, float(w[0]), vecs[:, 0]


class QuadDim(Workload):
    """Indefinite quadratic over the unit ball at n = 8, 32, 64."""

    name = "quad-dim"

    def warm_up(self):
        rng = np.random.default_rng([self.seed, 1 << 30])
        self._solve([quad_problem(rng, 4)], iters=5)

    def inputs(self, k):
        rng = np.random.default_rng([self.seed, k])
        return [quad_problem(rng, n) for n in QUAD_DIMS]

    @staticmethod
    def _solve(problems, iters):
        out = []
        for q, x0, lam, vec in problems:
            n = q.shape[0]
            f = absprox.QuadraticForm(q)
            sched = absprox.PsgAdaptiveV2(gamma0=1.0, a0=abs(lam) + 1.0, epsilon=1.0)
            res = absprox.run_psg(f, absprox.Ball(np.zeros(n), 1.0), x0, sched, iters)
            x_star = vec if float(vec @ res.final.x_n) >= 0.0 else -vec
            report = absprox.check_fejer(res.records, x_star, "psg", f)
            out.append((res, report))
        return out

    def run(self, inp):
        return self._solve(inp, QUAD_ITERS)

    def check(self, inp, out):
        records = sum(len(res.records) for res, _ in out)
        for (q, _, lam, _), (res, report) in zip(inp, out):
            x = res.final.x_n
            gap = abs(float(x @ q @ x) - lam)
            if gap > QUAD_TOL * max(1.0, abs(lam)):
                return False, records, f"n={q.shape[0]}: |f(x_N) - lambda_min| = {gap:.3g}"
            if not report.fejer_monotone:
                return False, records, f"n={q.shape[0]}: not Fejer monotone"
        return True, records, ""

    def layer_extras(self, inp, out):
        extras = {}
        for (q, _, lam, _), (res, _) in zip(inp, out):
            tol = QUAD_TOL * max(1.0, abs(lam))
            first = next((r.n for r in res.records
                          if abs(float(r.x_n @ q @ r.x_n) - lam) <= tol), len(res.records))
            extras[f"algorithms.iters_to_tol.n{q.shape[0]}"] = first
        return extras


class InnerProx(Workload):
    """Proximal point on a caller-supplied weakly convex black box, 1-D and 2-D.

    g(x) = sum(cos x_i) + 0.05 ||x||^2 with kappa = 1: every step goes through
    the library's inner solver.  The callback counts its own evaluations.
    """

    name = "inner-prox"

    def __init__(self, seed, tmp_dir):
        super().__init__(seed, tmp_dir)
        self.fevals = 0

    def _value(self, x):
        self.fevals += 1
        return float(np.sum(np.cos(x)) + 0.05 * float(x @ x))

    @staticmethod
    def gradient(x):
        return -np.sin(x) + 0.1 * x

    def inputs(self, k):
        self.fevals = 0
        rng = np.random.default_rng([self.seed, k])
        width = 2.0 * PPA_BOX / PPA_CELLS
        out = []
        for dim in (1, 2):
            cell = np.unravel_index(k % PPA_CELLS**dim, (PPA_CELLS,) * dim)
            out.append(-PPA_BOX + width * (np.array(cell) + rng.random(dim)))
        return out

    def run(self, inp):
        out = []
        for x0 in inp:
            g = absprox.SmoothBlackBox(value=self._value, gradient=self.gradient,
                                       kappa=lambda x: PPA_KAPPA, eps=PPA_EPS,
                                       dim=x0.size)
            sched = absprox.PpaAdditive(PPA_GAMMA0, PPA_A0, delta=PPA_DELTA)
            out.append(absprox.run_ppa(g, x0, sched, PPA_STEPS))
        return out

    @classmethod
    def residuals(cls, res):
        """||grad g(x_{k+1}) + 2 w_k (x_{k+1} - x_k)|| for every step."""
        return [float(np.linalg.norm(cls.gradient(r1.x_n)
                                     + 2.0 * (0.5 / r0.gamma_n + r0.a_n) * (r1.x_n - r0.x_n)))
                for r0, r1 in zip(res.records, res.records[1:])]

    def check(self, inp, out):
        records = sum(len(res.records) for res in out)
        for res in out:
            if len(res.records) != PPA_STEPS + 1:
                return False, records, f"stopped early: {res.terminal}"
            worst = max(self.residuals(res))
            if not worst <= RESIDUAL_TOL:
                return False, records, f"stationarity residual {worst:.3g} > {RESIDUAL_TOL:g}"
        return True, records, ""

    def layer_extras(self, inp, out):
        return {"prox.inner_fevals": self.fevals,
                "prox.inner_residual_max": max(max(self.residuals(res)) for res in out)}


WORKLOADS = {cls.name: cls for cls in (Sweeps, Verify, QuadDim, InnerProx)}
