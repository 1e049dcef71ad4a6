"""One benchmark process: set up a workload, then time its units.

Started by ``run.py`` with the BLAS thread count pinned in its environment.
Prints ``ready`` once set-up (imports, input generation, warm-up) is done;
with ``--setup-only`` it exits there.  Otherwise it times units for
``--seconds`` and prints one JSON line with the raw figures, which
``run.py`` turns into metrics.  With ``--trace 1`` the time is split: the
first half runs untraced, the second half with the tracing wrappers.

Every unit is bracketed by the fixed :func:`calibration_kernel`.  The host
this was written on shares its cores with other tenants, and its speed
drifts by up to 60 % over minutes, the same for wall-clock and CPU time.
A unit's *reference time* is its wall time scaled by ``CAL_REF_S`` over
the kernel's mean time just before and just after the unit, i.e. the
unit's time on a host where the kernel takes ``CAL_REF_S``.  In trials
over five seeds that cut the spread of the median unit time from 7-38 %
to 2-4 % on ``sweeps`` and from 17 % to 6-10 % on ``verify``, whose long
units the brackets sample less well.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import sys
import tempfile
import traceback
import warnings
from time import perf_counter

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TMP_ROOT = os.path.join(ROOT, ".bench_tmp")
# traced units draw inputs from their own index range, so a cache filled by
# the untraced half cannot speed up the traced half
TRACED_FIRST_UNIT = 1 << 20
# calibration_kernel time on a lightly loaded Intel Xeon KVM guest with 2 vCPUs
CAL_REF_S = 0.007
# a bracket after a unit lasts about CAL_SHARE of it, within these repeats
CAL_SHARE = 0.015
CAL_MAX_REPEATS = 16


_CAL_Q = np.array([[4.0, 1.0, 2.0], [1.0, 3.0, 0.5], [2.0, 0.5, 1.0]])


def calibration_kernel():
    """Fixed work shaped like the library's: 25 cyclic Jacobi solves of one 3x3 matrix.

    Small numpy calls under Python control flow, as in ``reference.eig_sym``
    and the iteration drivers, but a frozen copy in the benchmark, so that a
    change to the library never changes the kernel.
    """
    s = 0.0
    for _ in range(25):
        a = _CAL_Q.copy()
        s += float(np.allclose(a, a.T))
        for _sweep in range(8):
            if np.sqrt(np.sum(np.tril(a, -1) ** 2) * 2.0) <= 1e-12:
                break
            for p in range(2):
                for r in range(p + 1, 3):
                    theta = 0.5 * np.arctan2(2.0 * a[p, r], a[r, r] - a[p, p])
                    c, sn = np.cos(theta), np.sin(theta)
                    rot = np.eye(3)
                    rot[p, p] = rot[r, r] = c
                    rot[p, r], rot[r, p] = sn, -sn
                    a = rot.T @ a @ rot
        w = np.diag(a).copy()
        s += float(w[np.argsort(w)][0])
    return s


def calibration_time(repeats=1):
    """Mean seconds of ``repeats`` back-to-back kernel runs."""
    t0 = perf_counter()
    for _ in range(repeats):
        calibration_kernel()
    return (perf_counter() - t0) / repeats


def reference_factor(cal_before, cal_after):
    """Scale from wall seconds to reference seconds for the bracketed interval."""
    return CAL_REF_S / (0.5 * (cal_before + cal_after))


def measure(wl, seconds, first_unit, violation, tracer=None):
    """Run units until ``seconds`` have passed (at least one unit)."""
    times, factors, records, failures, layers = [], [], [], [], []
    deadline = perf_counter() + seconds
    k = first_unit
    cal_before = calibration_time()
    while not times or perf_counter() < deadline:
        inp = wl.inputs(k)
        if tracer is not None:
            tracer.reset()
        gc.collect()
        error = None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t0 = perf_counter()
            try:
                out = wl.run(inp)
            except Exception:  # a unit that raises is counted as failed
                error = traceback.format_exc(limit=4)
            dt = perf_counter() - t0
        # brackets of long units sample a longer stretch of the host's speed
        repeats = max(1, min(CAL_MAX_REPEATS, round(CAL_SHARE * dt / CAL_REF_S)))
        cal_after = calibration_time(repeats)
        times.append(dt)
        factors.append(reference_factor(cal_before, cal_after))
        cal_before = cal_after
        if error is not None:
            ok, nrec, detail = False, 0, error
        else:
            if tracer is not None:
                layers.append({"calls": dict(tracer.calls), "self_s": dict(tracer.self_s),
                               "extra": {**tracer.extra, **wl.layer_extras(inp, out)},
                               "factor": factors[-1]})
            ok, nrec, detail = wl.check(inp, out)
            flagged = [str(w.message) for w in caught if issubclass(w.category, violation)]
            if ok and flagged:
                ok, detail = False, f"TheoremViolationWarning: {flagged[0]}"
        records.append(nrec if ok else 0)
        if not ok:
            failures.append(f"unit {k}: {detail}")
        k += 1
    return {"times": times, "factors": factors, "records": records, "failures": failures,
            "layers": layers}


def env_info():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads_pinned": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "absprox", "__init__.py")):
        print(f"bench: no absprox sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import absprox
    if not os.path.abspath(absprox.__file__).startswith(SRC + os.sep):
        print(f"bench: imported absprox from {absprox.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    from tracing import Tracer
    from workloads import WORKLOADS

    os.makedirs(TMP_ROOT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP_ROOT)
    try:
        wl = WORKLOADS[args.workload](args.seed, tmp)
        wl.warm_up()
        print("ready", flush=True)
        if args.setup_only:
            return 0
        violation = absprox.TheoremViolationWarning
        result = {"env": env_info()}
        if args.trace:
            half = args.seconds / 2.0
            result["untraced"] = measure(wl, half, 0, violation)
            with Tracer() as tracer:
                result["traced"] = measure(wl, half, TRACED_FIRST_UNIT, violation, tracer)
        else:
            result["untraced"] = measure(wl, args.seconds, 0, violation)
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(TMP_ROOT)
        except OSError:
            pass  # another worker still uses it


if __name__ == "__main__":
    sys.exit(main())
