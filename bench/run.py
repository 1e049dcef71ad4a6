"""absprox benchmark: one workload, end-to-end (``--trace 0``) or per layer (``--trace 1``).

    python3 bench/run.py --workload sweeps --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py`` and ``NOTES.md``): ``sweeps``, ``verify``,
``quad-dim``, ``inner-prox``.  Run from the repository root; the library is
imported from ``src/`` beside this directory, never from an installed copy.

Each run starts its worker processes with one BLAS thread.  ``--trace 0``
starts ``SETUP_PROBES`` processes that only set up (their median time from
process start to ready is ``setup_s``), then one process that times units
for ``--seconds``.  ``--trace 1`` times half the units untraced and half
with spans around every public library function, and reports the
per-layer figures.  All reported times are reference seconds: wall time
scaled by the calibration kernel in ``worker.py``, measured around each
unit and each set-up, so that drift in the speed of a shared host cancels.
Raw wall-clock medians are printed beside them.  Every unit's output is checked; the last line of
stdout is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 1 if any check failed, 2 if the benchmark
could not run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import statistics
import subprocess
import sys
from time import perf_counter

from worker import calibration_time, reference_factor

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOAD_NAMES = ("sweeps", "verify", "quad-dim", "inner-prox")
SETUP_PROBES = 7
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
# the whole run, probes included, must end within 180 s
TIMEOUT_S = 170

END_TO_END = [
    ("setup_s", "s"),
    ("unit_s.p50", "s"),
    ("unit_s.tail", "s"),
    ("records_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]

# (metric, unit, source, span key or figure).  Sources: "calls" and "self"
# read spans (summed over keys equal to the key or below it, "key.sub"),
# "extra" reads figures counted by hooks and workloads, "ratio" divides two
# metrics already computed.
PER_LAYER = [
    ("algorithms.runs", "count", "calls", "algorithms.run"),
    ("algorithms.iters", "count", "extra", "algorithms.iters"),
    ("algorithms.self_s", "s", "self", "algorithms.run"),
    ("algorithms.self_us_per_iter", "us", "ratio", ("algorithms.self_s", "algorithms.iters", 1e6)),
    ("algorithms.schedule_step_calls", "count", "calls", "algorithms.schedule_step"),
    ("algorithms.schedule_step_s", "s", "self", "algorithms.schedule_step"),
    ("algorithms.iters_to_tol.n8", "count", "extra", "algorithms.iters_to_tol.n8"),
    ("algorithms.iters_to_tol.n32", "count", "extra", "algorithms.iters_to_tol.n32"),
    ("algorithms.iters_to_tol.n64", "count", "extra", "algorithms.iters_to_tol.n64"),
    ("oracles.construct_calls", "count", "calls", "oracles.construct"),
    ("oracles.construct_s", "s", "self", "oracles.construct"),
    ("oracles.construct_s.n8", "s", "self", "oracles.construct.n8"),
    ("oracles.construct_s.n32", "s", "self", "oracles.construct.n32"),
    ("oracles.construct_s.n64", "s", "self", "oracles.construct.n64"),
    ("oracles.subgrad_calls", "count", "calls", "oracles.subgrad"),
    ("oracles.subgrad_s", "s", "self", "oracles.subgrad"),
    ("oracles.feasible_range_calls", "count", "calls", "oracles.feasible_range"),
    ("oracles.feasible_range_s", "s", "self", "oracles.feasible_range"),
    ("oracles.eval_calls", "count", "calls", "oracles.eval"),
    ("oracles.eval_s", "s", "self", "oracles.eval"),
    ("oracles.project_calls", "count", "calls", "oracles.project"),
    ("oracles.project_s", "s", "self", "oracles.project"),
    ("prox.closed_calls", "count", "calls", "prox.closed"),
    ("prox.closed_s", "s", "self", "prox.closed"),
    ("prox.inner_calls", "count", "calls", "prox.inner"),
    ("prox.inner_s", "s", "self", "prox.inner"),
    ("prox.inner_fevals", "count", "extra", "prox.inner_fevals"),
    ("prox.inner_fevals_per_call", "count", "ratio", ("prox.inner_fevals", "prox.inner_calls", 1.0)),
    ("prox.inner_residual_max", "1", "extra", "prox.inner_residual_max"),
    ("reference.eig_sym_calls", "count", "calls", "reference.eig_sym"),
    ("reference.eig_sym_s", "s", "self", "reference.eig_sym"),
    ("reference.sampler_calls", "count", "calls", "reference.sampler"),
    ("reference.sampler_points", "count", "extra", "reference.sampler_points"),
    ("reference.sampler_s", "s", "self", "reference.sampler"),
    ("reference.grid_argmin_calls", "count", "calls", "reference.grid_argmin"),
    ("reference.grid_argmin_s", "s", "self", "reference.grid_argmin"),
    ("reference.golden_calls", "count", "calls", "reference.golden"),
    ("reference.golden_s", "s", "self", "reference.golden"),
    ("reference.fd_gradient_calls", "count", "calls", "reference.fd_gradient"),
    ("reference.fd_gradient_s", "s", "self", "reference.fd_gradient"),
    ("rng.uniform_vector_calls", "count", "calls", "rng.uniform_vector"),
    ("rng.uniform_vector_s", "s", "self", "rng.uniform_vector"),
    ("diagnostics.check_fejer_calls", "count", "calls", "diagnostics.check_fejer"),
    ("diagnostics.check_fejer_s", "s", "self", "diagnostics.check_fejer"),
    ("config.parse_calls", "count", "calls", "config.parse"),
    ("config.parse_s", "s", "self", "config.parse"),
    ("experiments.run_config_s", "s", "self", "experiments.run_config"),
    ("experiments.write_csv_calls", "count", "calls", "experiments.write_csv"),
    ("experiments.write_csv_s", "s", "self", "experiments.write_csv"),
    ("experiments.csv_bytes", "bytes", "extra", "experiments.csv_bytes"),
    ("phi.duality_calls", "count", "calls", "phi.duality"),
    ("phi.duality_s", "s", "self", "phi.duality"),
    ("cli.verify_s", "s", "self", "cli.verify"),
    ("trace_overhead", "ratio", "overhead", None),
]


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def tail(times):
    """(value, rank, count): the highest rank with at least 10 units above it.

    With fewer than 20 units that rank would fall below the median: no tail
    is measurable, and the median rank is reported in its place (a maximum
    of so few units would be noise).  The printed rank says which.
    """
    ordered = sorted(times)
    n = len(ordered)
    rank = n - 10 if n >= 20 else (n + 1) // 2
    return ordered[rank - 1], rank, n


def _under(table, key):
    return sum(v for k, v in table.items() if k == key or k.startswith(key + "."))


def layer_metrics(traced, untraced_times):
    """Per-layer metrics from the traced units.

    Counts come from the first traced unit, whose inputs depend only on the
    seed, so they repeat exactly; self times are medians over traced units.
    """
    layers = traced["layers"]
    if not layers:
        raise BenchError("no traced unit completed")
    first = layers[0]
    values = {}
    for name, _unit, source, key in PER_LAYER:
        if source == "calls":
            values[name] = _under(first["calls"], key)
        elif source == "extra":
            values[name] = first["extra"].get(key, 0)
        elif source == "self":
            values[name] = statistics.median(u["factor"] * _under(u["self_s"], key)
                                             for u in layers)
        elif source == "ratio":
            num, den, scale = key
            values[name] = scale * values[num] / values[den] if values[den] else 0
        else:
            values[name] = (statistics.median(reference_times(traced))
                            / statistics.median(untraced_times))
    return values


def reference_times(phase):
    return [t * f for t, f in zip(phase["times"], phase["factors"])]


def end_to_end_metrics(setup_times, untraced, peak_rss_kb):
    times = reference_times(untraced)
    return {
        "setup_s": statistics.median(setup_times),
        "unit_s.p50": statistics.median(times),
        "unit_s.tail": tail(times)[0],
        "records_per_s": sum(untraced["records"]) / sum(times),
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }


def _read_text(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return None


def git_commit():
    """HEAD from .git without running git; "unknown" outside a git checkout."""
    head = _read_text(os.path.join(ROOT, ".git", "HEAD"))
    if head is None:
        return "unknown"
    head = head.strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    direct = _read_text(os.path.join(ROOT, ".git", ref))
    if direct is not None:
        return direct.strip()
    for line in (_read_text(os.path.join(ROOT, ".git", "packed-refs")) or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def source_digest():
    """SHA-256 over the library's source files, for checkouts without git."""
    digest = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "absprox")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def machine_info():
    """CPU count, model and cgroup CPU quota, read from /proc and /sys."""
    model = "unknown"
    for line in (_read_text("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    quota = (_read_text("/sys/fs/cgroup/cpu.max") or "").strip()
    if not quota:
        q = _read_text("/sys/fs/cgroup/cpu/cpu.cfs_quota_us")
        p = _read_text("/sys/fs/cgroup/cpu/cpu.cfs_period_us")
        quota = f"{q.strip()} {p.strip()}" if q and p else "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "cgroup_cpu_quota": quota,
    }


def _worker_cmd(args, *extra):
    return [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]


def _worker_env():
    return {**os.environ, **PINNED_ENV}


def _stop(proc):
    """Kill the process if it still runs, wait until it has ended, close its pipe."""
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    proc.stdout.close()


def setup_probe(args, deadline):
    """Reference seconds from starting a worker process until it reports ready."""
    cal_before = calibration_time()
    t0 = perf_counter()
    proc = subprocess.Popen(_worker_cmd(args, "--setup-only"), cwd=ROOT,
                            env=_worker_env(), stdout=subprocess.PIPE, text=True)
    try:
        if not select.select([proc.stdout], [], [], max(0.0, deadline - perf_counter()))[0]:
            raise BenchError("set-up probe did not report ready in time")
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        code = proc.wait(timeout=max(0.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchError("set-up probe did not exit in time") from None
    finally:
        _stop(proc)
    if line.strip() != "ready" or code != 0:
        raise BenchError(f"set-up probe failed with exit code {code}")
    return elapsed * reference_factor(cal_before, calibration_time())


def run_worker(args, deadline):
    proc = subprocess.Popen(_worker_cmd(args), cwd=ROOT, env=_worker_env(),
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(0.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker did not finish within {TIMEOUT_S} s") from None
    finally:
        _stop(proc)
    lines = out.splitlines()
    if proc.returncode != 0 or len(lines) < 2 or lines[0] != "ready":
        raise BenchError(f"worker failed with exit code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "absprox", "__init__.py")):
        print(f"bench: no absprox sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    deadline = perf_counter() + TIMEOUT_S
    try:
        setup_times = [] if args.trace else [setup_probe(args, deadline)
                                             for _ in range(SETUP_PROBES)]
        raw = run_worker(args, deadline)
        untraced = raw["untraced"]
        phases = [untraced]
        if args.trace:
            phases.append(raw["traced"])
            metrics = layer_metrics(raw["traced"], reference_times(untraced))
            units = {name: unit for name, unit, *_ in PER_LAYER}
        else:
            metrics = end_to_end_metrics(setup_times, untraced, raw["peak_rss_kb"])
            units = dict(END_TO_END)
    except BenchError as e:
        print(f"bench: {e}", file=sys.stderr)
        return 2

    env = {**raw["env"], **machine_info(), "workload": args.workload, "seed": args.seed,
           "seconds": args.seconds, "trace": args.trace, "git_commit": git_commit(),
           "source_sha256": source_digest()}
    print("env " + json.dumps(env, sort_keys=True))
    attempted = sum(len(p["times"]) for p in phases)
    failures = [f for p in phases for f in p["failures"]]
    for failure in failures:
        print(f"FAILED {failure}")
    print(f"units attempted = {attempted}, failed = {len(failures)}, "
          f"fail_frac = {len(failures) / attempted!r}")
    if args.trace:
        absent = [name for name, *_ in PER_LAYER if metrics[name] == 0]
        if absent:
            print(f"absent on {args.workload} (layer not exercised, reported as 0): "
                  + ", ".join(absent))
    else:
        _, rank, count = tail(reference_times(untraced))
        print(f"wall-clock unit_s.p50 = {statistics.median(untraced['times'])!r} s, "
              f"median reference factor = {statistics.median(untraced['factors'])!r}")
        print(f"unit_s.tail is rank {rank} of {count} units "
              f"(p{100.0 * rank / count:.1f}, {count - rank} beyond"
              f"{'' if count >= 20 else '; fewer than 20 units, so the median rank'})")
        print(f"setup_s is the median of {len(setup_times)} set-ups: "
              + ", ".join(f"{t:.4f}" for t in setup_times))
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units[name]}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
