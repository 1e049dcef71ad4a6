"""Run the benchmark over several seeds and summarize each metric's spread.

    python3 bench/spread.py --workload sweeps --workload verify --seeds 1-10 \
        --seconds 25 --trace 0 --out spread.json

For every workload and metric it reports the median of the per-run values,
the quartiles from ``statistics.quantiles(values, n=4)``, and the
interquartile distance as a share of the median, and the same for the wall
time of each whole run (``run_wall_s``).  Runs go one after another.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the summary JSON here")
    args = parser.parse_args(argv)

    summary = {}
    ok = True
    for workload in args.workload:
        per_metric, run_s = {}, []
        for seed in args.seeds:
            t0 = perf_counter()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, check=False)
            run_s.append(perf_counter() - t0)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                ok = False
                continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            for name, metric in result["metrics"].items():
                per_metric.setdefault(name, []).append(metric["value"])
        summary[workload] = {name: summarize(values)
                             for name, values in per_metric.items() if len(values) >= 2}
        summary[workload]["run_wall_s"] = summarize(run_s)
        for name, s in summary[workload].items():
            print(f"{workload:10s} {name:34s} median {s['median']:.6g} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.4f}", flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
