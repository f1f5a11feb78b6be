"""Regenerate the reference medians, quartiles and per-layer figures.

    python3 bench/baseline.py

Runs ``run.py`` with seeds 1 to 10 on each workload with tracing off,
then once with tracing on (seed 1), one run at a time, each for the
``run_seconds`` of BENCHMARK.json.  Prints, per end-to-end metric, the
median, the first and third quartiles as ``statistics.quantiles(values,
n=4)`` gives them, and their distance as a share of the median; then
every per-layer metric of the traced run.  The figures are also written
to ``bench/results/baseline.json``.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]

    figures = {}
    for workload in WORKLOADS:
        runs = [run(workload, seed, seconds, 0) for seed in SEEDS]
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"{workload}: correct {all(r['correct'] for r in runs)}, failed shares {sorted(shares)}")
        figures[workload] = {"runs": runs}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            print(f"  {name:12s} median {med:.4g}  quartiles {q1:.4g} .. {q3:.4g}  spread {(q3 - q1) / med:.3f}")
        traced = run(workload, 1, seconds, 1)
        figures[workload]["traced"] = traced
        for name, metric in traced["metrics"].items():
            print(f"  {name:28s} {metric['value']:.6g} {metric['unit']}")
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    with open(os.path.join(HERE, "results", "baseline.json"), "w", encoding="utf-8") as fh:
        json.dump(figures, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
