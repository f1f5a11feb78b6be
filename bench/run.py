"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run it from the root of a checkout; it imports the library from that
checkout's ``src``.  It starts fresh interpreters one after another,
never two at once: one untimed start that fills the file cache, then
half of ``SETUP_SAMPLES`` set-up-only starts, then the worker that also
runs the passes, then the other half.  Each set-up-only start is timed
in wall seconds from launch to its ready line.  ``setup_s`` and
``pass_s`` are in reference seconds (see ``reference_s``): ``setup_s``
is the median over the set-up starts, ``pass_s`` the sum over the
operations of each one's median over the timed passes.  The last line
of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Details and, when traced, the spans go to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
SETUP_SAMPLES = 10
SETUP_LAYERS = ("curve.load_s", "metric.validate_kahler_s")
# worker.probe's time on the reference machine (a 2-core 2.1 GHz Xeon,
# Python 3.11.7) when no other tenant slows its core
PROBE_REF_S = 0.0011
TIME_LIMIT_S = 170.0
# The worker's environment is part of the benchmark: one BLAS thread, so
# dense solves do not depend on the other core's load (see README.md).
ENVIRONMENT = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "PYTHONPATH": SRC,
}


class WorkerError(RuntimeError):
    pass


def start(args, workdir: str, deadline: float, extra: list):
    """Launch a worker; return it, its set-up time and its ready line."""
    env = {k: v for k, v in os.environ.items() if k != "TROP_HODGE_THREADS"}
    env.update(ENVIRONMENT)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir] + extra
    began = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - began
    try:
        return proc, timer, setup_s, json.loads(line)
    except ValueError:
        timer.cancel()
        proc.kill()
        proc.wait()
        raise WorkerError(f"worker exited with code {proc.returncode} before it was ready") from None


def finish(proc, timer) -> str:
    out, _ = proc.communicate()
    timer.cancel()
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    return out


def measure(args, workdir: str, deadline: float) -> dict:
    proc, timer, _, _ = start(args, workdir, deadline, ["--setup-only"])  # untimed: fills the file cache
    finish(proc, timer)
    setups, setup_layers = [], []

    def set_up_samples(count: int) -> None:
        for _ in range(count):
            proc, timer, setup_s, ready = start(args, workdir, deadline, ["--setup-only"])
            finish(proc, timer)
            setups.append(reference_s(setup_s, ready["probe_s"]))
            setup_layers.append({name: ready[name] for name in SETUP_LAYERS})

    # half the set-up starts before the passes and half after, so that
    # their median spans the run rather than the few seconds before it
    set_up_samples(SETUP_SAMPLES // 2)
    proc, timer, _, _ = start(args, workdir, deadline, ["--spans", spans_path(args)] if args.trace else [])
    summary = json.loads(finish(proc, timer).strip().splitlines()[-1])
    set_up_samples(SETUP_SAMPLES - SETUP_SAMPLES // 2)
    summary["setup_s"] = setups
    summary["setup_layers"] = setup_layers
    return summary


def spans_path(args) -> str:
    return os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-spans.json")


def reference_s(wall: float, probes: list) -> float:
    """``wall`` seconds converted to seconds at the reference speed.

    The machine is shared, and other tenants slow its cores by up to 2x
    in phases that last from a fraction of a second to minutes, longer
    than a run.  The probes timed just before and just after the work
    show how fast the core ran meanwhile; the work is scaled by the
    probes' mean against ``PROBE_REF_S``.
    """
    return wall * PROBE_REF_S / statistics.fmean(probes)


def op_reference_s(record: dict) -> list:
    """Each operation of one pass in reference seconds, from the probes on either side."""
    probes = record["probe_s"]
    return [reference_s(wall, probes[i:i + 2]) for i, wall in enumerate(record["op_s"])]


def reference_pass_s(passes: list) -> float:
    """The sum over the operations of each one's median over the passes."""
    return sum(statistics.median(times) for times in zip(*map(op_reference_s, passes)))


def metrics(args, summary: dict) -> dict:
    median = statistics.median
    passes = summary["passes"]
    if not args.trace:
        values = {
            "setup_s": (median(summary["setup_s"]), "s"),
            "pass_s": (reference_pass_s(passes), "s"),
            "peak_rss_mb": (summary["peak_rss_mb"], "MiB"),
        }
    else:
        traced = summary["traced_passes"]
        values = {}
        for name in traced[0]["layers"]:
            unit = "count" if name.endswith(("_calls", "_cells")) else "s"
            values[name] = (median(p["layers"][name] for p in traced), unit)
        for name in SETUP_LAYERS:
            values[name] = (median(r[name] for r in summary["setup_layers"]), "s")
        values["pass_cpu_s"] = (median(p["cpu_s"] for p in passes), "s")
        values["pass_wall_s"] = (median(p["pass_s"] for p in passes), "s")
        values["probe_slowdown"] = (median(x for p in passes for x in p["probe_s"]) / PROBE_REF_S, "ratio")
        # passes alternate untraced (passes[i]) and traced (traced[i]), so
        # each traced pass is compared with the untraced passes beside it,
        # which ran at nearly the same machine speed
        overhead = median(t["pass_s"] - median(p["pass_s"] for p in passes[i:i + 2])
                          for i, t in enumerate(traced))
        values["trace.overhead_s"] = (overhead, "s")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in sorted(values.items())}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + TIME_LIMIT_S
    if not os.path.isfile(os.path.join(SRC, "trophodge", "__init__.py")):
        print(f"no library source at {SRC}: run from the root of a trophodge checkout", file=sys.stderr)
        return 2

    os.makedirs(RESULTS, exist_ok=True)
    workdir = os.path.join(RESULTS, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        summary = measure(args, workdir, deadline)
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics(args, summary),
    }
    with open(os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"result": result, "detail": summary}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
