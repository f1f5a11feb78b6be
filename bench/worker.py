"""One benchmark worker process: set up, run whole passes, check, report.

run.py starts this file in a fresh interpreter with a fixed environment
(one BLAS thread, the checkout's ``src`` on the path).  The worker
imports the library, parses and validates the workload's documents and
builds their Kahler weights, then prints one JSON line: the moment that
line appears is "ready", which run.py times as set-up.  With
``--setup-only`` it stops there.  Otherwise it runs one untimed warm-up
pass and then timed passes until ``--seconds`` have gone by, and prints
a JSON summary as its last line.  With ``--trace 1`` untimed and traced
passes alternate, and the spans are written to ``--spans``.

The worker also times a short fixed loop (``probe``) when it starts,
when it is ready, before the first operation of a pass and after every
operation, and reports those times beside the wall times; run.py uses
them to convert wall seconds to seconds at a fixed machine speed.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import sys
import time

import oracles
import tracing
from workloads import WORKLOADS


class Context:
    def __init__(self, cases, workdir, tracer):
        self.cases = cases
        self.workdir = workdir
        self.tracer = tracer
        self.curves = {}
        self.kahler = {}


def set_up(ctx: Context) -> dict:
    """Parse and validate the documents, build and validate their Kahler weights."""
    from trophodge import KahlerForm, parse_document, validate, validate_kahler

    span = ctx.tracer.span
    seconds = {"curve.load_s": 0.0, "metric.validate_kahler_s": 0.0}
    for case in ctx.cases:
        text = json.dumps(case.doc)
        start = time.perf_counter()
        with span("curve.parse_document"):
            curve, spec = parse_document(text, strict=False)
        with span("curve.validate"):
            report = validate(curve)
        middle = time.perf_counter()
        if not report.passed:
            raise SystemExit(f"{case.name}: the document is not a valid curve")
        ctx.curves[case.name] = curve
        with span("metric.from_spec"):
            g = KahlerForm.from_spec(curve, spec)
        with span("metric.validate_kahler"):
            kreport = validate_kahler(curve, g)
        if not kreport.passed:
            raise SystemExit(f"{case.name}: the Kahler weight is not valid")
        ctx.kahler[case.name] = g
        end = time.perf_counter()
        seconds["curve.load_s"] += middle - start
        seconds["metric.validate_kahler_s"] += end - middle
    return seconds


PROBE_LOOPS = 20000


def probe() -> float:
    """Wall seconds of a fixed pure-Python loop: how fast the core runs now.

    The loop allocates no object that the garbage collector tracks, so no
    collection, and no garbage an operation left behind, falls into it.
    """
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i % 7
    return time.perf_counter() - start


def run_pass(ops, tracer, pass_index):
    """One pass over every operation.

    Returns per-op wall and CPU seconds, the probe times around the
    operations (one more than there are operations), the results and the
    failures.
    """
    results, failures = {}, {}
    wall, cpu, probes = [], [], [probe()]
    for i, op in enumerate(ops):
        tracer.op = f"{pass_index}:{i}"
        w0, c0 = time.perf_counter(), time.process_time()
        with tracer.span("bench.op"):
            try:
                results[op.name] = op.run()
            except Exception as exc:  # noqa: BLE001 - any failure of the library is counted, not fatal
                failures[op.name] = f"{type(exc).__name__}: {exc}"
        wall.append(time.perf_counter() - w0)
        cpu.append(time.process_time() - c0)
        probes.append(probe())
    tracer.op = None
    return wall, cpu, probes, results, failures


def check_outputs(ops, results: dict, failures: dict, first: dict) -> list:
    """Problems of one pass's results; ``first`` keeps each op's first outcome."""
    problems = []
    for op in ops:
        outcome = results.get(op.name, failures.get(op.name))
        if op.repeatable and op.name in first:
            # identical output passes the same checks, so it is compared, not checked again
            problems += [f"{op.name}: {p}" for p in oracles.same_output(first[op.name], outcome)]
            continue
        first[op.name] = outcome
        if op.name in results:
            problems += [f"{op.name}: {p}" for p in op.check(outcome)]
    return problems


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    start_probe = probe()

    workload = WORKLOADS[args.workload]
    cases = workload.make_cases(args.seed)
    for case in cases:
        with open(os.path.join(args.workdir, case.name + ".json"), "w", encoding="utf-8") as fh:
            json.dump(case.doc, fh)
    tracer = tracing.Tracer()
    tracer.enabled = bool(args.trace)
    ctx = Context(cases, args.workdir, tracer)
    setup = set_up(ctx)
    print(json.dumps({"ready": True, "probe_s": [start_probe, probe()], **setup}), flush=True)
    if args.setup_only:
        return 0
    tracer.enabled = False

    ops = workload.make_ops(ctx)
    first: dict = {}
    problems: list = []
    failure_kinds: set = set()
    attempted = failed = 0
    untraced, traced = [], []
    deadline = None
    for pass_index in itertools.count():
        trace_this = bool(args.trace) and pass_index % 2 == 0 and pass_index > 0
        if trace_this:
            tracer.enabled = True
            tracer.wrap()
            start_span = len(tracer.spans)
        try:
            wall, cpu, probes, results, failures = run_pass(ops, tracer, pass_index)
        finally:
            if trace_this:
                tracer.unwrap()
                tracer.enabled = False
        attempted += len(ops)
        failed += len(failures)
        failure_kinds.update(f"{name}: {why}" for name, why in failures.items())
        problems += [f"{op.name}: unexpected failure: {failures[op.name]}"
                     for op in ops if op.name in failures and not op.expected_failure]
        problems += check_outputs(ops, results, failures, first) + workload.check_pass(ops, results)
        record = {"pass_s": sum(wall), "cpu_s": sum(cpu), "op_s": wall, "probe_s": probes}
        if pass_index == 0:
            warm = record
            deadline = time.perf_counter() + args.seconds
        elif trace_this:
            record["layers"] = tracing.layer_totals(tracer.spans[start_span:])
            traced.append(record)
        else:
            untraced.append(record)
        # stop before a pass that would end after the deadline, once the minimum is in
        enough = len(untraced) >= 3 and (not args.trace or len(traced) >= 2)
        if enough and time.perf_counter() + record["pass_s"] > deadline:
            break

    if args.spans:
        with open(args.spans, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    summary = {
        "correct": not problems,
        "problems": problems[:20],
        "failures": sorted(failure_kinds),
        "attempted": attempted,
        "failed": failed,
        "warm_up": warm,
        "passes": untraced,
        "traced_passes": traced,
        "peak_rss_mb": rss_kib / 1024.0,
    }
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
