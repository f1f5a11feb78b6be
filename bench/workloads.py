"""The workloads: their inputs, operations and checks.

An operation is one call chain into the library whose result the
benchmark checks.  ``Op.run`` makes the calls and returns the result; it
raises ``OperationFailed`` (or lets the library's exception through)
when the library reports a failure.  Only an operation marked
``expected_failure`` may fail; any other failure makes the run
incorrect.  ``Op.check`` returns the problems of a result that did not
fail.  ``check_pass`` holds the checks that compare several operations
of one pass, such as a convergence ladder.
"""

from __future__ import annotations

import contextlib
import io
import os
from dataclasses import dataclass
from typing import Callable

import inputs
import oracles


class OperationFailed(Exception):
    """The library reported a failure for this operation."""


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list]
    repeatable: bool = False  # output must be identical in every pass
    expected_failure: bool = False  # fails today because of a known fault; any other failure is a problem
    case: object = None
    ladder: tuple = ()  # (bidegree, solver, h) for the ladder checks


def _no_pass_checks(ops: list, results: dict) -> list:
    return []


@dataclass
class Workload:
    make_cases: Callable[[int], list]
    make_ops: Callable
    check_pass: Callable[[list, dict], list] = _no_pass_checks


# -- verify-gallery --------------------------------------------------------

def _verify_cases(seed: int) -> list:
    gallery = inputs.gallery()
    for k, case in enumerate(gallery):
        case.verify_seed = seed * 10 + k
    return gallery + inputs.expr_family(seed) + inputs.failing_documents()


def _verify_ops(ctx) -> list:
    from trophodge import cli

    ops = []
    for case in ctx.cases:
        path = os.path.join(ctx.workdir, case.name + ".json")
        out = os.path.join(ctx.workdir, case.name + ".report.json")
        argv = ["verify", path, "--seed", str(case.verify_seed), "--out", out]

        def run(argv=argv, out=out):
            if os.path.exists(out):
                os.remove(out)
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = cli.run(argv)
            report = b""
            if os.path.exists(out):
                with open(out, "rb") as fh:
                    report = fh.read()
            if code != 0:
                detail = oracles.verify_report(report.decode()) if report else [err.getvalue().strip()]
                raise OperationFailed(f"exit {code}: {'; '.join(detail)}")
            return report

        ops.append(Op(f"verify {case.name}", run, lambda report: oracles.verify_report(report.decode()),
                      repeatable=True, expected_failure=case.expected_failure))
    return ops


# -- exact algebra on fem-ladder's graphs ---------------------------------

def _exact_ops(ctx, cases) -> list:
    """harmonic_basis (1,0) and both Cech sheaves on each case, one operation per call."""
    from trophodge import cech_cohomology, harmonic_basis

    span = ctx.tracer.span
    ops = []
    for case in cases:
        curve = ctx.curves[case.name]

        def basis(curve=curve):
            with span("harmonic.harmonic_basis"):
                return harmonic_basis(curve, None, (1, 0)).exact_coefficients

        def omega1(curve=curve):
            with span("harmonic.cech_omega1"):
                return cech_cohomology(curve, "omega1")

        def constants(curve=curve):
            with span("harmonic.cech_constants"):
                return cech_cohomology(curve, "constants")

        ops += [
            Op(f"harmonic_basis {case.name}", basis,
               lambda vectors, case=case: oracles.flow_basis(case.edges, case.genus, list(vectors)),
               repeatable=True),
            Op(f"cech omega1 {case.name}", omega1,
               lambda dims, case=case: oracles.cech_omega1(case.genus, case.cech_c0, case.cech_c1, dims),
               repeatable=True),
            Op(f"cech constants {case.name}", constants,
               lambda dims, case=case: oracles.cech_constants(case.genus, dims), repeatable=True),
        ]
    return ops


# -- fem-ladder ------------------------------------------------------------

TRUNC_EPS = 1e-4
SPECTRUM_K = 6


def _fem_cases(seed: int) -> list:
    return [
        inputs.triangle(inputs.split_perimeter(seed)),
        inputs.projective_line(),
        inputs.star(3),
        inputs.star(4),
        inputs.triangle_with_legs(inputs.split_perimeter(seed + 1)),
        inputs.grid(4, 2, seed, length_choices=(1,)),
        inputs.grid(5, 2, seed, length_choices=(1,)),
        inputs.cycle(30, 3, seed, length_choices=(1,)),
    ]


# (case index, bidegree, solver, steps 1/h)
FEM_LADDER = [
    (0, (0, 0), "spectrum", (32, 64, 128, 256)),
    (0, (0, 0), "kernel", (256,)),
    (1, (0, 0), "spectrum", (16, 32)),
    (2, (0, 0), "spectrum", (16, 32, 64)),
    (3, (0, 0), "spectrum", (16, 32)),
    (3, (0, 0), "kernel", (64,)),
    (4, (0, 0), "kernel", (512, 2048)),
    (4, (1, 0), "kernel", (256, 1024)),
    (5, (1, 0), "kernel", (4, 8)),
    (6, (1, 0), "kernel", (4,)),
    (7, (1, 0), "kernel", (4,)),
]
# The graphs of the ladder on which the exact (1,0) basis and Cech
# cohomology are computed as well: grid4, grid5 and the 30-cycle.
EXACT_CASES = (5, 6, 7)


def _fem_ops(ctx) -> list:
    from trophodge import assemble, build_mesh, kernel, spectrum

    span = ctx.tracer.span
    ops = []
    for index, bidegree, solver, steps in FEM_LADDER:
        case = ctx.cases[index]
        curve, g = ctx.curves[case.name], ctx.kahler[case.name]
        for step in steps:
            h = 1.0 / step

            def run(curve=curve, g=g, h=h, bidegree=bidegree, solver=solver):
                with span("discrete.build_mesh"):
                    mesh = build_mesh(curve, g, h, TRUNC_EPS)
                with span("discrete.assemble%d%d" % bidegree):
                    system = assemble(mesh, curve, g, bidegree)
                with span("discrete." + solver):
                    return kernel(system) if solver == "kernel" else spectrum(system, SPECTRUM_K)

            def check(result, case=case, h=h, bidegree=bidegree, solver=solver):
                if solver == "kernel":
                    return oracles.kernel_dimension(case.genus if bidegree == (1, 0) else 1,
                                                    result.kernel_dimension)
                return oracles.eigenvalues(case.eigenvalues, [float(x) for x in result.eigenvalues], h, SPECTRUM_K)

            name = f"{solver} {case.name} {bidegree[0]}{bidegree[1]} h=1/{step}"
            ops.append(Op(name, run, check, case=case, ladder=(bidegree, solver, h)))
    return ops + _exact_ops(ctx, [ctx.cases[index] for index in EXACT_CASES])


def _fem_check_pass(ops: list, results: dict) -> list:
    """Ladder checks: no eigenvalue rises when h halves, and on the
    triangle lambda_1 = lambda_2 converge to (2 pi / L)^2 at order 2."""
    problems = []
    ladders: dict = {}
    for op in ops:
        if op.ladder and op.name in results:
            bidegree, solver, h = op.ladder
            ladders.setdefault((op.case.name, bidegree, solver), []).append((h, results[op.name], op.case))
    for (name, bidegree, solver), ladder in ladders.items():
        ladder.sort(key=lambda item: -item[0])
        for (_, coarse, _), (_, fine, _) in zip(ladder, ladder[1:]):
            # the kernel's eigenvalues are rounding noise around 0; for a (0,0) spectrum, the constants
            skip = 1 if coarse.kernel_dimension is None else coarse.kernel_dimension
            problems += [f"{name}: {p}" for p in oracles.monotone(
                [float(x) for x in coarse.eigenvalues[skip:]], [float(x) for x in fine.eigenvalues[skip:]])]
        if name == "triangle" and solver == "spectrum":
            exact = ladder[0][2].eigenvalues[1]
            for _, result, _ in ladder:
                problems += oracles.degenerate_pair(float(result.eigenvalues[1]), float(result.eigenvalues[2]))
            problems += oracles.convergence_order(exact, [(h, float(r.eigenvalues[1])) for h, r, _ in ladder])
    return problems


WORKLOADS = {
    "verify-gallery": Workload(_verify_cases, _verify_ops),
    "fem-ladder": Workload(_fem_cases, _fem_ops, _fem_check_pass),
}
