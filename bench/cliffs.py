"""Find the size at which each layer's call first takes more than 1 s.

    python3 bench/cliffs.py

Each ladder doubles one size parameter and times one library call at
each rung: the faster of two calls, in wall seconds, with the
benchmark's thread environment.  A ladder stops
at the first rung above 1 s, or at its last rung.  The inputs come from
inputs.py, seed 1.
"""

from __future__ import annotations

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
from run import ENVIRONMENT  # noqa: E402

os.environ.update(ENVIRONMENT)

import json  # noqa: E402

import inputs  # noqa: E402
from trophodge import (KahlerForm, assemble, build_mesh, cech_cohomology, harmonic_basis,  # noqa: E402
                       kernel, parse_document, spectrum)

LIMIT_S = 1.0


def load(case):
    curve, spec = parse_document(json.dumps(case.doc))
    return curve, KahlerForm.from_spec(curve, spec)


def best_of_two(call) -> float:
    """Wall seconds, the faster of two calls."""
    times = []
    for _ in range(2):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
        if times[0] > LIMIT_S:
            break
    return min(times)


def ladder(label: str, rungs) -> None:
    """rungs yields (description, zero-argument call)."""
    last = None
    for description, call in rungs:
        seconds = best_of_two(call)
        last = f"{description}: {seconds:.3f} s"
        if seconds > LIMIT_S:
            print(f"{label:36s} crosses 1 s at {last}", flush=True)
            return
    print(f"{label:36s} stays under 1 s up to {last}", flush=True)


def grid_rungs(method):
    for n in (4, 6, 8, 10, 12, 14, 16):
        curve, _ = load(inputs.grid(n, 0, seed=1))
        yield f"grid{n} (E={len(curve.edges)}, genus {(n - 1) ** 2})", lambda curve=curve: method(curve)


def mesh_rungs(case, bidegree, solve=None, steps=(16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192)):
    curve, g = load(case)
    for step in steps:
        mesh = build_mesh(curve, g, 1 / step, 1e-4)
        if solve is None:
            yield f"h=1/{step}", lambda mesh=mesh: assemble(mesh, curve, g, bidegree)
            continue
        system = assemble(mesh, curve, g, bidegree)
        n, m = system.dof_map.n_dofs, system.constraints.shape[0]
        yield f"h=1/{step} (n={n}, m={m})", lambda system=system: solve(system)


def cycle_rungs():
    for n in (10, 20, 40, 80, 160):
        curve, g = load(inputs.cycle(n, 3, seed=1, length_choices=(1,)))
        mesh = build_mesh(curve, g, 1 / 4, 1e-4)
        yield f"cycle{n}+3legs at h=1/4 (m={n})", lambda curve=curve, g=g, mesh=mesh: assemble(mesh, curve, g, (1, 0))


def main() -> int:
    legs = inputs.triangle_with_legs()
    ladder("harmonic_basis (1,0), grid(n)", grid_rungs(lambda c: harmonic_basis(c, None, (1, 0))))
    ladder("cech_cohomology omega1, grid(n)", grid_rungs(lambda c: cech_cohomology(c, "omega1")))
    ladder("cech_cohomology constants, grid(n)", grid_rungs(lambda c: cech_cohomology(c, "constants")))
    curve, g = load(legs)
    ladder("build_mesh, triangle_with_legs",
           ((f"h=1/{s}", lambda s=s: build_mesh(curve, g, 1 / s, 1e-4)) for s in (256, 1024, 4096, 16384, 65536)))
    ladder("assemble (0,0), triangle_with_legs", mesh_rungs(legs, (0, 0)))
    ladder("assemble (1,0), triangle_with_legs", mesh_rungs(legs, (1, 0)))
    ladder("assemble (1,0), cycle(n)+3 legs", cycle_rungs())
    ladder("kernel (0,0), triangle_with_legs", mesh_rungs(legs, (0, 0), kernel))
    ladder("kernel (1,0), triangle_with_legs", mesh_rungs(legs, (1, 0), kernel, steps=(256, 512, 1024, 2048)))
    ladder("spectrum k=6 (0,0), triangle_with_legs", mesh_rungs(legs, (0, 0), lambda s: spectrum(s, 6)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
