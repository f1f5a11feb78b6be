"""Self-test of the benchmark's correctness checks.

    python3 bench/selftest.py

Each check in oracles.py must accept one correct output, built here by
hand, and reject a copy of it with one defect.  Exits 1 if any check
accepts a corrupted output or rejects a correct one.  Needs no library.
"""

from __future__ import annotations

import json
import math
import sys

import inputs
import oracles


def face_cycles(case: inputs.Case, n: int) -> list[dict]:
    """The (n-1)^2 unit squares of grid(n) as oriented Kirchhoff flows."""
    direction = {}
    for eid, tail, head, _ in case.edges:
        direction[(tail, head)] = (eid, 1)
        direction[(head, tail)] = (eid, -1)
    cycles = []
    for i in range(n - 1):
        for j in range(n - 1):
            corners = [f"v{i}_{j}", f"v{i + 1}_{j}", f"v{i + 1}_{j + 1}", f"v{i}_{j + 1}"]
            flow = {}
            for a, b in zip(corners, corners[1:] + corners[:1]):
                eid, sign = direction[(a, b)]
                flow[eid] = sign
            cycles.append(flow)
    return cycles


def report_text(statuses: dict) -> bytes:
    checks = [{"id": cid, "status": status} for cid, status in sorted(statuses.items())]
    return json.dumps({"checks": checks}).encode()


def cases():
    """(check name, problems for a correct output, problems for a corrupted one)."""
    good = {cid: "pass" for cid in oracles.VERIFY_CHECK_IDS}
    failing = dict(good, **{"star-isometry": "fail"})
    missing = {cid: s for cid, s in good.items() if cid != "theta-cubic"}
    yield ("verify report: one check fails",
           oracles.verify_report(report_text(good).decode()), oracles.verify_report(report_text(failing).decode()))
    yield ("verify report: one check id missing",
           oracles.verify_report(report_text(good).decode()), oracles.verify_report(report_text(missing).decode()))
    text = report_text(good)
    yield ("reports differ by one byte", oracles.same_output(text, bytes(text)),
           oracles.same_output(text, text[:-1] + b" "))

    grid = inputs.grid(4, 2, seed=7)
    flows = face_cycles(grid, 4)
    changed = [dict(f) for f in flows]
    first_edge = next(iter(changed[0]))
    changed[0][first_edge] += 1
    yield ("flow basis: one coefficient changed", oracles.flow_basis(grid.edges, grid.genus, flows),
           oracles.flow_basis(grid.edges, grid.genus, changed))
    halved = [dict(f) for f in flows]
    halved[1] = {eid: c / 2 for eid, c in halved[1].items()}
    yield ("flow basis: a vector not integral", oracles.flow_basis(grid.edges, grid.genus, flows),
           oracles.flow_basis(grid.edges, grid.genus, halved))
    repeated = flows[:-1] + [{eid: -c for eid, c in flows[0].items()}]
    yield ("flow basis: dependent vectors", oracles.flow_basis(grid.edges, grid.genus, flows),
           oracles.flow_basis(grid.edges, grid.genus, repeated))
    yield ("flow basis: one vector short", oracles.flow_basis(grid.edges, grid.genus, flows),
           oracles.flow_basis(grid.edges, grid.genus, flows[:-1]))

    g, c0, c1 = grid.genus, grid.cech_c0, grid.cech_c1
    yield ("cech: omega1 H^1 off by one", oracles.cech_omega1(g, c0, c1, (g, g - c0 + c1)),
           oracles.cech_omega1(g, c0, c1, (g, g - c0 + c1 + 1)))
    yield ("cech: omega1 H^0 off by one", oracles.cech_omega1(g, c0, c1, (g, g - c0 + c1)),
           oracles.cech_omega1(g, c0, c1, (g - 1, g - c0 + c1 - 1)))
    yield ("cech: constants H^1 off by one", oracles.cech_constants(g, (1, g)), oracles.cech_constants(g, (1, g + 1)))

    yield ("kernel dimension off by one", oracles.kernel_dimension(9, 9), oracles.kernel_dimension(9, 8))

    h = 1 / 32
    perimeter = 3.0
    exact = inputs.cycle_eigenvalues(perimeter, 6)

    def p1_cycle(lam: float, h: float) -> float:
        """P1 eigenvalue of a uniform cycle for the exact eigenvalue lam."""
        t = math.sqrt(lam) * h
        return 6 / h**2 * (1 - math.cos(t)) / (2 + math.cos(t))

    discrete = [p1_cycle(lam, h) for lam in exact]
    moved = list(discrete)
    moved[3] += 0.1 * exact[3] ** 2 * h * h
    yield ("eigenvalue moved outside its bound", oracles.eigenvalues(exact, discrete, h, 6),
           oracles.eigenvalues(exact, moved, h, 6))
    yield ("fewer eigenvalues than asked for", oracles.eigenvalues(exact, discrete, h, 6),
           oracles.eigenvalues(exact, discrete[:4], h, 6))
    yield ("no eigenvalues at all", oracles.eigenvalues(exact, discrete, h, 6), oracles.eigenvalues(exact, [], h, 6))
    fs = inputs.fubini_study_eigenvalues(4)
    shifted = fs[:6]
    shifted[0] = 4.5e-6
    yield ("zero eigenvalue not resolved", oracles.eigenvalues(fs, fs[:6], h, 6),
           oracles.eigenvalues(fs, shifted, h, 6))

    finer = [p1_cycle(lam, h / 2) for lam in exact]
    risen = list(finer)
    risen[2] = discrete[2] * (1 + 1e-6)
    yield ("eigenvalue rises when h halves", oracles.monotone(discrete, finer), oracles.monotone(discrete, risen))
    yield ("refined spectrum cut short", oracles.monotone(discrete, finer), oracles.monotone(discrete, finer[:2]))

    ladder = [(h / 2**k, p1_cycle(exact[1], h / 2**k)) for k in range(4)]
    first_order = [(hk, exact[1] + 2.0 * hk) for hk, _ in ladder]
    yield ("convergence of order 1, not 2", oracles.convergence_order(exact[1], ladder),
           oracles.convergence_order(exact[1], first_order))
    yield ("split degenerate pair", oracles.degenerate_pair(discrete[1], discrete[2]),
           oracles.degenerate_pair(discrete[1], discrete[2] * (1 + 1e-6)))


def main() -> int:
    misses = 0
    for name, clean, corrupted in cases():
        ok = not clean and bool(corrupted)
        misses += not ok
        verdict = "ok  " if ok else "MISS"
        detail = corrupted[0] if corrupted else "corrupted output accepted"
        if clean:
            detail = f"correct output rejected: {clean[0]}"
        print(f"{verdict} {name}: {detail}")
    print(f"{misses} check(s) missed")
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
