"""Spans around the benchmark's calls into the library, and the layer sums.

A span records its name, start, end, the span that was open when it
began (its cause) and the operation it belongs to.  Spans stay in memory
and are written out when the run ends.  In a traced run ``wrap`` also
replaces a public function under the name its calling module uses, so a
layer the benchmark cannot call directly (quadrature inside a check
suite, elimination inside assembly) is timed too; ``unwrap`` restores
the originals.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager

# span name -> per-layer metric.  A span of module M counts towards its
# metric only if no enclosing span belongs to M as well, so a check that
# calls another check, or rref called from rank, is not counted twice.
LAYER_OF = {
    "curve.parse_document": "curve.load_s",
    "curve.validate": "curve.load_s",
    "metric.from_spec": "metric.validate_kahler_s",
    "metric.validate_kahler": "metric.validate_kahler_s",
    "checks.regular_test_forms": "checks.stokes_s",
    "checks.check_stokes": "checks.stokes_s",
    "checks.energy_test_pair": "checks.parts_s",
    "checks.check_integration_by_parts": "checks.parts_s",
    "checks.check_hodge_theorem": "checks.hodge_s",
    "checks.check_star_identities": "checks.star_s",
    "checks.check_theta_correspondence": "checks.theta_s",
    "metric.integrate": "metric.integrate_s",
    "harmonic.harmonic_basis": "harmonic.basis_s",
    "harmonic.cech_omega1": "harmonic.cech_omega1_s",
    "harmonic.cech_constants": "harmonic.cech_constants_s",
    "exact.rref": "exact.rref_s",
    "discrete.build_mesh": "discrete.mesh_s",
    "discrete.assemble00": "discrete.assemble00_s",
    "discrete.assemble10": "discrete.assemble10_s",
    "discrete.kernel": "discrete.kernel_s",
    "discrete.spectrum": "discrete.spectrum_s",
}
COUNTED = {"metric.integrate": "metric.integrate_calls", "exact.rref": "exact.rref_calls"}

# (module, attribute, span name): the functions wrapped in a traced run.
WRAPPED = [
    ("trophodge.checks", "regular_test_forms", "checks.regular_test_forms"),
    ("trophodge.checks", "check_stokes", "checks.check_stokes"),
    ("trophodge.checks", "energy_test_pair", "checks.energy_test_pair"),
    ("trophodge.checks", "check_integration_by_parts", "checks.check_integration_by_parts"),
    ("trophodge.checks", "check_hodge_theorem", "checks.check_hodge_theorem"),
    ("trophodge.checks", "check_star_identities", "checks.check_star_identities"),
    ("trophodge.checks", "check_theta_correspondence", "checks.check_theta_correspondence"),
    ("trophodge.checks", "integrate", "metric.integrate"),
    ("trophodge.metric", "integrate", "metric.integrate"),
    ("trophodge.exact", "rref", "exact.rref"),
    ("trophodge.discrete", "rref", "exact.rref"),
]


def _rref_cells(matrix, *args, **kwargs) -> int:
    rows = len(matrix)
    return rows * len(matrix[0]) if rows else 0


class Tracer:
    """Records spans while enabled; ``span`` costs nothing when disabled."""

    def __init__(self):
        self.enabled = False
        self.spans: list[dict] = []
        self.op = None
        self._stack: list[int] = []
        self._originals: list = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield None
            return
        record = {"id": len(self.spans), "name": name, "op": self.op,
                  "parent": self._stack[-1] if self._stack else None, "start": time.perf_counter()}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self) -> None:
        for module_name, attr, name in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrapper(original, name))

    def unwrap(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def _wrapper(self, original, name: str):
        def traced(*args, **kwargs):
            with self.span(name) as record:
                if record is not None and name == "exact.rref":
                    record["cells"] = _rref_cells(*args, **kwargs)
                return original(*args, **kwargs)
        return traced


def layer_totals(spans: list[dict]) -> dict:
    """Per-layer seconds and counts over a list of spans."""
    totals = {metric: 0.0 for metric in LAYER_OF.values()}
    totals.update({metric: 0 for metric in COUNTED.values()})
    totals["exact.rref_cells"] = 0
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        metric = LAYER_OF.get(s["name"])
        if metric is None:
            continue
        module = s["name"].split(".")[0]
        parent = s["parent"]
        nested = False
        while parent is not None and parent in by_id:
            if by_id[parent]["name"].split(".")[0] == module:
                nested = True
                break
            parent = by_id[parent]["parent"]
        if nested:
            continue
        totals[metric] += s["end"] - s["start"]
        if s["name"] in COUNTED:
            totals[COUNTED[s["name"]]] += 1
        totals["exact.rref_cells"] += s.get("cells", 0)
    return totals
