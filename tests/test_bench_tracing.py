"""The benchmark's tracer finds every name it wraps and puts it back.

``bench/tracing.py`` replaces library functions by module attribute in a
traced run.  A refactor that drops or renames one of them breaks only
traced benchmark runs, so this test wraps and unwraps them here.
"""

import importlib
from pathlib import Path

from trophodge import curves
from trophodge.harmonic import cech_cohomology
from trophodge.metric import KahlerForm, inner_product
from trophodge.superform import Superform

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_wraps_and_restores_every_name(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    originals = {(m, a): getattr(importlib.import_module(m), a) for m, a, _ in tracing.WRAPPED}
    tracer = tracing.Tracer()
    tracer.wrap()
    try:
        for (module, attr), original in originals.items():
            assert getattr(importlib.import_module(module), attr) is not original
        # callers reach integrate through the module global, so the span shows
        tracer.enabled = True
        tri = curves.triangle()
        one = Superform.on_curve(tri, (0, 0), {"ab": 1, "bc": 1, "ca": 1})
        inner_product(one, one, KahlerForm.constant(tri))
        assert [s["name"] for s in tracer.spans] == ["metric.integrate"]
    finally:
        tracer.unwrap()
    for (module, attr), original in originals.items():
        assert getattr(importlib.import_module(module), attr) is original


def test_traced_cech_shows_one_rref_over_the_dense_input(monkeypatch):
    # rank reaches rref through the module global and hands it dense rows,
    # which is what the traced exact.rref_calls and exact.rref_cells count
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    tracer.wrap()
    try:
        tracer.enabled = True
        k4 = curves.k4()
        cech_cohomology(k4, "omega1")
    finally:
        tracer.unwrap()
    spans = [s for s in tracer.spans if s["name"] == "exact.rref"]
    assert len(spans) == 1
    columns = sum(k4.degree(v) - 1 for v in k4.vertices if k4.degree(v) >= 2)
    assert spans[0]["cells"] == len(k4.edges) * columns
