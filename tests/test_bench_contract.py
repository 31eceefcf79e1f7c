"""The benchmark's tracer wraps conirep names from outside the package.

bench/tracer.py lists each (module, attribute) it patches. A rename or an
unused-import cleanup in src/ would otherwise surface only as a crash of a
traced benchmark run, and a change to what a wrapped function returns as a
wrong count in its per-layer metrics.
"""

import importlib.util
from pathlib import Path

import pytest

from conftest import WEDGE

_spec = importlib.util.spec_from_file_location(
    "bench_tracer", Path(__file__).resolve().parents[1] / "bench" / "tracer.py")
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


@pytest.mark.parametrize("module, attr", sorted({(mod, attr) for mod, attr, _ in
                                                 tracer.SPANS + tracer.COUNTS}))
def test_traced_name_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


def test_tracer_counts_region_vertices_and_simplices(monkeypatch):
    evaluator = importlib.import_module("conirep.evaluator")
    build_region, built = evaluator.build_region, []

    def keep(*args, **kwargs):
        built.append(build_region(*args, **kwargs))
        return built[-1]

    # the tracer wraps whatever evaluator.build_region is, so `keep` sees the Regions
    monkeypatch.setattr(evaluator, "build_region", keep)
    modules = {mod for mod, _, _ in tracer.SPANS + tracer.COUNTS}
    traced = tracer.Tracer()
    traced.install({name: importlib.import_module(name) for name in modules})
    try:
        importlib.import_module("conirep").evaluate(WEDGE)
    finally:
        traced.restore()
    assert evaluator.build_region is keep
    [regions] = built
    assert len(regions.simplices) > 0
    assert traced.counts["region.vertices"] == len(regions.vertices)
    assert traced.counts["region.simplices"] == len(regions.simplices)
