"""The benchmark's tracer wraps conirep names from outside the package.

bench/tracer.py lists each (module, attribute) it patches. A rename or an
unused-import cleanup in src/ would otherwise surface only as a crash of a
traced benchmark run, and a change to what a wrapped function returns as a
wrong count in its per-layer metrics.
"""

import ast
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from conftest import JUMP, TILTED

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
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
        # m = 4: at m <= 3 build_region is not called
        importlib.import_module("conirep").evaluate(JUMP)
    finally:
        traced.restore()
    assert evaluator.build_region is keep
    [regions] = built
    assert len(regions.simplices) > 0
    assert traced.counts["region.vertices"] == len(regions.vertices)
    assert traced.counts["region.simplices"] == len(regions.simplices)


def test_tracer_counts_cone_rays_and_elements(monkeypatch):
    evaluator, kept = importlib.import_module("conirep.evaluator"), {}
    for attr in ("coni_facets", "cone_sub_elements"):
        original, kept[attr] = getattr(evaluator, attr), []

        def keep(*args, _original=original, _kept=kept[attr], **kwargs):
            _kept.append(_original(*args, **kwargs))
            return _kept[-1]

        # the tracer wraps whatever the evaluator's name is, so `keep` sees the result
        monkeypatch.setattr(evaluator, attr, keep)
    modules = {mod for mod, _, _ in tracer.SPANS + tracer.COUNTS}
    traced = tracer.Tracer()
    traced.install({name: importlib.import_module(name) for name in modules})
    try:
        # a full-rank cone and a rank-deficient one, whose whole cone is a table row
        for C in (TILTED, np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])):
            importlib.import_module("conirep").evaluate(C)
    finally:
        traced.restore()
    cones, tables = kept["coni_facets"], kept["cone_sub_elements"]
    assert len(cones) == len(tables) == 2
    assert traced.counts["cone.rays"] == sum(len(cone.rays) for cone in cones) == 5
    assert traced.counts["cone.elements"] == sum(len(table.dims) for table in tables) == 9


def test_tracer_only_imports_are_traced():
    # a name imported under "noqa: F401" and never read in its module is
    # there only for the tracer to patch; once the tracer stops patching it,
    # the import goes
    traced = {(mod, attr) for mod, attr, _ in tracer.SPANS + tracer.COUNTS}
    unread = []
    for path in sorted((ROOT / "src" / "conirep").glob("*.py")):
        module = "conirep" if path.stem == "__init__" else f"conirep.{path.stem}"
        source = path.read_text()
        lines, tree = source.splitlines(), ast.parse(source)
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and any(
                    "# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
                unread += [(module, alias.asname or alias.name) for alias in node.names
                           if (alias.asname or alias.name) not in read]
    assert unread, "no tracer-only import found"
    assert [pair for pair in unread if pair not in traced] == []
