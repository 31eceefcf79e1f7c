"""The benchmark's tracer wraps conirep names from outside the package.

bench/tracer.py lists each (module, attribute) it patches. A rename or an
unused-import cleanup in src/ would otherwise surface only as a crash of a
traced benchmark run.
"""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_tracer", Path(__file__).resolve().parents[1] / "bench" / "tracer.py")
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


@pytest.mark.parametrize("module, attr", sorted({(mod, attr) for mod, attr, _ in
                                                 tracer.SPANS + tracer.COUNTS}))
def test_traced_name_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))
