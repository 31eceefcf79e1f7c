"""Span tracer that wraps conirep's functions from outside the package.

conirep's modules import each other's functions by name (``from .region
import build_region``), so a function is wrapped in the namespace of the
module that *calls* it: ``evaluator.build_region`` times the calls the
evaluator makes, ``region.polytope_facets`` the calls made inside region.py
(including the recursive ones from the fan triangulation). The package
source is never modified; ``Tracer.restore`` puts every original back.

Spans are kept in memory as tuples and written once at the end. Each thread
keeps its own span stack; a span opened on a worker thread with an empty
stack (the quadrature thread pool) takes the innermost span open on the
main thread as its parent. Self time is a span's duration minus the union
of its children's intervals, so overlapping worker spans are not counted
twice against their parent.
"""
from __future__ import annotations

import gzip
import itertools
import re
import threading
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute, span name). Each wrapped name is the one a caller
# looks up at call time; see the module docstring.
SPANS = (
    ("conirep", "evaluate", "evaluator.evaluate"),
    ("conirep.cli", "evaluate", "evaluator.evaluate"),
    ("conirep", "ir_num", "oracle.ir_num"),
    ("conirep.evaluator", "ir_num", "oracle.ir_num"),
    ("conirep.cli", "ir_num", "oracle.ir_num"),
    ("conirep.evaluator", "coni_facets", "cone.coni_facets"),
    ("conirep.evaluator", "cone_sub_elements", "cone.sub_elements"),
    ("conirep.evaluator", "adjacent_cone", "cone.adjacent_cone"),
    ("conirep.evaluator", "build_region", "region.build"),
    ("conirep.region", "hypercube_intersect", "region.intersect"),
    ("conirep.region", "polytope_facets", "region.hull"),
    ("conirep.region", "triangulate_polytope", "region.triangulate"),
    ("conirep.evaluator", "region_integral", "integrate.region_integral"),
    ("conirep.cone", "nnls", "nnls.scalar"),
    ("conirep.region", "nnls", "nnls.scalar"),
    ("conirep.nnls", "nnls", "nnls.scalar"),
    ("conirep.oracle", "nnls_batch", "nnls.batch"),
    ("conirep.cli", "read_matrix", "cli.read_matrix"),
    ("conirep.cli", "result_to_report", "cli.report"),
    ("conirep.cli", "cmd_sweep", "cli.sweep"),
)

# Names that are only counted: they are hot and short, so a span each would
# cost more than it tells.
COUNTS = (
    ("conirep.cone", "gram_schmidt", "linalg.gram_schmidt_calls"),
    ("conirep.region", "gram_schmidt", "linalg.gram_schmidt_calls"),
    ("conirep.integrate", "gram_schmidt", "linalg.gram_schmidt_calls"),
)

# span name -> per-layer self-time metric
SELF_METRIC = {
    "evaluator.evaluate": "evaluator.self_s",
    "oracle.ir_num": "oracle.self_s",
    "cone.coni_facets": "cone.coni_facets_s",
    "cone.sub_elements": "cone.sub_elements_s",
    "cone.adjacent_cone": "cone.adjacent_cone_s",
    "region.build": "region.build_self_s",
    "region.intersect": "region.intersect_s",
    "region.hull": "region.hull_s",
    "region.triangulate": "region.triangulate_s",
    "integrate.region_integral": "integrate.region_integral_s",
    "nnls.scalar": "nnls.scalar_s",
    "nnls.batch": "nnls.batch_s",
    "cli.read_matrix": "cli.read_matrix_s",
    "cli.report": "cli.report_s",
    "cli.sweep": "cli.sweep_self_s",
}

_SKIPPED = re.compile(r"skipped (\d+) near-tangent")


def _after_evaluate(counts, args, kwargs, result):
    counts["evaluator.calls"] += 1
    counts["evaluator.analytical"] += result.method == "analytical"
    for note in result.diagnostics:
        hit = _SKIPPED.search(note)
        if hit:
            counts["region.skipped_systems"] += int(hit.group(1))


def _after_ir_num(counts, args, kwargs, result):
    counts["oracle.samples"] += result.total_samples


def _after_coni_facets(counts, args, kwargs, result):
    counts["cone.rays"] += result.rays.shape[0]


def _after_sub_elements(counts, args, kwargs, result):
    counts["cone.elements"] += sum(len(v) for v in result.elements.values())


def _after_build(counts, args, kwargs, result):
    counts["region.regions"] += 1
    counts["region.empty"] += result.volume == 0.0
    counts["region.simplices"] += len(result.simplices)


def _after_intersect(counts, args, kwargs, result):
    counts["region.vertices"] += len(result)


def _after_batch(counts, args, kwargs, result):
    counts["oracle.chunks"] += 1
    counts["nnls.batch_points"] += result[1].shape[0]


AFTER = {
    "evaluator.evaluate": _after_evaluate,
    "oracle.ir_num": _after_ir_num,
    "cone.coni_facets": _after_coni_facets,
    "cone.sub_elements": _after_sub_elements,
    "region.build": _after_build,
    "region.intersect": _after_intersect,
    "nnls.batch": _after_batch,
}


class Tracer:
    """Installs the wrappers listed above and records their spans and counts.

    Usage: ``tracer.install(modules)``, run the traced calls, ``tracer.restore()``.
    ``label`` tags every span opened while it is set (the benchmark sets it
    to the call's class, e.g. ``m5n6``).
    """

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, name, label, t0, t1, thread)
        self.counts: Counter = Counter()
        self.label = ""
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._lock = threading.Lock()
        self._saved: list[tuple] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span_wrapper(self, fn, name: str):
        after = AFTER.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                main = tracer._main_stack
                parent = main[-1] if main else 0
            sid = next(tracer._ids)
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.spans.append((sid, parent, name, tracer.label, t0, t1,
                                     threading.get_ident()))
            if after is not None:
                with tracer._lock:
                    after(tracer.counts, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, fn, key: str):
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer._lock:
                tracer.counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, modules: dict) -> None:
        """Wrap every listed name; `modules` maps dotted names to modules."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        # one wrapper per (original, span): a function re-exported in two
        # namespaces then records one span per call, not two nested ones
        made: dict[tuple[int, str], object] = {}
        for mod_name, attr, name in SPANS:
            self._patch(modules[mod_name], attr, name, self._span_wrapper, made)
        for mod_name, attr, key in COUNTS:
            self._patch(modules[mod_name], attr, key, self._count_wrapper, made)

    def _patch(self, module, attr, name, make, made) -> None:
        original = getattr(module, attr)
        key = (id(original), name)
        if key not in made:
            made[key] = make(original, name)
        self._saved.append((module, attr, original))
        setattr(module, attr, made[key])

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time of each span, aligned with ``self.spans``."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _sid, parent, _n, _l, t0, t1, _t in self.spans:
            if parent:
                children[parent].append((t0, t1))
        out = []
        for sid, _p, _n, _l, t0, t1, _t in self.spans:
            covered = 0.0
            end = t0
            for c0, c1 in sorted(children.get(sid, ())):
                c0, c1 = max(c0, end), min(c1, t1)
                if c1 > c0:
                    covered += c1 - c0
                    end = c1
            out.append((t1 - t0) - covered)
        return out

    def self_by(self, key) -> dict:
        """Sum of self time grouped by key(span)."""
        totals: dict = defaultdict(float)
        for span, s in zip(self.spans, self.self_times()):
            totals[key(span)] += s
        return dict(totals)

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id,parent,name,label,t0,t1,thread\n")
            for sid, parent, name, label, t0, t1, tid in self.spans:
                fh.write(f"{sid},{parent},{name},{label},{t0!r},{t1!r},{tid}\n")
