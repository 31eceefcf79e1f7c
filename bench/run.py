#!/usr/bin/env python3
"""conirep benchmark: end-to-end timings, or a traced per-module split.

    python3 bench/run.py --workload ladder --seed 1 --seconds 25 --trace 0

Run from the root of a conirep checkout; the package is imported from its
``src/`` directory and driven through its public functions only (the
``conirep`` namespace and ``conirep.cli.main``). One process, one call at a
time, a closed loop with a single client; ``ir_num`` at ``threads=2`` is the
only place a second thread runs.

``--trace 0`` prints every end-to-end metric; ``--trace 1`` times the
workload's fixed job once untraced and once with tracing wrappers installed,
and prints the per-layer metrics. Every line before the last is a readable
table; the last line is one JSON object. A full record of the run, stamped
with the machine and the load, goes to ``bench/out/``. See README.md.
"""
from __future__ import annotations

import os

# one BLAS thread: the only second thread is the one ir_num(threads=2) starts
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from checks import check_evaluate, check_quadrature, check_repeat, check_sweep  # noqa: E402
from speed import (BURST, INTERVAL_S, SORT_NOMINAL_S, SORT_WINDOW_S, Speedometer,  # noqa: E402
                   sort_kernel)
from tracer import SELF_METRIC, Tracer  # noqa: E402
from workloads import WORKLOADS, Item, Plan, make_plan  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

MODULES = ("conirep", "conirep.cli", "conirep.cone", "conirep.evaluator",
           "conirep.integrate", "conirep.nnls", "conirep.oracle", "conirep.region")

# end-to-end metrics (--trace 0): name -> unit; each workload reports all
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "norm_p50_gmean_ms": "ms"}
# per-layer metrics (--trace 1): name -> unit
PER_LAYER = {
    "region.intersect_s": "s", "region.hull_s": "s", "region.triangulate_s": "s",
    "region.build_self_s": "s", "region.vertices": "count", "region.simplices": "count",
    "region.empty_frac": "frac", "region.skipped_systems": "count",
    "cone.coni_facets_s": "s", "cone.sub_elements_s": "s", "cone.adjacent_cone_s": "s",
    "cone.rays": "count", "cone.elements": "count",
    "nnls.scalar_s": "s", "nnls.scalar_calls": "count", "nnls.batch_s": "s",
    "nnls.batch_points": "count", "nnls.batch_repairs": "count",
    "oracle.self_s": "s", "oracle.samples": "count", "oracle.chunks": "count",
    "integrate.region_integral_s": "s", "linalg.gram_schmidt_calls": "count",
    "evaluator.self_s": "s", "evaluator.analytical_frac": "frac",
    "cli.read_matrix_s": "s", "cli.report_s": "s", "cli.sweep_self_s": "s",
    "share.region": "frac", "share.cone": "frac", "share.nnls_scalar": "frac",
    "share.nnls_batch": "frac", "share.oracle": "frac", "share.evaluator": "frac",
    "share.integrate": "frac", "share.cli": "frac",
    "trace.overhead_frac": "frac",
}
# share.* groups: span-name prefix -> share metric
SHARES = {"region.": "share.region", "cone.": "share.cone", "nnls.scalar": "share.nnls_scalar",
          "nnls.batch": "share.nnls_batch", "oracle.": "share.oracle",
          "evaluator.": "share.evaluator", "integrate.": "share.integrate", "cli.": "share.cli"}

SETUP_REPEATS = 3  # fresh interpreters before the timed calls, and again after
# sort_kernel samples (about 0.1 s each) right before and after each ir_num call
SORT_BURST = 3
SETUP_CODE = (
    "import numpy as np\n"
    "import conirep\n"
    "C = np.array([[2.0, 3.0, 0.0], [3.0, 1.0, 0.0], [1.0, 1.0, 1.0]])\n"
    "conirep.evaluate(C)\n"
    "conirep.ir_num(C, 16)\n"
)


def load_package() -> dict:
    """Import conirep from this checkout's src/, refusing any other copy."""
    pkg = SRC / "conirep"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"error: {pkg} not found: run from the root of a conirep checkout")
    sys.path.insert(0, str(SRC))
    mods = {name: importlib.import_module(name) for name in MODULES}
    if Path(mods["conirep"].__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"error: imported conirep from {mods['conirep'].__file__}, not {pkg}")
    return mods


def measure_setup(speed: Speedometer, repeats: int = SETUP_REPEATS) -> list[tuple]:
    """(start, end) of fresh interpreters that import and make a first call each.

    Speed samples are taken around each one, so it can be read at the
    reference speed like a call.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    out = []
    for _ in range(repeats):
        speed.sample(BURST)
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env, check=True,
                       stdout=subprocess.DEVNULL, timeout=120)
        out.append((t0, time.perf_counter()))
    speed.sample(BURST)
    return out


def write_csv(matrix: np.ndarray, path: Path) -> None:
    path.write_text("".join(",".join(repr(float(v)) for v in row) + "\n" for row in matrix))


class Runner:
    """Times each call of a plan and checks its output outside the timing.

    Completed calls are kept as (class, start, end, divisor, samples,
    threads); the divisor turns a sweep's time into time per file. Kernel
    samples are taken between calls, so a duration can also be read at the
    reference speed (speed.py). ir_num calls last 2-3 s and are read against
    their own kernel, `sort_kernel`, timed in a burst right before and right
    after each of them (see README.md).
    """

    def __init__(self, mods: dict, plan: Plan, workdir: Path):
        self.conirep = mods["conirep"]
        self.cli = mods["conirep.cli"]
        self.plan = plan
        self.workdir = workdir
        self.calls: list[tuple] = []
        self.first: dict[str, object] = {}
        self.exact: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.tracer: Tracer | None = None
        self.speed = Speedometer()
        self.speed.sample(BURST)
        self.sort_speed = Speedometer(sort_kernel, SORT_NOMINAL_S, SORT_WINDOW_S, stretch=False)
        self.sort_speed.sample(1)  # warm-up, dropped below
        self.sort_speed.stamps.clear()
        self.sort_speed.times.clear()
        if plan.sweep_keys:
            matrices = plan.matrices()
            (workdir / "in").mkdir(parents=True, exist_ok=True)
            for key in plan.sweep_keys:
                write_csv(matrices[key], workdir / "in" / f"{key}.csv")

    def run(self, item: Item) -> None:
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.label = item.cls
        self.speed.maybe_sample()
        if item.kind == "ir_num":
            self.sort_speed.sample(SORT_BURST)
        t0 = time.perf_counter()
        try:
            out = self._call(item)
        except Exception as exc:  # a failing call is counted, the run goes on
            self._fail(item, f"{type(exc).__name__}: {exc}\n{traceback.format_exc(limit=-3)}")
            return
        t1 = time.perf_counter()
        if item.kind == "ir_num":
            self.sort_speed.sample(SORT_BURST)
        if t1 - t0 >= INTERVAL_S:
            self.speed.sample(BURST)
        problems = self._check(item, out, t0, t1)
        if problems:
            self._fail(item, "; ".join(problems))

    def _call(self, item: Item):
        if item.kind == "evaluate":
            return self.conirep.evaluate(item.matrix)
        if item.kind == "ir_num":
            return self.conirep.ir_num(item.matrix, item.n_grid, threads=item.threads)
        return self.cli.main(["sweep", "--input", str(self.workdir / "in"), "--format", "json",
                              "--output", str(self.workdir / "sweep.json")])

    def _fail(self, item: Item, why: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{item.cls} {item.key}: {why}")

    def _check(self, item: Item, out, t0: float, t1: float) -> list[str]:
        if item.kind == "evaluate":
            self.calls.append((item.cls, t0, t1, 1, 0, 1))
            fingerprint = (out.ir, out.irn, out.output_volume)
            if item.key in self.first:
                return check_repeat(fingerprint, self.first[item.key])
            self.first[item.key] = fingerprint
            coarse = self.conirep.ir_num(item.matrix, item.n_grid).ir_num
            return check_evaluate(out, item.matrix.shape[0], coarse, item.n_grid)
        if item.kind == "ir_num":
            self.calls.append((item.cls, t0, t1, 1, out.total_samples, item.threads))
            if item.key in self.first:  # threads=2 must reproduce threads=1 exactly
                return check_repeat(out.ir_num, self.first[item.key])
            self.first[item.key] = out.ir_num
            if item.key not in self.exact:
                self.exact[item.key] = self.conirep.evaluate(item.matrix).ir
            return check_quadrature(out, item.matrix.shape[0], item.n_grid, self.exact[item.key])
        self.calls.append((item.cls, t0, t1, len(self.plan.sweep_keys), 0, 1))
        if out != 0:
            return [f"sweep exited with {out}"]
        report = json.loads((self.workdir / "sweep.json").read_text())
        expected = {k: self.first[k] for k in self.plan.sweep_keys if k in self.first}
        return check_sweep(report, expected)

    def run_for(self, seconds: float) -> None:
        """Heavy items, then cycles while the next one should end in time, then the tail."""
        deadline = time.perf_counter() + seconds
        for item in self.plan.heavy:
            self.run(item)
        cycles, last = 0, 0.0
        while self.plan.cycle and (cycles < self.plan.min_cycles
                                   or time.perf_counter() + last <= deadline):
            t0 = time.perf_counter()
            for item in self.plan.cycle:
                self.run(item)
            last = time.perf_counter() - t0
            cycles += 1
        for item in self.plan.tail:
            self.run(item)
        self.speed.sample(BURST)

    def seconds(self, calls=None, normalized: bool = False) -> list[float]:
        """Duration of each call (per file for a sweep), raw or at reference speed."""
        calls = self.calls if calls is None else calls
        if normalized:
            return [(self.sort_speed if samples else self.speed).normalize(t0, t1) / per
                    for _c, t0, t1, per, samples, _t in calls]
        return [(t1 - t0) / per for _c, t0, t1, per, *_ in calls]

    def by_class(self, normalized: bool = False) -> dict[str, list[float]]:
        out: dict[str, list[float]] = defaultdict(list)
        for call, s in zip(self.calls, self.seconds(normalized=normalized)):
            out[call[0]].append(s)
        return dict(sorted(out.items()))


def class_table(runner: Runner) -> dict:
    raw, norm = runner.by_class(), runner.by_class(normalized=True)
    return {cls: {"count": len(ts), "p50_ms": 1e3 * statistics.median(ts),
                  "min_ms": 1e3 * min(ts), "max_ms": 1e3 * max(ts),
                  "norm_p50_ms": 1e3 * statistics.median(norm[cls])}
            for cls, ts in raw.items()}


def named_metrics(workload: str, runner: Runner) -> dict:
    """The workload's own named end-to-end metrics (raw times): name -> (value, unit)."""
    out: dict[str, tuple[float, str]] = {}
    by_m: dict[int, list[float]] = defaultdict(list)
    for cls, ts in runner.by_class().items():
        if cls.startswith("m") and "n" in cls:
            by_m[int(cls[1:cls.index("n")])] += ts
    for m, ts in sorted(by_m.items()):
        out[f"eval_m{m}_p50_ms"] = (1e3 * statistics.median(ts), "ms")
        if m == 3 and workload == "ladder":
            out["eval_m3_p95_ms"] = (1e3 * float(np.percentile(ts, 95)), "ms")
    sweep = runner.by_class().get("sweep")
    if sweep:
        out["sweep_files_per_s"] = (1.0 / statistics.median(sweep), "1/s")
    quad: dict[int, list[float]] = defaultdict(lambda: [0, 0.0])
    for call, s in zip(runner.calls, runner.seconds()):
        if call[4]:
            quad[call[5]][0] += call[4]
            quad[call[5]][1] += s
    for threads, (samples, secs) in sorted(quad.items()):
        out[f"quad_samples_per_s_t{threads}"] = (samples / secs, "1/s")
    out["fail_frac"] = (runner.failed / max(runner.attempted, 1), "frac")
    return out


def gmean_p50_ms(times: dict) -> float:
    """Geometric mean over call classes of each class's median, in ms."""
    p50 = [statistics.median(ts) for ts in times.values() if ts]
    return 1e3 * math.exp(statistics.fmean(math.log(v) for v in p50))


def layer_metrics(tracer: Tracer, overhead: float) -> dict:
    spans = tracer.spans
    selfs = tracer.self_times()
    values = {name: 0.0 for name in PER_LAYER}
    names = {sid: name for sid, _p, name, *_ in spans}
    total = 0.0
    for (sid, parent, name, *_), s in zip(spans, selfs):
        values[SELF_METRIC[name]] += s
        total += s
        for prefix, share in SHARES.items():
            if name.startswith(prefix):
                values[share] += s
        if name == "nnls.scalar":
            values["nnls.scalar_calls"] += 1
            values["nnls.batch_repairs"] += names.get(parent) == "nnls.batch"
    for share in SHARES.values():
        values[share] = values[share] / total if total else 0.0
    c = tracer.counts
    for key in ("region.vertices", "region.simplices", "region.skipped_systems", "cone.rays",
                "cone.elements", "nnls.batch_points", "oracle.samples", "oracle.chunks",
                "linalg.gram_schmidt_calls"):
        values[key] = c[key]
    values["region.empty_frac"] = (c["region.empty"] / c["region.regions"]
                                   if c["region.regions"] else 0.0)
    values["evaluator.analytical_frac"] = (c["evaluator.analytical"] / c["evaluator.calls"]
                                           if c["evaluator.calls"] else 0.0)
    values["trace.overhead_frac"] = overhead
    return {name: int(v) if PER_LAYER[name] == "count" else v for name, v in values.items()}


def split_by_label(tracer: Tracer) -> dict:
    """label -> span name -> share of that label's self time, largest first."""
    totals = tracer.self_by(lambda span: (span[3], span[2]))
    out: dict[str, dict[str, float]] = defaultdict(dict)
    for (label, name), s in totals.items():
        out[label][name] = s
    return {label: {"self_s": sum(parts.values()),
                    "share": dict(sorted(((n, s / sum(parts.values())) for n, s in parts.items()),
                                         key=lambda kv: -kv[1]))}
            for label, parts in sorted(out.items())}


def grid_table(plan: Plan, chunk: int | None) -> dict:
    """Samples and chunks of each quadrature grid; one chunk never uses a second thread."""
    out = {}
    for it in plan.cycle:
        if it.kind == "ir_num":
            samples = it.n_grid ** it.matrix.shape[0]
            out[it.cls] = {"samples": samples, "chunks": -(-samples // chunk) if chunk else None}
    return out


def machine_stamp() -> dict:
    import scipy

    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "machine": platform.machine(),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny matrices and grids: checks the harness in seconds")
    args = ap.parse_args(argv)

    mods = load_package()
    conirep = mods["conirep"]
    load_before = os.getloadavg()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    workdir = OUT / tag
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    plan = make_plan(args.workload, args.seed, args.smoke)

    # warm the process: lazy imports inside numpy/scipy stay out of the timings
    warm = np.array([[2.0, 3.0, 0.0], [3.0, 1.0, 0.0], [1.0, 1.0, 1.0]])
    conirep.evaluate(warm)
    conirep.ir_num(warm, 4)

    record: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace, "smoke": args.smoke, "machine": machine_stamp(),
                    "loadavg_before": load_before}
    runner = Runner(mods, plan, workdir)
    if args.trace == 0:
        # half the set-ups before the timed calls and half after, so their
        # median spans the run's drift in machine speed, not one moment of it
        spans = measure_setup(runner.speed)
        runner.run_for(args.seconds)
        spans += measure_setup(runner.speed)
        setup = [t1 - t0 for t0, t1 in spans]
        setup_norm = [runner.speed.normalize(t0, t1) for t0, t1 in spans]
        values = {"setup_s": statistics.median(setup_norm),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                  "norm_p50_gmean_ms": gmean_p50_ms(runner.by_class(normalized=True))}
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
        shown = {**named_metrics(args.workload, runner),
                 "raw_p50_gmean_ms": (gmean_p50_ms(runner.by_class()), "ms"),
                 "raw_setup_s": (statistics.median(setup), "s"), **metrics}
        record["setup_runs_s"] = setup
        record["setup_norm_runs_s"] = setup_norm
    else:
        job = plan.fixed_job()
        for item in job:
            runner.run(item)
        split = len(runner.calls)
        tracer = Tracer()
        tracer.install(mods)
        runner.tracer = tracer
        try:
            for item in job:
                runner.run(item)
        finally:
            tracer.restore()
            runner.tracer = None
        runner.speed.sample(BURST)
        untraced = sum(runner.seconds(runner.calls[:split], normalized=True))
        traced = sum(runner.seconds(runner.calls[split:], normalized=True))
        values = layer_metrics(tracer, traced / untraced - 1.0)
        metrics = {name: (values[name], unit) for name, unit in PER_LAYER.items()}
        shown = metrics
        record["trace_split"] = split_by_label(tracer)
        record["trace_spans"] = len(tracer.spans)
        tracer.write(workdir / "spans.csv.gz")

    shutil.rmtree(workdir / "in", ignore_errors=True)
    record.update({
        "loadavg_after": os.getloadavg(),
        "samples": {cls: len(ts) for cls, ts in runner.by_class().items()},
        "classes": class_table(runner),
        "speed_kernel_s": {"median": statistics.median(runner.speed.times),
                           "min": min(runner.speed.times), "max": max(runner.speed.times),
                           "count": len(runner.speed.times)},
        "calls": [[cls, t0, t1, per] for cls, t0, t1, per, *_ in runner.calls],
        "kernel": [list(x) for x in zip(runner.speed.stamps, runner.speed.times)],
        "sort_kernel": [list(x) for x in zip(runner.sort_speed.stamps, runner.sort_speed.times)],
        "grids": grid_table(plan, getattr(mods["conirep.oracle"], "CHUNK", None)),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
        "attempted": runner.attempted, "failed": runner.failed, "problems": runner.problems,
    })
    (workdir / "result.json").write_text(json.dumps(record, indent=1) + "\n")

    width = max(len(k) for k in shown)
    print(f"# {tag}: {runner.attempted} calls, {runner.failed} failed; "
          f"samples {record['samples']}")
    for name, (value, unit) in shown.items():
        print(f"{name:<{width}}  {value if isinstance(value, int) else f'{value:.6g}'} {unit}")
    for problem in runner.problems:
        print(f"# FAILED {problem.splitlines()[0]}")
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
