#!/usr/bin/env python3
"""Summarize the run records in bench/out/ into one JSON file.

    python3 bench/summarize.py bench/baseline/BENCH_baseline.json

For each workload it gives, for every metric of its untraced runs, the
values by seed, the median and the quartile spread (IQR over median, from
statistics.quantiles(n=4), as used to judge the benchmark's steadiness).
It also gives, for each traced run, the per-layer metrics and the split by
call class. Records of --smoke runs are skipped.
"""
from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

OUT = Path(__file__).resolve().parent / "out"


def spread(values: list[float]) -> dict:
    med = statistics.median(values)
    out = {"median": med, "n": len(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, iqr_over_median=(q3 - q1) / med if med else 0.0)
    return out


def summarize(records: list[dict]) -> dict:
    by_workload: dict[str, dict] = defaultdict(lambda: {"untraced": {}, "traced": {}})
    for r in sorted(records, key=lambda r: (r["workload"], r["seed"])):
        slot = by_workload[r["workload"]]["traced" if r["trace"] else "untraced"]
        slot[str(r["seed"])] = r
    summary = {}
    for workload, runs in sorted(by_workload.items()):
        values: dict[str, list[float]] = defaultdict(list)
        units = {}
        for r in runs["untraced"].values():
            for name, m in r["metrics"].items():
                values[name].append(m["value"])
                units[name] = m["unit"]
        any_run = next(iter(runs["untraced"].values()), None) or next(iter(runs["traced"].values()))
        summary[workload] = {
            "machine": any_run["machine"],
            "seeds": sorted(int(s) for s in runs["untraced"]),
            "failed": sum(r["failed"] for r in runs["untraced"].values()),
            "attempted": sum(r["attempted"] for r in runs["untraced"].values()),
            "metrics": {name: {"unit": units[name], "by_seed": v, **spread(v)}
                        for name, v in values.items()},
            "traced": {seed: {"metrics": {k: m["value"] for k, m in r["metrics"].items()},
                              "split": r["trace_split"]}
                       for seed, r in runs["traced"].items()},
        }
    return summary


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    records = [json.loads(p.read_text()) for p in sorted(OUT.glob("*/result.json"))]
    records = [r for r in records if not r["smoke"]]
    Path(argv[0]).write_text(json.dumps(summarize(records), indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
