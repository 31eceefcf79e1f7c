"""Command-line interface.

Commands:
    evaluate  analytical evaluation of a matrix file, JSON/CSV/text report
    numeric   midpoint-quadrature estimate at a chosen grid resolution
    compare   convergence table of the quadrature against the analytical value
    encode    bin a spike file into a matrix CSV
    sweep     evaluate every matrix file in a directory or glob

Each command takes only the flags its cmd_* function reads (see
`conirep <command> --help`); any other flag is a usage error. Each cmd_*
returns its report text, and main writes it to --output, or to stdout when
--output is omitted or "-"; warnings and errors go to stderr.

Exit codes: 0 success, 1 input error (usage errors included), 3 budget
exceeded or MemoryError, 4 numerical failure (degenerate geometry, a
solver that did not converge, or a failed linear-algebra routine).
"""
from __future__ import annotations

import argparse
import glob
import json
import os
import sys
import warnings
from dataclasses import asdict

import numpy as np

from .cone import as_state_matrix
from .encode import SlotConfig, bin_spikes, read_spike_file
from .errors import (BudgetExceededError, ConirepError, DegenerateConeError, InputFormatError,
                     IterationLimitError)
from .evaluator import EvaluationResult, evaluate
from .oracle import SAMPLE_BUDGET, convergence_study, grid_samples, ir_num

SCHEMA_VERSION = 1


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; report flag misuse as an input
    error (exit 1) instead, like any other bad input."""

    def error(self, message):
        raise InputFormatError(f"{self.prog}: {message}")


def read_matrix(path) -> np.ndarray:
    """Matrix CSV: one row per state, comma-separated, '#' lines ignored."""
    rows: list[list[float]] = []
    try:
        with open(path, encoding="utf-8-sig") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    rows.append([float(tok) for tok in line.split(",")])
                except ValueError as exc:
                    raise InputFormatError(f"{path}:{lineno}: {exc}") from exc
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise InputFormatError(f"{path}: no matrix rows found")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise InputFormatError(f"{path}: rows have inconsistent lengths")
    return np.array(rows)


def result_to_report(result: EvaluationResult) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "ir": result.ir,
        "irn": result.irn,
        "output_volume": result.output_volume,
        "method": result.method,
        "extreme_ray_columns": list(result.extreme_ray_columns),
        "redundant_columns": list(result.redundant_columns),
        "zero_columns": list(result.zero_columns),
        "regions": [{"element": list(r.element), "dim": r.dim, "volume": r.volume,
                     "integral": r.integral} for r in result.regions],
        "diagnostics": list(result.diagnostics),
    }


def csv_text(header, rows) -> str:
    """One header row, then one line per row, each value written by str()."""
    return "".join(",".join(str(v) for v in row) + "\n" for row in [header, *rows])


def json_text(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _parse_ns(text: str):
    try:
        ns = [int(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise InputFormatError(f"--n expects integers, got {text!r}") from exc
    if not ns or any(n < 1 for n in ns):
        raise InputFormatError("grid resolutions must be positive")
    return ns


def cmd_evaluate(args) -> str:
    report = result_to_report(evaluate(read_matrix(args.input)))
    if args.format == "json":
        return json_text(report)
    cols = ["ir", "irn", "output_volume", "method",
            "extreme_ray_columns", "redundant_columns", "zero_columns"]
    if args.format == "csv":
        return csv_text(cols, [[";".join(map(str, report[c])) if isinstance(report[c], list)
                                else report[c] for c in cols]])
    lines = [
        f"ir            {report['ir']!r}",
        f"irn           {report['irn']!r}",
        f"output volume {report['output_volume']!r}",
        f"method        {report['method']}",
        f"extreme ray columns: {report['extreme_ray_columns']}",
        f"redundant columns:   {report['redundant_columns']}",
        f"zero columns:        {report['zero_columns']}",
    ]
    if report["regions"]:
        lines.append("regions (element | dim | volume | integral):")
    lines += [f"  {r['element']} | {r['dim']} | {r['volume']!r} | {r['integral']!r}"
              for r in report["regions"]]
    lines += [f"note: {d}" for d in report["diagnostics"]]
    return "\n".join(lines) + "\n"


def cmd_numeric(args) -> str:
    matrix = read_matrix(args.input)
    ns = _parse_ns(args.n)
    if len(ns) != 1:
        raise InputFormatError("numeric expects a single --n value")
    q = ir_num(matrix, ns[0], budget=args.budget_samples)
    if args.format == "json":
        # the fields in declaration order: ir_num, irn_num, n, total_samples, elapsed_s
        return json_text({"schema_version": SCHEMA_VERSION, **asdict(q)})
    if args.format == "csv":
        return csv_text(["n", "ir_num", "irn_num", "total_samples"],
                        [[q.n, q.ir_num, q.irn_num, q.total_samples]])
    return (f"ir_num  {q.ir_num!r}\nirn_num {q.irn_num!r}\n"
            f"n {q.n}  samples {q.total_samples}  elapsed {q.elapsed_s:.3f}s\n")


def cmd_compare(args) -> str:
    matrix = as_state_matrix(read_matrix(args.input))
    ns = _parse_ns(args.n)
    for n in ns:  # every grid within the budget before any work starts
        grid_samples(matrix.shape[0], n, args.budget_samples)
    result = evaluate(matrix)
    rows = convergence_study(matrix, ns, ir_exact=result.ir, budget=args.budget_samples)
    if args.format == "json":
        return json_text({
            "schema_version": SCHEMA_VERSION,
            "ir": result.ir,
            "rows": [{"n": n, "ir_num": v, "abs_error": e} for n, v, e in rows],
        })
    return csv_text(["n", "ir_num", "abs_error"], rows)


def cmd_encode(args) -> str:
    train = read_spike_file(args.input)
    cfg = SlotConfig(slot_length=args.slot_length, state_count=args.slots)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        matrix = bin_spikes(train, cfg)
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    return csv_text([f"# encoded from {os.path.basename(args.input)}: "
                     f"{cfg.state_count} slots of {cfg.slot_length}s"], matrix.tolist())


def cmd_sweep(args) -> str:
    pattern = os.path.join(args.input, "*.csv") if os.path.isdir(args.input) else args.input
    paths = sorted(glob.glob(pattern))
    if not paths:
        raise InputFormatError(f"no matrix files match {args.input!r}")
    rows = [(path, evaluate(read_matrix(path))) for path in paths]
    if args.format == "json":
        return json_text({
            "schema_version": SCHEMA_VERSION,
            "results": [{"file": p, **result_to_report(r)} for p, r in rows],
        })
    return csv_text(["file", "ir", "irn", "output_volume", "method"],
                    [[p, r.ir, r.irn, r.output_volume, r.method] for p, r in rows])


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="conirep",
        description="Evaluate how well a nonnegative activity matrix supports "
                    "a nonnegative-weighted readout.",
    )
    # flag groups shared by several commands; each command takes only the
    # groups whose flags its cmd_* function reads
    files = argparse.ArgumentParser(add_help=False)
    files.add_argument("--input", required=True, help="input file (matrix CSV or spike file)")
    files.add_argument("--output", default=None, help="output file; stdout when omitted")
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("json", "csv", "text"), default="json")
    # compare and sweep write no text report
    table_fmt = argparse.ArgumentParser(add_help=False)
    table_fmt.add_argument("--format", choices=("json", "csv"), default="json")
    quadrature = argparse.ArgumentParser(add_help=False)
    quadrature.add_argument("--budget-samples", type=int, default=SAMPLE_BUDGET,
                            help="max total quadrature samples")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("evaluate", parents=[files, fmt],
                   help="analytical evaluation of a matrix file").set_defaults(func=cmd_evaluate)
    p_numeric = sub.add_parser("numeric", parents=[files, fmt, quadrature],
                               help="midpoint quadrature estimate")
    p_numeric.add_argument("--n", default="32", help="grid resolution")
    p_numeric.set_defaults(func=cmd_numeric)
    p_compare = sub.add_parser("compare", parents=[files, table_fmt, quadrature],
                               help="quadrature convergence against the analytical value")
    p_compare.add_argument("--n", default="8,16,32,64",
                           help="comma-separated grid resolutions")
    p_compare.set_defaults(func=cmd_compare)
    p_encode = sub.add_parser("encode", parents=[files],
                              help="bin a spike file into a matrix CSV")
    p_encode.add_argument("--slot-length", type=float, required=True,
                          help="slot duration in seconds")
    p_encode.add_argument("--slots", type=int, required=True,
                          help="number of time slots (matrix rows)")
    p_encode.set_defaults(func=cmd_encode)
    sub.add_parser("sweep", parents=[files, table_fmt],
                   help="evaluate every matrix file in a directory or glob"
                   ).set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        text = args.func(args)
        if args.output is None or args.output == "-":
            sys.stdout.write(text)
        else:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        return 0
    # before the ValueError clause: LinAlgError subclasses ValueError, but
    # it is raised on valid input
    except (DegenerateConeError, IterationLimitError, np.linalg.LinAlgError) as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 4
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 3
    # InputFormatError and every other package error
    except (ConirepError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
