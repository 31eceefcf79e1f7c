"""Command-line interface.

Commands:
    evaluate  analytical evaluation of a matrix file, JSON/CSV/text report
    numeric   midpoint-quadrature estimate at a chosen grid resolution
    compare   convergence table of the quadrature against the analytical value
    encode    bin a spike file into a matrix CSV
    sweep     evaluate every matrix file in a directory or glob

Each command takes only the flags its cmd_* function reads (see
`conirep <command> --help`); any other flag is a usage error.

Exit codes: 0 success, 1 input error (usage errors included), 3 budget
exceeded, 4 numerical failure (degenerate geometry, a solver that did not
converge, or a failed linear-algebra routine).
"""
from __future__ import annotations

import argparse
import glob
import json
import os
import sys
import warnings

import numpy as np

from .encode import SlotConfig, bin_spikes, read_spike_file
from .errors import (BudgetExceededError, ConirepError, DegenerateConeError, InputFormatError,
                     IterationLimitError)
from .evaluator import EvaluationResult, evaluate
from .oracle import SAMPLE_BUDGET, convergence_study, ir_num

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
        with open(path, encoding="utf-8") as fh:
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


def write_matrix(matrix: np.ndarray, stream) -> None:
    for row in matrix:
        stream.write(",".join(repr(float(v)) for v in row) + "\n")


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
        "regions": [
            {"element": list(r.element), "dim": r.dim, "volume": r.volume,
             "integral": r.integral}
            for r in result.regions
        ],
        "diagnostics": list(result.diagnostics),
    }


def _open_output(path):
    if path is None or path == "-":
        return sys.stdout, False
    return open(path, "w", encoding="utf-8"), True


def _emit(lines_or_text, out_path):
    stream, close = _open_output(out_path)
    try:
        stream.write(lines_or_text)
    finally:
        if close:
            stream.close()


def _format_report(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2) + "\n"
    if fmt == "csv":
        cols = ["ir", "irn", "output_volume", "method",
                "extreme_ray_columns", "redundant_columns", "zero_columns"]
        head = ",".join(cols)
        row = ",".join(
            ";".join(str(v) for v in report[c]) if isinstance(report[c], list)
            else str(report[c])
            for c in cols
        )
        return f"{head}\n{row}\n"
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
        for r in report["regions"]:
            lines.append(f"  {r['element']} | {r['dim']} | {r['volume']!r} | {r['integral']!r}")
    for d in report["diagnostics"]:
        lines.append(f"note: {d}")
    return "\n".join(lines) + "\n"


def _parse_ns(text: str):
    try:
        ns = [int(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise InputFormatError(f"--n expects integers, got {text!r}") from exc
    if not ns or any(n < 1 for n in ns):
        raise InputFormatError("grid resolutions must be positive")
    return ns


def cmd_evaluate(args) -> int:
    report = result_to_report(evaluate(read_matrix(args.input)))
    _emit(_format_report(report, args.format), args.output)
    return 0


def cmd_numeric(args) -> int:
    matrix = read_matrix(args.input)
    ns = _parse_ns(args.n)
    if len(ns) != 1:
        raise InputFormatError("numeric expects a single --n value")
    q = ir_num(matrix, ns[0], budget=args.budget_samples)
    report = {
        "schema_version": SCHEMA_VERSION,
        "ir_num": q.ir_num,
        "irn_num": q.irn_num,
        "n": q.n,
        "total_samples": q.total_samples,
        "elapsed_s": q.elapsed_s,
    }
    if args.format == "json":
        text = json.dumps(report, indent=2) + "\n"
    elif args.format == "csv":
        text = "n,ir_num,irn_num,total_samples\n" \
               f"{q.n},{q.ir_num!r},{q.irn_num!r},{q.total_samples}\n"
    else:
        text = (f"ir_num  {q.ir_num!r}\nirn_num {q.irn_num!r}\n"
                f"n {q.n}  samples {q.total_samples}  elapsed {q.elapsed_s:.3f}s\n")
    _emit(text, args.output)
    return 0


def cmd_compare(args) -> int:
    matrix = read_matrix(args.input)
    result = evaluate(matrix)
    rows = convergence_study(matrix, _parse_ns(args.n), ir_exact=result.ir,
                             budget=args.budget_samples)
    lines = ["n,ir_num,abs_error"]
    for n, value, err in rows:
        lines.append(f"{n},{value!r},{err!r}")
    if args.format == "json":
        text = json.dumps({
            "schema_version": SCHEMA_VERSION,
            "ir": result.ir,
            "rows": [{"n": n, "ir_num": v, "abs_error": e} for n, v, e in rows],
        }, indent=2) + "\n"
    else:
        text = "\n".join(lines) + "\n"
    _emit(text, args.output)
    return 0


def cmd_encode(args) -> int:
    train = read_spike_file(args.input)
    cfg = SlotConfig(slot_length=args.slot_length, state_count=args.slots)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        matrix = bin_spikes(train, cfg)
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    stream, close = _open_output(args.output)
    try:
        stream.write(f"# encoded from {os.path.basename(args.input)}: "
                     f"{cfg.state_count} slots of {cfg.slot_length}s\n")
        write_matrix(matrix.entries, stream)
    finally:
        if close:
            stream.close()
    return 0


def cmd_sweep(args) -> int:
    if os.path.isdir(args.input):
        paths = sorted(glob.glob(os.path.join(args.input, "*.csv")))
    else:
        paths = sorted(glob.glob(args.input))
    if not paths:
        raise InputFormatError(f"no matrix files match {args.input!r}")
    rows = [(path, evaluate(read_matrix(path))) for path in paths]
    if args.format == "json":
        text = json.dumps({
            "schema_version": SCHEMA_VERSION,
            "results": [{"file": p, **result_to_report(r)} for p, r in rows],
        }, indent=2) + "\n"
    else:
        lines = ["file,ir,irn,output_volume,method"]
        for p, r in rows:
            lines.append(f"{p},{r.ir!r},{r.irn!r},{r.output_volume!r},{r.method}")
        text = "\n".join(lines) + "\n"
    _emit(text, args.output)
    return 0


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
    p_compare = sub.add_parser("compare", parents=[files, fmt, quadrature],
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
    sub.add_parser("sweep", parents=[files, fmt],
                   help="evaluate every matrix file in a directory or glob"
                   ).set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    # before the ValueError clause: LinAlgError subclasses ValueError, but
    # it is raised on valid input
    except (DegenerateConeError, IterationLimitError, np.linalg.LinAlgError) as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 4
    except (InputFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ConirepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
