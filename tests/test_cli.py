"""End-to-end tests of the command-line interface."""

import json
import re
from importlib import resources

import jsonschema
import numpy as np
import pytest

from conirep.cli import build_parser, csv_text, main, read_matrix
from conirep.encode import SlotConfig, bin_spikes, read_spike_file
from conirep.errors import DegenerateConeError, InputFormatError, IterationLimitError
from conirep.evaluator import evaluate
from conirep.oracle import convergence_study, ir_num

from conftest import JUMP, TILTED, VERR, perturbed


@pytest.fixture
def wedge_csv(tmp_path):
    p = tmp_path / "wedge.csv"
    p.write_text("# wedge example\n1,3,1,2\n1,2,0,1\n")
    return str(p)


@pytest.fixture
def tilted_csv(tmp_path):
    p = tmp_path / "tilted.csv"
    p.write_text("2,3,0\n3,1,0\n1,1,1\n")
    return str(p)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def load_schema():
    ref = resources.files("conirep") / "schemas" / "evaluation_result.schema.json"
    return json.loads(ref.read_text())


def test_read_matrix(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("# comment\n1,2\n3,4\n\n")
    np.testing.assert_array_equal(read_matrix(p), [[1.0, 2.0], [3.0, 4.0]])

    p.write_text("1,2\n3\n")
    with pytest.raises(InputFormatError, match="inconsistent"):
        read_matrix(p)
    p.write_text("1,x\n")
    with pytest.raises(InputFormatError, match="m.csv:1"):
        read_matrix(p)
    p.write_text("# nothing\n")
    with pytest.raises(InputFormatError):
        read_matrix(p)
    with pytest.raises(InputFormatError):
        read_matrix(tmp_path / "absent.csv")


def test_read_matrix_with_byte_order_mark(tmp_path):
    # spreadsheet tools save CSV as UTF-8 with a BOM in front of the first value
    p = tmp_path / "bom.csv"
    p.write_bytes(b"\xef\xbb\xbf1,3,1,2\n1,2,0,1\n")
    np.testing.assert_array_equal(read_matrix(p), [[1.0, 3.0, 1.0, 2.0], [1.0, 2.0, 0.0, 1.0]])


def test_matrix_round_trip(tmp_path):
    rng = np.random.default_rng(107)
    matrix = rng.uniform(0.0, 5.0, size=(3, 4))
    p = tmp_path / "round.csv"
    p.write_text(csv_text(["# round trip"], matrix.tolist()))
    np.testing.assert_array_equal(read_matrix(p), matrix)


def test_evaluate_json_validates_against_schema(capsys, wedge_csv):
    code, out = run(capsys, ["evaluate", "--input", wedge_csv])
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(instance=report, schema=load_schema())
    assert report["schema_version"] == 1
    assert report["ir"] == pytest.approx(1.0 / 24.0, abs=1e-12)
    assert report["output_volume"] == pytest.approx(0.5, abs=1e-12)
    assert report["extreme_ray_columns"] == [1, 3]
    assert report["redundant_columns"] == [2, 4]
    assert report["method"] == "analytical"


def test_evaluate_csv_and_text(capsys, wedge_csv):
    code, out = run(capsys, ["evaluate", "--input", wedge_csv, "--format", "csv"])
    assert code == 0
    head, row = out.strip().split("\n")
    assert head.startswith("ir,irn,output_volume,method")
    assert row.split(",")[3] == "analytical"

    code, out = run(capsys, ["evaluate", "--input", wedge_csv, "--format", "text"])
    assert code == 0
    assert "output volume" in out and "regions" in out


def test_evaluate_writes_output_file(capsys, wedge_csv, tmp_path):
    out_path = tmp_path / "report.json"
    code, _ = run(capsys, ["evaluate", "--input", wedge_csv,
                           "--output", str(out_path)])
    assert code == 0
    assert json.loads(out_path.read_text())["method"] == "analytical"


def test_evaluate_missing_file(capsys):
    code, _ = run(capsys, ["evaluate", "--input", "no-such-file.csv"])
    assert code == 1


def test_encode_missing_file(capsys, tmp_path):
    code = main(["encode", "--input", str(tmp_path / "absent.txt"),
                 "--slot-length", "0.1", "--slots", "5"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_evaluate_unwritable_output(capsys, wedge_csv, tmp_path):
    code = main(["evaluate", "--input", wedge_csv,
                 "--output", str(tmp_path / "absent" / "out.json")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_usage_errors_exit_one(capsys):
    assert main(["evaluate", "--bogus"]) == 1
    assert main(["numeric"]) == 1
    capsys.readouterr()


ENCODE = "encode --slot-length 1 --slots 2"


@pytest.mark.parametrize("command, flag", [
    ("evaluate", "--n 8"),
    (ENCODE, "--format csv"),
    (ENCODE, "--threads 2"),
    ("sweep", "--n 8"),
    ("evaluate", "--budget-samples 1000"),
    ("sweep", "--budget-samples 1000"),
    *[(c, "--strict") for c in ("evaluate", "numeric", "compare", ENCODE, "sweep")],
    *[(c, "--tol-geom 1e-9") for c in ("evaluate", "numeric", "compare", ENCODE, "sweep")],
    *[(c, flag) for c in ("evaluate", "numeric", "compare", "sweep")
      for flag in ("--threads 2", "--deterministic")],
])
def test_unread_flags_are_rejected(capsys, command, flag):
    assert main(f"{command} --input unused.csv {flag}".split()) == 1
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    args = build_parser().parse_args(["compare", "--input", "unused.csv"])
    assert args.n == "8,16,32,64"


@pytest.mark.parametrize("command", ["compare --n 4,8", "sweep"])
def test_table_commands_reject_text_format(capsys, wedge_csv, command):
    # compare and sweep write JSON or CSV only
    assert main(f"{command} --input {wedge_csv} --format text".split()) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid choice: 'text'" in captured.err


def test_rank_deficient_report(capsys, tmp_path):
    p = tmp_path / "flat.csv"
    p.write_text("1,0\n0,1\n0,0\n")  # rank 2 in three dimensions
    code, out = run(capsys, ["evaluate", "--input", str(p)])
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(instance=report, schema=load_schema())
    assert report["method"] == "analytical"
    assert report["ir"] == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert report["output_volume"] == 0.0


def test_budget_exit_code(capsys, tilted_csv):
    code, _ = run(capsys, ["numeric", "--input", tilted_csv, "--n", "1000"])
    assert code == 3


def test_compare_checks_every_grid_before_evaluating(capsys, tilted_csv, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("evaluate ran before the sample budget was checked")

    monkeypatch.setattr("conirep.cli.evaluate", fail)
    code = main(["compare", "--input", tilted_csv, "--n", "4,1000"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "error: 1000^3 = 1000000000 samples exceed the budget of 10000000\n"


@pytest.mark.parametrize("command", ["numeric --n 2", "compare --n 2,4"])
@pytest.mark.parametrize("budget", ["0", "-3"])
def test_non_positive_budget_is_an_input_error(capsys, tilted_csv, command, budget):
    # a bad flag exits 1, not 3 ("budget exceeded")
    code = main(f"{command} --input {tilted_csv} --budget-samples={budget}".split())
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: the sample budget must be at least 1\n"


@pytest.mark.parametrize("argv, message", [
    ("compare --n 4,x", "--n expects integers, got '4,x'"),
    ("compare --n 0", "grid resolutions must be positive"),
    ("numeric --n -1", "grid resolutions must be positive"),
], ids=["not-integers", "zero", "negative"])
def test_bad_grid_resolutions_are_input_errors(capsys, tilted_csv, argv, message):
    code = main([*argv.split(), "--input", tilted_csv])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("error", [DegenerateConeError, IterationLimitError])
def test_numerical_failure_exit_code(capsys, tmp_path, monkeypatch, error):
    def fail(*args, **kwargs):
        raise error("forced failure")

    # m = 4: at m <= 3 build_region is not called
    path = tmp_path / "jump.csv"
    path.write_text(csv_text(["# JUMP"], JUMP.tolist()))
    monkeypatch.setattr("conirep.evaluator.build_region", fail)
    code = main(["evaluate", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert "numerical failure: forced failure" in captured.err


# VERR at 1e-12, seed 0 has two vertices of one region 4.4e-13 apart: Qhull's
# face lattice broke the pulling walk's chains, which came out ragged, a
# ValueError once read as an input error and then exit 4. The clip's masks
# make a face lattice, and it answers. A degenerate cone still exits 4:
# VERR at 3e-9, seed 15, whose regions overlap (test_overlapping_regions_raise)
def test_ragged_triangulation_exit_code(capsys, tmp_path):
    path = tmp_path / "verr.csv"
    path.write_text(csv_text(["# VERR at 1e-12, seed 0"], perturbed(VERR, 1e-12, 0).tolist()))
    assert main(["evaluate", "--input", str(path), "--format", "csv"]) == 0
    assert "0.1163333915138" in capsys.readouterr().out
    path.write_text(csv_text(["# VERR at 3e-9, seed 15"], perturbed(VERR, 3e-9, 15).tolist()))
    code = main(["evaluate", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 4
    assert "region volumes sum to 1.3" in captured.err


@pytest.mark.parametrize("command, target", [
    (["evaluate"], "conirep.cli.evaluate"), (["numeric", "--n", "8"], "conirep.cli.ir_num"),
], ids=["evaluate", "numeric"])
def test_out_of_memory_exit_code(capsys, tilted_csv, monkeypatch, command, target):
    # a valid input that runs out of memory (10x20 default_rng(1) under a
    # 2.5 GB address-space limit) ends in one line on stderr, not a traceback
    def fail(*args, **kwargs):
        raise MemoryError("forced failure")

    monkeypatch.setattr(target, fail)
    code = main([command[0], "--input", tilted_csv, *command[1:]])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "error: out of memory: forced failure\n"


def test_linear_algebra_failure_exit_code(capsys, tilted_csv, monkeypatch):
    # LinAlgError subclasses ValueError; it must not read as an input error
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("forced failure")

    monkeypatch.setattr("conirep.cli.evaluate", fail)
    code = main(["evaluate", "--input", tilted_csv])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert "numerical failure: forced failure" in captured.err


def test_numeric_matches_library(capsys, tilted_csv):
    code, out = run(capsys, ["numeric", "--input", tilted_csv, "--n", "16",
                             "--format", "json"])
    assert code == 0
    report = json.loads(out)
    assert report["ir_num"] == ir_num(TILTED, 16).ir_num
    assert report["total_samples"] == 16**3

    code, out = run(capsys, ["numeric", "--input", tilted_csv, "--n", "8,16"])
    assert code == 1  # numeric takes exactly one resolution


def test_compare_table(capsys, wedge_csv):
    code, out = run(capsys, ["compare", "--input", wedge_csv,
                             "--n", "8,16", "--format", "csv"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,ir_num,abs_error"
    errs = [float(line.split(",")[2]) for line in lines[1:]]
    assert errs[1] < errs[0]

    code, out = run(capsys, ["compare", "--input", wedge_csv,
                             "--n", "8,16", "--format", "json"])
    report = json.loads(out)
    assert report["ir"] == pytest.approx(1.0 / 24.0, abs=1e-12)
    assert [r["n"] for r in report["rows"]] == [8, 16]


def test_encode_round_trip(capsys, tmp_path):
    spikes = tmp_path / "spikes.txt"
    spikes.write_text("# neurons=2 duration=4.0\n"
                      "1\t0.1\n1\t0.2\n2\t0.9\n1\t1.5\n2\t3.9\n")
    out_path = tmp_path / "matrix.csv"
    code, _ = run(capsys, ["encode", "--input", str(spikes),
                           "--slot-length", "1.0", "--slots", "4",
                           "--output", str(out_path)])
    assert code == 0
    np.testing.assert_array_equal(read_matrix(out_path),
                                  [[2.0, 1.0], [1.0, 0.0],
                                   [0.0, 0.0], [0.0, 1.0]])


def test_encode_long_recording(tmp_path):
    # 100,000 slots of 1.1 s fill a 110,000 s recording, although their
    # product rounds to 110000.00000000001
    spikes = tmp_path / "spikes.txt"
    spikes.write_text("# neurons=2 duration=110000.0\n1\t0.5\n2\t109999.9\n")
    out_path = tmp_path / "matrix.csv"
    assert main(["encode", "--input", str(spikes), "--slot-length", "1.1",
                 "--slots", "100000", "--output", str(out_path)]) == 0
    matrix = read_matrix(out_path)
    assert matrix.shape == (100_000, 2)
    assert matrix[0].tolist() == [1.0, 0.0] and matrix[-1].tolist() == [0.0, 1.0]


def test_encode_warns_on_dropped_spikes(tmp_path, capsys):
    spikes = tmp_path / "spikes.txt"
    spikes.write_text("# neurons=1 duration=4.0\n1\t3.5\n")
    out_path = tmp_path / "matrix.csv"
    code = main(["encode", "--input", str(spikes), "--slot-length", "1.0",
                 "--slots", "2", "--output", str(out_path)])
    captured = capsys.readouterr()
    assert code == 0
    assert "ignored" in captured.err
    assert read_matrix(out_path).sum() == 0.0


def test_sweep_directory(capsys, tmp_path):
    (tmp_path / "a.csv").write_text("1,0\n0,1\n")
    (tmp_path / "b.csv").write_text("1,3,1,2\n1,2,0,1\n")
    code, out = run(capsys, ["sweep", "--input", str(tmp_path),
                             "--format", "csv"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "file,ir,irn,output_volume,method"
    assert len(lines) == 3
    assert lines[1].split(",")[0].endswith("a.csv")

    code, out = run(capsys, ["sweep", "--input", str(tmp_path / "*.csv"),
                             "--format", "json"])
    assert code == 0
    assert len(json.loads(out)["results"]) == 2

    code, _ = run(capsys, ["sweep", "--input", str(tmp_path / "nothing-*")])
    assert code == 1


def test_byte_identical_reruns(capsys, tilted_csv):
    code, first = run(capsys, ["evaluate", "--input", tilted_csv])
    assert code == 0
    code, second = run(capsys, ["evaluate", "--input", tilted_csv])
    assert code == 0
    assert first == second


def expected_report(r):
    return {"schema_version": 1, "ir": r.ir, "irn": r.irn, "output_volume": r.output_volume,
            "method": r.method, "extreme_ray_columns": list(r.extreme_ray_columns),
            "redundant_columns": list(r.redundant_columns), "zero_columns": list(r.zero_columns),
            "regions": [{"element": list(g.element), "dim": g.dim, "volume": g.volume,
                         "integral": g.integral} for g in r.regions],
            "diagnostics": list(r.diagnostics)}


def expected_output(command, fmt, matrix, path, spikes, out):
    """The report text of one command and format, built from the library calls behind it."""
    as_json = (lambda doc: json.dumps(doc, indent=2) + "\n")
    if command == "encode":
        cfg = SlotConfig(slot_length=1.0, state_count=matrix.shape[0])
        entries = bin_spikes(read_spike_file(spikes), cfg)
        return (f"# encoded from spikes.txt: {matrix.shape[0]} slots of 1.0s\n"
                + "".join(",".join(repr(float(v)) for v in row) + "\n" for row in entries))
    if command == "numeric":
        q = ir_num(matrix, 8)
        if fmt == "json":
            return as_json({"schema_version": 1, "ir_num": q.ir_num, "irn_num": q.irn_num,
                            "n": 8, "total_samples": q.total_samples,
                            "elapsed_s": json.loads(out)["elapsed_s"]})
        if fmt == "csv":
            return f"n,ir_num,irn_num,total_samples\n8,{q.ir_num!r},{q.irn_num!r},{q.total_samples}\n"
        elapsed = re.search(r"elapsed (\S+)s\n\Z", out).group(1)
        return (f"ir_num  {q.ir_num!r}\nirn_num {q.irn_num!r}\n"
                f"n 8  samples {q.total_samples}  elapsed {elapsed}s\n")
    r = evaluate(matrix)
    if command == "compare":
        rows = convergence_study(matrix, [4, 8])
        if fmt == "json":
            return as_json({"schema_version": 1, "ir": r.ir, "rows": [
                {"n": n, "ir_num": v, "abs_error": e} for n, v, e in rows]})
        return "n,ir_num,abs_error\n" + "".join(f"{n},{v!r},{e!r}\n" for n, v, e in rows)
    if command == "sweep":
        if fmt == "json":
            return as_json({"schema_version": 1,
                            "results": [{"file": path, **expected_report(r)}]})
        return (f"file,ir,irn,output_volume,method\n"
                f"{path},{r.ir!r},{r.irn!r},{r.output_volume!r},{r.method}\n")
    if fmt == "json":
        return as_json(expected_report(r))
    cols = [";".join(map(str, c)) for c in
            (r.extreme_ray_columns, r.redundant_columns, r.zero_columns)]
    if fmt == "csv":
        return ("ir,irn,output_volume,method,extreme_ray_columns,redundant_columns,zero_columns\n"
                f"{r.ir!r},{r.irn!r},{r.output_volume!r},{r.method},{','.join(cols)}\n")
    lines = [f"ir            {r.ir!r}", f"irn           {r.irn!r}",
             f"output volume {r.output_volume!r}", f"method        {r.method}",
             f"extreme ray columns: {list(r.extreme_ray_columns)}",
             f"redundant columns:   {list(r.redundant_columns)}",
             f"zero columns:        {list(r.zero_columns)}"]
    if r.regions:
        lines.append("regions (element | dim | volume | integral):")
        lines += [f"  {list(g.element)} | {g.dim} | {g.volume!r} | {g.integral!r}"
                  for g in r.regions]
    lines += [f"note: {d}" for d in r.diagnostics]
    return "\n".join(lines) + "\n"


# every command and format, byte for byte; the only value read back from the
# output is elapsed_s. The matrices hold counts, so encode reproduces each one
@pytest.mark.parametrize("rows", ["1,3,1,2\n1,2,0,1\n", "1,0\n0,1\n0,0\n", "0,0\n0,0\n"],
                         ids=["wedge", "flat", "zero"])
@pytest.mark.parametrize("command, fmt", [
    *[("evaluate", f) for f in ("json", "csv", "text")],
    *[("numeric", f) for f in ("json", "csv", "text")],
    *[(c, f) for c in ("compare", "sweep") for f in ("json", "csv")],
    ("encode", None),
])
def test_report_text_per_command_and_format(capsys, tmp_path, rows, command, fmt):
    path = tmp_path / "m.csv"
    path.write_text(rows)
    matrix = np.array([[float(v) for v in line.split(",")] for line in rows.split()])
    spikes = tmp_path / "spikes.txt"
    spikes.write_text(f"# neurons={matrix.shape[1]} duration={matrix.shape[0]}\n" + "".join(
        f"{j + 1}\t{i + 0.5}\n" * int(matrix[i, j]) for i, j in np.ndindex(*matrix.shape)))
    argv = {"evaluate": ["--input", str(path)],
            "numeric": ["--input", str(path), "--n", "8"],
            "compare": ["--input", str(path), "--n", "4,8"],
            "sweep": ["--input", str(tmp_path)],
            "encode": ["--input", str(spikes), "--slot-length", "1.0",
                       "--slots", str(matrix.shape[0])]}[command]
    code, out = run(capsys, [command, *argv, *(["--format", fmt] if fmt else [])])
    assert code == 0
    assert out == expected_output(command, fmt, matrix, str(path), spikes, out)
