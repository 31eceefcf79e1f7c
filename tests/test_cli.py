"""End-to-end tests of the command-line interface."""

import json
from importlib import resources

import jsonschema
import numpy as np
import pytest

from conirep.cli import build_parser, main, read_matrix, write_matrix
from conirep.errors import DegenerateConeError, InputFormatError, IterationLimitError
from conirep.oracle import ir_num

from conftest import TILTED, VERR, perturbed


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
    with open(p, "w") as fh:
        write_matrix(matrix, fh)
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


@pytest.mark.parametrize("error", [DegenerateConeError, IterationLimitError])
def test_numerical_failure_exit_code(capsys, tilted_csv, monkeypatch, error):
    def fail(*args, **kwargs):
        raise error("forced failure")

    monkeypatch.setattr("conirep.evaluator.build_region", fail)
    code = main(["evaluate", "--input", tilted_csv])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert "numerical failure: forced failure" in captured.err


# two vertices of one region 4.4e-13 apart break its face lattice, and the
# pulling walk's chains came out ragged: a ValueError read as an input error
def test_ragged_triangulation_exit_code(capsys, tmp_path):
    path = tmp_path / "verr.csv"
    with open(path, "w") as fh:
        write_matrix(perturbed(VERR, 1e-12, 0), fh)
    code = main(["evaluate", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 4
    assert "a pulled chain does not have 5 vertices" in captured.err


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
