"""End-to-end checks of the command-line reports."""

from __future__ import annotations

import json
import subprocess
import sys

import numpy as np
import pytest

from qcsense import DataMatrix, RegularPairSpec, load_matrix, order_table
from qcsense.cli import _emit, build_parser, main

from conftest import EXAMPLE_CSV

REPORT_KEYS = {
    "schema",
    "tool",
    "version",
    "command",
    "params",
    "input_digest",
    "seed",
    "generator",
    "warnings",
    "result",
}


@pytest.fixture
def example_csv(tmp_path):
    path = tmp_path / "matrix.csv"
    path.write_text(EXAMPLE_CSV)
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestAnalyze:
    def test_report_content(self, capsys, example_csv):
        code, out, _ = run_cli(
            capsys, ["analyze", "--input", example_csv, "--dup", "1", "--epsilon", "0.1"]
        )
        assert code == 0
        report = json.loads(out)
        assert set(report) == REPORT_KEYS
        assert report["schema"] == 1
        assert report["tool"] == "qcsense"
        assert report["command"] == "analyze"
        assert report["seed"] is None and report["generator"] is None
        assert report["input_digest"].startswith("sha256:")
        res = report["result"]
        assert res["m"] == 2 and res["n"] == 4
        assert res["L"] == [0.75, 0.0]
        assert res["d_hat_low"] == 1
        assert res["flags"] == []

    def test_per_column_lengths(self, capsys, example_csv):
        code, out, _ = run_cli(
            capsys, ["analyze", "--input", example_csv, "--dup", "1", "--per-column"]
        )
        assert code == 0
        per_col = json.loads(out)["result"]["per_column"]
        assert per_col["1"] == [0.75, 0.0]
        assert set(per_col) == {"1", "2", "3", "4"}

    def test_default_dup_from_row_count(self, capsys, example_csv):
        code, out, _ = run_cli(capsys, ["analyze", "--input", example_csv])
        assert code == 0
        assert json.loads(out)["result"]["d_up"] == 0  # min(m - 2, 6) with m = 2

    def test_byte_identical_reruns(self, capsys, example_csv):
        _, first, _ = run_cli(capsys, ["analyze", "--input", example_csv, "--dup", "1"])
        _, second, _ = run_cli(capsys, ["analyze", "--input", example_csv, "--dup", "1"])
        assert first == second

    def test_params_carry_nothing_machine_dependent(self, capsys, example_csv, monkeypatch):
        monkeypatch.setenv("QCSENSE_THREADS", "3")
        _, out, _ = run_cli(capsys, ["analyze", "--input", example_csv])
        assert set(json.loads(out)["params"]) == {"input", "dup", "epsilon", "per_column"}
        with pytest.raises(SystemExit):
            main(["analyze", "--input", example_csv, "--threads", "2"])

    def test_output_file_matches_stdout(self, capsys, example_csv, tmp_path):
        dest = tmp_path / "report.json"
        _, out, _ = run_cli(
            capsys, ["analyze", "--input", example_csv, "--output", str(dest)]
        )
        assert dest.read_text() == out

    def test_missing_input_exits_2(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, ["analyze", "--input", str(tmp_path / "nope.csv")])
        assert code == 2
        assert out == ""
        assert "error:" in err

    def test_zero_epsilon_rejected_by_parser(self, example_csv):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--input", example_csv, "--epsilon", "0"])
        assert exc.value.code == 2


class TestStrictMode:
    def test_emit_escalates_warnings(self, capsys):
        report = {"warnings": ["ties broken"], "result": {}}
        assert _emit(report, None, strict=True) == 1
        assert _emit(report, None, strict=False) == 0
        capsys.readouterr()

    def test_strict_clean_input_still_zero(self, capsys, example_csv):
        code, _, _ = run_cli(capsys, ["analyze", "--input", example_csv, "--strict"])
        assert code == 0


class TestSubsample:
    def test_report_and_replicate_csv(self, capsys, example_csv, tmp_path):
        csv_path = tmp_path / "reps.csv"
        code, out, err = run_cli(
            capsys,
            [
                "subsample", "--input", example_csv, "--mode", "points",
                "--size", "3", "--reps", "5", "--dup", "1", "--seed", "0",
                "--replicates-csv", str(csv_path),
            ],
        )
        assert code == 0
        report = json.loads(out)
        assert report["seed"] == 0
        assert report["generator"] == "numpy.random.PCG64"
        res = report["result"]
        assert res["mode"] == "points"
        assert res["reps"] == 5
        assert set(res["boxplots"]) == {"0", "1"}
        assert "replicates" in err  # progress goes to stderr
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "L0,L1"
        assert len(lines) == 6

    def test_fixed_seed_reproduces_everything(self, capsys, example_csv, tmp_path):
        argv = [
            "subsample", "--input", example_csv, "--mode", "points",
            "--size", "3", "--reps", "4", "--dup", "1", "--seed", "9",
            "--replicates-csv", str(tmp_path / "r.csv"),
        ]
        _, first, _ = run_cli(capsys, argv)
        first_csv = (tmp_path / "r.csv").read_text()
        _, second, _ = run_cli(capsys, argv)
        assert first == second
        assert (tmp_path / "r.csv").read_text() == first_csv

    def test_csv_path_derived_from_output(self, capsys, example_csv, tmp_path):
        dest = tmp_path / "sub.json"
        code, out, _ = run_cli(
            capsys,
            [
                "subsample", "--input", example_csv, "--mode", "functions",
                "--size", "2", "--reps", "3", "--dup", "1",
                "--output", str(dest),
            ],
        )
        assert code == 0
        expected = tmp_path / "sub.replicates.csv"
        assert json.loads(out)["result"]["replicates_csv"] == str(expected)
        assert expected.exists()

    def test_no_csv_unless_asked(self, capsys, example_csv, tmp_path, monkeypatch):
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        code, out, _ = run_cli(
            capsys,
            ["subsample", "--input", example_csv, "--mode", "points",
             "--size", "3", "--reps", "2", "--dup", "1"],
        )
        assert code == 0
        assert json.loads(out)["result"]["replicates_csv"] is None
        assert list(cwd.iterdir()) == []

    def test_oversized_subsample_exits_2(self, capsys, example_csv):
        code, _, err = run_cli(
            capsys,
            ["subsample", "--input", example_csv, "--mode", "points",
             "--size", "10", "--reps", "2", "--dup", "1"],
        )
        assert code == 2
        assert "error:" in err

    def test_too_many_faces_exits_2(self, capsys, tmp_path):
        rng = np.random.Generator(np.random.PCG64(3))
        path = tmp_path / "tall.csv"
        path.write_text(DataMatrix(rng.permuted(np.tile(np.arange(4.0), (32, 1)), axis=1)).to_csv())
        code, out, err = run_cli(
            capsys,
            ["subsample", "--input", str(path), "--mode", "functions",
             "--size", "30", "--reps", "1"],
        )
        assert (code, out) == (2, "")
        assert "8,656,936 faces" in err


class TestCentral:
    def test_report_content(self, capsys, example_csv):
        code, out, _ = run_cli(capsys, ["central", "--input", example_csv])
        assert code == 0
        res = json.loads(out)["result"]
        assert res["members"] == [2, 3]
        assert res["fraction"] == 0.5
        assert res["verdict"] == "complete-evidence"
        assert res["threshold"] == 0.05
        assert (res["m"], res["n"]) == (2, 4)

    def test_high_threshold_flips_verdict(self, capsys, example_csv):
        _, out, _ = run_cli(capsys, ["central", "--input", example_csv, "--threshold", "0.9"])
        assert json.loads(out)["result"]["verdict"] == "no-evidence"


class TestGenerate:
    def test_writes_loadable_artifacts(self, capsys, tmp_path):
        outdir = tmp_path / "gen"
        code, out, _ = run_cli(
            capsys,
            ["generate", "--family", "linear", "--d", "2", "--m", "3",
             "--n", "20", "--seed", "5", "--outdir", str(outdir)],
        )
        assert code == 0
        report = json.loads(out)
        assert report["result"]["shape"] == {"m": 3, "n": 20, "d": 2}

        spec = RegularPairSpec.from_json_obj(json.loads((outdir / "spec.json").read_text()))
        matrix = load_matrix((outdir / "matrix.csv").read_bytes())
        cloud = np.loadtxt(outdir / "cloud.csv", delimiter=",")
        # the matrix is exactly the family evaluated on the written cloud
        assert np.array_equal(matrix.values, spec.directions @ cloud.T)
        assert order_table(matrix).ord.shape == (3, 20)

    def test_deterministic_across_runs(self, capsys, tmp_path):
        argv_a = ["generate", "--family", "quadratic", "--d", "2", "--m", "4",
                  "--n", "15", "--seed", "3", "--outdir", str(tmp_path / "a")]
        argv_b = ["generate", "--family", "quadratic", "--d", "2", "--m", "4",
                  "--n", "15", "--seed", "3", "--outdir", str(tmp_path / "b")]
        _, out_a, _ = run_cli(capsys, argv_a)
        _, out_b, _ = run_cli(capsys, argv_b)
        digest = lambda o: json.loads(o)["result"]["matrix_digest"]
        assert digest(out_a) == digest(out_b)
        assert (tmp_path / "a" / "matrix.csv").read_text() == (
            tmp_path / "b" / "matrix.csv"
        ).read_text()


class TestInterleave:
    def test_self_distance_zero(self, capsys, example_csv):
        code, out, _ = run_cli(capsys, ["interleave", "--a", example_csv, "--b", example_csv])
        assert code == 0
        report = json.loads(out)
        assert report["result"]["distance"] == 0.0
        assert report["result"]["grids"] == [4, 4]
        assert set(report["input_digest"]) == {"a", "b"}

    def test_known_refinement_distance(self, capsys, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("1.0,2.0\n")
        b.write_text("1.0,2.0,3.0,4.0\n")
        _, out, _ = run_cli(capsys, ["interleave", "--a", str(a), "--b", str(b)])
        res = json.loads(out)["result"]
        assert res["distance"] == 0.25
        assert (res["numerator"], res["denominator"]) == (1, 4)

    def test_row_mismatch_exits_2(self, capsys, tmp_path, example_csv):
        single = tmp_path / "one.csv"
        single.write_text("1.0,2.0,3.0,4.0\n")
        code, _, err = run_cli(capsys, ["interleave", "--a", example_csv, "--b", str(single)])
        assert code == 2
        assert "row counts differ" in err


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "qcsense" in capsys.readouterr().out

    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    SUBSAMPLE = ["subsample", "--mode", "functions", "--size", "2", "--reps", "2",
                 "--dup", "0"]

    def test_threads_env_fallback(self, capsys, example_csv, monkeypatch):
        monkeypatch.setenv("QCSENSE_THREADS", "2")
        _, out, _ = run_cli(capsys, self.SUBSAMPLE + ["--input", example_csv])
        assert json.loads(out)["params"]["threads"] == 2

    def test_default_threads_report_is_machine_independent(
        self, capsys, example_csv, monkeypatch
    ):
        monkeypatch.delenv("QCSENSE_THREADS", raising=False)
        reports = []
        for cpus in (1, 8):
            monkeypatch.setattr("os.cpu_count", lambda cpus=cpus: cpus)
            code, out, _ = run_cli(capsys, self.SUBSAMPLE + ["--input", example_csv])
            assert code == 0
            reports.append(out)
        assert reports[0] == reports[1]
        assert json.loads(reports[0])["params"]["threads"] is None

    def test_invalid_threads_env_exits_2(self, capsys, example_csv, monkeypatch):
        # rejected like --threads: not an integer, or below 1
        for value in ("soon", "0", "-2"):
            monkeypatch.setenv("QCSENSE_THREADS", value)
            code, _, err = run_cli(capsys, self.SUBSAMPLE + ["--input", example_csv])
            assert code == 2
            assert "QCSENSE_THREADS" in err and value in err


class TestInstalledEntryPoint:
    def test_console_script_runs(self, example_csv):
        proc = subprocess.run(
            [sys.executable, "-m", "qcsense.cli", "analyze", "--input", example_csv],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["tool"] == "qcsense"
