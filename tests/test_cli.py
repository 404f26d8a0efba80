"""End-to-end checks of the command-line reports."""

from __future__ import annotations

import hashlib
import json
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qcsense import (DataMatrix, OrderTable, RegularPairSpec, compute_Lk, load_matrix,
                     order_table, sample_pair)
from qcsense.cli import _emit, _load_input, build_parser, main
from qcsense.ingest import rank_rows

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
        assert report["schema"] == 2
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

    def test_default_dup_matches_explicit(self, capsys, example_csv):
        _, default, _ = run_cli(capsys, ["analyze", "--input", example_csv])
        _, explicit, _ = run_cli(capsys, ["analyze", "--input", example_csv, "--dup", "0"])
        assert default == explicit

    def test_params_carry_nothing_machine_dependent(self, capsys, example_csv):
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

    def test_unwritable_output_leaves_stdout_empty(self, capsys, example_csv, tmp_path):
        dest = str(tmp_path / "missing" / "r.json")
        for argv in (["analyze", "--input", example_csv],
                     ["interleave", "--a", example_csv, "--b", example_csv]):
            code, out, err = run_cli(capsys, argv + ["--output", dest])
            assert (code, out) == (2, "")
            assert "error:" in err

    def test_input_errors_name_the_library_option(self, capsys, tmp_path):
        # tie_policy and skip_header are load_matrix arguments, not flags
        for name, text in (("tied.csv", "1.0,1.0\n2.0,3.0\n"), ("header.csv", "c1,c2\n1.0,2.0\n")):
            path = tmp_path / name
            path.write_text(text)
            code, out, err = run_cli(capsys, ["analyze", "--input", str(path)])
            assert (code, out) == (2, "")
            assert "tie_policy" in err or "skip_header" in err
            assert "load_matrix(" in err

    def test_missing_input_exits_2(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, ["analyze", "--input", str(tmp_path / "nope.csv")])
        assert code == 2
        assert out == ""
        assert "error:" in err

    def test_zero_epsilon_rejected_by_parser(self, example_csv):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--input", example_csv, "--epsilon", "0"])
        assert exc.value.code == 2


class TestKernelModes:
    """The L-only kernel behind analyze and subsample agrees with the
    per-column one."""

    @pytest.fixture
    def sensed_csv(self, tmp_path):
        M = sample_pair(RegularPairSpec.random_quadratic(d=3, m=8, seed=7), n=160, seed=3)[1]
        path = tmp_path / "sensed.csv"
        path.write_text(M.to_csv())
        return str(path), M

    def test_analyze_l_with_and_without_per_column(self, capsys, sensed_csv):
        src, _ = sensed_csv
        reports = [json.loads(run_cli(capsys, ["analyze", "--input", src, "--dup", "3", *flag])[1])
                   for flag in ([], ["--per-column"])]
        assert reports[0]["result"]["L"] == reports[1]["result"]["L"]
        assert "per_column" not in reports[0]["result"]

    @pytest.mark.parametrize("mode,size", [("points", 60), ("functions", 5)])
    def test_replicates_are_per_column_maxima(self, capsys, sensed_csv, tmp_path, mode, size):
        src, M = sensed_csv
        csv = tmp_path / "reps.csv"
        code, _, _ = run_cli(capsys, ["subsample", "--input", src, "--mode", mode, "--size", str(size),
                                      "--reps", "4", "--dup", "3", "--seed", "11",
                                      "--replicates-csv", str(csv)])
        assert code == 0
        T = order_table(M)
        rng = np.random.Generator(np.random.PCG64(11))
        rows = ["L0,L1,L2,L3"]
        for _ in range(4):
            idx = rng.choice(M.n if mode == "points" else M.m, size=size, replace=False)
            ranks = rank_rows(T.ord[:, idx]) if mode == "points" else T.ord[idx]
            P = compute_Lk(OrderTable(ranks), d_up=3, per_column=True)
            assert P.L == tuple(max(P.per_column[a][k] for a in P.per_column) for k in range(4))
            rows.append(",".join(repr(float(x)) for x in P.L))
        assert csv.read_bytes() == ("\n".join(rows) + "\n").encode()


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

    def test_failed_write_leaves_no_replicate_csv(self, capsys, example_csv, tmp_path):
        keep = tmp_path / "keep.csv"
        code, out, _ = run_cli(
            capsys,
            ["subsample", "--input", example_csv, "--mode", "points", "--size", "2",
             "--reps", "2", "--replicates-csv", str(keep),
             "--output", str(tmp_path / "missing" / "r.json")],
        )
        assert (code, out) == (2, "")
        assert not keep.exists()

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

    def test_default_threads_report_is_machine_independent(
        self, capsys, example_csv, monkeypatch
    ):
        reports = []
        for cpus in (1, 8):
            monkeypatch.setattr("os.cpu_count", lambda cpus=cpus: cpus)
            code, out, _ = run_cli(capsys, self.SUBSAMPLE + ["--input", example_csv])
            assert code == 0
            reports.append(out)
        assert reports[0] == reports[1]
        assert "threads" not in json.loads(reports[0])["params"]

    def test_threads_flag_is_ignored(self, capsys, example_csv):
        argv = self.SUBSAMPLE + ["--input", example_csv]
        _, plain, _ = run_cli(capsys, argv)
        code, out, _ = run_cli(capsys, argv + ["--threads", "2"])
        assert (code, out) == (0, plain)
        with pytest.raises(SystemExit) as exc:  # still validated
            main(argv + ["--threads", "0"])
        assert exc.value.code == 2

    def test_readme_commands_parse(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        commands = [
            shlex.split(line)[1:]
            for block in re.findall(r"```bash\n(.*?)```", readme, re.S)
            for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("qcsense ")
        ]
        for argv in commands:
            build_parser().parse_args(argv)
        assert {argv[0] for argv in commands} == {"analyze", "subsample", "central",
                                                  "generate", "interleave"}

    def test_one_process_matches_separate_runs(self, capsys, example_csv):
        # main builds its parser once per process: two subcommands run in
        # this process print what two fresh processes print
        calls = [["analyze", "--input", example_csv, "--dup", "1"],
                 ["central", "--input", example_csv]]
        together = [run_cli(capsys, argv)[1] for argv in calls]
        apart = [
            subprocess.run([sys.executable, "-m", "qcsense.cli", *argv],
                           capture_output=True, text=True, check=True).stdout
            for argv in calls
        ]
        assert together == apart
        assert build_parser() is build_parser()


def test_input_is_parsed_in_less_than_twice_its_size(tmp_path):
    # the file is read a line at a time and hashed as it is parsed: no
    # copy of the whole file (bytes, text or line list) sits beside the
    # matrix and one row's fields
    path = tmp_path / "wide.csv"
    path.write_text(DataMatrix(np.random.default_rng(0).random((10, 20_000))).to_csv())
    tracemalloc.start()
    try:
        matrix, digest = _load_input(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert matrix.values.shape == (10, 20_000)
    assert digest == "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest()
    assert peak < 2 * path.stat().st_size


class TestInstalledEntryPoint:
    def test_console_script_runs(self, example_csv):
        proc = subprocess.run(
            [sys.executable, "-m", "qcsense.cli", "analyze", "--input", example_csv],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["tool"] == "qcsense"
