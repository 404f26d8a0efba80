"""Matrix loading, validation errors, and rank/order-sequence extraction."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcsense import (
    DataMatrix,
    DuplicateInRowError,
    IngestError,
    NonFiniteError,
    NonNumericFieldError,
    OrderTable,
    RaggedRowsError,
    compute_Lk,
    load_matrix,
    order_table,
)
from qcsense import ingest
from qcsense.cli import main
from qcsense.ingest import rank_rows, sort_rows

from conftest import EXAMPLE_CSV


class TestLoadMatrix:
    def test_example_values(self, example_matrix):
        assert example_matrix.m == 2
        assert example_matrix.n == 4
        assert example_matrix.values[0, 0] == 8.23
        assert example_matrix.values[1, 3] == 13.43

    def test_accepts_path(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text(EXAMPLE_CSV)
        for source in (p, str(p)):
            M = load_matrix(source)
            assert M.values.shape == (2, 4)

    def test_accepts_file_object_and_bytes(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text(EXAMPLE_CSV)
        with open(p) as fh:
            assert load_matrix(fh).m == 2
        assert load_matrix(EXAMPLE_CSV.encode()).n == 4

    def test_byte_order_mark_is_dropped(self, tmp_path, capsys):
        # spreadsheet exports start UTF-8 files with a BOM
        plain = load_matrix(EXAMPLE_CSV.encode())
        data = b"\xef\xbb\xbf" + EXAMPLE_CSV.encode()
        p = tmp_path / "bom.csv"
        p.write_bytes(data)
        for source in (data, p, str(p), data.decode()):
            assert np.array_equal(load_matrix(source).values, plain.values)
        # a text-mode file keeps the BOM as U+FEFF
        with open(p, encoding="utf-8") as text_file, open(p, "rb") as binary_file:
            for fh in (text_file, binary_file):
                assert np.array_equal(load_matrix(fh).values, plain.values)
        reports = []
        for path, text in ((p, data), (tmp_path / "plain.csv", EXAMPLE_CSV.encode())):
            path.write_bytes(text)
            assert main(["analyze", "--input", str(path)]) == 0
            reports.append(json.loads(capsys.readouterr().out)["result"])
        assert reports[0] == reports[1]

    def test_undecodable_bytes_name_their_line(self, tmp_path):
        data = b"1,2\n3,\xe9\n"
        p = tmp_path / "latin1.csv"
        p.write_bytes(data)
        with open(p, "rb") as fh:
            for source in (data, p, fh):
                with pytest.raises(IngestError, match=r"byte 0xe9 at offset 6 \(line 2\)"):
                    load_matrix(source)

    def test_skip_header(self):
        M = load_matrix("c1,c2,c3\n1.0,2.0,3.0\n", skip_header=True)
        assert M.values.shape == (1, 3)

    def test_header_hint_in_error(self):
        with pytest.raises(NonNumericFieldError, match="skip_header"):
            load_matrix("c1,c2\n1.0,2.0\n")
        # the hint names the offending coordinates
        with pytest.raises(NonNumericFieldError, match="row 1, column 2"):
            load_matrix("1.0,oops\n")

    @pytest.mark.parametrize("text, hint", [
        ("1\t2\n3\t4\n", "(fields are comma-separated)"),
        ("1;2\n3;4\n", "(fields are comma-separated)"),
        ("c1,c2\n1.0,2.0\n", "(load_matrix(skip_header=True) skips a header line)"),
    ], ids=["tab", "semicolon", "header"])
    def test_error_names_the_separator_or_the_header(self, text, hint):
        with pytest.raises(NonNumericFieldError) as err:
            load_matrix(text)
        assert str(err.value).endswith(f"at row 1, column 1 {hint}")

    def test_ragged_rows(self):
        with pytest.raises(RaggedRowsError):
            load_matrix("1.0,2.0\n3.0\n")

    def test_nonfinite_rejected(self):
        with pytest.raises(NonFiniteError):
            load_matrix("1.0,inf\n")
        with pytest.raises(NonFiniteError):
            load_matrix("nan,1.0\n")

    def test_late_bad_field_names_its_row_and_column(self):
        lines = [",".join(repr(i * 10.0 + a) for a in range(6)) for i in range(40)]

        def load_with(i, a, tok):
            bad = list(lines)
            fields = bad[i - 1].split(",")
            fields[a - 1] = tok
            bad[i - 1] = ",".join(fields)
            return load_matrix("\n".join(bad) + "\n")

        with pytest.raises(NonNumericFieldError) as err:
            load_with(38, 4, " x7 ")
        assert (err.value.row, err.value.col, err.value.text) == (38, 4, "x7")
        assert "row 38, column 4" in str(err.value)
        with pytest.raises(NonFiniteError) as err:
            load_with(30, 6, "-inf")
        assert (err.value.row, err.value.col) == (30, 6)
        with pytest.raises(RaggedRowsError) as err:
            load_with(39, 2, "1.5,2.5")
        assert (err.value.row, err.value.got) == (39, 7)

    def test_first_bad_field_in_reading_order_wins(self):
        # a non-finite value is reported before a later unparsable or
        # ragged line, and before a later bad token on its own line
        with pytest.raises(NonFiniteError, match="row 2, column 3"):
            load_matrix("1,2,3\n4,5,nan\n7,oops,9\n")
        with pytest.raises(NonFiniteError, match="row 2, column 3"):
            load_matrix("1,2,3\n4,5,inf\n7,8\n")
        with pytest.raises(NonFiniteError, match="row 2, column 1"):
            load_matrix("1,2,3\ninf,oops,6\n")
        with pytest.raises(NonNumericFieldError, match="row 2, column 1"):
            load_matrix("1,2,3\noops,inf,6\n")

    def test_ties_rejected_by_default(self):
        with pytest.raises(DuplicateInRowError, match="row 1"):
            load_matrix("1.0,1.0\n2.0,3.0\n")

    def test_tie_breaking_policy(self):
        M = load_matrix("1.0,1.0\n2.0,3.0\n", tie_policy="break-by-column-index")
        assert len(M.warnings) == 1
        assert "column index" in M.warnings[0]
        T = order_table(M)
        # earlier column wins the tie
        assert list(T.ord[0]) == [1, 2]

    def test_empty_input(self):
        with pytest.raises(IngestError):
            load_matrix("")

    def test_missing_file_named(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(FileNotFoundError, match="missing.csv"):
            load_matrix("missing.csv")

    def test_existing_path_with_comma_is_read(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run,2.csv").write_text(EXAMPLE_CSV)
        assert load_matrix("run,2.csv").values.shape == (2, 4)
        assert load_matrix("1,2\n").values.tolist() == [[1.0, 2.0]]  # no such file: CSV text

    def test_lone_number_is_one_by_one(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert load_matrix("5").values.tolist() == [[5.0]]

    def test_values_read_only(self, example_matrix):
        with pytest.raises(ValueError):
            example_matrix.values[0, 0] = 0.0

    def test_csv_round_trip(self, example_matrix):
        again = load_matrix(example_matrix.to_csv())
        assert np.array_equal(again.values, example_matrix.values)


class TestOrderTable:
    def test_example_sequences(self, example_matrix):
        T = order_table(example_matrix)
        assert {tuple(map(int, row)) for row in T.sequences} == {
            (3, 4, 2, 1),
            (2, 1, 3, 4),
        }

    def test_example_ranks(self, example_matrix):
        T = order_table(example_matrix)
        assert [list(map(int, r)) for r in T.ord] == [[4, 3, 1, 2], [2, 1, 3, 4]]

    def test_sequences_invert_ranks(self, example_matrix):
        T = order_table(example_matrix)
        for i in range(T.m):
            for k in range(T.n):
                a = T.sequences[i, k]
                assert T.ord[i, a - 1] == k + 1

    @pytest.mark.parametrize("ranks", [[[1.5, 2], [1, 2]], [[0, 1]], [[1, 3]], [[np.nan, 1]]],
                             ids=["fraction", "zero", "past-n", "nan"])
    def test_rejects_ranks_outside_one_to_n(self, ranks):
        with pytest.raises(ValueError, match=r"ranks must be integers in 1\.\.2"):
            OrderTable(ranks)

    def test_rejects_an_empty_table(self):
        with pytest.raises(ValueError, match=r"at least 1x1, got shape \(2, 0\)"):
            OrderTable(np.empty((2, 0)))

    def test_copies_the_callers_array(self):
        a = np.array([[1, 2], [2, 1]])
        T = OrderTable(a)
        assert a.flags.writeable and T.ord is not a
        a[0, 0] = 2
        assert T.ord.tolist() == [[1, 2], [2, 1]] and not T.ord.flags.writeable

    def test_accepts_shared_ranks(self):
        # rows need not be permutations: tied entries may share a rank
        assert OrderTable(np.array([[1.0, 1.0], [2.0, 1.0]])).ord.tolist() == [[1, 1], [2, 1]]

    @given(
        st.lists(
            st.lists(st.integers(0, 10_000), min_size=5, max_size=5, unique=True),
            min_size=1,
            max_size=4,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_ranks_are_permutations(self, rows):
        M = DataMatrix(np.array(rows, dtype=float))
        T = order_table(M)
        for i in range(T.m):
            assert sorted(map(int, T.ord[i])) == list(range(1, T.n + 1))

    @given(
        st.lists(st.integers(0, 10_000), min_size=4, max_size=8, unique=True),
        st.sampled_from(["cube", "exp", "affine"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_transform_invariance(self, row, kind):
        M = DataMatrix(np.array([row], dtype=float))
        x = M.values[0]
        if kind == "cube":
            y = x**3
        elif kind == "exp":
            y = np.exp(x / 10_000.0)
        else:
            y = 2.5 * x + 7.0
        N = DataMatrix(y[None, :])
        assert np.array_equal(order_table(M).ord, order_table(N).ord)


# Integer matrices with few distinct values, so most rows carry ties, and
# with many, so most rows are tie-free.
int_matrices = st.integers(1, 6).flatmap(
    lambda m: st.integers(1, 9).flatmap(
        lambda n: st.sampled_from([3, 1000]).flatmap(
            lambda top: st.lists(
                st.lists(st.integers(-top, top), min_size=n, max_size=n),
                min_size=m,
                max_size=m,
            )
        )
    )
).map(lambda rows: np.array(rows, dtype=np.int64))


def first_duplicate_loop(values):
    """The per-row tie check DataMatrix ran before sort_rows: (1-based
    row, smallest repeated value) of the first row with a repeat."""
    for i in range(values.shape[0]):
        row = np.sort(values[i])
        dup = np.nonzero(row[1:] == row[:-1])[0]
        if dup.size:
            return i + 1, float(row[dup[0]])
    return None


def tied_rows_loop(values):
    """The rows load_matrix named in its tie warning before sort_rows."""
    return [i + 1 for i in range(values.shape[0]) if np.unique(values[i]).size < values.shape[1]]


def tied_columns_loop(values):
    """The columns geometry.sample_pair redrew before sort_rows: the later
    column of each adjacent tied pair in each row's stable order."""
    cols = set()
    for i in range(values.shape[0]):
        order = np.argsort(values[i], kind="stable")
        row = values[i, order]
        for j in np.nonzero(row[1:] == row[:-1])[0]:
            cols.add(int(order[j + 1]))
    return sorted(cols)


class TestSortRows:
    @given(int_matrices)
    @settings(max_examples=100, deadline=None)
    def test_ranks_are_double_stable_argsort(self, values):
        expect = values.argsort(axis=1, kind="stable").argsort(axis=1, kind="stable") + 1
        got = rank_rows(values)
        assert got.dtype == np.int64
        assert np.array_equal(got, expect)

    @given(int_matrices)
    @settings(max_examples=100, deadline=None)
    def test_duplicate_error_matches_row_loop(self, values):
        expect = first_duplicate_loop(values)
        if expect is None:
            DataMatrix(values)
            return
        with pytest.raises(DuplicateInRowError) as err:
            DataMatrix(values)
        assert (err.value.row, err.value.value) == expect

    @given(int_matrices)
    @settings(max_examples=100, deadline=None)
    def test_tie_warning_matches_row_loop(self, values):
        text = "\n".join(",".join(map(str, row)) for row in values) + "\n"
        M = load_matrix(text, tie_policy="break-by-column-index")
        expect = tied_rows_loop(values)
        if not expect:
            assert M.warnings == ()
        else:
            assert M.warnings == (
                f"exact ties in row(s) {','.join(map(str, expect))}"
                " ordered by ascending column index",
            )

    @given(int_matrices)
    @settings(max_examples=100, deadline=None)
    def test_tied_columns_match_row_loop(self, values):
        order, tied = sort_rows(values)
        assert np.unique(order[:, 1:][tied]).tolist() == tied_columns_loop(values)


class TestOneSortPerMatrix:
    """A tie-checked matrix is ranked from its tie check's row sort."""

    @pytest.fixture
    def sorts(self, monkeypatch):
        calls = []

        def counted(values):
            calls.append(values.shape)
            return sort_rows(values)

        monkeypatch.setattr(ingest, "sort_rows", counted)
        return calls

    def test_compute_lk_on_loaded_matrix_sorts_once(self, sorts):
        compute_Lk(load_matrix(EXAMPLE_CSV))
        assert len(sorts) == 1

    def test_interleave_on_two_csvs_sorts_twice(self, sorts, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        a.write_text(EXAMPLE_CSV)
        b.write_text("1,2,3\n3,1,2\n")
        assert main(["interleave", "--a", str(a), "--b", str(b)]) == 0
        assert sorts == [(2, 4), (2, 3)]

    def test_table_matches_a_fresh_sort(self, sorts):
        values = np.random.default_rng(5).permutation(60).reshape(3, 20)
        M = DataMatrix(values)
        first, second = order_table(M), order_table(M)
        assert len(sorts) == 2  # the tie check's sort serves the first call only
        assert np.array_equal(first.ord, rank_rows(values))
        assert np.array_equal(second.ord, first.ord)

    def test_unchecked_matrices_still_sort_in_order_table(self, sorts):
        tied = "1,1,2\n3,2,2\n"
        M = load_matrix(tied, tie_policy="break-by-column-index")
        assert len(sorts) == 1  # the tie scan for the warning
        assert order_table(M).ord.tolist() == [[1, 2, 3], [3, 1, 2]]
        assert len(sorts) == 2
        order_table(DataMatrix([[2.0, 1.0]], check_ties=False))
        assert len(sorts) == 3
