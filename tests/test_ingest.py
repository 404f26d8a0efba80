"""Matrix loading, validation errors, and rank/order-sequence extraction."""

from __future__ import annotations

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
    RaggedRowsError,
    load_matrix,
    order_table,
)

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

    def test_skip_header(self):
        M = load_matrix("c1,c2,c3\n1.0,2.0,3.0\n", skip_header=True)
        assert M.values.shape == (1, 3)

    def test_header_hint_in_error(self):
        with pytest.raises(NonNumericFieldError, match="skip_header"):
            load_matrix("c1,c2\n1.0,2.0\n")
        # the hint names the offending coordinates
        with pytest.raises(NonNumericFieldError, match="row 1, column 2"):
            load_matrix("1.0,oops\n")

    def test_ragged_rows(self):
        with pytest.raises(RaggedRowsError):
            load_matrix("1.0,2.0\n3.0\n")

    def test_nonfinite_rejected(self):
        with pytest.raises(NonFiniteError):
            load_matrix("1.0,inf\n")
        with pytest.raises(NonFiniteError):
            load_matrix("nan,1.0\n")

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

    def test_row_subset_preserves_ranks(self, example_matrix):
        T = order_table(example_matrix)
        S = T.row_subset([1])
        assert S.m == 1
        assert np.array_equal(S.ord[0], T.ord[1])

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
