"""Discretized central region membership and the completeness verdict."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcsense import DataMatrix, completeness_test, discretized_central_region
from qcsense.central import BLOCK, PIVOTS, undominated_columns

from conftest import random_tie_free_matrix


def central_loop(values: np.ndarray) -> list[int]:
    """Reference: row-by-row strict-below intersection per column."""
    m, n = values.shape
    members = []
    for a in range(n):
        alive = values[0] < values[0, a]
        if alive.any():
            for i in range(1, m):
                alive &= values[i] < values[i, a]
                if not alive.any():
                    break
        if not alive.any():
            members.append(a)
    return members


def pareto_minimal_columns(F: np.ndarray) -> list[int]:
    """Reference: insert columns in row-sum order, keeping those no kept
    column strictly beats."""
    keep: list[int] = []
    for idx in np.argsort(F.sum(axis=0), kind="stable"):
        if not any((F[:, k] < F[:, idx]).all() for k in keep):
            keep.append(int(idx))
    return keep


class TestUndominatedColumns:
    """The pivot pass and the blocked pass against the reference loops, on
    either side of PIVOTS and of two blocks, up to interleave's 8 rows."""

    @given(st.integers(1, 8), st.integers(1, 2 * BLOCK + 40), st.integers(1, 6),
           st.sampled_from(["levels", "anti-correlated", "one-winner"]),
           st.integers(0, 2**32 - 1))
    @example(m=3, n=PIVOTS, levels=6, kind="levels", seed=0)
    @example(m=3, n=PIVOTS + 1, levels=6, kind="levels", seed=1)
    @example(m=8, n=2 * BLOCK + 1, levels=6, kind="anti-correlated", seed=2)
    @example(m=8, n=2 * BLOCK + 1, levels=2, kind="one-winner", seed=3)
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_loops_with_ties(self, m, n, levels, kind, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        values = rng.integers(0, levels, size=(m, n)).astype(float)
        if kind == "anti-correlated":
            # a column beaten in the other rows wins the last: all on the front
            values[-1] = -values[:-1].sum(axis=0)
        elif kind == "one-winner":
            values[:, n // 2] = values.min(axis=1) - 1.0
        got = undominated_columns(values)
        if kind == "anti-correlated":
            assert got.tolist() == list(range(n))
        elif kind == "one-winner":
            assert got.tolist() == [n // 2]
        assert got.tolist() == central_loop(values)
        assert set(got.tolist()) == set(pareto_minimal_columns(values))
        members = discretized_central_region(DataMatrix(values, check_ties=False)).members
        assert members == frozenset((got + 1).tolist())


class TestDiscretizedCentralRegion:
    def test_example_matrix(self, example_matrix):
        rep = discretized_central_region(example_matrix)
        assert rep.members == frozenset({2, 3})
        assert rep.fraction == 0.5

    def test_single_row(self):
        M = DataMatrix(np.array([[4.0, 1.0, 3.0, 2.0]]))
        rep = discretized_central_region(M)
        assert rep.members == frozenset({2})
        assert rep.fraction == 0.25

    def test_opposite_rows_all_central(self):
        row = np.array([1.0, 3.0, 2.0])
        M = DataMatrix(np.vstack([row, -row]))
        rep = discretized_central_region(M)
        assert rep.members == frozenset({1, 2, 3})
        assert rep.fraction == 1.0

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_row_minima_always_members(self, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        m = int(rng.integers(1, 5))
        n = int(rng.integers(2, 10))
        M = random_tie_free_matrix(rng, m, n)
        members = discretized_central_region(M).members
        for i in range(m):
            assert int(np.argmin(M.values[i])) + 1 in members

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_invariance_and_equivariance(self, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        m = int(rng.integers(1, 4))
        n = int(rng.integers(2, 8))
        M = random_tie_free_matrix(rng, m, n)
        members = discretized_central_region(M).members

        cubed = discretized_central_region(DataMatrix(M.values**3))
        assert cubed.members == members

        perm = rng.permutation(n)
        permuted = discretized_central_region(DataMatrix(M.values[:, perm]))
        relabeled = frozenset(int(np.nonzero(perm == a - 1)[0][0]) + 1 for a in members)
        assert permuted.members == relabeled


class TestCompletenessTest:
    def test_verdict_above_threshold(self, example_matrix):
        res = completeness_test(example_matrix, threshold=0.05)
        assert res.verdict == "complete-evidence"
        assert res.fraction == 0.5

    def test_verdict_below_threshold(self, example_matrix):
        res = completeness_test(example_matrix, threshold=0.6)
        assert res.verdict == "no-evidence"

    def test_boundary_is_not_evidence(self, example_matrix):
        # verdict requires fraction strictly above the threshold
        res = completeness_test(example_matrix, threshold=0.5)
        assert res.verdict == "no-evidence"

    def test_threshold_validation(self, example_matrix):
        with pytest.raises(ValueError):
            completeness_test(example_matrix, threshold=0.0)

    def test_nan_threshold_rejected(self, example_matrix):
        with pytest.raises(ValueError, match="threshold must be positive"):
            completeness_test(example_matrix, threshold=float("nan"))

    def test_json_shape(self, example_matrix):
        obj = completeness_test(example_matrix, threshold=0.05).to_json_obj()
        assert obj["verdict"] == "complete-evidence"
        assert obj["fraction"] == 0.5
        assert obj["members"] == [2, 3]
