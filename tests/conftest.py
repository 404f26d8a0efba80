"""Shared fixtures: the worked 2x4 example matrix and small helpers."""

from __future__ import annotations

from itertools import combinations, pairwise

import numpy as np
import pytest

from qcsense import DataMatrix, OrderTable, load_matrix, order_table
from qcsense.dowker import BLOCK

# 2x4 worked example: row order sequences (3,4,2,1) and (2,1,3,4).
EXAMPLE_CSV = "8.23,4.19,2.56,3.96\n4.78,2.88,5.76,13.43\n"


@pytest.fixture
def example_matrix() -> DataMatrix:
    return load_matrix(EXAMPLE_CSV)


@pytest.fixture
def rng():
    return np.random.Generator(np.random.PCG64(20260815))


def random_tie_free_matrix(rng, m: int, n: int) -> DataMatrix:
    """Random matrix; resample until every row is duplicate-free."""
    while True:
        vals = rng.standard_normal((m, n))
        if all(np.unique(vals[i]).size == n for i in range(m)):
            return DataMatrix(vals)


def random_order_table(rng, m: int, n: int, ties: bool):
    if ties:
        # few distinct values, so most rows carry ties; ranks break them
        # by column index
        vals = rng.integers(0, 4, size=(m, n)).astype(float)
        return order_table(DataMatrix(vals, check_ties=False))
    return order_table(random_tie_free_matrix(rng, m, n))


def shared_rank_table(rng, m: int, n: int) -> OrderTable:
    """Ranks of a four-level matrix with tied entries sharing a rank:
    ord[i, a] = #{b : M[i, b] <= M[i, a]}."""
    vals = rng.integers(0, 4, size=(m, n))
    return OrderTable((vals[:, None, :] <= vals[:, :, None]).sum(axis=2))


def face_list(m: int, max_size: int) -> list[tuple[int, ...]]:
    """The faces of `dowker.subset_tables(m, max_size)` as 0-based vertex
    tuples in its documented numbering: by size, then lexicographic."""
    return [c for s in range(1, min(max_size, m) + 1) for c in combinations(range(m), s)]


def prefix_gaps(src: np.ndarray, dst: np.ndarray, max_size: int):
    """Oracle for `dowker.subset_gaps`, same blocks and dtype: each face's
    min over its rows for every column of dst (not only the front), by
    prefix minima along a depth-first walk of the faces (each face extends
    the face before it by one vertex, or backs up), then the max.  Each
    face's row is written at its index in `face_list`."""
    m, n = src.shape
    verts = face_list(m, max_size)
    depth_first = sorted(range(len(verts)), key=verts.__getitem__)
    blocks = -(-n // BLOCK)  # the fewest blocks of at most BLOCK, widths within one
    for start, stop in pairwise(n * i // blocks for i in range(blocks + 1)):
        gaps = np.empty((len(verts), stop - start), dtype=np.result_type(src, dst))
        stack: list[np.ndarray] = []
        for k in depth_first:
            vs = verts[k]
            row = src[vs[-1], start:stop, None] - dst[vs[-1]]
            stack = stack[: len(vs) - 1]
            stack.append(np.minimum(stack[-1], row) if stack else row)
            gaps[k] = stack[-1].max(axis=1)
        yield range(start, stop), gaps


def assert_tie_break_order(F) -> None:
    """The entries of a filtration sorted by (grade, face size, vertices)."""
    key = [(g, f.bit_count(), [i for i in range(F.m) if f >> i & 1]) for g, f in F.entries]
    assert key == sorted(key)


# Acceptance tests register one human-readable verdict line each; the
# hook below prints them after the run so they survive output capture.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
