"""Shared fixtures: the worked 2x4 example matrix and small helpers."""

from __future__ import annotations

import numpy as np
import pytest

from qcsense import DataMatrix, load_matrix, order_table

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


# Acceptance tests register one human-readable verdict line each; the
# hook below prints them after the run so they survive output capture.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
