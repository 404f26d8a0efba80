"""Discretized central region: columns with no common strictly-smaller
column, and the completeness evidence test built on their fraction.

Column a is central when no other column beats it simultaneously in every
row; the fraction of central columns estimates the measure of the region
where the sensors admit no common descent direction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ingest import DataMatrix

BLOCK = 128  # columns tested at once; bounds the block x n dominance scratch


@dataclass(frozen=True)
class CentralReport:
    """members: 1-based column indices with empty strict-below
    intersection; fraction = len(members)/n."""

    members: frozenset[int]
    n: int

    @property
    def fraction(self) -> float:
        return len(self.members) / self.n


@dataclass(frozen=True)
class CompletenessResult:
    verdict: str  # 'complete-evidence' or 'no-evidence'
    fraction: float
    threshold: float
    report: CentralReport

    def to_json_obj(self) -> dict:
        return {
            "verdict": self.verdict,
            "fraction": self.fraction,
            "threshold": self.threshold,
            "members": sorted(self.report.members),
        }


def undominated_columns(X: np.ndarray) -> np.ndarray:
    """Ascending 0-based indices of the columns of X that no other column
    strictly beats in every row.  Columns go in ascending order of row 0,
    so a column's dominators come before it; each block is tested against
    the undominated columns found so far and itself (by transitivity one
    of those beats it if any column does)."""
    order = np.argsort(X[0], kind="stable")
    Y = X[:, order]
    front = np.empty(0, dtype=np.intp)  # positions in Y
    for start in range(0, X.shape[1], BLOCK):
        pos = np.arange(start, min(start + BLOCK, X.shape[1]))
        cand = np.concatenate([front, pos])
        beaten = np.ones((pos.size, cand.size), dtype=bool)
        for row in Y:
            beaten &= row[cand][None, :] < row[pos][:, None]
        front = np.concatenate([front, pos[~beaten.any(axis=1)]])
    return np.sort(order[front])


def discretized_central_region(M: DataMatrix) -> CentralReport:
    """Columns a with no column b such that M[i,b] < M[i,a] for every i;
    the column holding any row's minimum is always a member."""
    members = undominated_columns(M.values) + 1
    return CentralReport(frozenset(members.tolist()), M.n)


def completeness_test(M: DataMatrix, threshold: float = 0.05) -> CompletenessResult:
    """Evidence of completeness when the central fraction clears the
    threshold.  No calibrated test exists for finite n; the raw fraction
    is always reported and the threshold is the caller's responsibility.
    """
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    report = discretized_central_region(M)
    fraction = report.fraction
    verdict = "complete-evidence" if fraction > threshold else "no-evidence"
    return CompletenessResult(verdict, fraction, threshold, report)
