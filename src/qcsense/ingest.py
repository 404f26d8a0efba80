"""Measurement-matrix loading, validation, and rank/order-sequence indexing.

A measurement matrix holds one row per sensor and one column per sample
point.  All downstream structure is built from the within-row rank of each
entry, so rows are required to be free of ties (an opt-in policy breaks
exact ties by column index instead of rejecting them).
"""

from __future__ import annotations

import errno
import io
import os
from dataclasses import dataclass, field
from typing import BinaryIO, TextIO, Union

import numpy as np

Source = Union[str, bytes, os.PathLike, TextIO, BinaryIO]


class IngestError(ValueError):
    """Base class for measurement-matrix input failures."""


class NonNumericFieldError(IngestError):
    def __init__(self, row: int, col: int, text: str):
        self.row, self.col, self.text = row, col, text
        super().__init__(
            f"non-numeric field {text!r} at row {row}, column {col}"
            " (pass skip_header=True if the first line is a header)"
            if row == 1
            else f"non-numeric field {text!r} at row {row}, column {col}"
        )


class RaggedRowsError(IngestError):
    def __init__(self, row: int, expected: int, got: int):
        self.row, self.expected, self.got = row, expected, got
        super().__init__(f"row {row} has {got} fields, expected {expected}")


class DuplicateInRowError(IngestError):
    def __init__(self, row: int, value: float):
        self.row, self.value = row, value
        super().__init__(
            f"row {row} contains the repeated value {value!r}; rank order is"
            " ambiguous (tie_policy='break-by-column-index' orders ties by"
            " column instead)"
        )


class NonFiniteError(IngestError):
    def __init__(self, row: int, col: int, value: float):
        self.row, self.col, self.value = row, col, value
        super().__init__(f"non-finite value {value!r} at row {row}, column {col}")


@dataclass(frozen=True, eq=False)
class DataMatrix:
    """Validated m x n matrix of finite reals with tie-free rows.

    `warnings` records load-time notes (tie-breaking, resampling).  Tie
    validation can be waived for matrices whose ranks are made
    deterministic some other way (the column-index tie break).
    """

    values: np.ndarray
    warnings: tuple[str, ...] = ()

    def __init__(self, values, warnings=(), check_ties=True):
        v = np.asarray(values, dtype=np.float64)
        if v.ndim != 2:
            raise IngestError(f"expected a 2-d array, got shape {v.shape}")
        if v.shape[0] < 1 or v.shape[1] < 1:
            raise IngestError(f"matrix must be at least 1x1, got {v.shape}")
        bad = ~np.isfinite(v)
        if bad.any():
            i, a = np.argwhere(bad)[0]
            raise NonFiniteError(int(i) + 1, int(a) + 1, float(v[i, a]))
        if check_ties:
            for i in range(v.shape[0]):
                row = np.sort(v[i])
                dup = np.nonzero(row[1:] == row[:-1])[0]
                if dup.size:
                    raise DuplicateInRowError(i + 1, float(row[dup[0]]))
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "warnings", tuple(warnings))

    @property
    def m(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[1]

    def to_csv(self) -> str:
        # repr of a Python float round-trips exactly through load_matrix
        return "\n".join(",".join(repr(float(x)) for x in row) for row in self.values) + "\n"


@dataclass(frozen=True, eq=False)
class OrderTable:
    """Per-row ranks and the order sequences they induce.

    ord[i][a] = 1-based rank of entry (i, a) within row i (count of entries
    in row i that are <= it).  sequences[i] lists the 1-based column indices
    of row i in ascending order of value, so sequences[i][k-1] = a exactly
    when ord[i][a-1] = k.
    """

    ord: np.ndarray
    sequences: np.ndarray

    def __post_init__(self):
        o = np.asarray(self.ord, dtype=np.int64)
        s = np.asarray(self.sequences, dtype=np.int64)
        if o.shape != s.shape or o.ndim != 2:
            raise ValueError(f"rank/sequence shape mismatch: {o.shape} vs {s.shape}")
        o.setflags(write=False)
        s.setflags(write=False)
        object.__setattr__(self, "ord", o)
        object.__setattr__(self, "sequences", s)

    @property
    def m(self) -> int:
        return self.ord.shape[0]

    @property
    def n(self) -> int:
        return self.ord.shape[1]

    def row_subset(self, rows: np.ndarray) -> "OrderTable":
        """Restrict to the given 0-based row indices; ranks are preserved
        because dropping rows does not disturb within-row orders."""
        return OrderTable(self.ord[rows], self.sequences[rows])


def _read_text(source: Source) -> str:
    if isinstance(source, bytes):
        return source.decode("utf-8")
    if isinstance(source, os.PathLike):
        with open(source, "rb") as fh:
            return fh.read().decode("utf-8")
    if isinstance(source, str):
        # A str is CSV text if it looks like one, else a path (or a number).
        if "\n" in source or "," in source or not source.strip():
            return source
        if os.path.exists(source):
            with open(source, "rb") as fh:
                return fh.read().decode("utf-8")
        try:
            float(source)
        except ValueError:
            raise FileNotFoundError(errno.ENOENT, "no such file", source) from None
        return source
    data = source.read()
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    return data


def load_matrix(
    source: Source,
    tie_policy: str = "reject",
    skip_header: bool = False,
) -> DataMatrix:
    """Parse CSV text (comma separator, decimal point) into a DataMatrix.

    tie_policy: 'reject' fails on any repeated value within a row;
    'break-by-column-index' keeps the matrix and orders exact ties by
    ascending column index, recording a warning.  A leading header line is
    an error unless skip_header strips it.  A str with no comma or newline
    that names no file and is no number raises FileNotFoundError.
    """
    if tie_policy not in ("reject", "break-by-column-index"):
        raise IngestError(f"unknown tie_policy {tie_policy!r}")
    text = _read_text(source)
    lines = [ln for ln in text.splitlines() if ln.strip() != ""]
    if skip_header and lines:
        lines = lines[1:]
    if not lines:
        raise IngestError("empty input")
    rows: list[list[float]] = []
    width = None
    for i, ln in enumerate(lines, start=1):
        fields = ln.split(",")
        if width is None:
            width = len(fields)
        elif len(fields) != width:
            raise RaggedRowsError(i, width, len(fields))
        parsed = []
        for a, tok in enumerate(fields, start=1):
            try:
                x = float(tok)
            except ValueError:
                raise NonNumericFieldError(i, a, tok.strip()) from None
            if not np.isfinite(x):
                raise NonFiniteError(i, a, x)
            parsed.append(x)
        rows.append(parsed)
    values = np.array(rows, dtype=np.float64)

    warnings: tuple[str, ...] = ()
    if tie_policy == "break-by-column-index":
        tied_rows = []
        for i in range(values.shape[0]):
            if np.unique(values[i]).size < values.shape[1]:
                tied_rows.append(i + 1)
        if tied_rows:
            warnings = (
                "exact ties in row(s) "
                + ",".join(map(str, tied_rows))
                + " ordered by ascending column index",
            )
    check = tie_policy == "reject"
    return DataMatrix(values, warnings=warnings, check_ties=check)


def order_table(M: DataMatrix) -> OrderTable:
    """Rank every row of M and record the induced order sequences.

    Stable argsort breaks exact ties by ascending column index, which only
    matters for matrices loaded under the tie-breaking policy.
    """
    values = M.values
    m, n = values.shape
    seq0 = np.argsort(values, axis=1, kind="stable")
    ranks = np.empty((m, n), dtype=np.int64)
    cols = np.arange(1, n + 1, dtype=np.int64)
    for i in range(m):
        ranks[i, seq0[i]] = cols
    return OrderTable(ranks, seq0 + 1)
