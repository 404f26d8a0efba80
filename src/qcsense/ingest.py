"""Measurement-matrix loading, validation, and rank/order-sequence indexing.

A measurement matrix holds one row per sensor and one column per sample
point.  All downstream structure is built from the within-row rank of each
entry, so rows are required to be free of ties (an opt-in policy breaks
exact ties by column index instead of rejecting them).
"""

from __future__ import annotations

import errno
import os
from dataclasses import dataclass
from typing import BinaryIO, TextIO, Union

import numpy as np

Source = Union[str, bytes, os.PathLike, TextIO, BinaryIO]


class IngestError(ValueError):
    """Base class for measurement-matrix input failures."""


class NonNumericFieldError(IngestError):
    def __init__(self, row: int, col: int, text: str):
        self.row, self.col, self.text = row, col, text
        hint = ""
        if "\t" in text or ";" in text:
            hint = " (fields are comma-separated)"
        elif row == 1:
            hint = " (load_matrix(skip_header=True) skips a header line)"
        super().__init__(f"non-numeric field {text!r} at row {row}, column {col}{hint}")


class RaggedRowsError(IngestError):
    def __init__(self, row: int, expected: int, got: int):
        self.row, self.expected, self.got = row, expected, got
        super().__init__(f"row {row} has {got} fields, expected {expected}")


class DuplicateInRowError(IngestError):
    def __init__(self, row: int, value: float):
        self.row, self.value = row, value
        super().__init__(
            f"row {row} contains the repeated value {value!r}; rank order is"
            " ambiguous (load_matrix(tie_policy='break-by-column-index')"
            " orders ties by column instead)"
        )


class NonFiniteError(IngestError):
    def __init__(self, row: int, col: int, value: float):
        self.row, self.col, self.value = row, col, value
        super().__init__(f"non-finite value {value!r} at row {row}, column {col}")


@dataclass(frozen=True, eq=False)
class DataMatrix:
    """Validated m x n matrix of finite reals, with tie-free rows unless
    check_ties=False admits ties.

    `warnings` records load-time notes (tie-breaking, resampling).  Tie
    validation is waived for matrices whose ranks are made deterministic
    some other way: the column-index tie break of `load_matrix`, and
    `geometry.sample_pair`, which redraws tied points itself.  The tie
    check's row sort is kept for the first `order_table` call.
    """

    values: np.ndarray
    warnings: tuple[str, ...] = ()

    def __init__(self, values, warnings=(), check_ties=True):
        v = np.asarray(values, dtype=np.float64)
        if v.ndim != 2:
            raise IngestError(f"expected a 2-d array, got shape {v.shape}")
        if v.shape[0] < 1 or v.shape[1] < 1:
            raise IngestError(f"matrix must be at least 1x1, got {v.shape}")
        _check_finite(v)
        order = None
        if check_ties:
            order, tied = sort_rows(v)
            if tied.any():  # the first tied row and its smallest tied value
                i, k = np.argwhere(tied)[0]
                raise DuplicateInRowError(int(i) + 1, float(v[i, order[i, k]]))
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "warnings", tuple(warnings))
        object.__setattr__(self, "_order", order)

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
    """Per-row ranks of a matrix, the only array stored: at least 1x1,
    with integral entries in 1..n, as construction checks.

    ord[i][a] = 1-based rank of entry (i, a) within row i (exact ties by
    column index), so each row is a permutation of 1..n.  The derived
    sequences[i] lists row i's 1-based columns in ascending order of
    value: sequences[i][k-1] = a exactly when ord[i][a-1] = k.
    """

    ord: np.ndarray

    def __post_init__(self):
        o = np.asarray(self.ord)
        if o.ndim != 2 or not o.size:
            raise ValueError(f"rank table must be 2-d and at least 1x1, got shape {o.shape}")
        whole = o.dtype.kind in "biu" or bool((o == np.trunc(o)).all())
        if not whole or o.min() < 1 or o.max() > o.shape[1]:
            raise ValueError(f"ranks must be integers in 1..{o.shape[1]}")
        o = o.astype(np.int64)  # a copy: the caller's array stays as it was
        o.setflags(write=False)
        object.__setattr__(self, "ord", o)

    @property
    def m(self) -> int:
        return self.ord.shape[0]

    @property
    def n(self) -> int:
        return self.ord.shape[1]

    @property
    def sequences(self) -> np.ndarray:
        return sort_rows(self.ord)[0] + 1


def _read_text(source: Source) -> str:
    """The text of source, less one leading byte-order mark: spreadsheet
    exports start UTF-8 files with one, and a text-mode file keeps it."""
    if isinstance(source, str) and not os.path.exists(source):
        text = source.removeprefix("\ufeff")
        # A str naming no file is CSV text if it looks like one, else a
        # missing path (or a number).
        if "\n" in text or "," in text or not text.strip():
            return text
        try:
            float(text)
        except ValueError:
            raise FileNotFoundError(errno.ENOENT, "no such file", source) from None
        return text
    if isinstance(source, (str, os.PathLike)):
        with open(source, "rb") as fh:
            source = fh.read()
    elif not isinstance(source, bytes):
        source = source.read()
    if isinstance(source, bytes):
        try:
            source = source.decode()
        except UnicodeDecodeError as exc:
            line = source.count(b"\n", 0, exc.start) + 1
            raise IngestError(f"input is not UTF-8: byte {source[exc.start]:#04x} at offset "
                              f"{exc.start} (line {line})") from exc
    return source.removeprefix("\ufeff")


def load_matrix(
    source: Source,
    tie_policy: str = "reject",
    skip_header: bool = False,
) -> DataMatrix:
    """Parse CSV text (comma separator, decimal point) into a DataMatrix.

    tie_policy: 'reject' fails on any repeated value within a row;
    'break-by-column-index' keeps the matrix and orders exact ties by
    ascending column index, recording a warning.  A leading header line is
    an error unless skip_header strips it.  A str naming an existing file
    is read from that file; any other str is CSV text, except that one
    with no comma or newline that is no number raises FileNotFoundError.
    One leading byte-order mark is dropped, whatever the source.
    """
    if tie_policy not in ("reject", "break-by-column-index"):
        raise IngestError(f"unknown tie_policy {tie_policy!r}")
    # the text lives until split, the lines until parsed: the tie scan comes after both
    lines = [ln for ln in _read_text(source).splitlines() if ln.strip()]
    if skip_header:
        del lines[:1]
    if not lines:
        raise IngestError("empty input")
    width = lines[0].count(",") + 1
    values = np.empty((len(lines), width), dtype=np.float64)
    for i, ln in enumerate(lines, start=1):
        fields = ln.split(",")
        if len(fields) != width:
            _check_finite(values[: i - 1])  # an earlier non-finite value is the first error
            raise RaggedRowsError(i, width, len(fields))
        try:
            values[i - 1] = list(map(float, fields))
        except ValueError:
            _check_finite(values[: i - 1])
            _rescan(i, fields)
    del lines

    warnings: tuple[str, ...] = ()
    if tie_policy == "break-by-column-index":
        tied_rows = np.flatnonzero(sort_rows(values)[1].any(axis=1)) + 1
        if tied_rows.size:
            rows = ",".join(map(str, tied_rows))
            warnings = (f"exact ties in row(s) {rows} ordered by ascending column index",)
    return DataMatrix(values, warnings=warnings, check_ties=tie_policy == "reject")


def _check_finite(values: np.ndarray) -> None:
    """NonFiniteError names the first non-finite value in reading order."""
    bad = ~np.isfinite(values)
    if bad.any():
        i, a = np.argwhere(bad)[0]
        raise NonFiniteError(int(i) + 1, int(a) + 1, float(values[i, a]))


def _rescan(row: int, fields: list[str]) -> None:
    """Raise the error for the first bad token of a line that failed to
    parse as a whole."""
    for a, tok in enumerate(fields, start=1):
        try:
            x = float(tok)
        except ValueError:
            raise NonNumericFieldError(row, a, tok.strip()) from None
        if not np.isfinite(x):
            raise NonFiniteError(row, a, x)


def sort_rows(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The one row sort: `order`, each row's stable argsort (ties by
    column index), and the (m, n-1) mask `tied`, true at [i, k] when the
    k-th and (k+1)-th smallest entries of row i are equal."""
    order = np.argsort(values, axis=1)
    ordered = np.take_along_axis(values, order, axis=1)
    tied = ordered[:, 1:] == ordered[:, :-1]
    # the default sort is several times faster than the stable one and
    # agrees with it on every row without ties; rows with ties are redone
    rows = np.flatnonzero(tied.any(axis=1))
    order[rows] = np.argsort(values[rows], axis=1, kind="stable")
    return order, tied


def rank_rows(values: np.ndarray) -> np.ndarray:
    """1-based int64 ranks within each row, ties by column index."""
    return _ranks(sort_rows(values)[0])


def _ranks(order: np.ndarray) -> np.ndarray:
    ranks = np.empty(order.shape, dtype=np.int64)
    np.put_along_axis(ranks, order, np.arange(1, order.shape[1] + 1), axis=1)
    return ranks


def order_table(M: DataMatrix) -> OrderTable:
    """Rank every row of M.  Exact ties, possible only in matrices loaded
    under the tie-breaking policy, go to the lower column index.  The
    first call on a tie-checked matrix ranks from the tie check's sort and
    lets it go, so such a matrix is sorted once."""
    order = M._order
    object.__setattr__(M, "_order", None)
    return OrderTable(rank_rows(M.values) if order is None else _ranks(order))
