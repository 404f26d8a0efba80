"""Maximal persistence lengths L_k, the dimension estimate they induce,
and subsampling with quartile boxplot summaries.

L_k(M) is the longest dimension-k persistence interval seen across the
per-column ray filtrations.  The estimate of the sensed dimension is one
plus the largest k whose L_k clears a threshold; subsampling replaces the
single threshold call by a first-quartile test over replicates.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .central import undominated_columns
from .dowker import MAX_ROWS, subset_tables
from .ingest import DataMatrix, OrderTable, order_table
from .persistence import MaxLengths, pair_reduction

GENERATOR_NAME = "numpy.random.PCG64"

BLOCK = 128  # anchor columns per birth-table block; bounds the block x |C| scratch


@dataclass(frozen=True)
class LkProfile:
    """L[k] for k = 0..d_up plus the per-column length records behind it.

    per_column maps 1-based column index to that column's MaxLengths.
    """

    L: tuple[float, ...]
    m: int
    n: int
    d_up: int
    per_column: Mapping[int, MaxLengths] | None = None

    def __post_init__(self):
        if len(self.L) != self.d_up + 1:
            raise ValueError("profile length must be d_up + 1")
        for x in self.L:
            if not (0.0 <= x <= 1.0):
                raise ValueError(f"L value {x} outside [0, 1]")


@dataclass(frozen=True)
class EstimateResult:
    """Integer estimate plus qualifying flags ('no-signal' when nothing
    cleared the threshold, 'd_up-saturated' when the top index did)."""

    value: int
    flags: tuple[str, ...] = ()

    def __int__(self) -> int:
        return self.value


@dataclass(frozen=True)
class BoxplotSummary:
    """Quartiles with 1.5*IQR whiskers over replicate values.

    Quartiles interpolate linearly at positions (N-1)*{0.25, 0.5, 0.75};
    outliers are the values strictly outside the whiskers.
    """

    q1: float
    q2: float
    q3: float
    iqr: float
    lower_whisker: float
    upper_whisker: float
    outliers: tuple[float, ...]
    n_replicates: int
    subsample_size: int

    @classmethod
    def from_values(cls, values: np.ndarray, subsample_size: int) -> "BoxplotSummary":
        vals = np.asarray(values, dtype=np.float64)
        q1, q2, q3 = (float(q) for q in np.quantile(vals, [0.25, 0.5, 0.75]))
        iqr = q3 - q1
        lw = q1 - 1.5 * iqr
        uw = q3 + 1.5 * iqr
        outliers = tuple(float(v) for v in np.sort(vals[(vals < lw) | (vals > uw)]))
        return cls(q1, q2, q3, iqr, lw, uw, outliers, int(vals.size), subsample_size)

    def to_json_obj(self) -> dict:
        return {
            "q1": self.q1,
            "q2": self.q2,
            "q3": self.q3,
            "iqr": self.iqr,
            "lw": self.lower_whisker,
            "uw": self.upper_whisker,
            "outliers": list(self.outliers),
        }


@dataclass(frozen=True, eq=False)
class SubsampleResult:
    """Replicated L-vectors with per-dimension boxplot summaries."""

    mode: str  # 'points' or 'functions'
    replicates: np.ndarray  # (reps, d_up+1), read-only
    boxplots: dict[int, BoxplotSummary]
    d_up: int
    subsample_size: int
    reps: int
    seed: int
    generator: str = GENERATOR_NAME

    def replicates_csv(self) -> str:
        header = ",".join(f"L{k}" for k in range(self.d_up + 1))
        rows = [",".join(repr(float(x)) for x in row) for row in self.replicates]
        return header + "\n" + "\n".join(rows) + "\n"

    def to_json_obj(self) -> dict:
        return {
            "mode": self.mode,
            "boxplots": {str(k): bp.to_json_obj() for k, bp in self.boxplots.items()},
            "d_up": self.d_up,
            "size": self.subsample_size,
            "reps": self.reps,
            "seed": self.seed,
            "generator": self.generator,
        }


def default_d_up(m: int) -> int:
    """min(m-2, 6): lengths for k >= m-1 carry no geometric signal and the
    per-column complex size blows up combinatorially in d_up."""
    return max(min(m - 2, 6), 0)


def _subset_births_blocks(ord_arr: np.ndarray, max_size: int):
    """Yield (column_range, births) blocks: births[k, j] is the grade
    numerator at which subset k enters the ray filtration of the block's
    j-th column.

    Entry grades follow from a min/max identity: subset sigma is present
    for column a at countdown c iff some column b has ord_i(b) <= ord_i(a)
    - c for all i in sigma, so its birth numerator is max_i ord_i(a) -
    max_b min_i (ord_i(a) - ord_i(b)).

    The max runs over C, the columns no other column strictly beats in
    every rank row.  Any b outside C is beaten in all m rows, hence on
    sigma, by some b* in C, so min_i (ord_i(a) - ord_i(b*)) is larger: the
    max over C equals the max over all n columns for every sigma and a.
    """
    m, n = ord_arr.shape
    masks, verts, _, _, _ = subset_tables(m, max_size)
    S = len(masks)
    tmax = ord_arr.max(axis=0).astype(np.int32)
    ord32 = ord_arr.astype(np.int32)
    front = ord32[:, undominated_columns(ord32)]
    for start in range(0, n, BLOCK):
        stop = min(start + BLOCK, n)
        block = slice(start, stop)
        births = np.empty((S, stop - start), dtype=np.int32)
        stack: list[np.ndarray] = []
        for k, vs in enumerate(verts):
            depth = len(vs)
            row = ord32[vs[-1], block][:, None] - front[vs[-1]][None, :]
            if depth == 1:
                stack = [row]
            else:
                stack = stack[: depth - 1]
                stack.append(np.minimum(stack[depth - 2], row))
            births[k] = tmax[block] - stack[-1].max(axis=1)
        yield range(start, stop), births


def _column_lengths(
    births_col: list[int],
    tmax: int,
    sizes: list[int],
    facets: tuple[tuple[int, ...], ...],
    tiebreak: np.ndarray,
    d_up: int,
) -> list[int]:
    """Max interval length (in grade numerators) per dimension for one
    column's ray filtration."""
    S = len(births_col)
    key = np.asarray(births_col, dtype=np.int64) * S + tiebreak
    order = np.argsort(key).tolist()
    pos = [0] * S
    for j, g in enumerate(order):
        pos[g] = j
    columns: list[int] = []
    for g in order:
        col = 0
        for f in facets[g]:
            col |= 1 << pos[f]
        columns.append(col)
    pairs, creators = pair_reduction(columns)
    best = [0] * (d_up + 1)
    for j in creators:
        g = order[j]
        k = sizes[g] - 1
        if k > d_up:
            continue
        birth = births_col[g]
        death = tmax if j not in pairs else births_col[order[pairs[j]]]
        if death - birth > best[k]:
            best[k] = death - birth
    return best


def _lk_from_order(ord_arr: np.ndarray, d_up: int) -> tuple[np.ndarray, list[list[int]]]:
    """(L numerators maxed over columns, per-column numerator lengths)."""
    m, n = ord_arr.shape
    max_size = min(d_up + 2, m)
    masks, verts, sizes_arr, facets, tiebreak = subset_tables(m, max_size)
    sizes = sizes_arr.tolist()
    tmax_all = ord_arr.max(axis=0)
    per_column: list[list[int]] = [None] * n  # type: ignore[list-item]
    for cols, births in _subset_births_blocks(ord_arr, max_size):
        for j, a in enumerate(cols):
            per_column[a] = _column_lengths(
                births[:, j].tolist(), int(tmax_all[a]), sizes, facets, tiebreak, d_up
            )
    L = np.max(np.asarray(per_column, dtype=np.int64), axis=0)
    return L, per_column


def compute_Lk(
    M: DataMatrix | OrderTable, d_up: int | None = None, per_column: bool = True
) -> LkProfile:
    """L_k(M) for k = 0..d_up: the largest dimension-k persistence length
    over all per-column ray filtrations.

    Accepts a DataMatrix (ranked here) or a prebuilt OrderTable.  d_up
    defaults to min(m-2, 6).
    """
    T = M if isinstance(M, OrderTable) else order_table(M)
    if T.m > MAX_ROWS:
        raise ValueError(f"m={T.m} rows exceed the {MAX_ROWS}-bit face masks")
    if d_up is None:
        d_up = default_d_up(T.m)
    if d_up < 0:
        raise ValueError("d_up must be >= 0")
    L_num, per_col = _lk_from_order(T.ord, d_up)
    n = T.n
    L = tuple(float(x) / n for x in L_num)
    records = None
    if per_column:
        records = {
            a + 1: MaxLengths(tuple(float(x) / n for x in lens))
            for a, lens in enumerate(per_col)
        }
    return LkProfile(L, T.m, n, d_up, records)


def d_hat_low(P: LkProfile, epsilon: float) -> EstimateResult:
    """1 + max{k : L[k] > epsilon}; 0 with 'no-signal' when nothing
    clears the threshold, 'd_up-saturated' when the top index does (the
    true value may exceed the computed range)."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    qualifying = [k for k, v in enumerate(P.L) if v > epsilon]
    flags = []
    if not qualifying:
        return EstimateResult(0, ("no-signal",))
    if P.L[P.d_up] > epsilon:
        flags.append("d_up-saturated")
    return EstimateResult(1 + max(qualifying), tuple(flags))


def _run_replicates(tasks, worker, threads: int, progress=None) -> list:
    total = len(tasks)
    if threads <= 1:
        out = []
        for i, t in enumerate(tasks):
            out.append(worker(t))
            if progress is not None:
                progress(i + 1, total)
        return out
    lock = threading.Lock()
    done = 0

    def counted(t):
        nonlocal done
        result = worker(t)
        if progress is not None:
            with lock:
                done += 1
                progress(done, total)
        return result

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(counted, tasks))


def subsample_points(
    M: DataMatrix,
    n_s: int,
    reps: int,
    d_up: int | None = None,
    seed: int = 0,
    threads: int = 1,
    progress=None,
) -> SubsampleResult:
    """L-vectors of `reps` random n_s-column submatrices.

    Columns are drawn uniformly without replacement; each submatrix is
    re-ranked on its own n_s-point grid.  Draws are made sequentially from
    a PCG64 stream, so results are bit-reproducible for a given seed and
    independent of the worker count.
    """
    if not (1 <= n_s <= M.n):
        raise ValueError(f"subsample size {n_s} outside [1..{M.n}]")
    if reps < 1:
        raise ValueError("reps must be >= 1")
    if d_up is None:
        d_up = default_d_up(M.m)
    rng = np.random.Generator(np.random.PCG64(seed))
    draws = [rng.choice(M.n, size=n_s, replace=False) for _ in range(reps)]

    def worker(idx: np.ndarray) -> np.ndarray:
        sub = M.values[:, idx]
        T = order_table(DataMatrix(sub))
        L_num, _ = _lk_from_order(T.ord, d_up)
        return L_num / float(n_s)

    rows = _run_replicates(draws, worker, threads, progress)
    return _summarize(np.vstack(rows), "points", d_up, n_s, reps, seed)


def subsample_functions(
    M: DataMatrix,
    m_s: int,
    reps: int,
    d_up: int | None = None,
    seed: int = 0,
    threads: int = 1,
    progress=None,
) -> SubsampleResult:
    """L-vectors of `reps` random m_s-row submatrices.

    Dropping rows leaves the surviving rows' orders untouched, so ranks
    are computed once and subset per replicate.
    """
    if not (1 <= m_s <= M.m):
        raise ValueError(f"subsample size {m_s} outside [1..{M.m}]")
    if reps < 1:
        raise ValueError("reps must be >= 1")
    if d_up is None:
        d_up = default_d_up(m_s)
    T = order_table(M)
    rng = np.random.Generator(np.random.PCG64(seed))
    draws = [rng.choice(M.m, size=m_s, replace=False) for _ in range(reps)]

    def worker(idx: np.ndarray) -> np.ndarray:
        L_num, _ = _lk_from_order(T.ord[idx], d_up)
        return L_num / float(M.n)

    rows = _run_replicates(draws, worker, threads, progress)
    return _summarize(np.vstack(rows), "functions", d_up, m_s, reps, seed)


def _summarize(
    table: np.ndarray, mode: str, d_up: int, size: int, reps: int, seed: int
) -> SubsampleResult:
    table.setflags(write=False)
    boxplots = {
        k: BoxplotSummary.from_values(table[:, k], size) for k in range(d_up + 1)
    }
    return SubsampleResult(mode, table, boxplots, d_up, size, reps, seed)


def decide_dimension(
    summaries: Mapping[int, BoxplotSummary] | Iterable[BoxplotSummary],
) -> EstimateResult:
    """Subsampled lower bound: accept dimension-k signal only when the
    first quartile of the L_k replicates is strictly positive, and return
    1 + the largest accepted k (0 with 'no-signal' if none)."""
    if isinstance(summaries, Mapping):
        items = sorted(summaries.items())
    else:
        items = list(enumerate(summaries))
    accepted = [k for k, bp in items if bp.q1 > 0]
    if not accepted:
        return EstimateResult(0, ("no-signal",))
    return EstimateResult(1 + max(accepted), ())
