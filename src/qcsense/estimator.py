"""Maximal persistence lengths L_k, the dimension estimate they induce,
and subsampling with quartile boxplot summaries.

L_k(M) is the longest dimension-k persistence interval seen across the
per-column ray filtrations.  The estimate of the sensed dimension is one
plus the largest k whose L_k clears a threshold; subsampling replaces the
single threshold call by a first-quartile test over replicates.

Per column, lengths come from the birth table by apparent pairs, clearing
and a count of the pairs each dimension must have; only the columns those
leave open go through the F2 reduction (see `_block_lengths`).
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Iterable, Mapping

import numpy as np

from .dowker import MAX_ROWS, subset_gaps, subset_tables
from .ingest import DataMatrix, OrderTable, order_table
from .persistence import MaxLengths, pair_reduction

GENERATOR_NAME = "numpy.random.PCG64"

# Anchor columns per apparent-pair pass: its (S, CHUNK) key scratch stays far
# below the S x BLOCK birth table, so the pass adds nothing to peak memory.
CHUNK = 8


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
    - c for all i in sigma, so its birth numerator is max_i ord_i(a) minus
    the gap max_b min_i (ord_i(a) - ord_i(b)) of `subset_gaps`.
    """
    tmax = ord_arr.max(axis=0).astype(np.int32)
    # Rank differences lie in (-n, n): int16 halves the memory traffic of
    # the prefix minima, which bounds the cost of this loop on large blocks.
    ranks = ord_arr.astype(np.int16 if ord_arr.shape[1] < 2**15 else np.int32)
    for cols, gaps in subset_gaps(ranks, ranks, max_size):
        yield cols, np.subtract(tmax[cols.start : cols.stop], gaps, out=gaps)


@lru_cache(maxsize=None)
def _rank_tables(m: int, max_size: int):
    """The faces of subset_tables(m, max_size) renumbered by tie-break
    rank, i.e. by (size, vertex order), so that each size is one range.

    Returns (perm, start, cofacets, facet_slots, cofacet_slots).  perm[r]
    is the subset_tables index of the face of rank r, and the faces of
    size s hold ranks start[s] .. start[s+1]-1.  cofacets[s] is the
    (N_s, m-s) array of cofacet ranks of the size-s faces, s < max_size.
    facet_slots[i] is the i-th facet rank of every face of size >= 2, and
    cofacet_slots[i] the i-th cofacet rank of every face of size 1 ..
    max_size-1; shorter lists repeat their first entry, which changes no
    max or min over the slots.  Every facet ranks below its face.
    """
    masks, _, sizes, facet_idx, tiebreak = subset_tables(m, max_size)
    perm = np.argsort(tiebreak)
    start = np.searchsorted(sizes[perm], np.arange(max_size + 2)).tolist()
    rank = {masks[k]: int(tiebreak[k]) for k in range(len(masks))}

    def faces(s):
        return perm[start[s] : start[s + 1]].tolist()

    def slots(tables, width):
        padded = [np.hstack([t, np.repeat(t[:, :1], width - t.shape[1], axis=1)]) for t in tables]
        return tuple(np.ascontiguousarray(col) for col in np.vstack(padded).T)

    cofacets = {
        s: np.array([[rank[masks[k] | 1 << v] for v in range(m) if not masks[k] >> v & 1]
                     for k in faces(s)]).reshape(-1, m - s)
        for s in range(1, max_size)
    }
    facet_slots = cofacet_slots = ()
    if max_size >= 3:  # the apparent-pair pass needs a dimension in 1 .. max_size-2
        facets = [tiebreak[[list(facet_idx[k]) for k in faces(s)]] for s in range(2, max_size + 1)]
        facet_slots = slots(facets, max_size)
        cofacet_slots = slots(list(cofacets.values()), m - 1)
    return perm, start, cofacets, facet_slots, cofacet_slots


def _apparent_pairs(key: np.ndarray, m: int, max_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Apparent pairs for (S, c) filtration keys, c columns indexed by
    rank, for the faces of rank m and up (size >= 2; needs max_size >= 3).

    Returns (young, apparent): young[i] is the key of the youngest facet
    of face m+i, whose rank is young[i] % S; apparent[i] says whether that
    facet and face m+i form an apparent pair.  Slot by slot, so no
    facet-by-key array is ever gathered.
    """
    _, _, _, facet_slots, cofacet_slots = _rank_tables(m, max_size)
    S = key.shape[0]
    young = key[facet_slots[0]]
    for f in facet_slots[1:]:
        np.maximum(young, key[f], out=young)
    old = key[cofacet_slots[0]]
    for f in cofacet_slots[1:]:
        np.minimum(old, key[f], out=old)
    return young, np.take_along_axis(old % S, young % S, axis=0) == np.arange(m, S)[:, None]


def _block_lengths(births: np.ndarray, tmax: np.ndarray, m: int, max_size: int,
                   out: np.ndarray) -> None:
    """Write the longest interval per dimension (grade numerators) of each
    column of one birth block into out, one row per column.

    Every face is born by tmax (take b = a in the birth identity), so each
    ray filtration ends in the full (max_size-1)-skeleton of the simplex
    on [m].  Its homology fixes the pairs: dimension k <= max_size-2 has
    exactly C(m-1, k+1) finite pairs, and the oldest vertex is the only
    essential class in dimensions 0 .. d_up.  (The top dimension
    max_size-1 holds more essential cycles, but it exceeds d_up unless
    max_size = m, where the one top face destroys.)  Hence:

    - L_0 is that vertex's length, tmax minus the least vertex birth; no
      finite dimension-0 pair is longer;
    - dimensions max_size-1 .. d_up have no creators, so length 0;
    - for 1 <= k <= max_size-2, apparent pairs settle the dimension when
      there are enough of them.  (sigma, tau) is apparent when sigma is
      tau's youngest facet and tau is sigma's oldest cofacet, in the
      filtration order births*S + tie-break rank.  No column before tau
      contains sigma, so tau's boundary column is already reduced with
      pivot sigma: the pair is a persistence pair.  When a column has
      C(m-1, k+1) apparent pairs in dimension k, they are all its pairs
      there, and L_k is the longest of them.

    Apparent pairs are found in numpy, CHUNK columns at a time, with a
    running max over facet slots and min over cofacet slots.  Columns
    with an unfinished dimension go to _reduce_leftover.
    """
    S, B = births.shape
    perm, start, cofacets, _, _ = _rank_tables(m, max_size)
    top = max_size - 2
    key_type = np.int32 if (int(tmax.max()) + 1) * S < 2**31 else np.int64
    ranks = np.arange(S, dtype=key_type)[:, None]
    counts = [comb(m - 1, k + 1) for k in range(top + 1)]
    out[:, 0] = tmax - births[perm[:m]].min(axis=0)
    if top < 1:
        return
    for c0 in range(0, B, CHUNK):
        c1 = min(c0 + CHUNK, B)
        b = births[perm, c0:c1]
        key = b.astype(key_type) * S + ranks
        young, apparent = _apparent_pairs(key, m, max_size)
        length = np.where(apparent, (key[m:] - young) // S, 0)
        unfinished = np.zeros((top + 1, c1 - c0), dtype=bool)
        for k in range(1, top + 1):
            rows = slice(start[k + 2] - m, start[k + 3] - m)
            out[c0:c1, k] = length[rows].max(axis=0)
            unfinished[k] = apparent[rows].sum(axis=0) != counts[k]
        for j in np.flatnonzero(unfinished.any(axis=0)).tolist():
            dims = np.flatnonzero(unfinished[:, j]).tolist()
            out[c0 + j, dims] = _reduce_leftover(
                b[:, j], np.argsort(key[:, j]), apparent[:, j], dims, start, cofacets, m
            )


def _reduce_leftover(b, order, apparent, dims, start, cofacets, m) -> list[int]:
    """Longest finite pair per dimension in dims for one column, from one
    pair_reduction call.

    The reduction runs on coboundary columns (the anti-transposed boundary
    matrix): for each dimension k, the size-(k+1) faces youngest first,
    each with a bit at the reversed filtration position of every cofacet.
    The anti-transpose has the same persistence pairs (de Silva, Morozov
    and Vejdemo-Johansson, "Dualities in persistent (co)homology", 2011).
    Clearing: a face that destroys a dimension-(k-1) pair has a coboundary
    that reduces to zero, so the apparent destroyers are left out.  What
    stays is the C(m-1, k+1) creators plus the few non-apparent
    destroyers; no essential cycle of the top dimension enters, as it
    would in the boundary matrix.  The matrix is graded, so the
    dimensions never mix.

    b holds the column's births by rank, order its ranks in filtration
    order, and apparent[r - m] whether the face of rank r >= m is an
    apparent destroyer.
    """
    S = len(b)
    rev = np.empty(S, dtype=np.int64)
    rev[order[::-1]] = np.arange(S)
    width = (S + 7) // 8
    faces, packed = [], []
    for k in dims:
        s = k + 1
        f = start[s] + np.flatnonzero(~apparent[start[s] - m : start[s + 1] - m])
        f = f[np.argsort(rev[f])]
        bits = rev[cofacets[s][f - start[s]]]
        # bytes packed in numpy make the ints faster than OR-ing shifted bits
        cols = np.zeros((len(f), width), dtype=np.uint8)
        np.add.at(cols, (np.arange(len(f))[:, None], bits >> 3), (1 << (bits & 7)).astype(np.uint8))
        faces.append(f)
        packed.append(cols)
    data = np.concatenate(packed).tobytes()
    pairs, _ = pair_reduction(
        [int.from_bytes(data[i : i + width], "little") for i in range(0, len(data), width)]
    )
    destroyer = order[S - 1 - np.fromiter(pairs.keys(), dtype=np.int64, count=len(pairs))]
    creator = np.concatenate(faces)[np.fromiter(pairs.values(), dtype=np.int64, count=len(pairs))]
    lengths = b[destroyer] - b[creator]
    dim = np.searchsorted(start, creator, side="right") - 2
    return [int(lengths[dim == k].max(initial=0)) for k in dims]


def _lk_from_order(ord_arr: np.ndarray, d_up: int) -> tuple[np.ndarray, np.ndarray]:
    """(L numerators maxed over columns, (n, d_up+1) per-column numerator
    lengths)."""
    m, n = ord_arr.shape
    max_size = min(d_up + 2, m)
    tmax = ord_arr.max(axis=0)
    per_column = np.zeros((n, d_up + 1), dtype=np.int64)
    for cols, births in _subset_births_blocks(ord_arr, max_size):
        block = slice(cols.start, cols.stop)
        _block_lengths(births, tmax[block], m, max_size, per_column[block])
    return per_column.max(axis=0), per_column


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
