"""Maximal persistence lengths L_k, the dimension estimate they induce,
and subsampling with quartile boxplot summaries.

L_k(M) is the longest dimension-k persistence interval seen across the
per-column ray filtrations.  The estimate of the sensed dimension is one
plus the largest k whose L_k clears a threshold; subsampling replaces the
single threshold call by a first-quartile test over replicates.

Per column, lengths come from the gap table of `dowker.subset_gaps` by
apparent pairs, clearing and a count of the pairs each dimension must
have; only the columns those leave open go through the F2 reduction (see
`_block_lengths`).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Mapping

import numpy as np

from .central import undominated_columns
from .dowker import FaceTables, subset_gaps, subset_tables
from .ingest import DataMatrix, OrderTable, order_table, rank_rows
from .persistence import MaxLengths, pair_reduction

GENERATOR_NAME = "numpy.random.PCG64"

# Anchor columns per `_apparent` pass and `_reduce_chunk` setup.  On 40
# functions-m10 replicates (m = 10, d_up = 3, S = 637 faces) 16 took 10-19%
# less kernel time than 8, and up to 16 the kernel's tracemalloc peak stays
# that of subset_gaps (0.578 MB), while 24 lifts it to 0.635 MB and 32 to
# 0.744 MB: the chunk scratch is about 20 bytes a face per column.
CHUNK = 16


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

    @classmethod
    def from_values(cls, values: np.ndarray) -> "BoxplotSummary":
        vals = np.asarray(values, dtype=np.float64)
        q1, q2, q3 = (float(q) for q in np.quantile(vals, [0.25, 0.5, 0.75]))
        iqr = q3 - q1
        lw = q1 - 1.5 * iqr
        uw = q3 + 1.5 * iqr
        outliers = tuple(float(v) for v in np.sort(vals[(vals < lw) | (vals > uw)]))
        return cls(q1, q2, q3, iqr, lw, uw, outliers)

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

    def replicates_csv(self) -> str:
        header = ",".join(f"L{k}" for k in range(self.d_up + 1))
        rows = [",".join(repr(float(x)) for x in row) for row in self.replicates]
        return header + "\n" + "\n".join(rows) + "\n"


def default_d_up(m: int) -> int:
    """min(m-2, 6): lengths for k >= m-1 carry no geometric signal and the
    per-column complex size blows up combinatorially in d_up."""
    return max(min(m - 2, 6), 0)


def _apparent(g: np.ndarray, faces: FaceTables) -> tuple[np.ndarray, ...]:
    """Apparent pairs of c columns from their (S, c) gaps g, for the faces
    m and up (size >= 2; needs max_size >= 3).

    Returns (apparent, young, length, need): apparent[i] says whether face
    m+i and its youngest facet, facet slot young[i], form an apparent
    pair; length[k-1] and need[k-1] are, for 1 <= k <= max_size-2, the
    longest apparent pair of dimension k and the number of its pairs that
    are not apparent.

    The youngest facet is the first facet slot with the least gap (facet
    slots descend in face index), the oldest cofacet the first cofacet
    slot with the greatest gap (cofacet slots ascend), and the pair is
    apparent when the facet's oldest-cofacet slot is slot_table's.  The
    scratch is gaps, 8-bit slots and masks, a gather per slot.
    """
    m, start, cofacets, facets = faces.m, faces.start, faces.cofacet_table, faces.facet_table
    top, slots = faces.max_size - 2, faces.slot_table
    # slots rise through each loop, so a slot is the max of t * [x beats
    # the best so far] over the slots t taken
    old = g.take(cofacets[:, 0], axis=0)
    old_slot = np.zeros(old.shape, dtype=slots.dtype)
    for t in range(1, m - 1):
        x = g.take(cofacets[:, t], axis=0)
        np.maximum(old_slot, (x > old).view(np.uint8) * slots.dtype.type(t), out=old_slot)
        np.maximum(old, x, out=old)
    least = g.take(facets[:, 0], axis=0)
    young = np.zeros(least.shape, dtype=slots.dtype)
    apparent = old_slot.take(facets[:, 0], axis=0) == slots[:, :1]
    for t in range(1, faces.max_size):
        x = g.take(facets[:, t], axis=0)
        younger = x < least
        np.maximum(young, younger.view(np.uint8) * slots.dtype.type(t), out=young)
        np.copyto(apparent, old_slot.take(facets[:, t], axis=0) == slots[:, t, None], where=younger)
        np.minimum(least, x, out=least)
    least -= g[m:]  # a pair's length is its facet's gap less its own
    least *= apparent
    rows = [start[k + 2] - m for k in range(1, top + 1)]
    pairs = np.array([comb(m - 1, k + 1) for k in range(1, top + 1)])
    need = pairs[:, None] - np.add.reduceat(apparent, rows, axis=0, dtype=np.intp)
    return apparent, young, np.maximum.reduceat(least, rows, axis=0), need


def _block_lengths(gaps: np.ndarray, faces: FaceTables, out: np.ndarray) -> None:
    """Write the longest interval per dimension (grade numerators) of each
    column of one `subset_gaps` block into out, one row per column.  gaps
    has one row per face of `faces`, in its numbering.

    Face sigma enters column a's ray filtration at tmax - g_sigma, tmax =
    max_i ord_i(a), so the filtration order is descending gap with ties
    to the lower face index, and a length is a gap difference: no length
    depends on tmax.  Every face is in by tmax (g >= 0, take b = a), so
    each ray filtration ends in the full (max_size-1)-skeleton of the
    simplex on [m].  Its homology fixes the pairs: dimension k <=
    max_size-2 has exactly C(m-1, k+1) finite pairs, and the oldest vertex
    is the only essential class in dimensions 0 .. d_up.  (The top
    dimension max_size-1 holds more essential cycles, but it exceeds d_up
    unless max_size = m, where the one top face destroys.)  Hence:

    - L_0 is that vertex's length, the largest vertex gap; no finite
      dimension-0 pair is longer;
    - dimensions max_size-1 .. d_up have no creators, so length 0;
    - for 1 <= k <= max_size-2, (sigma, tau) is an apparent pair when
      sigma is tau's youngest facet and tau is sigma's oldest cofacet in
      the filtration order.  No column before tau contains sigma, so
      tau's boundary column is already reduced with pivot sigma: the pair
      is a persistence pair.  A dimension with C(m-1, k+1) apparent pairs
      is settled by them; otherwise _reduce_chunk finds the rest and
      stops at the count.

    Both passes work on CHUNK columns at a time: `_apparent` in numpy on
    the int16 gaps alone, and `_reduce_chunk` with one sort per chunk,
    leaving only the F2 reductions to run per column.
    """
    m, top = faces.m, faces.max_size - 2
    out[:, 0] = gaps[:m].max(axis=0)
    if top < 1:
        return
    for c0 in range(0, gaps.shape[1], CHUNK):
        g = np.ascontiguousarray(gaps[:, c0 : c0 + CHUNK])
        apparent, young, length, need = _apparent(g, faces)
        out[c0 : c0 + g.shape[1], 1 : top + 1] = length.T
        if need.any():
            _reduce_chunk(g, apparent, young, need, faces, out[c0 : c0 + CHUNK])


def _reduce_chunk(g, apparent, young, need, faces, out) -> None:
    """Raise out[j, k] to the longest non-apparent pair of each unfinished
    dimension k of column j, for the columns of gaps g and `_apparent`
    output (apparent, young, need).

    One pair_reduction per column and unfinished dimension, on coboundary
    columns (same pairs as the boundary matrix: de Silva, Morozov and
    Vejdemo-Johansson, "Dualities in persistent (co)homology", 2011): the
    size-(k+1) faces youngest first, with bits at the reversed positions
    of their cofacets.  Left out are the destroyers of dimension k-1,
    apparent or found by the previous reduction (clearing: they reduce to
    zero), and the apparent creators.  For an apparent pair (sigma, tau),
    tau is sigma's oldest cofacet, the pivot of its coboundary, and sigma
    is tau's youngest facet, so every column with bit tau comes after
    sigma, which is then already reduced: `owned` regenerates it when tau
    turns up as a pivot, and the pairs are those of the full reduction.
    What enters are creators (in dimension 1 also non-apparent
    dimension-0 destroyers), so the reduction stops at the count; any
    later column would reduce to zero.

    The filtration order, the reversed positions and the free faces (in
    no apparent pair) of the columns with an unfinished dimension are
    found once for the chunk; only building a column's coboundaries and
    its reductions run column by column.
    """
    m, cofacets, facets = faces.m, faces.cofacet_table, faces.facet_table
    cols = np.flatnonzero(need.any(axis=0))
    g, apparent, young, need = (x.take(cols, axis=1) for x in (g, apparent, young, need))
    (S, c), top = g.shape, faces.max_size - 2
    # faces in filtration order (descending gap, ties to the lower index)
    order = np.argsort(~g.T, axis=1, kind="stable").astype(np.int32)
    rev = np.empty((c, S), dtype=np.int32)  # reversed positions, by face
    np.put_along_axis(rev, order, np.arange(S - 1, -1, -1, dtype=np.int32)[None, :], axis=1)
    face, cut = _free_faces(apparent, young, need, rev, faces)
    for j, (todo, row) in enumerate(zip(need.T.tolist(), cols.tolist())):
        r, line, found = rev[j], out[row], ()
        for k, q in enumerate(todo, 1):
            if not q:
                continue
            width = m - k - 1  # the real cofacet slots of a size-(k+1) face

            def owned(p):  # sigma's coboundary if tau, at p, is apparent
                tau = order.item(j, S - 1 - p) - m
                if not apparent.item(tau, j):
                    return None
                sigma = facets.item(tau, young.item(tau, j))
                return _column(r[cofacets[sigma, :width]].tolist())

            live = face[cut[j * top + k - 1] : cut[j * top + k]]
            if found:
                live = live[[p not in found for p in r[live].tolist()]]
            # found: destroyer position -> creator, cleared from dimension k+1
            found, _ = pair_reduction(list(map(_column, r[cofacets[live, :width]].tolist())), owned, q)
            best = max(g.item(live.item(i), j) - g.item(order.item(j, S - 1 - p), j)
                       for p, i in found.items())
            line[k] = max(line[k], best)


def _free_faces(apparent, young, need, rev, faces) -> tuple[np.ndarray, list[int]]:
    """The faces of each column j and unfinished dimension k that are in
    no apparent pair, of size k+1 and youngest first by the reversed
    positions rev: face[cut[j*top + k-1] : cut[j*top + k]], top =
    max_size - 2."""
    m, start, top = faces.m, faces.start, faces.max_size - 2
    c, S = rev.shape
    free = ~apparent[: start[top + 2] - m]
    creators = apparent[start[3] - m :].copy()
    for k in range(1, top + 1):
        unfinished = need[k - 1] > 0
        free[start[k + 1] - m : start[k + 2] - m] &= unfinished
        creators[start[k + 2] - start[3] : start[k + 3] - start[3]] &= unfinished
    # a creator is the youngest facet of its apparent face of size k+2
    tau, j = np.divmod(np.flatnonzero(creators) + (start[3] - m) * c, c)
    free[faces.facet_table.T.take(young[tau, j] * np.intp(S - m) + tau) - m, j] = False
    j, face = np.nonzero(free.T)
    face += m
    group = j * top + np.searchsorted(start, face, side="right") - 3  # (column, dimension)
    face = face[np.argsort(group * S + rev[j, face])]
    return face, [0, *np.cumsum(np.bincount(group, minlength=c * top)).tolist()]


def _column(bits: list[int]) -> int:
    col = 0
    for x in bits:
        col |= 1 << x
    return col


def _lk_from_order(ord_arr: np.ndarray, d_up: int) -> tuple[np.ndarray, np.ndarray]:
    """(L numerators maxed over columns, (n, d_up+1) per-column numerator
    lengths)."""
    m, n = ord_arr.shape
    max_size = min(d_up + 2, m)
    per_column = np.zeros((n, d_up + 1), dtype=np.int64)
    faces = subset_tables(m, max_size)
    # Rank differences lie in (-n, n): int16 halves the memory traffic of
    # the fallback scans and keeps the witness columns small.
    ranks = ord_arr.astype(np.int16 if n < 2**15 else np.int32)
    for cols, gaps in subset_gaps(ranks, ranks[:, undominated_columns(ranks)], max_size):
        _block_lengths(gaps, faces, per_column[cols.start : cols.stop])
        del gaps  # no block outlives its use while the next one is built
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


def subsample_points(
    M: DataMatrix,
    n_s: int,
    reps: int,
    d_up: int | None = None,
    seed: int = 0,
    progress=None,
) -> SubsampleResult:
    """L-vectors of `reps` random n_s-column submatrices.

    Columns are drawn uniformly without replacement; each submatrix is
    re-ranked on its own n_s-point grid from the ranks of M, so exact ties
    keep their column-index order.  Draws are made sequentially from a
    PCG64 stream, so results are bit-reproducible for a given seed.
    """
    if not (1 <= n_s <= M.n):
        raise ValueError(f"subsample size {n_s} outside [1..{M.n}]")
    if reps < 1:
        raise ValueError("reps must be >= 1")
    if d_up is None:
        d_up = default_d_up(M.m)
    T = order_table(M)
    rng = np.random.Generator(np.random.PCG64(seed))
    draws = [rng.choice(M.n, size=n_s, replace=False) for _ in range(reps)]
    rows = []
    for idx in draws:
        # each row of T.ord is a permutation of 1..n, so ranking the drawn
        # entries re-ranks the submatrix with ties in column-index order
        L_num, _ = _lk_from_order(rank_rows(T.ord[:, idx]), d_up)
        rows.append(L_num / float(n_s))
        if progress is not None:
            progress(len(rows), reps)
    return _summarize(np.vstack(rows), "points", d_up, n_s, reps)


def subsample_functions(
    M: DataMatrix,
    m_s: int,
    reps: int,
    d_up: int | None = None,
    seed: int = 0,
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
    rows = []
    for idx in draws:
        L_num, _ = _lk_from_order(T.ord[idx], d_up)
        rows.append(L_num / float(M.n))
        if progress is not None:
            progress(len(rows), reps)
    return _summarize(np.vstack(rows), "functions", d_up, m_s, reps)


def _summarize(table: np.ndarray, mode: str, d_up: int, size: int, reps: int) -> SubsampleResult:
    table.setflags(write=False)
    boxplots = {k: BoxplotSummary.from_values(table[:, k]) for k in range(d_up + 1)}
    return SubsampleResult(mode, table, boxplots, d_up, size, reps)


def decide_dimension(summaries: Mapping[int, BoxplotSummary]) -> EstimateResult:
    """Subsampled lower bound: accept dimension-k signal only when the
    first quartile of the L_k replicates is strictly positive, and return
    1 + the largest accepted k (0 with 'no-signal' if none).  summaries
    maps each k to its boxplot, as `SubsampleResult.boxplots` does."""
    accepted = [k for k, bp in summaries.items() if bp.q1 > 0]
    if not accepted:
        return EstimateResult(0, ("no-signal",))
    return EstimateResult(1 + max(accepted), ())
