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
from typing import Iterable, Mapping

import numpy as np

from .dowker import MAX_ROWS, FaceTables, subset_gaps, subset_tables
from .ingest import DataMatrix, OrderTable, order_table
from .persistence import MaxLengths, pair_reduction

GENERATOR_NAME = "numpy.random.PCG64"

# Anchor columns per apparent-pair pass: its (S, CHUNK) key scratch stays far
# below the S x BLOCK gap table, so the pass adds nothing to peak memory.
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


def _apparent_pairs(key: np.ndarray, faces: FaceTables) -> tuple[np.ndarray, np.ndarray]:
    """Apparent pairs for (S, c) filtration keys of c columns, indexed by
    face, for the faces m and up (size >= 2; needs max_size >= 3).

    Returns (young, apparent): young[i] is the key of the youngest facet
    of face m+i, whose index is young[i] % S; apparent[i] says whether
    that facet and face m+i form an apparent pair.  Slot by slot, so no
    facet-by-key array is ever gathered.
    """
    S = key.shape[0]
    young = key[faces.facet_table[:, 0]]
    for f in faces.facet_table.T[1:]:
        np.maximum(young, key[f], out=young)
    old = key[faces.cofacet_table[:, 0]]
    for f in faces.cofacet_table.T[1:]:
        np.minimum(old, key[f], out=old)
    return young, np.take_along_axis(old % S, young % S, axis=0) == np.arange(faces.m, S)[:, None]


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
      sigma is tau's youngest facet and tau is sigma's oldest cofacet, in
      the filtration order -gaps*S + face index.  No column before tau
      contains sigma, so tau's boundary column is already reduced with
      pivot sigma: the pair is a persistence pair.  A dimension with
      C(m-1, k+1) apparent pairs is settled by them; otherwise
      _reduce_leftover finds the rest and stops at the count.

    Apparent pairs are found in numpy, CHUNK columns at a time, with a
    running max over facet slots and min over cofacet slots.
    """
    S, B = gaps.shape
    m, start, top = faces.m, faces.start, faces.max_size - 2
    key_type = np.int32 if (int(gaps.max()) + 1) * S < 2**31 else np.int64
    index = np.arange(S, dtype=key_type)[:, None]
    out[:, 0] = gaps[:m].max(axis=0)
    if top < 1:
        return
    for c0 in range(0, B, CHUNK):
        c1 = min(c0 + CHUNK, B)
        g = gaps[:, c0:c1]
        key = index - g.astype(key_type) * S
        young, apparent = _apparent_pairs(key, faces)
        length = np.where(apparent, (key[m:] - young) // S, 0)
        need = np.zeros((top + 1, c1 - c0), dtype=np.int64)  # non-apparent pairs
        for k in range(1, top + 1):
            rows = slice(start[k + 2] - m, start[k + 3] - m)
            out[c0:c1, k] = length[rows].max(axis=0)
            need[k] = comb(m - 1, k + 1) - apparent[rows].sum(axis=0)
        for j in np.flatnonzero(need.any(axis=0)).tolist():
            _reduce_leftover(g[:, j], key[:, j], young[:, j], apparent[:, j],
                             [(k, q) for k, q in enumerate(need[:, j].tolist()) if q],
                             faces, out[c0 + j])


def _reduce_leftover(gaps, key, young, apparent, need, faces, row) -> None:
    """Raise row[k] to the longest non-apparent pair of each unfinished
    dimension k of one column; need lists (k, its non-apparent pair count)
    in ascending k.  gaps holds the column's gaps by face, key its keys,
    and young / apparent the `_apparent_pairs` output for faces >= m.

    One pair_reduction per dimension, on coboundary columns (same pairs
    as the boundary matrix: de Silva, Morozov and Vejdemo-Johansson,
    "Dualities in persistent (co)homology", 2011): the size-(k+1) faces
    youngest first, with bits at the reversed positions of their
    cofacets.  Left out are the destroyers of dimension k-1, apparent or
    found by the previous reduction (clearing: they reduce to zero), and
    the apparent creators.  For an apparent pair (sigma, tau), tau is
    sigma's oldest cofacet, the pivot of its coboundary, and sigma is
    tau's youngest facet, so every column with bit tau comes after sigma,
    which is then already reduced: `owned` regenerates it when tau turns
    up as a pivot, and the pairs are those of the full reduction.  What
    enters are creators (in dimension 1 also non-apparent dimension-0
    destroyers), so the reduction stops at the count; any later column
    would reduce to zero.
    """
    m, start, cofacets = faces.m, faces.start, faces.cofacet_table
    S = len(gaps)
    order = np.argsort(key)
    rev = np.empty(S, dtype=np.int64)
    rev[order] = np.arange(S - 1, -1, -1)
    tau = m + np.flatnonzero(apparent)
    sigma = young[apparent] % S
    creator = dict(zip(rev[tau].tolist(), sigma.tolist()))

    def owned(p):
        s = creator.get(p)
        return None if s is None else _column(rev[cofacets[s]].tolist())

    paired = np.zeros(S, dtype=bool)
    paired[tau] = paired[sigma] = True
    free = m + np.flatnonzero(~paired[m : start[faces.max_size]])
    face, pos, bits = free.tolist(), rev[free].tolist(), rev[cofacets[free]].tolist()
    bounds = np.searchsorted(free, start).tolist()
    found, creators = [], []  # found: reversed positions of the destroyers
    for k, q in need:
        cols = [i for i in range(bounds[k + 1], bounds[k + 2]) if pos[i] not in found]
        cols.sort(key=pos.__getitem__)
        pairs, _ = pair_reduction([_column(bits[i]) for i in cols], owned, q)
        found += pairs
        creators += [face[cols[j]] for j in pairs.values()]
    destroyers = order[S - 1 - np.array(found, dtype=np.int64)]
    dims = np.searchsorted(start, creators, side="right") - 2
    np.maximum.at(row, dims, gaps[creators] - gaps[destroyers])


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
    for cols, gaps in subset_gaps(ranks, ranks, max_size):
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
        L_num, _ = _lk_from_order(T.ord[:, idx].argsort(axis=1).argsort(axis=1) + 1, d_up)
        rows.append(L_num / float(n_s))
        if progress is not None:
            progress(len(rows), reps)
    return _summarize(np.vstack(rows), "points", d_up, n_s, reps, seed)


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
