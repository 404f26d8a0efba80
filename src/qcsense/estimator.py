"""Maximal persistence lengths L_k, the dimension estimate they induce,
and subsampling with quartile boxplot summaries.

L_k(M) is the longest dimension-k persistence interval seen across the
per-column ray filtrations.  The estimate of the sensed dimension is one
plus the largest k whose L_k clears a threshold; subsampling replaces the
single threshold call by a first-quartile test over replicates.

Per column, lengths come from the gap table of `dowker.subset_gaps` by
apparent pairs, clearing and a count of the pairs each dimension must
have; only the columns those leave open go through the F2 reduction (see
`_block_lengths`).  Callers that need L alone (compute_Lk without
per-column lengths, both subsampling modes) first bound every bar by a
cone over one of the anchor's vertices and reduce only what can still
raise a maximum (`_screen_block`, `_class_bounds`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import pairwise
from math import comb
from typing import Mapping

import numpy as np

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

# The cone bound's apexes per anchor (its oldest vertices) and the
# (column, face) cells of one bound pass.  Against reducing every column
# for L alone (medians of interleaved runs on a shared 2-core x86
# machine), the screen took x0.78 of the time on analyze-n1200 (m = 10,
# d_up = 3, n = 1,200) with 1 apex, x0.64 with 2 or 3, x0.62 with 4 and
# x0.66 with 6, and x0.90 on the functions-m10 replicates (n = 150).
# 8192 cells keep the kernel's tracemalloc peak at the births' on
# analyze-n1200 and lift functions-m10's op peak 5% (6144: 2%, 2% slower
# on analyze).
APEXES = 4
CONE_CELLS = 8192


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
    rows = [start[k + 2] - m for k in range(1, top + 2)]
    pairs = np.array([comb(m - 1, k + 1) for k in range(1, top + 1)])
    # a sum per dimension: reduceat would cast all of apparent to intp first
    need = pairs[:, None] - np.array([apparent[a:b].sum(axis=0) for a, b in pairwise(rows)])
    return apparent, young, np.maximum.reduceat(least, rows[:-1], axis=0), need


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

    This is the per-column path.  A caller that needs only the maxima
    over columns takes `_screen_block` instead, which runs both passes
    only on the columns and dimensions whose cone bound (`_class_bounds`)
    still beats the running maximum.
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
    if cols.size < need.shape[1]:  # no copies when every column is unfinished
        g, apparent, young, need = (x.take(cols, axis=1) for x in (g, apparent, young, need))
    (S, c), top = g.shape, faces.max_size - 2
    order, shift = _age_keys(g.T)  # faces in filtration order
    order &= (1 << shift) - 1
    order = order.astype(np.int32, copy=False)
    rev = np.empty((c, S), dtype=np.int32)  # reversed positions, by face
    np.put_along_axis(rev, order, np.arange(S - 1, -1, -1, dtype=np.int32)[None, :], axis=1)
    free = _free_faces(apparent, young, need, order, rev, faces)
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

            face, cut = free[k - 1]
            live = face[cut[j] : cut[j + 1]]
            if found:
                live = live[[p not in found for p in r[live].tolist()]]
            # found: destroyer position -> creator, cleared from dimension k+1
            found, _ = pair_reduction(list(map(_column, r[cofacets[live, :width]].tolist())), owned, q)
            best = max(g.item(live.item(i), j) - g.item(order.item(j, S - 1 - p), j)
                       for p, i in found.items())
            line[k] = max(line[k], best)


def _free_faces(apparent, young, need, order, rev, faces) -> list:
    """The faces of size k+1 of each column j that are in no apparent
    pair, youngest first: face[cut[j] : cut[j+1]] with (face, cut) =
    free[k-1], for the dimensions k unfinished in some column (None for
    the others).  order and rev are the columns' filtration orders and
    reversed positions, by face.

    One dimension at a time, in int32 (c*S < 2**31: c <= CHUNK columns and
    S <= MAX_FACES faces): each free face is keyed j*S + p by its column j
    and reversed position p, one sort groups the keys by column, youngest
    first, and order reads the faces back at positions S-1-p."""
    start, top = faces.start, faces.max_size - 2
    c, S = rev.shape
    ends = np.arange(1, c + 1, dtype=np.int32) * S
    free = []
    for k in range(1, top + 1):
        unfinished = need[k - 1] > 0
        if not unfinished.any():
            free.append(None)
            continue
        lo, F = start[k + 1], start[k + 2] - start[k + 1]
        key = np.flatnonzero((~_barren(apparent, young, faces, k) & unfinished).T).astype(np.int32)
        j = key // F  # key is j*F + face - lo
        key += j * (S - F) + lo  # j*S + face
        key = rev.take(key)  # p
        j *= S
        key += j  # j*S + p
        del j
        key.sort()
        cut = [0, *np.searchsorted(key, ends).tolist()]
        key -= 2 * (key % S)
        key += S - 1  # j*S + S-1-p
        free.append((order.take(key), cut))
    return free


def _screen_block(gaps: np.ndarray, faces: FaceTables, best: np.ndarray):
    """Bound the bars of the columns of one `subset_gaps` block, settle
    what the bounds and apparent pairs can, and return (left, U, open):
    the columns whose bound U[k-1] still beats best[k] for some dimension
    k, U, and the rows (k, face, column, bound) of the faces whose bound
    beats best and whose bar is unknown.

    `_class_bounds` bounds the bar of each column born at each face, with
    the column's APEXES oldest vertices as apexes.  Of the faces whose
    bound beats best, `_apparent_faces` settles those in an apparent pair:
    a destroyer creates no bar, and a creator's bar is known and raises
    best."""
    m, start, top = faces.m, faces.start, faces.max_size - 2
    best[0] = max(best[0], gaps[:m].max())
    apexes = np.argsort(~gaps[:m].T, axis=1)[:, :APEXES].T  # ties in any order
    floor = best[1 : top + 1]
    U = np.zeros((top, gaps.shape[1]), dtype=np.int64)
    rows = []
    for k in range(1, top + 1):
        f, j, bound = _class_bounds(gaps, faces, k, floor[k - 1], apexes)
        f += start[k + 1]
        destroys, creates, tau = _apparent_faces(gaps, faces, k, f, j)
        if creates.any():
            known = gaps[f[creates], j[creates]] - gaps[tau[creates], j[creates]]
            floor[k - 1] = max(floor[k - 1], known.max())
        unknown = ~(destroys | creates) & (bound > floor[k - 1])
        f, j, bound = f[unknown], j[unknown], bound[unknown]
        np.maximum.at(U[k - 1], j, bound)
        rows.append(np.stack([np.full(f.size, k), f, j, bound]))
    return np.flatnonzero((U > floor[:, None]).any(axis=0)), U, np.concatenate(rows, axis=1)


def _visit(gaps, U, open_, cols, faces: FaceTables, best: np.ndarray) -> None:
    """Raise best by the columns cols that `_screen_block` left of gaps,
    with their U and open faces: those whose bound still beats best go
    through `_apparent` CHUNK at a time, most slack first.  A dimension is
    marked finished before `_reduce_chunk` when no open face that may
    still create an unknown bar (not `_barren`) has a bound beating the
    longer of best and the apparent length.  Each chunk raises best
    before the next is picked."""
    start, top = faces.start, faces.max_size - 2
    floor = best[1 : top + 1]
    slack = (U[:, cols] - floor[:, None]).max(axis=0)
    queue = cols[np.argsort(-slack, kind="stable")]
    while queue.size:
        chunk, queue = np.sort(queue[:CHUNK]), queue[CHUNK:]
        g = gaps[:, chunk]
        apparent, young, length, need = _apparent(g, faces)
        bar = np.maximum(length, floor[:, None])  # what a reduction must beat
        dims, face, col, bound = open_[:, np.isin(open_[2], chunk)]
        col = np.searchsorted(chunk, col)
        for k in np.flatnonzero(need.any(axis=1)).tolist():
            mine = np.flatnonzero(dims == k + 1)
            mine = mine[~_barren(apparent, young, faces, k + 1)[face[mine] - start[k + 2], col[mine]]]
            reach = np.zeros(chunk.size, dtype=np.int64)
            np.maximum.at(reach, col[mine], bound[mine])
            need[k, reach <= bar[k]] = 0
        out = np.zeros((chunk.size, top + 1), dtype=np.int64)
        out[:, 1:] = length.T
        if need.any():
            _reduce_chunk(g, apparent, young, need, faces, out)
        np.maximum(floor, out[:, 1:].max(axis=0), out=floor)
        queue = queue[(U[:, queue] > floor[:, None]).any(axis=0)]


def _apparent_faces(gaps, faces, k, f, j) -> tuple[np.ndarray, ...]:
    """(destroys, creates, tau) for faces f of size k+1 at columns j of
    gaps, by the rules of `_apparent`: tau is f's oldest cofacet (the first
    cofacet slot with the greatest gap), creates says f is tau's youngest
    facet (the first facet slot with the least gap), and destroys says f
    is the oldest cofacet of its own youngest facet.  CONE_CELLS bounds
    the (face, slot) cells gathered at once."""
    m, B = faces.m, gaps.shape[1]
    flat = gaps.ravel()

    def pick(table, x, j, width, arg):
        at = table[x, :width]
        at *= B
        at += j[:, None]
        slot = arg(flat.take(at), axis=1)
        return (at[np.arange(x.size), slot] - j) // B

    out = np.empty((3, f.size), dtype=np.intp)
    step = max(1, CONE_CELLS // m)
    for i in range(0, f.size, step):
        x, y = f[i : i + step], j[i : i + step]
        young = pick(faces.facet_table, x - m, y, k + 1, np.argmin)
        tau = pick(faces.cofacet_table, x, y, m - k - 1, np.argmax)
        out[0, i : i + step] = pick(faces.cofacet_table, young, y, m - k, np.argmax) == x
        out[1, i : i + step] = pick(faces.facet_table, tau - m, y, k + 2, np.argmin) == x
        out[2, i : i + step] = tau
    return out[0].astype(bool), out[1].astype(bool), out[2]


def _barren(apparent, young, faces, k) -> np.ndarray:
    """The size-(k+1) faces, by columns of `_apparent` output, that create
    no bar a reduction must find: the apparent destroyers of dimension
    k-1 and the apparent creators of dimension k, the youngest facets of
    apparent faces of size k+2.  `_free_faces` feeds the reduction the
    rest; `_visit` bounds only the rest."""
    m, start = faces.m, faces.start
    lo, rows = start[k + 1], slice(start[k + 2] - m, start[k + 3] - m)
    barren = apparent[lo - m : start[k + 2] - m].copy()
    tau, j = np.nonzero(apparent[rows])
    barren[faces.facet_table[rows][tau, young[rows][tau, j]] - lo, j] = True
    return barren


def _class_bounds(gaps: np.ndarray, faces: FaceTables, k: int, floor,
                  apexes: np.ndarray) -> tuple[np.ndarray, ...]:
    """Bound the dimension-k bars of every column of gaps, 1 <= k <=
    max_size-2, where a bar may beat floor: returns (i, j, bound) with
    bound at least the length of column j's bar born at face start[k+1] +
    i, for the faces whose bound beats floor; any other bar is no longer
    than floor.  apexes[:, j] lists the apex vertices of column j.

    The bound.  Take a bar born at sigma (size k+1) with gap g_sigma.  Its
    representative cycle z, the reduction's V-column, lies on sigma and on
    size-(k+1) faces older than sigma in the filtration order: on faces
    rho <= sigma.  For a vertex v, once every rho + v with rho in z is
    present, d(v * z') = z,
    where z' is the part of z without v (the cone on v, as in the nerve
    picture of Chowdhury and Memoli, "A functorial Dowker theorem and
    persistent homology of asymmetric networks", JACT 2018): z is dead.
    Hence the length is at most

        g_sigma - max_v min_{rho <= sigma} g(rho + v),

    where rho + v = rho when v is in rho: it imposes nothing beyond rho's
    own gap, at least g_sigma.  rho + v has k+2 <= max_size vertices, so
    its gap is in gaps.  Any subset of apexes gives a looser valid bound.

    A single apex needs no sort: gaps fall along the filtration order, so
    the max over sigma of g_sigma - min_{rho <= sigma} g(rho + v) is the
    max over rho of g_rho - g(rho + v).  The columns that no single apex
    settles are sorted by age once, the faces younger than every face
    beating floor cut (no length exceeds its creator's gap), and the
    prefix minima of each apex's cone gaps combine into each face's
    bound.  CONE_CELLS bounds the (column, face) cells of a pass."""
    m, start = faces.m, faces.start
    lo, hi = start[k + 1], start[k + 2]
    F, B = hi - lo, gaps.shape[1]
    g = gaps[lo:hi]
    live = g.max(axis=0) > floor  # no length exceeds its creator's gap
    # the cone faces of the class, as flat offsets into gaps, one row per apex
    tab = _cone_table(m, faces.max_size)[:, lo - m : hi - m] * B
    step = max(1, CONE_CELLS // F)
    written = []
    for c0 in range(0, B, step):
        c = np.flatnonzero(live[c0 : c0 + step]) + c0
        if not c.size:
            continue
        gc = g.T[c]
        cones = []  # each apex's cone gaps, for the columns no apex settles alone
        keep = np.ones(c.size, dtype=bool)
        for i, vertex in enumerate(apexes):
            at = tab.take(vertex[c], axis=0)
            at += c[:, None]
            cones.append(gaps.take(at))
            del at
            keep &= (gc - cones[-1]).max(axis=1) > floor
            # drop the settled columns: when a quarter is, and before the sort
            if not keep.all() and (i == len(apexes) - 1 or 4 * keep.sum() < 3 * keep.size):
                c, gc = c[keep], gc[keep]
                cones = [h[keep] for h in cones]
                keep = keep[keep]
        if not c.size:
            continue
        key, shift = _age_keys(gc)  # the faces by age, oldest first
        del gc
        # through the youngest face that beats floor in some column
        cut = np.count_nonzero(~(key.min(axis=0) >> shift) > floor)
        ordered = (~(key[:, :cut] >> shift)).astype(gaps.dtype)
        flat = (key[:, :cut] & ((1 << shift) - 1)).astype(np.intp)
        del key
        flat += (np.arange(c.size) * F)[:, None]  # into the rows of cones
        each = None
        while cones:
            h = cones.pop().take(flat)
            np.minimum.accumulate(h, axis=1, out=h)
            np.subtract(ordered, h, out=h)
            each = h if each is None else np.minimum(each, h, out=each)  # each face's bound
        rows, at = np.nonzero(each > floor)
        written.append((flat[rows, at] - rows * F, c[rows], each[rows, at]))
    if not written:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp), np.empty(0, gaps.dtype)
    return tuple(np.concatenate(x) for x in zip(*written))


@lru_cache(maxsize=None)
def _cone_table(m: int, max_size: int) -> np.ndarray:
    """cone[v, f - m] = the index of face f + vertex v, f itself when v is
    in f, for the faces f of sizes 2 .. max_size-1 of subset_tables(m,
    max_size).  Adding v to a face past t of its vertices below v takes
    cofacet slot v - t."""
    faces = subset_tables(m, max_size)
    start = faces.start
    cone = np.empty((m, start[max_size] - m), dtype=np.intp)
    for s in range(2, max_size):
        f = np.arange(start[s], start[s + 1])
        verts = faces.vertex_table[f, :s]
        for v in range(m):
            slot = v - (verts < v).sum(axis=1)
            inside = (verts == v).any(axis=1)
            cone[v, f - m] = np.where(inside, f, faces.cofacet_table[f, np.minimum(slot, m - 2)])
    return cone


def _age_keys(g: np.ndarray) -> tuple[np.ndarray, int]:
    """Each row of the int16 or int32 gaps g, sorted by age, oldest first:
    descending gap, ties to the lower column, the filtration order.
    Returns (key, shift), key[j] ascending packed keys (~gap << shift) |
    column, in int32 where they fit and int64 otherwise: key >> shift is
    ~gap and key & (2**shift - 1) the column.  One packed sort costs about
    3 ns a cell, a stable argsort of the gaps 10-37."""
    shift = max(g.shape[1] - 1, 1).bit_length()
    key = g.astype(np.int32 if g.itemsize == 2 and shift <= 16 else np.int64, order="C")
    np.invert(key, out=key)
    key <<= shift
    key |= np.arange(g.shape[1], dtype=key.dtype)
    key.sort(axis=1)
    return key, shift


def _column(bits: list[int]) -> int:
    col = 0
    for x in bits:
        col |= 1 << x
    return col


def _lk_from_order(ord_arr: np.ndarray, d_up: int, per_column: bool = True):
    """(L numerators maxed over columns, (n, d_up+1) per-column numerator
    lengths, or None when per_column is False).

    Without per-column lengths only the running maxima are kept, and each
    block goes through `_screen_block`: only the columns and dimensions
    whose cone bound can still raise a maximum reach `_visit` and the
    reduction."""
    if d_up < 0:
        raise ValueError("d_up must be >= 0")
    m, n = ord_arr.shape
    max_size = min(d_up + 2, m)
    faces = subset_tables(m, max_size)
    # Rank differences lie in (-n, n): int16 halves the memory traffic of
    # the fallback scans and keeps the witness columns small.
    ranks = ord_arr.astype(np.int16 if n < 2**15 else np.int32)
    lengths = np.zeros((n, d_up + 1), dtype=np.int64) if per_column else None
    best = np.zeros(d_up + 1, dtype=np.int64)
    screen = not per_column and max_size >= 3
    for cols, gaps in subset_gaps(ranks, ranks, max_size):
        if screen:
            left, U, open_ = _screen_block(gaps, faces, best)
            if left.size:
                _visit(gaps, U, open_, left, faces, best)
        else:
            out = lengths[cols.start : cols.stop] if per_column else \
                np.zeros((len(cols), d_up + 1), dtype=np.int64)
            _block_lengths(gaps, faces, out)
            np.maximum(best, out.max(axis=0), out=best)
        del gaps  # no block outlives its use while the next one is built
    return best, lengths


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
    L_num, per_col = _lk_from_order(T.ord, d_up, per_column)
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
    if not epsilon > 0:  # NaN included
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
        L_num, _ = _lk_from_order(rank_rows(T.ord[:, idx]), d_up, per_column=False)
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
        L_num, _ = _lk_from_order(T.ord[idx], d_up, per_column=False)
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
