"""Rank-threshold nerve complexes and per-column ray filtrations.

Given an OrderTable, each threshold vector t in [0,1]^m selects, per column
a, the witness set sigma_a = {i : ord_i(a) <= n*t_i}.  The complex at t is
the downward closure of all witness sets; equivalently it is the nerve of
the column sets A_i(t_i) = {a : ord_i(a) <= n*t_i}.  Sliding the threshold
vector of a fixed column a down the diagonal produces a one-parameter
filtration whose grades live on the 1/n grid.  A `Filtration` checks
itself whenever it is built, with one walk over its faces
(`Filtration.boundary_columns`) that also yields the boundary matrix
`persistence.persistence_intervals` reduces.

Complexes are stored as bitmasks over the row set: bit (i-1) set means row
i is a vertex of the face.  Row and column labels are 1-based throughout
the public surface.

Births.  A face sigma enters the ray filtration of column a at grade
numerator max_i ord_i(a) - g, where the gap g = max_b min_{i in sigma}
(ord_i(a) - ord_i(b)) is the largest down-diagonal slide of a's rank
vector that some column b still sits under on sigma.  `subset_gaps`
computes every gap of a block of columns at once.  The max needs only C,
the columns no other column beats in every row, and `subset_gaps` takes
that front of the table itself.  Faces of size 1 and 2 have closed forms:
a row minimum, and the crossing point on the 2-D staircase that
`face_fronts` takes as a pair's front.  A larger face takes the gap of
its youngest facet whenever that facet's witness column also covers the
one added row; only the (face, column) cells where it does not are
scanned over C, by `scan_gaps`, the blocked max-min that `interleave`
runs as well.
`ray_births` is the same computation for one column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, chain, combinations, pairwise
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .central import undominated_columns
from .ingest import OrderTable

MAX_ROWS = 64  # bitmask capacity; one machine word

# Source columns per subset_gaps block at most, the (face, column) cells
# per certificate chunk and the (row, column of C) cells per scan_gaps
# chunk: together they bound the scratch of subset_gaps.  Blocks share the
# columns evenly (150 columns as 75 + 75, not 128 + 22), so a table a
# little wider than BLOCK holds no full-width block.
BLOCK = 128
CELLS = 8192
SCAN_CELLS = 32768

# Faces subset_tables builds at most.  Measured at (m, max_size) = (20, 8),
# 263,949 faces, on a uniform 64-column table (tracemalloc): the build,
# with the estimator's cached cone table, peaks at 89 MB and holds 82 MB,
# and compute_Lk adds 322 MB with per-column lengths or without (1.2 KB a
# face: both take one lengths route, a chunk of columns at a time).  At
# the cap that is about 0.64 GB, plus 0.16 GB of tables.  `analyze --dup 2`
# on functions-m10's 60x150 input (523,685 faces) took 38.6 s with
# --per-column and 42.6 s without (one run each, 411 and 431 MB RSS, 2-core x86).
MAX_FACES = 2**19

GRID_SNAP = 1e-9  # rescue k/n thresholds from float round-off

Grades = Sequence[float]


def _check_rows(m: int) -> None:
    if m > MAX_ROWS:
        raise ValueError(f"row count {m} exceeds bitmask capacity {MAX_ROWS}")


def skeleton_bound(T: OrderTable, skeleton: int | None) -> int:
    """The checked skeleton bound on T's complexes, m - 1 by default."""
    _check_rows(T.m)
    if skeleton is None:
        return T.m - 1
    if skeleton < 0:
        raise ValueError("skeleton bound must be >= 0")
    return skeleton


def _mask_to_verts(mask: int) -> tuple[int, ...]:
    verts = []
    i = 1
    while mask:
        if mask & 1:
            verts.append(i)
        mask >>= 1
        i += 1
    return tuple(verts)


@dataclass(frozen=True)
class SimplicialComplex:
    """Downward-closed face set over the vertex universe [m].

    Faces are nonempty bitmasks; the empty face is implicit.  `skeleton`
    is the largest face dimension retained (vertices have dimension 0).
    """

    m: int
    faces: frozenset[int]
    skeleton: int

    def __post_init__(self):
        _check_rows(self.m)
        universe = (1 << self.m) - 1
        for f in self.faces:
            if f == 0 or f & ~universe:
                raise ValueError(f"face {f:b} outside vertex universe [1..{self.m}]")
            if f.bit_count() > self.skeleton + 1:
                raise ValueError("face exceeds skeleton bound")

    @classmethod
    def from_witnesses(
        cls, m: int, witnesses: Iterable[int], skeleton: int
    ) -> "SimplicialComplex":
        """Downward closure of the given bitmask faces, truncated to the
        skeleton dimension."""
        max_size = skeleton + 1
        faces: set[int] = set()
        for w in set(witnesses):
            verts = _mask_to_verts(w)
            for size in range(1, min(len(verts), max_size) + 1):
                for comb in combinations(verts, size):
                    mask = 0
                    for v in comb:
                        mask |= 1 << (v - 1)
                    faces.add(mask)
        return cls(m, frozenset(faces), skeleton)

    def faces_as_tuples(self) -> tuple[tuple[int, ...], ...]:
        return tuple(sorted(_mask_to_verts(f) for f in self.faces))

    def __contains__(self, face) -> bool:
        mask = 0
        for v in face:
            mask |= 1 << (v - 1)
        return mask == 0 or mask in self.faces


def _int_thresholds(T: OrderTable, t: Grades) -> np.ndarray:
    """Per-row integer rank cutoffs r_i with ord <= n*t_i  <=>  ord <= r_i."""
    vals = [float(x) for x in t]
    if len(vals) != T.m:
        raise ValueError(f"expected {T.m} grades, got {len(vals)}")
    return np.array([math.floor(T.n * x + GRID_SNAP) for x in vals], dtype=np.int64)


def dowker_at(T: OrderTable, t: Grades, skeleton: int | None = None) -> SimplicialComplex:
    """Complex at threshold vector t, built from per-column witness sets.

    Thresholds may fall below 0 (the row then contributes no vertex) and are
    snapped to the 1/n grid within a 1e-9 guard.  `skeleton` bounds the
    retained face dimension; default is the full m-1.
    """
    skeleton = skeleton_bound(T, skeleton)
    r = _int_thresholds(T, t)
    below = T.ord <= r[:, None]  # (m, n)
    weights = np.uint64(1) << np.arange(T.m, dtype=np.uint64)
    witness = (below.astype(np.uint64) * weights[:, None]).sum(axis=0)
    return SimplicialComplex.from_witnesses(T.m, (int(w) for w in witness), skeleton)


@dataclass(frozen=True)
class Filtration:
    """One-parameter filtration on the 1/denominator grade grid.

    `entries` lists (grade_numerator, face_bitmask) sorted by grade, every
    grade in the index range [0, t_end_numer / denominator], and every face
    after its facets.  Construction checks all of it.
    """

    m: int
    denominator: int
    entries: tuple[tuple[int, int], ...]
    t_end_numer: int

    def __post_init__(self):
        entries = tuple(self.entries)
        for x in (self.m, self.denominator, self.t_end_numer, *chain.from_iterable(entries)):
            if not float(x).is_integer():
                raise ValueError(f"filtration value {x!r} is not a whole number")
        for name in ("m", "denominator", "t_end_numer"):
            object.__setattr__(self, name, int(getattr(self, name)))
        object.__setattr__(self, "entries", tuple((int(g), int(f)) for g, f in entries))
        _check_rows(self.m)
        if self.denominator < 1:
            raise ValueError("denominator must be >= 1")
        if not (0 <= self.t_end_numer <= self.denominator):
            raise ValueError("index range endpoint outside [0, 1]")
        grades = [g for g, _ in self.entries]
        if grades != sorted(grades):
            raise ValueError("entries not sorted by grade")
        if grades and not (0 <= grades[0] and grades[-1] <= self.t_end_numer):
            raise ValueError(f"a grade lies outside [0, {self.t_end_numer}/{self.denominator}]")
        self.boundary_columns()

    def boundary_columns(self) -> tuple[list[int], list[int]]:
        """Bit-packed boundary columns in entry order, plus face sizes:
        column j has a bit at the position of each facet of face j.
        Raises ValueError when a face is empty, appears twice, has a
        vertex past m, or enters before one of its facets."""
        position: dict[int, int] = {}
        columns: list[int] = []
        sizes: list[int] = []
        for j, (_, f) in enumerate(self.entries):
            if f == 0 or f in position:
                raise ValueError(f"face {f:b} is empty or appears twice")
            if f >> self.m:
                raise ValueError(f"face {f:b} outside vertex universe [1..{self.m}]")
            col = 0
            for v in _mask_to_verts(f) if f & (f - 1) else ():  # a vertex has no facets
                p = position.get(f & ~(1 << (v - 1)))
                if p is None:
                    raise ValueError(f"face {f:b} enters before one of its facets")
                col |= 1 << p
            position[f] = j
            columns.append(col)
            sizes.append(f.bit_count())
        return columns, sizes

    def complex_at(self, grade: float) -> SimplicialComplex:
        cutoff = math.floor(grade * self.denominator + GRID_SNAP)
        faces = frozenset(f for g, f in self.entries if g <= cutoff)
        skeleton = max((f.bit_count() for f in faces), default=1) - 1
        return SimplicialComplex(self.m, faces, skeleton)


class FaceTables(NamedTuple):
    """The nonempty subsets of [m] with at most max_size vertices, numbered
    by size and then by lexicographic vertex order.  That index is the
    tie-break between faces born at the same grade: a stable sort of a
    birth array is the filtration order.

    The faces of size s are start[s] .. start[s+1]-1, so face k < m is
    vertex k, every facet indexes below its face, and start[-1] counts
    the faces.  Face k of size s has the ascending 0-based vertices
    vertex_table[k, :s].  The padded tables are column-major, so each
    slot is contiguous, and a row shorter than the width repeats its last
    entry, which changes no max or min over a slot and no bit set from a
    row:

    - vertex_table[k] lists the vertices of face k;
    - facet_table[k - m, t] is the facet of face k >= m without vertex
      vertex_table[k, t];
    - cofacet_table[k] lists the cofacets of face k < start[max_size];
    - slot_table[k - m, t] is the slot of face k in the cofacet row of
      facet_table[k - m, t] (8-bit while m <= 255);
    - cofacet_slot_table[k, s] is the slot of face k in the facet row of
      cofacet_table[k, s], so facet_table[cofacet_table[k, s] - m,
      cofacet_slot_table[k, s]] = k (8-bit too).

    Facet rows descend and cofacet rows ascend in face index over their
    real slots: removing a later vertex leaves a lexicographically
    smaller face, and adding one a larger one.  So dropping vertex v,
    the t-th of face k, leaves a facet whose cofacets below k add the
    v - t missing vertices below v: slot_table[k - m, t] = v - t.
    """

    m: int
    max_size: int
    start: list[int]
    vertex_table: np.ndarray
    facet_table: np.ndarray
    cofacet_table: np.ndarray
    slot_table: np.ndarray
    cofacet_slot_table: np.ndarray


def _fill(rows: np.ndarray, block: np.ndarray) -> None:
    """Write block into the first columns of rows, its last column into the rest."""
    rows[:, : block.shape[1]] = block
    rows[:, block.shape[1] :] = block[:, -1:]


@lru_cache(maxsize=None)
def subset_tables(m: int, max_size: int) -> FaceTables:
    """The FaceTables of the subsets of [m] up to min(max_size, m)
    vertices, built once per (m, max_size) for every kernel that walks
    the faces.  Raises ValueError past MAX_FACES faces."""
    max_size = min(max_size, m)
    start = [0, 0, *accumulate(math.comb(m, s) for s in range(1, max_size + 1))]
    if start[-1] > MAX_FACES:
        raise ValueError(f"m={m} rows with faces of up to {max_size} vertices make {start[-1]:,}"
                         f" faces, past the cap of {MAX_FACES:,}; use fewer rows or a smaller d_up")
    binom = np.array([[math.comb(i, j) for j in range(max_size + 1)] for i in range(m)],
                     dtype=np.intp)

    def index(rows: np.ndarray) -> np.ndarray:
        # the lexicographic rank of an ascending s-subset c of [m] is
        # C(m, s) - 1 - sum_t C(m-1-c_t, s-t)
        s = rows.shape[1]
        return start[s] + math.comb(m, s) - 1 - binom[m - 1 - rows, np.arange(s, 0, -1)].sum(axis=1)

    vertex_table = np.empty((start[-1], max_size), dtype=np.intp, order="F")
    facet_table = np.empty((start[-1] - m, max_size), dtype=np.intp, order="F")
    cofacet_table = np.empty((start[max_size], m - 1), dtype=np.intp, order="F")
    slot_table = np.empty((start[-1] - m, max_size), dtype=np.min_scalar_type(m), order="F")
    cofacet_slot_table = np.empty(cofacet_table.shape, dtype=slot_table.dtype, order="F")
    for s in range(1, max_size + 1):
        verts = vertex_table[start[s] : start[s + 1]]
        _fill(verts, np.fromiter(chain.from_iterable(combinations(range(m), s)), dtype=np.intp,
                                 count=s * math.comb(m, s)).reshape(-1, s))
        if s > 1:
            facets = facet_table[start[s] - m : start[s + 1] - m]
            for t in range(s):
                facets[:, t] = index(np.delete(verts[:, :s], t, axis=1))
            facets[:, s:] = facets[:, s - 1 : s]
            _fill(slot_table[start[s] - m : start[s + 1] - m], verts[:, :s] - np.arange(s))
            # face k of size s-1 is the facet of m-s+1 cofacets: group the
            # facet entries (cofacet, facet slot) by facet
            entry = np.argsort(facets[:, :s], axis=None, kind="stable").reshape(-1, m - s + 1)
            _fill(cofacet_table[start[s - 1] : start[s]], start[s] + entry // s)
            _fill(cofacet_slot_table[start[s - 1] : start[s]], entry % s)
    return FaceTables(m, max_size, start, vertex_table, facet_table, cofacet_table, slot_table,
                      cofacet_slot_table)


def face_fronts(X: np.ndarray, faces: np.ndarray):
    """Yield, for each row of faces (0-based rows of X, laid out as in
    subset_tables(...).vertex_table), columns of X on which every max-min
    over that face is attained.  When faces is two wide, face (i, j) keeps
    its lower-left staircase in ascending order of X[i]: the columns that
    no column before them in the lexicographic order of (X[i], X[j])
    weakly beats on both rows (Kung, Luccio and Preparata, JACM 1975).
    A one-row face keeps the columns at its row's minimum, and other
    faces keep `central.undominated_columns(X[face])`.

    A column left out is weakly beaten on every row of the face by a kept
    one (follow the beating columns back along the sort, or up the strict
    order of beating).  So it never sets a max over dst of min_i (src[i, a]
    - dst[i, b]), whose terms the kept column makes no smaller, nor a min
    over src of that max, whose terms it makes no larger.  A positive
    scale of X keeps every front."""
    if faces.shape[1] == 1:
        return (np.flatnonzero(row == row.min()) for row in X[faces[:, 0]])
    if faces.shape[1] != 2:
        return (undominated_columns(X[face]) for face in faces)
    col, steps = _staircases_of(X, faces)
    return iter(np.split(col, np.cumsum(steps)[:-1]))


def _staircases_of(X: np.ndarray, pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(col, steps): the staircases `face_fronts` takes of the row pairs
    (i, j) of X, laid end to end in the order of pairs, each in ascending
    order of X[i], and the number of steps of each.

    All pairs go through one sort.  The knee of a pair (its least max(p,
    q), p = X[i] and q = X[j]) strictly beats every column it drops and
    none that weakly beats a survivor, so the staircase does not change.
    The survivors are keyed (pair, p, q) in one int64 and sorted stably,
    which keeps the lower column first among equal points.  Offset by
    -pair * span, each pair's q lie below every earlier pair's, so one
    running minimum over all pairs restarts at each pair: the steps are
    where it falls.  Values spanning too wide for the key are replaced by
    their ranks, which keep every front."""
    lo, span = int(X.min()), int(X.max()) - int(X.min()) + 1
    if span * span * len(pairs) >= 2**62:
        X = np.unique(X, return_inverse=True)[1].reshape(X.shape)
        lo, span = 0, int(X.max()) + 1
    p, q = X[pairs[:, 0]], X[pairs[:, 1]]
    knee = np.argmin(np.maximum(p, q), axis=1)[:, None]
    pair, col = np.nonzero((p <= np.take_along_axis(p, knee, axis=1)) |
                           (q <= np.take_along_axis(q, knee, axis=1)))
    p, q = (x[pair, col].astype(np.int64) - lo for x in (p, q))
    q -= pair * span
    key = (p + pair * span) * span + q + pair * span
    order = np.argsort(key, kind="stable")
    del key
    low = np.minimum.accumulate(q[order])
    step = order[np.r_[True, low[1:] < low[:-1]]]
    return col[step], np.bincount(pair[step], minlength=len(pairs))


def _staircases(front: np.ndarray, pairs: np.ndarray):
    """The staircases `face_fronts` takes of the row pairs (i, j) of
    front, laid end to end.  Along a staircase p = front[i] rises strictly
    and q = front[j] falls strictly, so p - q rises strictly.

    Returns (key, p, q, col, first, end, lo, span): pair r's steps sit at
    first[r] .. end[r]-1, col holds their columns, and key is p - q - lo
    + r*span, ascending over the whole array (lo and span are set so that
    every p - q lies in [lo + 1, lo + span - 1])."""
    col, lengths = _staircases_of(front, pairs)
    end = np.cumsum(lengths)
    owner = np.repeat(np.arange(len(pairs)), lengths)
    p = front[pairs[owner, 0], col]
    q = front[pairs[owner, 1], col]
    d = p.astype(np.int64) - q
    lo = int(d.min()) - 1
    span = int(d.max()) - lo + 1
    return d - lo + owner * span, p, q, col, end - lengths, end, lo, span


def _pair_gaps(block, verts, pair, stairs):
    """(gaps, witnesses) of the size-2 faces with vertex pairs verts
    against every column of block; pair indexes their staircases in
    stairs, the output of `_staircases` (see `subset_gaps`)."""
    key, p, q, col, first, end, lo, span = stairs
    x, y = block[verts[:, 0]], block[verts[:, 1]]
    e = x.astype(np.int64)
    e -= y
    np.clip(e, lo, lo + span - 1, out=e)
    e += pair[:, None] * span - lo
    k = np.searchsorted(key, e, side="right")  # the first step with p - q > x - y
    del e
    use_rise = k > first[pair, None]  # a step before the crossing exists
    has_after = k < end[pair, None]
    k -= 1  # the step before: min(x - p, y - q) = y - q there
    rise = y - q[k]
    k += has_after  # the step after, where min(x - p, y - q) = x - p
    fall = x - p[k]
    use_rise &= ~has_after | (rise >= fall)
    k -= use_rise & has_after
    return np.where(use_rise, rise, fall), col[k]


def scan_gaps(x: np.ndarray, rows: np.ndarray, front: np.ndarray):
    """(gap, witness) of each row of (x, rows): gap[r] is the max over
    the columns b of front of min_t (x[r, t] - front[rows[r, t], b]), and
    witness[r] the first column attaining it.  The full scan behind every
    certificate that fails and behind the interleaving distance,
    SCAN_CELLS (row, column) cells at a time, in front's dtype, which
    must hold x - front.  rows may be a broadcast view: every row of x
    then reads the same rows of front."""
    n_rows, size = rows.shape
    gap = np.empty(n_rows, dtype=front.dtype)
    witness = np.empty(n_rows, dtype=np.intp)
    step = max(1, SCAN_CELLS // front.shape[1])
    for r0 in range(0, n_rows, step):
        r = slice(r0, r0 + step)
        acc = np.take(front, rows[r, 0], axis=0)
        np.subtract(x[r, :1], acc, out=acc)
        buf = np.empty_like(acc)
        for t in range(1, size):
            # rows index front's rows, so "clip" never clips; unlike the
            # default "raise", it writes into buf without a buffer copy
            np.take(front, rows[r, t], axis=0, out=buf, mode="clip")
            np.subtract(x[r, t, None], buf, out=buf)
            np.minimum(acc, buf, out=acc)
        witness[r] = acc.argmax(axis=1)
        gap[r] = acc[np.arange(len(acc)), witness[r]]
    return gap, witness


def subset_gaps(src: np.ndarray, dst: np.ndarray, max_size: int):
    """Yield (column_range, gaps) blocks over the columns a of src:
    gaps[k, j] = max_b min_{i in sigma_k} (src[i, a] - dst[i, b]) for the
    block's j-th column a and subset sigma_k of subset_tables(m, max_size).

    The max runs over the columns C of dst's Pareto front, which is taken
    here (`central.undominated_columns`): the columns that no other
    column strictly beats in every row.  Any b outside the front is
    beaten in all m rows, hence on sigma, by some b' on it, and
    src[i, a] - dst[i, b'] is larger in every row: the max over the front
    equals the max over all columns, and the front only leaves fewer
    columns to scan.  Beside the gap of each face that is a facet the
    certificate reads (sizes 2 .. max_size-1) the loop keeps a witness, a
    column of C attaining it, and it fills the faces by size:

    - size 1: the gap of {v} is src[v, a] - min_b dst[v, b];
    - size 2: for sigma = {i, j} only the staircase `face_fronts` takes
      of the points (dst[i, b], dst[j, b]) matters.  Along it
      x - p_b falls and y - q_b rises (x = src[i, a], y = src[j, a]), so
      min(x - p_b, y - q_b) peaks where they cross: one searchsorted of
      x - y in the rising p - q finds the first step with p - q > x - y,
      and the better of that step and the one before is the gap;
    - size >= 3, the certificate: gaps are monotone, g_tau <= g_f for
      every facet f of tau, so g_tau <= v, the least facet gap.  Let f be
      a facet with g_f = v (the youngest), b* its witness and w the
      vertex of tau outside f.  At b* the min over tau is min(v, src[w, a]
      - dst[w, b*]).  If src[w, a] - dst[w, b*] >= v that min is v, so
      g_tau >= v: then g_tau = v and b* witnesses tau.  Otherwise
      `scan_gaps` runs the full max over C for that (face, column) alone,
      and its first argmax is the witness.  Any argmax serves: the proof
      only needs min over f at b* to equal g_f.  The facet loop keeps
      only v and the 8-bit slot of the first facet attaining it (facet
      slot t drops vertex slot t, so the slot also names w); b* and w are
      gathered once, after the loop.

    The certificate costs a few gathers per cell against |sigma| |C| for
    the scan.  The n columns go in the fewest blocks of at most BLOCK
    columns, with widths that differ by at most one; CELLS bounds the
    (face, column) cells handled at once and SCAN_CELLS the scan's (face,
    column of C) cells.  Only the gaps outlive a block's build.
    Differences, and so the gaps, are in the dtype of src - dst, which
    must hold them.
    """
    m, n = src.shape
    faces = subset_tables(m, max_size)
    start = faces.start
    work = np.result_type(src, dst)  # holds every difference src - dst
    front = np.ascontiguousarray(dst[:, undominated_columns(dst)], dtype=work)
    wit_type = np.int16 if front.shape[1] < 2**15 else np.int32
    low = front.min(axis=1)
    if faces.max_size > 1:
        stairs = _staircases(front, faces.vertex_table[m : start[3], :2])
    blocks = -(-n // BLOCK)
    for first, stop in pairwise(n * i // blocks for i in range(blocks + 1)):
        block = np.ascontiguousarray(src[:, first:stop])
        B = stop - first
        gaps = np.empty((start[-1], B), dtype=work)
        # witnesses are read only as facets': faces of size 2 .. max_size-1, row face - m
        wit = np.empty((max(start[faces.max_size] - m, 0), B), dtype=wit_type)
        gaps[:m] = block - low[:, None]
        step = max(1, CELLS // B)
        for size in range(2, faces.max_size + 1):
            for r0 in range(start[size], start[size + 1], step):
                r = slice(r0, min(r0 + step, start[size + 1]))
                if size == 2:
                    gaps[r], b = _pair_gaps(block, faces.vertex_table[r, :2],
                                            np.arange(r0 - m, r.stop - m), stairs)
                else:
                    gaps[r], b = _certify(gaps, wit, r, size, faces, block, front)
                if size < faces.max_size:
                    wit[r.start - m : r.stop - m] = b
                del b
        del wit  # keep only the returned block while the caller works on it
        yield range(first, stop), gaps
        del gaps  # and drop it before the next one is built


def _certify(gaps, wit, r, size, faces, block, front):
    """The (gaps, witnesses) of the faces r of one size >= 3, from their
    facets' rows of gaps and wit (row face - m), by the certificate of
    `subset_gaps`, scanning the cells where it fails.  The scratch dies on
    return, before the block is yielded."""
    m, B, width = faces.m, block.shape[1], front.shape[1]
    verts = faces.vertex_table[r, :size]
    facets = faces.facet_table[r.start - m : r.stop - m, :size]
    # facet_table[k - m, t] drops vertex_table[k, t]: so the youngest
    # facet's slot also names the added vertex.  Slots rise through the
    # loop, so the slot is the max of t * [g beats the least so far].
    v = gaps[facets[:, 0]]
    slot = np.zeros(v.shape, dtype=np.uint8)
    g = np.empty_like(v)
    for t in range(1, size):
        gaps.take(facets[:, t], axis=0, out=g, mode="clip")  # valid rows: no buffer copy
        np.maximum(slot, (g < v).view(np.uint8) * np.uint8(t), out=slot)
        np.minimum(v, g, out=v)
    del g
    flat = np.int32 if max(gaps.size, m * max(width, B)) < 2**31 else np.intp
    at = slot.astype(flat)  # flat indices into the chunk's (row, slot) tables
    del slot
    at += np.arange(0, verts.size, size, dtype=flat)[:, None]
    w = np.ascontiguousarray(verts, dtype=flat).take(at)
    at = np.ascontiguousarray(facets, dtype=flat).take(at)
    at -= m
    at *= B  # then into wit
    at += np.arange(B, dtype=flat)
    b = wit.take(at)
    np.multiply(w, width, out=at)  # then into front
    at += b
    slack = front.take(at)
    np.multiply(w, B, out=at)  # then into block
    at += np.arange(B, dtype=flat)
    del w
    slack = np.subtract(block.take(at), slack, out=slack)
    del at
    cells = np.flatnonzero(slack < v)
    del slack
    if cells.size:
        rr, j = np.divmod(cells, B)
        rows = verts[rr]
        v.flat[cells], b.flat[cells] = scan_gaps(block[rows, j[:, None]], rows, front)
    return v, b


def ray_births(T: OrderTable, a: int, max_size: int) -> tuple[np.ndarray, int]:
    """Birth grade numerators of every face of subset_tables(T.m,
    max_size), in that numbering, in the ray filtration of 1-based column
    a, plus the endpoint numerator.

    A subset sigma first appears at grade t_end - g/n where g is the
    largest integer such that some column b satisfies
    ord_i(b) <= ord_i(a) - g for every row i in sigma: the gap of
    `subset_gaps` for the one anchor a.
    """
    if not (1 <= a <= T.n):
        raise ValueError(f"column {a} out of range [1..{T.n}]")
    tmax = int(T.ord[:, a - 1].max())
    (_, gaps), = subset_gaps(T.ord[:, [a - 1]], T.ord, max_size)
    return tmax - gaps[:, 0], tmax


def ray_filtration(T: OrderTable, a: int, skeleton: int | None = None) -> Filtration:
    """Diagonal-ray filtration of 1-based column a.

    Grades run over {0, 1/n, ..., t_end} with t_end = max_i ord_i(a)/n; the
    final complex contains the full face on [m] (truncated to `skeleton`)
    because column a witnesses every row at its own rank vector.
    """
    max_size = min(skeleton_bound(T, skeleton) + 1, T.m)
    births, tmax = ray_births(T, a, max_size)
    # a padded row repeats a vertex, which sets no extra bit
    bits = np.uint64(1) << subset_tables(T.m, max_size).vertex_table.astype(np.uint64)
    masks = np.bitwise_or.reduce(bits, axis=1)
    order = np.argsort(births, kind="stable")  # the face index breaks ties
    return Filtration(T.m, T.n, zip(births[order].tolist(), masks[order].tolist()), tmax)
