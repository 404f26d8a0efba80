"""Rank-threshold nerve complexes and per-column ray filtrations.

Given an OrderTable, each threshold vector t in [0,1]^m selects, per column
a, the witness set sigma_a = {i : ord_i(a) <= n*t_i}.  The complex at t is
the downward closure of all witness sets; equivalently it is the nerve of
the column sets A_i(t_i) = {a : ord_i(a) <= n*t_i}.  Sliding the threshold
vector of a fixed column a down the diagonal produces a one-parameter
filtration whose grades live on the 1/n grid.

Complexes are stored as bitmasks over the row set: bit (i-1) set means row
i is a vertex of the face.  Row and column labels are 1-based throughout
the public surface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Sequence, Union

import numpy as np

from .central import undominated_columns
from .ingest import OrderTable

MAX_ROWS = 64  # bitmask capacity; one machine word

# Source columns per subset_gaps block: bounds the block x |C| prefix minima.
BLOCK = 128

GRID_SNAP = 1e-9  # rescue k/n thresholds from float round-off

Grades = Union["GradeVector", Sequence[float]]


@dataclass(frozen=True)
class GradeVector:
    """Length-m vector of filtration parameters, each in [0, 1]."""

    t: tuple[float, ...]

    def __post_init__(self):
        t = tuple(float(x) for x in self.t)
        for x in t:
            if not (0.0 <= x <= 1.0):
                raise ValueError(f"grade {x!r} outside [0, 1]")
        object.__setattr__(self, "t", t)

    def __len__(self) -> int:
        return len(self.t)

    def __iter__(self):
        return iter(self.t)


def _coerce_grades(t: Grades, m: int) -> tuple[float, ...]:
    vals = tuple(float(x) for x in t)
    if len(vals) != m:
        raise ValueError(f"expected {m} grades, got {len(vals)}")
    return vals


def _check_rows(m: int) -> None:
    if m > MAX_ROWS:
        raise ValueError(f"row count {m} exceeds bitmask capacity {MAX_ROWS}")


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
        if isinstance(face, int):
            return face in self.faces
        mask = 0
        for v in face:
            mask |= 1 << (v - 1)
        return mask == 0 or mask in self.faces

    def is_subcomplex_of(self, other: "SimplicialComplex") -> bool:
        return self.faces <= other.faces


def _int_thresholds(T: OrderTable, t: Grades) -> np.ndarray:
    """Per-row integer rank cutoffs r_i with ord <= n*t_i  <=>  ord <= r_i."""
    vals = _coerce_grades(t, T.m)
    n = T.n
    return np.array([math.floor(n * x + GRID_SNAP) for x in vals], dtype=np.int64)


def dowker_at(T: OrderTable, t: Grades, skeleton: int | None = None) -> SimplicialComplex:
    """Complex at threshold vector t, built from per-column witness sets.

    Thresholds may fall below 0 (the row then contributes no vertex) and are
    snapped to the 1/n grid within a 1e-9 guard.  `skeleton` bounds the
    retained face dimension; default is the full m-1.
    """
    _check_rows(T.m)
    if skeleton is None:
        skeleton = T.m - 1
    if skeleton < 0:
        raise ValueError("skeleton bound must be >= 0")
    r = _int_thresholds(T, t)
    below = T.ord <= r[:, None]  # (m, n)
    weights = np.uint64(1) << np.arange(T.m, dtype=np.uint64)
    witness = (below.astype(np.uint64) * weights[:, None]).sum(axis=0)
    return SimplicialComplex.from_witnesses(T.m, (int(w) for w in witness), skeleton)


def dowker_at_nerve(
    T: OrderTable, t: Grades, skeleton: int | None = None
) -> SimplicialComplex:
    """Same complex as `dowker_at`, assembled as the nerve of the column
    sets A_i(t_i) = {a : ord_i(a) <= n*t_i}.  Cross-check construction;
    enumerates row subsets, so intended for small m."""
    if T.m > 16:
        raise ValueError("nerve-form evaluation is limited to m <= 16")
    if skeleton is None:
        skeleton = T.m - 1
    r = _int_thresholds(T, t)
    below = T.ord <= r[:, None]
    faces: set[int] = set()
    rows = range(T.m)
    for size in range(1, min(T.m, skeleton + 1) + 1):
        for comb in combinations(rows, size):
            if below[list(comb)].all(axis=0).any():
                mask = 0
                for i in comb:
                    mask |= 1 << i
                faces.add(mask)
    return SimplicialComplex(T.m, frozenset(faces), skeleton)


def hat_R_n(T: OrderTable, t: Grades) -> float:
    """Fraction of columns whose whole rank vector sits under t.

    Monotone in every coordinate, valued in {0, 1/n, ..., 1}.  A face sigma
    belongs to the complex at t exactly when this fraction is nonzero after
    replacing the coordinates outside sigma by 1.
    """
    r = _int_thresholds(T, t)
    return float((T.ord <= r[:, None]).all(axis=0).mean())


@dataclass(frozen=True)
class Filtration:
    """One-parameter filtration on the 1/denominator grade grid.

    `entries` lists (grade_numerator, face_bitmask) sorted by (grade,
    dimension, vertex order); the index range is [0, t_end_numer /
    denominator].  Faces never appear later than their cofaces.
    """

    m: int
    denominator: int
    entries: tuple[tuple[int, int], ...]
    t_end_numer: int

    def __init__(self, m, denominator, entries, t_end_numer, validate=True):
        object.__setattr__(self, "m", int(m))
        object.__setattr__(self, "denominator", int(denominator))
        object.__setattr__(self, "entries", tuple((int(g), int(f)) for g, f in entries))
        object.__setattr__(self, "t_end_numer", int(t_end_numer))
        if validate:
            self._validate()

    def _validate(self):
        _check_rows(self.m)
        if self.denominator < 1:
            raise ValueError("denominator must be >= 1")
        if not (0 <= self.t_end_numer <= self.denominator):
            raise ValueError("index range endpoint outside [0, 1]")
        born: dict[int, int] = {}
        prev = 0
        for g, f in self.entries:
            if g < prev:
                raise ValueError("entries not sorted by grade")
            if not (0 <= g <= self.t_end_numer):
                raise ValueError(f"grade {g}/{self.denominator} outside index range")
            if f == 0:
                raise ValueError("empty face has no explicit entry")
            if f in born:
                raise ValueError(f"face {f:b} appears twice")
            for v in _mask_to_verts(f):
                facet = f & ~(1 << (v - 1))
                if facet and born.get(facet, g + 1) > g:
                    raise ValueError("face born after one of its cofaces")
            born[f] = g
            prev = g

    @property
    def t_end(self) -> float:
        return self.t_end_numer / self.denominator

    def grades(self) -> tuple[float, ...]:
        return tuple(g / self.denominator for g, _ in self.entries)

    def complex_at(self, grade: float, skeleton: int | None = None) -> SimplicialComplex:
        cutoff = math.floor(grade * self.denominator + GRID_SNAP)
        faces = frozenset(f for g, f in self.entries if g <= cutoff)
        if skeleton is None:
            skeleton = max((f.bit_count() for f in faces), default=1) - 1
            skeleton = max(skeleton, 0)
        else:
            faces = frozenset(f for f in faces if f.bit_count() <= skeleton + 1)
        return SimplicialComplex(self.m, faces, skeleton)

    def export_text(self) -> str:
        """One face per line: grade numerator then 1-based vertices;
        denominator recorded in the header line."""
        lines = [f"denominator {self.denominator}"]
        for g, f in self.entries:
            lines.append(" ".join(map(str, (g,) + _mask_to_verts(f))))
        return "\n".join(lines) + "\n"


@lru_cache(maxsize=None)
def subset_tables(m: int, max_size: int):
    """Enumerate nonempty subsets of [m] up to max_size vertices.

    Returns (masks, verts, sizes, facets, tiebreak) where facets[k] indexes
    the size-1 subfaces of subset k within the same enumeration and
    tiebreak ranks subsets by (size, vertex order) for deterministic
    same-grade ordering.
    """
    masks: list[int] = []
    verts: list[tuple[int, ...]] = []

    def rec(prefix: tuple[int, ...], mask: int, start: int):
        for v in range(start, m):
            cur = prefix + (v,)
            cm = mask | (1 << v)
            masks.append(cm)
            verts.append(cur)
            if len(cur) < max_size:
                rec(cur, cm, v + 1)

    rec((), 0, 0)
    sizes = np.array([len(v) for v in verts], dtype=np.int64)
    index = {mk: k for k, mk in enumerate(masks)}
    facets = tuple(
        tuple(index[mk & ~(1 << v)] for v in vs) if len(vs) > 1 else ()
        for mk, vs in zip(masks, verts)
    )
    order = sorted(range(len(masks)), key=lambda k: (len(verts[k]), verts[k]))
    tiebreak = np.empty(len(masks), dtype=np.int64)
    tiebreak[order] = np.arange(len(masks), dtype=np.int64)
    return tuple(masks), tuple(verts), sizes, facets, tiebreak


def subset_gaps(src: np.ndarray, dst: np.ndarray, max_size: int):
    """Yield (column_range, gaps) blocks over the columns a of src:
    gaps[k, j] = max_b min_{i in sigma_k} (src[i, a] - dst[i, b]) for the
    block's j-th column a and subset sigma_k of subset_tables(m, max_size).

    The max runs over C, the columns of dst that no other column strictly
    beats in every row.  Any b outside C is beaten in all m rows, hence on
    sigma, by some b* in C, whose min is larger: the max over C equals the
    max over all columns of dst.  Minima follow each subset's vertex
    prefix in the dtype of src - dst; gaps are at least int32, so a caller
    may rewrite them in place.
    """
    m, n = src.shape
    _, verts, _, _, _ = subset_tables(m, max_size)
    front = dst[:, undominated_columns(dst)]
    for start in range(0, n, BLOCK):
        stop = min(start + BLOCK, n)
        gaps = np.empty((len(verts), stop - start), dtype=np.result_type(src, dst, np.int32))
        stack: list[np.ndarray] = []
        for k, vs in enumerate(verts):
            row = src[vs[-1], start:stop, None] - front[vs[-1]]
            stack = stack[: len(vs) - 1]
            stack.append(np.minimum(stack[-1], row) if stack else row)
            gaps[k] = stack[-1].max(axis=1)
        del stack  # free the prefix minima while the caller works on the block
        yield range(start, stop), gaps


def ray_births(T: OrderTable, a: int, max_size: int) -> tuple[np.ndarray, int]:
    """Birth grade numerators of every subset (from subset_tables) in the
    ray filtration of 1-based column a, plus the endpoint numerator.

    A subset sigma first appears at grade t_end - g/n where g is the
    largest integer such that some column b satisfies
    ord_i(b) <= ord_i(a) - g for every row i in sigma.
    """
    if not (1 <= a <= T.n):
        raise ValueError(f"column {a} out of range [1..{T.n}]")
    masks, verts, _, _, _ = subset_tables(T.m, max_size)
    col = T.ord[:, a - 1]
    tmax = int(col.max())
    D = col[:, None] - T.ord  # D[i, b] = ord_i(a) - ord_i(b)
    births = np.empty(len(masks), dtype=np.int64)
    stack: list[np.ndarray] = []
    for k, vs in enumerate(verts):
        depth = len(vs)
        row = D[vs[-1]]
        if depth == 1:
            stack = [row]
        else:
            stack = stack[: depth - 1]
            stack.append(np.minimum(stack[depth - 2], row))
        births[k] = tmax - int(stack[-1].max())
    return births, tmax


def ray_filtration(T: OrderTable, a: int, skeleton: int | None = None) -> Filtration:
    """Diagonal-ray filtration of 1-based column a.

    Grades run over {0, 1/n, ..., t_end} with t_end = max_i ord_i(a)/n; the
    final complex contains the full face on [m] (truncated to `skeleton`)
    because column a witnesses every row at its own rank vector.
    """
    _check_rows(T.m)
    if skeleton is None:
        skeleton = T.m - 1
    max_size = min(skeleton + 1, T.m)
    births, tmax = ray_births(T, a, max_size)
    masks, verts, _, _, _ = subset_tables(T.m, max_size)
    order = sorted(range(len(masks)), key=lambda k: (births[k], len(verts[k]), verts[k]))
    entries = tuple((int(births[k]), masks[k]) for k in order)
    return Filtration(T.m, T.n, entries, tmax, validate=False)
