"""Persistent homology of one-parameter filtrations over the two-element
field: interval decomposition, diagrams, and maximal persistence lengths.

The reduction is the standard left-to-right column elimination with
bit-packed columns; classes alive at the end of the index range are
capped there and flagged essential.  `persistence_intervals` reduces
every column of `Filtration.boundary_columns()`, the matrix built by the
same walk that checks a filtration; it is the reference path.  The
estimator's L_k kernel calls `pair_reduction` only on what its shortcuts
leave (see `estimator._lengths` and `estimator._apparent`):

- apparent pairs (Bauer, "Ripser", JACT 2021): sigma is the youngest facet
  of tau and tau the oldest cofacet of sigma, a persistence pair that
  needs no reduction.  The kernel reads both off the facet and cofacet
  slots of each face, from the gaps alone.  sigma's column is an implicit
  reducer: it is not passed, but regenerated when tau turns up as a pivot
  (`owned`);
- clearing across dimensions (Chen and Kerber, "Persistent homology
  computation with a twist", 2011): a face that destroys a pair one
  dimension down, apparent or found there, reduces to zero;
- counting: a ray filtration ends in a full skeleton of the simplex on
  [m], so dimension k has C(m-1, k+1) finite pairs.  A dimension whose
  apparent pairs reach that count is not reduced; any other stops
  (`limit`) once it has the rest.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dowker import Filtration


@dataclass(frozen=True)
class PersistenceInterval:
    dim: int
    birth_numer: int
    death_numer: int
    denominator: int
    essential: bool = False

    def __post_init__(self):
        if self.birth_numer > self.death_numer:
            raise ValueError("interval dies before it is born")

    @property
    def birth(self) -> float:
        return self.birth_numer / self.denominator

    @property
    def death(self) -> float:
        return self.death_numer / self.denominator

    @property
    def length(self) -> float:
        return (self.death_numer - self.birth_numer) / self.denominator


@dataclass(frozen=True)
class PersistenceDiagram:
    """Per-dimension multiset of grid intervals for dimensions 0..d_up."""

    d_up: int
    denominator: int
    t_end_numer: int
    intervals: tuple[PersistenceInterval, ...]

    def by_dim(self, k: int) -> tuple[PersistenceInterval, ...]:
        return tuple(iv for iv in self.intervals if iv.dim == k)

    def betti(self, grade: float) -> list[int]:
        """Rank of dimension-k homology at the given grade, per k <= d_up,
        read off the interval decomposition: alive means born at or before
        the grade and (essential or dying strictly after it)."""
        g = int(round(grade * self.denominator))
        counts = [0] * (self.d_up + 1)
        for iv in self.intervals:
            if iv.birth_numer <= g and (iv.essential or iv.death_numer > g):
                counts[iv.dim] += 1
        return counts


@dataclass(frozen=True)
class MaxLengths:
    """Longest interval length per dimension k = 0..d_up; 0 when empty."""

    lengths: tuple[float, ...]

    def __getitem__(self, k: int) -> float:
        return self.lengths[k]

    def __len__(self) -> int:
        return len(self.lengths)


def pair_reduction(columns: list[int], owned=None, limit=None) -> tuple[dict[int, int], list[int]]:
    """Reduce bit-packed boundary columns left to right.

    columns[j] has bits at the positions of j's facets (all < j).  Returns
    (pairs, creators): pairs maps creator position -> destroyer position;
    creators lists positions whose column reduced to zero.

    Only the column order and the row order of the bits matter, so a
    caller may pass a subset of the columns (with bits indexing the full
    filtration), or coboundary columns of the anti-transposed matrix,
    where the roles of the two positions in a pair swap.  owned(p) may
    return the reduced column, pivot p, of a column left out of `columns`;
    the pivot table keeps it, and the rest pair as in the full matrix.
    With a limit, the reduction stops at the first `limit` pairs.
    """
    reduced: dict[int, int] = {}  # pivot -> reduced column
    pairs: dict[int, int] = {}
    creators: list[int] = []
    for j, cur in enumerate(columns):
        if len(pairs) == limit:
            break
        while cur:
            p = cur.bit_length() - 1
            col = reduced.get(p)
            if col is None and owned:
                col = reduced[p] = owned(p)
            if col is None:
                reduced[p] = cur
                pairs[p] = j
                break
            cur ^= col
        else:
            creators.append(j)
    return pairs, creators


def persistence_intervals(F: Filtration, d_up: int) -> PersistenceDiagram:
    """Interval decomposition of the filtration's homology in dimensions
    0..d_up over the two-element field.

    Zero-length intervals are recorded (they witness creator/destroyer
    pairs at equal grades) but contribute nothing to lengths; classes
    surviving to t_end are capped there and flagged essential.
    """
    if d_up < 0:
        raise ValueError("d_up must be >= 0")
    columns, sizes = F.boundary_columns()
    pairs, creators = pair_reduction(columns)
    grades = [g for g, _ in F.entries]
    intervals = []
    for j in creators:
        k = sizes[j] - 1
        if k > d_up:
            continue
        d = pairs.get(j)
        death = F.t_end_numer if d is None else grades[d]
        intervals.append(PersistenceInterval(k, grades[j], death, F.denominator, d is None))
    intervals.sort(key=lambda iv: (iv.dim, iv.birth_numer, iv.death_numer, not iv.essential))
    return PersistenceDiagram(d_up, F.denominator, F.t_end_numer, tuple(intervals))


def max_lengths(D: PersistenceDiagram) -> MaxLengths:
    """Per-dimension supremum of interval lengths, essential classes
    included at their capped deaths; 0 for dimensions with no interval."""
    best = [0.0] * (D.d_up + 1)
    for iv in D.intervals:
        if iv.length > best[iv.dim]:
            best[iv.dim] = iv.length
    return MaxLengths(tuple(best))
