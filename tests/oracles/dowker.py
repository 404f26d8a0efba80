"""A second construction of the threshold complexes of `qcsense.dowker`.

`dowker_at_nerve` builds the complex at a grade vector as the nerve of
the column sets, independently of `dowker_at`'s witness sets, and
`hat_R_n` is the fraction of columns under a grade vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from qcsense.dowker import Grades, SimplicialComplex, _int_thresholds
from qcsense.ingest import OrderTable


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
