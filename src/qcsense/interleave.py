"""Simplicial interleaving distance between two rank multifiltrations.

Given order tables A and B over the same m rows, the distance is the
smallest shift epsilon such that every simplex present in A's complex at
grade t is present in B's complex at grade min(t + epsilon, 1), and vice
versa, for all t in [0,1]^m.

Both complexes are step functions of t that only change at multiples of
1/n_A resp. 1/n_B, so candidate shifts live on the merged grid of
multiples of 1/lcm(n_A, n_B).  Everything is computed in integers over
that common denominator: ranks are scaled by alpha = lcm/n_src and
beta = lcm/n_dst.

Rather than enumerating the full (lcm+1)^m grid, the inclusion is checked
at its generators.  For a subset sigma and witness column a, sigma enters
the source complex exactly at the grade vector with coordinates
alpha*ord_src[i,a]/lcm (i in sigma); membership on the other side is
monotone in the grade, so the inclusion holds at every grid point iff it
holds at each generator.  The generator (sigma, a) is matched after a
shift s iff some column b has beta*ord_dst[i,b] <= alpha*ord_src[i,a] + s
for all i in sigma (the clamp at 1 never binds, since beta*ord_dst <=
lcm).  Its least shift is therefore min_b max_i (beta*ord_dst[i,b] -
alpha*ord_src[i,a]), the negated subset gap of `dowker.subset_gaps`.  A
shift is feasible iff it covers every generator's least shift, so the
distance numerator is the largest of them over both directions.  It is
never negative: from the finer grid (alpha <= beta), the vertex of a
rank-1 column has least shift beta - alpha.  The min over b may skip
every column of dst that another column beats in all rows, since the
beating column needs a smaller shift on every sigma: the Pareto front of
dst suffices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dowker import subset_gaps, subset_tables
from .ingest import DataMatrix, OrderTable, order_table

# The check runs 2^m - 1 faces per column against the other table's front,
# which also grows with m: n_a=2000 against n_b=1000 takes about 0.02 s at
# m=4, 0.4-1 s at m=8 and 2-7 s at m=10 on a 2-core machine.
MAX_ROWS = 8


@dataclass(frozen=True)
class InterleaveResult:
    """Smallest feasible shift on the merged grid, with its certificate.

    ``distance`` equals ``numerator / denominator`` where the denominator
    is lcm(n_a, n_b); ``certificate`` counts the generator grades verified
    in each direction (A into shifted B, B into shifted A) at the reported
    shift.  The true infimum over real shifts lies in
    (distance - 1/denominator, distance].
    """

    distance: float
    numerator: int
    denominator: int
    m: int
    n_a: int
    n_b: int
    skeleton: int
    certificate: tuple[int, int]

    def __post_init__(self):
        if not 0.0 <= self.distance <= 1.0:
            raise ValueError("distance must lie in [0, 1]")

    def to_json_obj(self) -> dict:
        return {
            "distance": self.distance,
            "numerator": self.numerator,
            "denominator": self.denominator,
            "m": self.m,
            "grids": [self.n_a, self.n_b],
            "skeleton": self.skeleton,
            "certificate": {
                "generators_checked_ab": self.certificate[0],
                "generators_checked_ba": self.certificate[1],
            },
        }


def _as_table(X) -> OrderTable:
    if isinstance(X, OrderTable):
        return X
    if isinstance(X, DataMatrix):
        return order_table(X)
    raise TypeError("expected an OrderTable or DataMatrix")


def interleaving_distance(A, B, skeleton: int | None = None) -> InterleaveResult:
    """Smallest merged-grid shift with mutual inclusion of the two filtrations.

    ``A`` and ``B`` are order tables (or matrices, ranked on the fly) over
    the same m rows; ``skeleton`` bounds the simplex dimension considered
    (default m-1, the full complex).  Exact on the merged grid; the work
    grows as 2^m, so m is capped at MAX_ROWS.
    """
    TA = _as_table(A)
    TB = _as_table(B)
    if TA.m != TB.m:
        raise ValueError(f"row counts differ: {TA.m} vs {TB.m}")
    m = TA.m
    if m > MAX_ROWS:
        raise ValueError(
            f"m={m} rows would check 2^{m} - 1 faces per column; "
            f"at most {MAX_ROWS} rows supported"
        )
    if skeleton is None:
        skeleton = m - 1
    if skeleton < 0:
        raise ValueError("skeleton bound must be nonnegative")
    max_size = min(skeleton + 1, m)
    n_a, n_b = TA.n, TB.n
    lcm = math.lcm(n_a, n_b)
    # scaled ranks lie in [1, lcm], their differences in (-lcm, lcm)
    dtype = np.int32 if lcm < 2**30 else np.int64
    scaled_a = TA.ord.astype(dtype) * (lcm // n_a)
    scaled_b = TB.ord.astype(dtype) * (lcm // n_b)
    numerator = -min(
        int(gaps.min())
        for src, dst in ((scaled_a, scaled_b), (scaled_b, scaled_a))
        for _, gaps in subset_gaps(src, dst, max_size)
    )
    checked = len(subset_tables(m, max_size).masks)
    return InterleaveResult(
        distance=numerator / lcm,
        numerator=numerator,
        denominator=lcm,
        m=m,
        n_a=n_a,
        n_b=n_b,
        skeleton=skeleton,
        certificate=(checked * n_a, checked * n_b),
    )
