"""Simplicial interleaving distance between two rank multifiltrations.

Given order tables A and B over the same m rows, the distance is the
smallest shift epsilon such that every simplex present in A's complex at
grade t is present in B's complex at grade min(t + epsilon, 1), and vice
versa, for all t in [0,1]^m.

Both complexes are step functions of t that only change at multiples of
1/n_A resp. 1/n_B, so candidate shifts live on the merged grid of
multiples of 1/lcm(n_A, n_B).  Everything is computed in integers over
that common denominator: ranks are scaled by alpha = lcm/n_src and
beta = lcm/n_dst, in int16 while lcm < 2^15, where every difference of
scaled ranks fits, and in int32 or int64 above.

Rather than enumerating the full (lcm+1)^m grid, the inclusion is checked
at its generators.  For a subset sigma and witness column a, sigma enters
the source complex exactly at the grade vector with coordinates
alpha*ord_src[i,a]/lcm (i in sigma); membership on the other side is
monotone in the grade, so the inclusion holds at every grid point iff it
holds at each generator.  The generator (sigma, a) is matched after a
shift s iff some column b has beta*ord_dst[i,b] <= alpha*ord_src[i,a] + s
for all i in sigma (the clamp at 1 never binds, since beta*ord_dst <=
lcm).  With src = alpha*ord_src and dst = beta*ord_dst, its least shift
is therefore -g_sigma(a), where

    g_sigma(a) = max_b min_{i in sigma} (src[i,a] - dst[i,b])

is the gap of sigma at a.  A shift is feasible iff it covers every
generator's least shift, so the distance numerator is the largest of them
over both directions.  It is never negative: from the finer grid
(alpha <= beta), the vertex of a rank-1 column has least shift
beta - alpha.

Maximal faces.  A gap only shrinks as its face grows: for sigma inside
tau the min runs over more rows, so g_tau(a) <= g_sigma(a) for every a.
Every face of at most s = min(skeleton + 1, m) vertices lies in one of
exactly s vertices, so the largest least shift is reached at one of the
C(m, s) maximal faces, and only those are scanned.  The certificate still
counts every generator: a smaller face's is covered by a maximal face
that contains it.

Per-face fronts.  On each maximal face both directions run over the
columns `dowker.face_fronts` keeps of each table's rows of that face,
whose docstring shows that every gap and every least shift is attained
there.  Each direction is one run of `dowker.scan_gaps`, the blocked
max-min behind the Dowker births, with every source column reading all
rows of the face; the least of its gaps is that direction's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dowker import face_fronts, scan_gaps, skeleton_bound, subset_tables
from .ingest import DataMatrix, OrderTable, order_table

# The scan runs the C(m, s) maximal faces, each over its two fronts, and
# fronts grow with the face.  n_a=2000 against n_b=1000, drawn as in the
# interleave-m4 benchmark (d=2), takes 0.3-4 ms at every skeleton for m=4.
# For m=8 it takes under 7 ms at skeletons 0, 1 and 7, 30-85 ms at 2, 5
# and 6, and 110-130 ms at skeletons 3 and 4, whose 70 and 56 faces take
# fronts of 208 and 273 of the 2000 columns at the median.  Anti-correlated
# rows put every column on the table's front: m=8 then takes at most
# 0.08 s at skeletons 0-3 and 7, and 0.2-0.4 s at skeletons 4-6, the cost
# the cap rests on (int16 scan, median of 3 runs on a 2-core machine).
MAX_ROWS = 8


@dataclass(frozen=True)
class InterleaveResult:
    """Smallest feasible shift on the merged grid, with its certificate.

    ``distance`` equals ``numerator / denominator`` where the denominator
    is lcm(n_a, n_b); ``certificate`` counts the generator grades verified
    in each direction (A into shifted B, B into shifted A) at the reported
    shift: every (face, column) pair, faces times n_a resp. n_b.  Only the
    maximal faces and their fronts (`dowker.face_fronts`) are computed;
    any other generator is verified through a maximal face containing its
    face and a front column that weakly beats its column on that face's
    rows, whose least shift is at least its own.  The true infimum over
    real shifts lies in (distance - 1/denominator, distance].
    ``skeleton`` is the one computed: a requested bound past m - 1 reads
    m - 1, the full complex.
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
    grows with the C(m, skeleton + 1) maximal faces and their fronts, so m
    is capped at MAX_ROWS.
    """
    TA = _as_table(A)
    TB = _as_table(B)
    if TA.m != TB.m:
        raise ValueError(f"row counts differ: {TA.m} vs {TB.m}")
    m = TA.m
    if m > MAX_ROWS:
        raise ValueError(
            f"m={m} rows would scan up to {math.comb(m, m // 2)} maximal faces, "
            f"each against its Pareto fronts; at most {MAX_ROWS} rows supported"
        )
    skeleton = skeleton_bound(TA, skeleton)
    faces = subset_tables(m, min(skeleton + 1, m))
    n_a, n_b = TA.n, TB.n
    lcm = math.lcm(n_a, n_b)
    # scaled ranks lie in [1, lcm], their differences in (-lcm, lcm); int16
    # halves the scan's scratch and traffic
    dtype = np.int16 if lcm < 2**15 else np.int32 if lcm < 2**30 else np.int64
    xa, xb = (T.ord.astype(dtype) * (lcm // T.n) for T in (TA, TB))
    maximal = faces.vertex_table[faces.start[faces.max_size]:]
    fronts = ((xa[face][:, ca], xb[face][:, cb])
              for face, ca, cb in zip(maximal, face_fronts(xa, maximal), face_fronts(xb, maximal)))
    rows = np.arange(faces.max_size)
    gaps = (scan_gaps(src.T, np.broadcast_to(rows, src.T.shape), dst)[0].min()
            for fa, fb in fronts for src, dst in ((fa, fb), (fb, fa)))
    numerator = -int(min(gaps))
    return InterleaveResult(
        distance=numerator / lcm,
        numerator=numerator,
        denominator=lcm,
        m=m,
        n_a=n_a,
        n_b=n_b,
        skeleton=faces.max_size - 1,
        certificate=(faces.start[-1] * n_a, faces.start[-1] * n_b),
    )
