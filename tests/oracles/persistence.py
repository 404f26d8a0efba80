"""An independent rank computation that cross-checks `qcsense.persistence`.

`betti_numbers_by_elimination` takes the Betti numbers of the complex at
one grade from the ranks of its boundary operators, without reducing
the filtration.
"""

from __future__ import annotations

import numpy as np

from qcsense.dowker import Filtration, _mask_to_verts


def _f2_rank(rows: list[int]) -> int:
    """Rank of a bitmask-row matrix over the two-element field."""
    rank = 0
    basis: list[int] = []
    for row in rows:
        cur = row
        for b in basis:
            top = 1 << (b.bit_length() - 1)
            if cur & top:
                cur ^= b
        if cur:
            basis.append(cur)
            basis.sort(key=int.bit_length, reverse=True)
            rank += 1
    return rank


def betti_numbers_by_elimination(F: Filtration, grade: float, d_up: int) -> list[int]:
    """Independent rank oracle: Betti numbers of the complex at the given
    grade by Gaussian elimination of each boundary operator.

    beta_k = #k-faces - rank(boundary_k) - rank(boundary_{k+1}).
    """
    cutoff = int(np.floor(grade * F.denominator + 1e-9))
    faces = [f for g, f in F.entries if g <= cutoff]
    by_size: dict[int, list[int]] = {}
    for f in faces:
        by_size.setdefault(f.bit_count(), []).append(f)
    index_by_size = {
        s: {f: i for i, f in enumerate(fs)} for s, fs in by_size.items()
    }

    def boundary_rank(size: int) -> int:
        # columns are size-vertex faces, rows their (size-1)-vertex facets
        if size < 2 or size not in by_size:
            return 0
        idx = index_by_size[size - 1]
        cols = []
        for f in by_size[size]:
            col = 0
            for v in _mask_to_verts(f):
                col |= 1 << idx[f & ~(1 << (v - 1))]
            cols.append(col)
        return _f2_rank(cols)

    betti = []
    for k in range(d_up + 1):
        n_k = len(by_size.get(k + 1, []))
        betti.append(n_k - boundary_rank(k + 1) - boundary_rank(k + 2))
    return betti
