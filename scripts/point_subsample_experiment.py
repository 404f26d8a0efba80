#!/usr/bin/env python3
"""Boxplot sweep of L_k under column (point) subsampling.

Generates a synthetic quadratic family, samples a measurement matrix, and
reports quartile summaries of the replicate L_k vectors for several
subsample sizes, together with the dimension verdict at each size.

Example:
    python3 scripts/point_subsample_experiment.py --d 3 --m 10 --n 350 \
        --sizes 50 150 200 --reps 100 --seed 0 --out points_sweep.csv
"""

from __future__ import annotations

import argparse
import csv
import sys
from contextlib import nullcontext

from qcsense import (
    RegularPairSpec,
    decide_dimension,
    sample_pair,
    subsample_points,
)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--d", type=int, default=3, help="ambient dimension of the ball")
    ap.add_argument("--m", type=int, default=10, help="number of functions (rows)")
    ap.add_argument("--n", type=int, default=350, help="number of sample points (columns)")
    ap.add_argument("--sizes", type=int, nargs="+", default=[50, 150, 200])
    ap.add_argument("--reps", type=int, default=100)
    ap.add_argument("--dup", type=int, default=None, help="top homology dimension")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default=None, help="write the summary table as CSV")
    args = ap.parse_args(argv)

    spec = RegularPairSpec.random_quadratic(d=args.d, m=args.m, seed=args.seed)
    _, matrix = sample_pair(spec, args.n, seed=args.seed)
    d_up = args.dup if args.dup is not None else args.d

    rows = []
    for n_s in args.sizes:
        res = subsample_points(matrix, n_s, args.reps, d_up=d_up, seed=args.seed)
        verdict = int(decide_dimension(res.boxplots))
        for k, bp in sorted(res.boxplots.items()):
            rows.append(
                {
                    "n_s": n_s,
                    "k": k,
                    "q1": bp.q1,
                    "median": bp.q2,
                    "q3": bp.q3,
                    "outliers": len(bp.outliers),
                    "verdict": verdict,
                }
            )
        print(f"n_s={n_s}: verdict={verdict}", file=sys.stderr)

    with open(args.out, "w", newline="") if args.out else nullcontext(sys.stdout) as f:
        writer = csv.DictWriter(
            f, fieldnames=["n_s", "k", "q1", "median", "q3", "outliers", "verdict"]
        )
        writer.writeheader()
        writer.writerows(rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
