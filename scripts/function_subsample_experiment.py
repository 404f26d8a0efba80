#!/usr/bin/env python3
"""Boxplot summary of L_k under row (function) subsampling.

For wide families (large m) the full L_k computation is expensive, so we
repeatedly draw m_s rows, compute the replicate L_k vectors, and report
quartile summaries plus the dimension verdict.

Example:
    python3 scripts/function_subsample_experiment.py --d 2 --m 60 --n 150 \
        --size 10 --reps 1000 --seed 0 --out functions_sweep.csv
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
    subsample_functions,
)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--d", type=int, default=2, help="ambient dimension of the ball")
    ap.add_argument("--m", type=int, default=60, help="number of functions (rows)")
    ap.add_argument("--n", type=int, default=150, help="number of sample points (columns)")
    ap.add_argument("--size", type=int, default=10, help="rows per replicate")
    ap.add_argument("--reps", type=int, default=1000)
    ap.add_argument("--dup", type=int, default=None, help="top homology dimension")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default=None, help="write the summary table as CSV")
    args = ap.parse_args(argv)

    spec = RegularPairSpec.random_quadratic(d=args.d, m=args.m, seed=args.seed)
    _, matrix = sample_pair(spec, args.n, seed=args.seed)
    d_up = args.dup if args.dup is not None else args.d + 1

    res = subsample_functions(matrix, args.size, args.reps, d_up=d_up, seed=args.seed)
    verdict = int(decide_dimension(res.boxplots))
    print(f"m_s={args.size}: verdict={verdict}", file=sys.stderr)

    with open(args.out, "w", newline="") if args.out else nullcontext(sys.stdout) as f:
        writer = csv.DictWriter(f, fieldnames=["k", "q1", "median", "q3", "outliers", "verdict"])
        writer.writeheader()
        for k, bp in sorted(res.boxplots.items()):
            writer.writerow(
                {
                    "k": k,
                    "q1": bp.q1,
                    "median": bp.q2,
                    "q3": bp.q3,
                    "outliers": len(bp.outliers),
                    "verdict": verdict,
                }
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
