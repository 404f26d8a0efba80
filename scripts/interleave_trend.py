#!/usr/bin/env python3
"""Convergence trend of the interleaving distance with sample size.

Fixes one synthetic family, draws an independent dense reference sample,
and tracks the interleaving distance from increasingly large fresh
samples to that reference.  The distances should trend toward zero.

Example:
    python3 scripts/interleave_trend.py --d 2 --m 2 --ref-n 800 \
        --sizes 50 100 200 400 --trials 20 --seed 0
"""

from __future__ import annotations

import argparse
import csv
import statistics
import sys
from contextlib import nullcontext

from qcsense import RegularPairSpec, interleaving_distance, sample_pair


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--d", type=int, default=2, help="ambient dimension of the ball")
    ap.add_argument("--m", type=int, default=2, help="number of functions (max 8)")
    ap.add_argument("--family", choices=("linear", "quadratic"), default="quadratic")
    ap.add_argument("--ref-n", type=int, default=800, help="reference sample size")
    ap.add_argument("--sizes", type=int, nargs="+", default=[50, 100, 200, 400])
    ap.add_argument("--trials", type=int, default=20)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default=None, help="write the trial table as CSV")
    args = ap.parse_args(argv)

    make = (
        RegularPairSpec.random_linear
        if args.family == "linear"
        else RegularPairSpec.random_quadratic
    )
    spec = make(d=args.d, m=args.m, seed=args.seed)

    rows = []
    stride = len(args.sizes) + 1
    for trial in range(args.trials):
        base = args.seed + 1 + stride * trial
        _, ref = sample_pair(spec, args.ref_n, seed=base)
        for j, n in enumerate(args.sizes):
            _, sample = sample_pair(spec, n, seed=base + 1 + j)
            dist = interleaving_distance(ref, sample).distance
            rows.append({"trial": trial, "n": n, "distance": dist})

    for n in args.sizes:
        dists = [r["distance"] for r in rows if r["n"] == n]
        print(
            f"n={n}: mean={statistics.mean(dists):.4f} median={statistics.median(dists):.4f}",
            file=sys.stderr,
        )

    with open(args.out, "w", newline="") if args.out else nullcontext(sys.stdout) as f:
        writer = csv.DictWriter(f, fieldnames=["trial", "n", "distance"])
        writer.writeheader()
        writer.writerows(rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
