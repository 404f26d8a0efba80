"""Top-level acceptance suite.

Each test exercises one end-to-end guarantee of the library at its stated
tolerance and time budget, and registers a single PASS/FAIL line that the
terminal summary reprints.  Stochastic guarantees state their seed count
and required hit rate explicitly.
"""

from __future__ import annotations

import contextlib
import time

import numpy as np
import pytest

from qcsense import (
    DataMatrix,
    RegularPairSpec,
    compute_Lk,
    decide_dimension,
    discretized_central_region,
    dowker,
    estimator,
    interleaving_distance,
    load_matrix,
    order_table,
    persistence_intervals,
    ray_filtration,
    sample_pair,
    subsample_points,
)
from conftest import ACCEPTANCE_LINES, EXAMPLE_CSV, random_tie_free_matrix
from oracles.geometry import (
    cent0_predicate,
    check_sequence_realizable,
    hull_membership,
    mc_measure,
    realize_function,
    simplex_with_barycenter,
)
from oracles.persistence import betti_numbers_by_elimination

pytestmark = pytest.mark.acceptance


@contextlib.contextmanager
def criterion(num: int, desc: str, budget_s: float):
    """Record one PASS/FAIL line; a criterion fails when its check fails
    or its runtime budget is exceeded."""
    state = {"ok": False, "detail": ""}
    start = time.perf_counter()
    try:
        yield state
    except Exception as exc:
        ACCEPTANCE_LINES.append(
            f"FAIL: criterion {num} — {desc} ({type(exc).__name__}: {exc})"
        )
        raise
    elapsed = time.perf_counter() - start
    ok = bool(state["ok"]) and elapsed <= budget_s
    detail = state["detail"]
    if elapsed > budget_s:
        detail = (detail + "; " if detail else "") + f"over budget {budget_s:.0f}s"
    suffix = f" [{detail}; {elapsed:.2f}s]" if detail else f" [{elapsed:.2f}s]"
    line = f"{'PASS' if ok else 'FAIL'}: criterion {num} — {desc}{suffix}"
    ACCEPTANCE_LINES.append(line)
    assert ok, line


def test_criterion_1_order_sequences_exact():
    with criterion(1, "worked 2x4 matrix yields its two order sequences exactly", 1.0) as c:
        M = load_matrix(EXAMPLE_CSV)
        order_table(M)  # warm-up outside the timed window
        best = min(
            _timed(lambda: order_table(M)) for _ in range(5)
        )
        T = order_table(M)
        got = {tuple(map(int, row)) for row in T.sequences}
        c["ok"] = got == {(3, 4, 2, 1), (2, 1, 3, 4)} and best < 1e-3
        c["detail"] = f"sequences {sorted(got)}, {best * 1e6:.0f}us per call"


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_criterion_2_persistence_matches_elimination():
    with criterion(
        2, "diagram Betti numbers equal elimination ranks on 200 random filtrations", 30.0
    ) as c:
        checked = 0
        for seed in range(200):
            rng = np.random.Generator(np.random.PCG64(seed))
            m = int(rng.integers(1, 7))
            n = int(rng.integers(2, 9))
            M = random_tie_free_matrix(rng, m, n)
            T = order_table(M)
            a = int(rng.integers(1, n + 1))
            F = ray_filtration(T, a)
            D = persistence_intervals(F, d_up=4)
            for g in range(F.t_end_numer + 1):
                grade = g / F.denominator
                oracle = betti_numbers_by_elimination(F, grade, 4)
                assert list(D.betti(grade)) == oracle, (seed, g)
                checked += 1
        c["ok"] = True
        c["detail"] = f"200 filtrations, {checked} grade checks, all exact"


def test_criterion_3_quadratic_d3_subsample_verdict():
    with criterion(
        3,
        "quadratic d=3 family (m=10, n=350): point subsampling decides dimension 3",
        1200.0,
    ) as c:
        hits = []
        for seed in range(5):
            spec = RegularPairSpec.random_quadratic(d=3, m=10, seed=seed)
            _, matrix = sample_pair(spec, 350)
            res = subsample_points(matrix, 200, 100, d_up=3, seed=seed)
            bp = res.boxplots
            verdict = int(decide_dimension(bp))
            hits.append(bp[2].q1 > 0 and bp[3].q1 == 0 and verdict == 3)
        c["ok"] = sum(hits) >= 4
        c["detail"] = f"{sum(hits)}/5 seeds decided 3 (need >=4)"


def test_criterion_4_uniform_matrix_length_profile():
    with criterion(
        4,
        "iid uniform m=5, n=300: L_k clears 0.05 for k<=3 and stays below at k=4",
        300.0,
    ) as c:
        hits = []
        for seed in range(5):
            rng = np.random.Generator(np.random.PCG64(seed))
            M = DataMatrix(rng.random((5, 300)))
            L = compute_Lk(M, d_up=5).L
            hits.append(all(L[k] > 0.05 for k in range(4)) and L[4] < 0.05)
        c["ok"] = sum(hits) >= 4
        c["detail"] = f"{sum(hits)}/5 seeds (need >=4)"


def _positively_spanning_directions(seed: int) -> np.ndarray:
    """Four unit directions in the plane whose convex hull contains the
    origin with margin (all angular gaps below pi)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    while True:
        theta = np.sort(rng.uniform(0.0, 2.0 * np.pi, 4))
        gaps = np.diff(np.concatenate([theta, [theta[0] + 2.0 * np.pi]]))
        if gaps.max() < np.pi - 0.1:
            return np.column_stack([np.cos(theta), np.sin(theta)])


def test_criterion_5_central_fraction_matches_monte_carlo():
    with criterion(
        5,
        "empirical central fraction within 0.05 of the Monte Carlo ball measure",
        120.0,
    ) as c:
        hits = []
        diffs = []
        for seed in range(5):
            spec = RegularPairSpec(
                family="linear",
                d=2,
                m=4,
                seed=seed,
                directions=_positively_spanning_directions(seed),
            )
            _, matrix = sample_pair(spec, 2000)
            frac = discretized_central_region(matrix).fraction
            est = mc_measure(spec, cent0_predicate(spec), n_mc=100_000, seed=seed)
            diffs.append(abs(frac - est.fraction))
            hits.append(diffs[-1] < 0.05)
        c["ok"] = sum(hits) >= 4
        c["detail"] = f"{sum(hits)}/5 seeds, max gap {max(diffs):.4f}"


def test_criterion_6_interleaving_shrinks_with_sample_size():
    with criterion(
        6,
        "interleaving distance to an n=800 reference shrinks from n=50 to n=400",
        600.0,
    ) as c:
        spec = RegularPairSpec.random_quadratic(d=2, m=2, seed=2026)
        wins = 0
        for t in range(100):
            _, ref = sample_pair(spec, 800, seed=10_000 + 3 * t)
            _, small = sample_pair(spec, 50, seed=10_001 + 3 * t)
            _, big = sample_pair(spec, 400, seed=10_002 + 3 * t)
            d_small = interleaving_distance(ref, small).distance
            d_big = interleaving_distance(ref, big).distance
            wins += d_big <= d_small
        c["ok"] = wins >= 80
        c["detail"] = f"{wins}/100 trials (need >=80)"


def test_criterion_7_realized_functions_order_and_convexity():
    with criterion(
        7,
        "100 realized functions reproduce their sequences; midpoint convexity holds",
        60.0,
    ) as c:
        rng = np.random.Generator(np.random.PCG64(7))
        made = 0
        order_violations = 0
        convexity_violations = 0
        while made < 100:
            d = int(rng.integers(1, 4))
            n = int(rng.integers(2, 8))
            pts = rng.uniform(-0.7, 0.7, size=(n, d))
            seq = tuple(int(s) for s in rng.permutation(n) + 1)
            if not check_sequence_realizable(pts, seq):
                continue
            try:
                f = realize_function(pts, seq)
            except ValueError:
                continue  # outside the hull but within the numeric gap guard
            vals = f(pts[[s - 1 for s in seq]])
            if not all(a < b for a, b in zip(vals, vals[1:])):
                order_violations += 1
            A = rng.uniform(-1.0, 1.0, size=(1000, d))
            B = rng.uniform(-1.0, 1.0, size=(1000, d))
            gap = f((A + B) / 2.0) - (f(A) + f(B)) / 2.0
            convexity_violations += int(np.count_nonzero(gap > 1e-9))
            made += 1
        c["ok"] = order_violations == 0 and convexity_violations == 0
        c["detail"] = (
            f"100 functions, {order_violations} order violations, "
            f"{convexity_violations} convexity violations over 100k midpoints"
        )


def _barycenter_sequences(points: np.ndarray, center: int) -> list[tuple[int, ...]]:
    """All sequences (others ascending, center, i) for the given center."""
    n = points.shape[0]
    others = [j for j in range(1, n + 1) if j != center]
    out = []
    for i in others:
        rest = tuple(j for j in others if j != i)
        out.append(rest + (center, i))
    return out


def test_criterion_8_simplex_barycenter_obstruction():
    with criterion(
        8,
        "simplex-plus-barycenter sequences realizable in R^3 but never all four in the plane",
        120.0,
    ) as c:
        pc = simplex_with_barycenter(5)
        in_r3 = all(
            check_sequence_realizable(pc, s) for s in _barycenter_sequences(pc.points, 5)
        )

        planar_counterexamples = 0
        witnesses = 0
        for seed in range(500):
            rng = np.random.Generator(np.random.PCG64(seed))
            pts = rng.uniform(-0.7, 0.7, size=(5, 2))
            for center in range(1, 6):
                others = pts[[j - 1 for j in range(1, 6) if j != center]]
                if not hull_membership(pts[center - 1], others):
                    continue
                witnesses += 1
                if all(
                    check_sequence_realizable(pts, s)
                    for s in _barycenter_sequences(pts, center)
                ):
                    planar_counterexamples += 1
        c["ok"] = in_r3 and planar_counterexamples == 0
        c["detail"] = (
            f"R^3 all four realizable: {in_r3}; "
            f"{witnesses} planar interior points, {planar_counterexamples} counterexamples"
        )


def test_criterion_9_invariance_suite():
    with criterion(
        9,
        "sequences, L_k, and central region: monotone-invariant, permutation-equivariant",
        120.0,
    ) as c:
        rng = np.random.Generator(np.random.PCG64(99))
        for _ in range(50):
            m = int(rng.integers(3, 7))
            n = int(rng.integers(3, 9))
            M = random_tie_free_matrix(rng, m, n)
            d_up = min(2, m - 2)

            seqs = {tuple(map(int, r)) for r in order_table(M).sequences}
            L = compute_Lk(M, d_up=d_up).L
            members = discretized_central_region(M).members

            transformed = M.values.copy()
            transformed[0::2] = np.exp(transformed[0::2])
            transformed[1::2] = transformed[1::2] ** 3 + 2.0 * transformed[1::2]
            Mt = DataMatrix(transformed)
            assert {tuple(map(int, r)) for r in order_table(Mt).sequences} == seqs
            assert compute_Lk(Mt, d_up=d_up).L == L
            assert discretized_central_region(Mt).members == members

            perm = rng.permutation(n)
            Mp = DataMatrix(M.values[:, perm])
            relabel = np.empty(n, dtype=np.int64)
            relabel[perm] = np.arange(1, n + 1)
            assert {
                tuple(int(relabel[a - 1]) for a in r) for r in order_table(M).sequences
            } == {tuple(map(int, r)) for r in order_table(Mp).sequences}
            assert compute_Lk(Mp, d_up=d_up).L == L
            assert discretized_central_region(Mp).members == frozenset(
                int(relabel[a - 1]) for a in members
            )
        c["ok"] = True
        c["detail"] = "50 matrices, all identities exact"


def test_criterion_10_column_count_scaling():
    with criterion(
        10, "compute_Lk runtime ratio for n=400 vs n=200 lies in [1.5, 3.0]", 300.0
    ) as c:
        rng = np.random.Generator(np.random.PCG64(1))
        M400 = DataMatrix(rng.random((10, 400)))
        M200 = DataMatrix(M400.values[:, :200])
        compute_Lk(M200, d_up=3)  # warm-up

        def best_of(M, k=3):
            return min(_timed(lambda: compute_Lk(M, d_up=3)) for _ in range(k))

        t200 = best_of(M200)
        t400 = best_of(M400)
        ratio = t400 / t200
        c["ok"] = 1.5 <= ratio <= 3.0
        c["detail"] = f"t(200)={t200:.3f}s t(400)={t400:.3f}s ratio={ratio:.2f}"


def test_certificate_fallbacks_scale_with_columns(monkeypatch):
    # Beside criterion 10, on its own matrices, with counts in place of
    # timings, at n=400 against n=200: the (face, column) cells whose
    # births need the full scan over the front, and the columns and pairs
    # of the leftover reduction.  Machine speed cannot move these counts,
    # so a scaling regression in births or reduction shows here first.
    rng = np.random.Generator(np.random.PCG64(1))
    M400 = DataMatrix(rng.random((10, 400)))
    M200 = DataMatrix(M400.values[:, :200])
    scan, reduce = dowker.scan_gaps, estimator.pair_reduction
    counts = {"fallback cells": [], "leftover columns": [], "leftover pairs": []}

    def counting_scan(x, rows, front):
        counts["fallback cells"][-1] += len(rows)
        return scan(x, rows, front)

    def counting_reduce(columns, owned, limit):
        pairs, creators = reduce(columns, owned, limit)
        counts["leftover columns"][-1] += len(columns)
        counts["leftover pairs"][-1] += len(pairs)
        return pairs, creators

    monkeypatch.setattr(dowker, "scan_gaps", counting_scan)
    monkeypatch.setattr(estimator, "pair_reduction", counting_reduce)
    for M in (M200, M400):
        for c in counts.values():
            c.append(0)
        compute_Lk(M, d_up=3)
    for name, (n200, n400) in counts.items():
        assert n200 > 0, name
        assert n400 / n200 <= 3.0, f"{name} {n200} -> {n400}"
