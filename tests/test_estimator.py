"""Maximal persistence lengths, the threshold estimate, and subsampling."""

from __future__ import annotations

import tracemalloc
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcsense import (
    BoxplotSummary,
    DataMatrix,
    LkProfile,
    RegularPairSpec,
    compute_Lk,
    d_hat_low,
    decide_dimension,
    load_matrix,
    order_table,
    sample_pair,
    subsample_functions,
    subsample_points,
)
from qcsense import estimator
from qcsense.dowker import BLOCK, ray_births, ray_filtration, subset_gaps, subset_tables
from qcsense.estimator import CHUNK, _age_keys, _apparent, _lk_from_order, default_d_up
from qcsense.persistence import pair_reduction, persistence_intervals

from conftest import (
    assert_tie_break_order,
    face_list,
    prefix_gaps,
    random_order_table,
    random_tie_free_matrix,
    shared_rank_table,
)


class TestComputeLk:
    def test_example_matrix(self, example_matrix):
        P = compute_Lk(example_matrix, d_up=1)
        assert P.L == (0.75, 0.0)
        assert P.m == 2 and P.n == 4 and P.d_up == 1
        per = {a: mx.lengths for a, mx in P.per_column.items()}
        assert per == {
            1: (0.75, 0.0),
            2: (0.5, 0.0),
            3: (0.5, 0.0),
            4: (0.75, 0.0),
        }

    def test_accepts_order_table(self, example_matrix):
        T = order_table(example_matrix)
        assert compute_Lk(T, d_up=1).L == (0.75, 0.0)

    def test_single_row(self):
        M = DataMatrix(np.array([[3.0, 1.0, 2.0, 5.0, 4.0]]))
        P = compute_Lk(M, d_up=2)
        n = 5
        assert P.L[0] == pytest.approx(1 - 1 / n)
        assert P.L[1] == 0.0 and P.L[2] == 0.0

    def test_single_column(self):
        M = DataMatrix(np.array([[2.0], [7.0], [1.0]]))
        P = compute_Lk(M, d_up=1)
        assert P.L == (0.0, 0.0)

    def test_per_column_optional(self, example_matrix):
        P = compute_Lk(example_matrix, d_up=1, per_column=False)
        assert P.per_column is None

    def test_rows_past_mask_width(self):
        # the kernel reads no face masks, so more rows than ray_filtration's
        # 64-bit masks hold are fine, as in subsample_functions
        M = random_tie_free_matrix(np.random.Generator(np.random.PCG64(0)), 65, 4)
        P = compute_Lk(M, d_up=0)
        assert P.L == (0.75,)
        assert np.array_equal(subsample_functions(M, 65, 1, d_up=0).replicates, [P.L])

    def test_face_count_error(self):
        # default d_up = 6 on 30 rows asks for 8,656,936 faces
        M = random_tie_free_matrix(np.random.Generator(np.random.PCG64(0)), 30, 4)
        with pytest.raises(ValueError, match="m=30 .* 8,656,936 faces"):
            compute_Lk(M)

    def test_default_d_up(self):
        assert default_d_up(2) == 0
        assert default_d_up(8) == 6
        assert default_d_up(10) == 6
        assert default_d_up(1) == 0

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_bounds(self, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        m = int(rng.integers(1, 5))
        n = int(rng.integers(2, 10))
        P = compute_Lk(random_tie_free_matrix(rng, m, n))
        assert all(0.0 <= v <= 1.0 for v in P.L)


def column_lengths(
    births_col: list[int],
    tmax: int,
    sizes: list[int],
    facets: list[tuple[int, ...]],
    d_up: int,
) -> list[int]:
    """Reference lengths: max interval length (in grade numerators) per
    dimension for one column's ray filtration, reducing every column.
    Faces born at the same grade enter in index order."""
    S = len(births_col)
    key = np.asarray(births_col, dtype=np.int64) * S + np.arange(S)
    order = np.argsort(key).tolist()
    pos = [0] * S
    for j, g in enumerate(order):
        pos[g] = j
    columns: list[int] = []
    for g in order:
        col = 0
        for f in facets[g]:
            col |= 1 << pos[f]
        columns.append(col)
    pairs, creators = pair_reduction(columns)
    best = [0] * (d_up + 1)
    for j in creators:
        g = order[j]
        k = sizes[g] - 1
        if k > d_up:
            continue
        birth = births_col[g]
        death = tmax if j not in pairs else births_col[order[pairs[j]]]
        if death - birth > best[k]:
            best[k] = death - birth
    return best


def reference_lengths(ord_arr: np.ndarray, d_up: int) -> np.ndarray:
    """(n, d_up+1) per-column lengths from the full-scan births (the
    prefix-minimum gaps over every column) and the full reduction."""
    m, n = ord_arr.shape
    max_size = min(d_up + 2, m)
    verts = face_list(m, max_size)
    index = {vs: k for k, vs in enumerate(verts)}
    sizes = [len(vs) for vs in verts]
    facets = [tuple(index[vs[:t] + vs[t + 1 :]] for t in range(len(vs))) if len(vs) > 1 else ()
              for vs in verts]
    tmax = ord_arr.max(axis=0)
    out = []
    for cols, gaps in prefix_gaps(ord_arr, ord_arr, max_size):
        for j, a in enumerate(cols):
            births = (tmax[a] - gaps[:, j]).tolist()
            out.append(column_lengths(births, int(tmax[a]), sizes, facets, d_up))
    return np.asarray(out, dtype=np.int64).reshape(n, d_up + 1)


def apparent_pairs_by_key(key: np.ndarray, faces) -> tuple[np.ndarray, np.ndarray]:
    """Oracle for `estimator._apparent`: apparent pairs for (S, c)
    filtration keys (face index - gap * S, ascending in filtration order)
    of c columns, indexed by face, for the faces m and up.

    Returns (young, apparent): young[i] is the key of the youngest facet
    of face m+i, whose index is young[i] % S; apparent[i] says whether
    that facet and face m+i form an apparent pair.
    """
    S = key.shape[0]
    young = key[faces.facet_table[:, 0]]
    for f in faces.facet_table.T[1:]:
        np.maximum(young, key[f], out=young)
    old = key[faces.cofacet_table[:, 0]]
    for f in faces.cofacet_table.T[1:]:
        np.minimum(old, key[f], out=old)
    return young, np.take_along_axis(old % S, young % S, axis=0) == np.arange(faces.m, S)[:, None]


class TestApparentPass:
    """The slot pass on int16 gaps finds the apparent pairs of the key pass,
    with the same per-dimension longest lengths and non-apparent counts."""

    @given(st.integers(3, 8), st.integers(1, 2 * CHUNK), st.booleans(), st.integers(0, 2**32 - 1),
           st.data())
    @example(m=3, n=1, ties=False, seed=0, data=None)
    @example(m=8, n=CHUNK, ties=True, seed=1, data=None)
    @settings(max_examples=150, deadline=None)
    def test_matches_key_pass(self, m, n, ties, seed, data):
        ord_arr = random_order_table(np.random.Generator(np.random.PCG64(seed)), m, n, ties).ord
        max_size = m if data is None else data.draw(st.integers(3, m))
        faces = subset_tables(m, max_size)
        (_, gaps), = subset_gaps(ord_arr.astype(np.int16), ord_arr.astype(np.int16), max_size)
        S, start = gaps.shape[0], faces.start
        key = np.arange(S)[:, None] - gaps.astype(np.int64) * S
        young, want = apparent_pairs_by_key(key, faces)
        apparent, slot, length, need = _apparent(gaps, faces)
        assert np.array_equal(apparent, want)
        assert np.array_equal(np.take_along_axis(faces.facet_table, slot, axis=1), young % S)
        pair_length = np.where(want, (key[m:] - young) // S, 0)
        for k in range(1, max_size - 1):
            rows = slice(start[k + 2] - m, start[k + 3] - m)
            assert np.array_equal(length[k - 1], pair_length[rows].max(axis=0))
            assert np.array_equal(need[k - 1], comb(m - 1, k + 1) - want[rows].sum(axis=0))
        assert length.shape == need.shape == (max_size - 2, n)


class TestAgeKeys:
    """The packed key sort orders each row as the stable argsort of ~gap."""

    @staticmethod
    def _check(g):
        key, shift = _age_keys(g)
        assert np.array_equal(key & ((1 << shift) - 1), np.argsort(~g, axis=1, kind="stable"))
        assert np.array_equal(key >> shift, np.sort(~g, axis=1))

    @given(st.sampled_from(("int16", "int32")), st.integers(1, 20), st.integers(1, 700),
           st.integers(1, 6), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_matches_stable_argsort(self, dtype, rows, cols, levels, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        info = np.iinfo(dtype)
        values = rng.integers(info.min, info.max, size=levels, endpoint=True, dtype=dtype)
        self._check(values[rng.integers(0, levels, size=(rows, cols))])  # few levels: ties

    @pytest.mark.parametrize("cols", (2**16, 2**16 + 1))  # the widest int32 key, then int64
    def test_extremes_at_the_widest_int32_key(self, cols):
        g = np.resize(np.array([2**15 - 1, -(2**15), 0, -1], dtype=np.int16), (2, cols))
        g[1] = g[1, ::-1]
        self._check(g)


EDGE_N = (1, CHUNK - 1, CHUNK, CHUNK + 1, BLOCK - 1, BLOCK + 1)


class TestLengthKernel:
    """Apparent pairs, clearing and the pair count give the same per-column
    numerators as reducing every column."""

    @given(
        st.integers(1, 7),
        st.one_of(st.sampled_from(EDGE_N), st.integers(1, 40)),
        st.booleans(),
        st.integers(0, 2**32 - 1),
        st.data(),
    )
    @example(m=1, n=7, ties=False, seed=0, data=None)
    @example(m=2, n=1, ties=False, seed=0, data=None)
    @example(m=2, n=CHUNK + 1, ties=True, seed=2, data=None)
    @example(m=5, n=BLOCK + 1, ties=True, seed=1, data=None)
    @example(m=6, n=BLOCK - 1, ties=False, seed=3, data=None)
    @settings(max_examples=300, deadline=None)
    def test_matches_full_reduction(self, m, n, ties, seed, data):
        rng = np.random.Generator(np.random.PCG64(seed))
        ord_arr = random_order_table(rng, m, n, ties).ord
        d_up = m if data is None else data.draw(st.integers(0, m))
        L, per_column = _lk_from_order(ord_arr, d_up)
        want = reference_lengths(ord_arr, d_up)
        assert per_column.dtype == np.int64
        assert np.array_equal(per_column, want)
        assert np.array_equal(L, want.max(axis=0))


class TestHeavyLeftover:
    """Tables on which nearly every anchor has a dimension that apparent
    pairs leave unfinished, so the leftover reduction runs with its
    implicit reducers and stops early at the pair count; numerators are
    compared with the full reduction.  The reductions, their columns and
    their pairs are pinned: one per (column, dimension) that apparent pairs
    leave unfinished, with clearing."""

    WORK = {False: (161, 785, 773), True: (165, 806, 789)}  # calls, columns, pairs

    @pytest.mark.parametrize("ties", [False, True])
    def test_matches_full_reduction(self, monkeypatch, ties):
        rng = np.random.Generator(np.random.PCG64(20261018))
        ord_arr = random_order_table(rng, 10, 60, ties).ord
        want = reference_lengths(ord_arr, 3)
        hits = dict(anchors=0, owned=0, early=0, calls=0, columns=0, pairs=0)
        apparent, reduce = estimator._apparent, estimator.pair_reduction

        def counted_apparent(g, faces):
            out = apparent(g, faces)
            hits["anchors"] += int(out[3].any(axis=0).sum())
            return out

        def counted_reduce(columns, owned, limit):
            def counted_owned(p):
                col = owned(p)
                hits["owned"] += col is not None
                return col

            pairs, creators = reduce(columns, counted_owned, limit)
            hits["early"] += len(pairs) + len(creators) < len(columns)
            hits["calls"] += 1
            hits["columns"] += len(columns)
            hits["pairs"] += len(pairs)
            return pairs, creators

        monkeypatch.setattr(estimator, "_apparent", counted_apparent)
        monkeypatch.setattr(estimator, "pair_reduction", counted_reduce)
        _, per_column = _lk_from_order(ord_arr, 3)
        assert np.array_equal(per_column, want)
        assert hits["anchors"] >= 54  # nine in ten of the 60 anchors
        assert hits["owned"] > 0 and hits["early"] > 0
        assert (hits["calls"], hits["columns"], hits["pairs"]) == self.WORK[ties]


class TestStoppingRulePremise:
    """What the kernel's count argument rests on, checked on the object path
    (ray_filtration -> pair_reduction over every column)."""

    @given(st.integers(1, 6), st.integers(1, 30), st.booleans(), st.integers(0, 2**32 - 1),
           st.data())
    @settings(max_examples=60, deadline=None)
    def test_pair_counts(self, m, n, ties, seed, data):
        T = random_order_table(np.random.Generator(np.random.PCG64(seed)), m, n, ties)
        d_up = data.draw(st.integers(0, m))
        max_size = min(d_up + 2, m)
        a = data.draw(st.integers(1, n))
        F = ray_filtration(T, a, max_size - 1)
        assert_tie_break_order(F)
        D = persistence_intervals(F, d_up)
        for k in range(max_size - 1):
            finite = [iv for iv in D.by_dim(k) if not iv.essential]
            assert len(finite) == comb(m - 1, k + 1)
        essential = [iv for iv in D.intervals if iv.essential]
        assert [iv.dim for iv in essential] == [0]

    @given(st.integers(3, 7), st.integers(1, 30), st.booleans(), st.integers(0, 2**32 - 1),
           st.data())
    @settings(max_examples=60, deadline=None)
    def test_apparent_pairs_are_pairs(self, m, n, ties, seed, data):
        T = random_order_table(np.random.Generator(np.random.PCG64(seed)), m, n, ties)
        max_size = data.draw(st.integers(3, m))
        a = data.draw(st.integers(1, n))
        faces = subset_tables(m, max_size)
        masks = [sum(1 << v for v in vs) for vs in face_list(m, max_size)]
        births, tmax = ray_births(T, a, max_size)
        gaps = (tmax - births)[:, None].astype(np.int16)
        apparent, slot, _, _ = _apparent(gaps, faces)
        young = np.take_along_axis(faces.facet_table, slot, axis=1)

        F = ray_filtration(T, a, max_size - 1)
        pos = {f: j for j, (_, f) in enumerate(F.entries)}
        assert [masks[k] for k in np.argsort(births, kind="stable")] == [f for _, f in F.entries]
        pairs, _ = pair_reduction(F.boundary_columns()[0])
        found = 0
        for i in np.flatnonzero(apparent[:, 0]):
            sigma = masks[young[i, 0]]
            tau = masks[m + i]
            assert pairs[pos[sigma]] == pos[tau]
            found += 1
        assert found > 0


TABLE_KINDS = ("tie-free", "tied", "shared")


def kind_table(m: int, n: int, kind: str, seed: int) -> np.ndarray:
    """Ranks of a tie-free matrix, of a tied one with ties by column index,
    or of a tied one with shared ranks."""
    rng = np.random.Generator(np.random.PCG64(seed))
    if kind == "shared":
        return shared_rank_table(rng, m, n).ord
    return random_order_table(rng, m, n, kind == "tied").ord


class TestConeBound:
    """The certificate on its own: every column's dimension-k length is at
    most its reach, with the faces that beat the floor classified cell by
    cell, or the floor, for any apex set."""

    @given(st.integers(3, 8), st.integers(1, 70), st.sampled_from(TABLE_KINDS),
           st.integers(0, 2**32 - 1), st.data())
    @example(m=4, n=9, kind="shared", seed=0, data=None)
    @settings(max_examples=150, deadline=None)
    def test_lengths_within_bound(self, m, n, kind, seed, data):
        ord_arr = kind_table(m, n, kind, seed)
        draw = (lambda s, default: default) if data is None else (lambda s, _: data.draw(s))
        d_up = draw(st.integers(1, 5), 3)
        apex_count = draw(st.integers(1, m), 1)
        floor = draw(st.one_of(st.just(0), st.integers(0, n)), 0)
        max_size = min(d_up + 2, m)
        faces = subset_tables(m, max_size)
        want = reference_lengths(ord_arr, d_up)
        rng = np.random.Generator(np.random.PCG64(seed))
        ranks = ord_arr.astype(np.int16)
        for cols, gaps in subset_gaps(ranks, ranks, max_size):
            # each column tries its own apex set
            apexes = np.argsort(rng.random((m, len(cols))), axis=0)[:apex_count]
            for k in range(1, max_size - 1):
                reach = estimator._class_bounds(gaps, faces, k, floor, apexes)
                assert reach.shape == (len(cols),)
                assert np.all(want[cols, k] <= np.maximum(reach, floor))


class TestScreen:
    """compute_Lk without per-column lengths bounds each column and sends
    only what can still raise a maximum through the lengths route; its L
    is the maximum of the per-column lengths.  Both paths are checked
    against the full reduction."""

    @given(st.integers(3, 8), st.one_of(st.sampled_from(EDGE_N), st.integers(4, 70)),
           st.sampled_from(TABLE_KINDS), st.integers(0, 2**32 - 1), st.integers(1, 5))
    @example(m=6, n=2 * BLOCK + 3, kind="tie-free", seed=4, d_up=3)
    @example(m=8, n=BLOCK + 1, kind="shared", seed=5, d_up=5)
    @settings(max_examples=300, deadline=None)
    def test_matches_per_column_maximum(self, m, n, kind, seed, d_up):
        ord_arr = kind_table(m, n, kind, seed)
        want = reference_lengths(ord_arr, d_up)
        L, per_column = _lk_from_order(ord_arr, d_up)
        assert np.array_equal(per_column, want)
        assert np.array_equal(L, want.max(axis=0))
        L, per_column = _lk_from_order(ord_arr, d_up, per_column=False)
        assert per_column is None
        assert np.array_equal(L, want.max(axis=0))

    def test_reduces_few_columns(self, monkeypatch):
        M = sample_pair(RegularPairSpec.random_quadratic(d=3, m=10, seed=7), n=400, seed=1)[1]
        want = compute_Lk(M, d_up=3).L
        visited = []
        apparent = estimator._apparent
        monkeypatch.setattr(estimator, "_apparent",
                            lambda g, faces: visited.append(g.shape[1]) or apparent(g, faces))
        assert compute_Lk(M, d_up=3, per_column=False).L == want
        assert 0 < sum(visited) < M.n // 4

    @given(st.integers(3, 8), st.integers(1, 40), st.sampled_from(TABLE_KINDS),
           st.integers(0, 2**32 - 1), st.data())
    @settings(max_examples=60, deadline=None)
    def test_apparent_faces_match_apparent_pass(self, m, n, kind, seed, data):
        ord_arr = kind_table(m, n, kind, seed).astype(np.int16)
        max_size = data.draw(st.integers(3, m))
        faces = subset_tables(m, max_size)
        (_, gaps), = subset_gaps(ord_arr, ord_arr, max_size)
        apparent, young, _, _ = _apparent(gaps, faces)
        barren = estimator._barren(apparent, young, faces)
        for k in range(1, max_size - 1):
            lo, hi = faces.start[k + 1], faces.start[k + 2]
            f, j = (a.ravel() for a in np.meshgrid(np.arange(lo, hi), np.arange(n), indexing="ij"))
            destroys, creates, _ = estimator._apparent_faces(gaps, faces, k, f, j)
            assert np.array_equal(destroys, apparent[f - m, j])
            assert np.array_equal(destroys | creates, barren[f - m, j])


@pytest.mark.parametrize("shape", [(10, 60, 3), (12, 40, 5)])
def test_screen_reduces_as_per_column(monkeypatch, shape):
    # L alone takes the per-column route with higher floors and the same
    # clearing: each reduction it runs is one the per-column lengths run,
    # column for column, so it holds no larger reduction in memory
    m, n, d_up = shape
    ord_arr = random_order_table(np.random.Generator(np.random.PCG64(20261020)), m, n, False).ord
    runs = {True: [], False: []}
    reduce = estimator.pair_reduction
    for per_column in (True, False):
        monkeypatch.setattr(estimator, "pair_reduction", lambda columns, owned, limit, seen=runs[per_column]:
                            seen.append(tuple(columns)) or reduce(columns, owned, limit))
        _lk_from_order(ord_arr, d_up, per_column)
    assert runs[False] and set(runs[False]) <= set(runs[True])


def test_screen_within_per_column_peak():
    # the two paths share the lengths route and its clearing, so L alone
    # holds no more than the per-column lengths but for a few KB of screen
    # state; the screen's open faces once cost a seventh more here
    ord_arr = random_order_table(np.random.Generator(np.random.PCG64(0)), 16, 64, False).ord
    for per_column in (True, False):  # builds the cached face tables
        _lk_from_order(ord_arr[:, :16], 5, per_column)
    peaks = []
    for per_column in (True, False):
        tracemalloc.start()
        try:
            _lk_from_order(ord_arr, 5, per_column)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.02 * peaks[0]


class TestDHatLow:
    def test_basic(self):
        P = LkProfile((0.8, 0.3, 0.01), m=5, n=10, d_up=2, per_column=None)
        est = d_hat_low(P, 0.1)
        assert int(est) == 2
        assert est.flags == ()

    def test_no_signal(self):
        P = LkProfile((0.0, 0.0), m=5, n=10, d_up=1, per_column=None)
        est = d_hat_low(P, 0.1)
        assert int(est) == 0
        assert "no-signal" in est.flags

    def test_saturated(self):
        P = LkProfile((0.9, 0.5, 0.4), m=5, n=10, d_up=2, per_column=None)
        est = d_hat_low(P, 0.1)
        assert int(est) == 3
        assert "d_up-saturated" in est.flags

    def test_epsilon_must_be_positive(self):
        P = LkProfile((0.5,), m=3, n=10, d_up=0, per_column=None)
        with pytest.raises(ValueError):
            d_hat_low(P, 0.0)
        with pytest.raises(ValueError):
            d_hat_low(P, -1.0)

    def test_nan_epsilon_rejected(self):
        P = LkProfile((0.5,), m=3, n=10, d_up=0, per_column=None)
        with pytest.raises(ValueError, match="epsilon must be positive"):
            d_hat_low(P, float("nan"))


@pytest.mark.parametrize("run", [
    lambda M: compute_Lk(M, d_up=-1),
    lambda M: subsample_points(M, 3, 2, d_up=-1),
    lambda M: subsample_functions(M, 2, 2, d_up=-1),
], ids=["compute_Lk", "subsample_points", "subsample_functions"])
def test_negative_d_up_is_named(example_matrix, run):
    with pytest.raises(ValueError, match="d_up must be >= 0"):
        run(example_matrix)


class TestBoxplotSummary:
    def test_quartiles_against_interpolation_oracle(self, rng):
        values = rng.random(37)
        bp = BoxplotSummary.from_values(values)

        def quantile(vals, q):
            s = np.sort(vals)
            pos = (len(s) - 1) * q
            lo, hi = int(np.floor(pos)), int(np.ceil(pos))
            return s[lo] + (pos - lo) * (s[hi] - s[lo])

        assert bp.q1 == pytest.approx(quantile(values, 0.25))
        assert bp.q2 == pytest.approx(quantile(values, 0.50))
        assert bp.q3 == pytest.approx(quantile(values, 0.75))
        assert bp.iqr == pytest.approx(bp.q3 - bp.q1)
        assert bp.lower_whisker == pytest.approx(bp.q1 - 1.5 * bp.iqr)
        assert bp.upper_whisker == pytest.approx(bp.q3 + 1.5 * bp.iqr)

    def test_outliers_strictly_outside(self):
        values = np.array([0.0] * 10 + [5.0])
        bp = BoxplotSummary.from_values(values)
        assert bp.outliers == (5.0,)
        assert all(v > bp.upper_whisker or v < bp.lower_whisker for v in bp.outliers)

    def test_single_value(self):
        bp = BoxplotSummary.from_values(np.array([0.3]))
        assert bp.q1 == bp.q2 == bp.q3 == 0.3
        assert bp.iqr == 0.0
        assert bp.outliers == ()


class TestSubsamplePoints:
    def test_full_size_degenerate(self, example_matrix):
        res = subsample_points(example_matrix, n_s=4, reps=5, d_up=1, seed=0)
        P = compute_Lk(example_matrix, d_up=1)
        assert np.allclose(res.replicates, np.array(P.L))
        for bp in res.boxplots.values():
            assert bp.iqr == 0.0

    def test_reps_one(self, example_matrix):
        res = subsample_points(example_matrix, n_s=3, reps=1, d_up=1, seed=42)
        for k, bp in res.boxplots.items():
            assert bp.q1 == bp.q2 == bp.q3 == res.replicates[0, k]

    def test_seed_determinism(self, example_matrix):
        a = subsample_points(example_matrix, n_s=3, reps=8, d_up=1, seed=7)
        b = subsample_points(example_matrix, n_s=3, reps=8, d_up=1, seed=7)
        assert np.array_equal(a.replicates, b.replicates)

    @pytest.mark.parametrize("seed", range(4))
    def test_ties_keep_column_order(self, seed):
        # a tied matrix is accepted, and each replicate is compute_Lk on
        # its drawn columns in ascending order, where the ties break by
        # column index as in the full matrix (on this matrix, breaking them
        # in draw order changes 6 of the 24 replicates)
        M = load_matrix("1,1,2,1,2,2\n0,0,1,2,0,2\n2,2,2,0,1,2\n",
                        tie_policy="break-by-column-index")
        res = subsample_points(M, n_s=4, reps=6, d_up=1, seed=seed)
        rng = np.random.Generator(np.random.PCG64(seed))
        for row in res.replicates:
            idx = np.sort(rng.choice(M.n, size=4, replace=False))
            sub = DataMatrix(M.values[:, idx], check_ties=False)
            assert row.tolist() == list(compute_Lk(sub, d_up=1).L)

    def test_size_out_of_range(self, example_matrix):
        with pytest.raises(ValueError):
            subsample_points(example_matrix, n_s=5, reps=1)
        with pytest.raises(ValueError):
            subsample_points(example_matrix, n_s=0, reps=1)

    def test_replicates_csv_shape(self, example_matrix):
        res = subsample_points(example_matrix, n_s=3, reps=4, d_up=1, seed=0)
        lines = res.replicates_csv().strip().splitlines()
        assert lines[0] == "L0,L1"
        assert len(lines) == 5


class TestSubsampleFunctions:
    def test_full_size_degenerate(self, rng):
        M = random_tie_free_matrix(rng, 4, 12)
        res = subsample_functions(M, m_s=4, reps=6, d_up=2, seed=0)
        P = compute_Lk(M, d_up=2)
        assert np.allclose(res.replicates, np.array(P.L))

    def test_matches_recomputation_on_row_subset(self, rng):
        M = random_tie_free_matrix(rng, 5, 15)
        res = subsample_functions(M, m_s=3, reps=3, d_up=1, seed=11)
        draws = [
            np.random.Generator(np.random.PCG64(11)).choice(5, size=3, replace=False)
            for _ in range(1)
        ]
        direct = compute_Lk(DataMatrix(M.values[draws[0]]), d_up=1)
        assert np.allclose(res.replicates[0], np.array(direct.L))

    def test_seed_reproducible(self, rng):
        M = random_tie_free_matrix(rng, 6, 10)
        a = subsample_functions(M, m_s=4, reps=2, d_up=1, seed=5)
        b = subsample_functions(M, m_s=4, reps=2, d_up=1, seed=5)
        assert np.array_equal(a.replicates, b.replicates)

    def test_size_out_of_range(self, rng):
        M = random_tie_free_matrix(rng, 3, 8)
        with pytest.raises(ValueError):
            subsample_functions(M, m_s=4, reps=1)

    def test_face_count_error(self, rng):
        M = random_tie_free_matrix(rng, 32, 4)
        with pytest.raises(ValueError, match="m=30 .* 8,656,936 faces"):
            subsample_functions(M, m_s=30, reps=1)


class TestDecideDimension:
    def _summaries(self, q1s):
        out = {}
        for k, q1 in enumerate(q1s):
            # constant replicate vectors give Q1 == the constant
            out[k] = BoxplotSummary.from_values(np.full(5, q1))
        return out

    def test_basic(self):
        assert int(decide_dimension(self._summaries((0.4, 0.2, 0.0)))) == 2

    def test_all_zero(self):
        est = decide_dimension(self._summaries((0.0, 0.0, 0.0)))
        assert int(est) == 0
        assert "no-signal" in est.flags

    def test_non_monotone_accepted_verbatim(self):
        assert int(decide_dimension(self._summaries((0.5, 0.0, 0.1)))) == 3


class TestInvariance:
    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_monotone_rows_and_column_permutation(self, seed):
        """Per-column lengths are unchanged by a monotone rescaling of each
        row and follow a permutation of the columns."""
        rng = np.random.Generator(np.random.PCG64(seed))
        m = int(rng.integers(2, 6))
        n = int(rng.integers(3, 13))
        d_up = int(rng.integers(0, m + 1))
        M = random_tie_free_matrix(rng, m, n)
        P = compute_Lk(M, d_up=d_up)

        transformed = np.empty_like(M.values)
        for i in range(m):
            transformed[i] = np.exp(M.values[i] / 4.0) * (i + 1) + i
        rescaled = compute_Lk(DataMatrix(transformed), d_up=d_up)
        assert rescaled.L == P.L
        assert rescaled.per_column == P.per_column

        perm = rng.permutation(n)
        permuted = compute_Lk(DataMatrix(M.values[:, perm]), d_up=d_up)
        assert permuted.L == P.L
        assert permuted.per_column == {a: P.per_column[perm[a - 1] + 1] for a in range(1, n + 1)}
