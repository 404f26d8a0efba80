"""Rank-threshold complexes, their nerve cross-check, and ray filtrations."""

from __future__ import annotations

from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcsense import (
    DataMatrix,
    Filtration,
    dowker_at,
    order_table,
    ray_filtration,
)
from qcsense import dowker
from qcsense.central import undominated_columns
from qcsense.dowker import (
    BLOCK,
    MAX_ROWS,
    face_fronts,
    subset_gaps,
    subset_tables,
)

from conftest import assert_tie_break_order, face_list, prefix_gaps, random_order_table
from oracles.dowker import GradeVector, dowker_at_nerve, hat_R_n


@pytest.fixture
def T(example_matrix):
    return order_table(example_matrix)


small_matrices = st.integers(1, 4).flatmap(
    lambda m: st.integers(2, 6).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(0, 10_000), min_size=n, max_size=n, unique=True),
            min_size=m,
            max_size=m,
        )
    )
)


class TestGradeVector:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            GradeVector((0.5, 1.5))
        with pytest.raises(ValueError):
            GradeVector((-0.1,))

    def test_accepts_endpoints(self):
        GradeVector((0.0, 1.0))


class TestDowkerAt:
    def test_half_half(self, T):
        K = dowker_at(T, (0.5, 0.5))
        assert sorted(K.faces_as_tuples()) == [(1,), (2,)]

    def test_full_grade(self, T):
        K = dowker_at(T, (1.0, 1.0))
        assert sorted(K.faces_as_tuples()) == [(1,), (1, 2), (2,)]

    def test_quarter(self, T):
        K = dowker_at(T, (0.25, 0.25))
        assert sorted(K.faces_as_tuples()) == [(1,), (2,)]

    def test_zero_grade_empty(self, T):
        K = dowker_at(T, (0.0, 0.0))
        assert K.faces == frozenset()

    def test_asymmetric_grades(self, T):
        # row 1 sees nothing, row 2 sees {2}: only vertex 2 appears
        K = dowker_at(T, (0.0, 0.25))
        assert sorted(K.faces_as_tuples()) == [(2,)]

    def test_monotone_in_grade(self, T):
        K1 = dowker_at(T, (0.25, 0.5))
        K2 = dowker_at(T, (0.75, 1.0))
        assert K1.faces <= K2.faces

    def test_skeleton_cap(self, T):
        K = dowker_at(T, (1.0, 1.0), skeleton=0)
        assert sorted(K.faces_as_tuples()) == [(1,), (2,)]

    def test_row_cap(self):
        vals = np.arange(2 * (MAX_ROWS + 1), dtype=float).reshape(MAX_ROWS + 1, 2)
        T = order_table(DataMatrix(vals))
        with pytest.raises(ValueError):
            dowker_at(T, (0.5,) * (MAX_ROWS + 1))

    @given(small_matrices, st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_nerve_construction(self, rows, data):
        M = DataMatrix(np.array(rows, dtype=float))
        T = order_table(M)
        t = tuple(
            data.draw(st.integers(0, T.n)) / T.n for _ in range(T.m)
        )
        assert dowker_at(T, t).faces == dowker_at_nerve(T, t).faces


class TestHatRn:
    def test_example_value(self, T):
        assert hat_R_n(T, (1.0, 0.25)) == 0.25

    def test_extremes(self, T):
        assert hat_R_n(T, (1.0, 1.0)) == 1.0
        assert hat_R_n(T, (0.0, 0.0)) == 0.0

    @given(small_matrices, st.data())
    @settings(max_examples=60, deadline=None)
    def test_membership_identity(self, rows, data):
        # a simplex is present exactly when the relaxed grade (its rows
        # kept, every other row slackened to 1) captures some column
        M = DataMatrix(np.array(rows, dtype=float))
        T = order_table(M)
        t = tuple(data.draw(st.integers(0, T.n)) / T.n for _ in range(T.m))
        K = dowker_at(T, t)
        sigma = tuple(
            sorted(
                data.draw(
                    st.sets(st.integers(1, T.m), min_size=1, max_size=T.m)
                )
            )
        )
        relaxed = tuple(t[i - 1] if i in sigma else 1.0 for i in range(1, T.m + 1))
        assert (sigma in K) == (hat_R_n(T, relaxed) > 0)


class TestRayFiltration:
    def test_column1_ladder(self, T):
        F = ray_filtration(T, 1)
        assert F.denominator == 4
        assert F.t_end_numer == 4
        assert F.entries == ((1, 0b01), (3, 0b10), (3, 0b11))
        assert sorted(F.complex_at(0.0).faces_as_tuples()) == []
        assert sorted(F.complex_at(0.25).faces_as_tuples()) == [(1,)]
        assert sorted(F.complex_at(0.5).faces_as_tuples()) == [(1,)]
        assert sorted(F.complex_at(0.75).faces_as_tuples()) == [(1,), (1, 2), (2,)]

    def test_column2_ladder(self, T):
        F = ray_filtration(T, 2)
        assert F.t_end_numer == 3
        assert F.entries == ((1, 0b01), (3, 0b10), (3, 0b11))

    def test_columns_3_and_4(self, T):
        F3 = ray_filtration(T, 3)
        F4 = ray_filtration(T, 4)
        assert F3.t_end_numer == 3
        assert F4.t_end_numer == 4
        assert F3.entries[-1] == (3, 0b11)
        # column 3 beats column 4 in every row, so the full simplex on the
        # column-4 ray appears one grid step before t_end
        assert F4.entries[-1] == (3, 0b11)

    def test_validation_round_trip(self, T):
        F = ray_filtration(T, 1)
        # re-validating the same entries must succeed
        again = Filtration(F.m, F.denominator, F.entries, F.t_end_numer)
        assert again.entries == F.entries

    def test_rejects_coface_before_face(self):
        with pytest.raises(ValueError):
            Filtration(2, 4, ((1, 0b11), (2, 0b01), (2, 0b10)), 4)

    def test_rejects_unsorted_grades(self):
        with pytest.raises(ValueError):
            Filtration(2, 4, ((3, 0b01), (1, 0b10), (3, 0b11)), 4)

    @pytest.mark.parametrize(
        "m, denominator, entries, t_end, match",
        [
            (2, 0, ((0, 0b01),), 0, "denominator"),
            (2, 4, ((1, 0b01),), 5, "endpoint outside"),
            (2, 4, ((3, 0b01), (1, 0b10), (3, 0b11)), 4, "not sorted"),
            (2, 4, ((1, 0b01), (3, 0b10)), 2, "grade lies outside"),
            (2, 4, ((-1, 0b01), (1, 0b10)), 4, "grade lies outside"),
            (2, 4, ((1, 0b01), (2, 0)), 4, "empty or appears twice"),
            (2, 4, ((1, 0b01), (2, 0b01)), 4, "empty or appears twice"),
            (2, 4, ((1, 0b01), (3, 0b11), (3, 0b10)), 4, "before one of its facets"),
            (3, 4, ((1, 0b001), (1, 0b010), (2, 0b111)), 4, "before one of its facets"),
            (MAX_ROWS + 1, 4, ((1, 0b01),), 4, "bitmask capacity"),
            (2, 4, ((1, 0b100),), 4, r"face 100 outside vertex universe \[1\.\.2\]"),
        ],
        ids=["denominator-0", "t_end-past-denominator", "unsorted-grades", "grade-past-t_end",
             "negative-grade", "empty-face", "repeated-face", "facet-later-at-same-grade",
             "missing-facet", "65-rows", "face-outside-universe"],
    )
    def test_rejects_bad_filtration(self, m, denominator, entries, t_end, match):
        with pytest.raises(ValueError, match=match):
            Filtration(m, denominator, entries, t_end)

    def test_column_out_of_range(self, T):
        with pytest.raises(ValueError):
            ray_filtration(T, 0)
        with pytest.raises(ValueError):
            ray_filtration(T, 5)
        with pytest.raises(ValueError, match="skeleton bound must be >= 0"):
            ray_filtration(T, 1, skeleton=-1)

    @given(small_matrices, st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_pointwise_dowker(self, rows, data):
        # the ray complex at grade g is the rank complex at column a's rank
        # vector slid down-diagonally by t_end - g
        M = DataMatrix(np.array(rows, dtype=float))
        T = order_table(M)
        a = data.draw(st.integers(1, T.n))
        F = ray_filtration(T, a)
        g_num = data.draw(st.integers(0, F.t_end_numer))
        shift = F.t_end_numer - g_num
        t = tuple(
            max(int(T.ord[i, a - 1]) - shift, 0) / T.n for i in range(T.m)
        )
        direct = dowker_at(T, t)
        assert F.complex_at(g_num / F.denominator).faces == direct.faces
        assert_tie_break_order(F)
        # by the terminal grade the ray complex holds the full simplex
        full = F.complex_at(F.t_end_numer / F.denominator)
        assert (1 << T.m) - 1 in full.faces

    def test_grades_live_on_grid(self, T):
        for a in range(1, 5):
            F = ray_filtration(T, a)
            for g, _ in F.entries:
                assert 0 <= g <= F.denominator


def _mask(vs) -> int:
    return sum(1 << v for v in vs)


class TestSubsetTables:
    def test_three_rows(self):
        faces = subset_tables(3, 3)
        assert faces.start == [0, 0, 3, 6, 7]
        assert faces.vertex_table.tolist() == [
            [0, 0, 0], [1, 1, 1], [2, 2, 2], [0, 1, 1], [0, 2, 2], [1, 2, 2], [0, 1, 2]]
        # facets of a pair are its two singletons, without vertex 0 then 1
        assert faces.facet_table[0, :2].tolist() == [1, 0]

    def test_size_cap(self):
        faces = subset_tables(4, 2)
        assert faces.vertex_table.shape == (4 + 6, 2)
        assert faces.start[-1] == 4 + 6

    @pytest.mark.parametrize("m", [*range(1, 9), 12])
    def test_numbering(self, m):
        for max_size in range(1, min(m, 8) + 1):
            faces = subset_tables(m, max_size)
            verts, start = face_list(m, max_size), faces.start
            tables = faces.vertex_table, faces.facet_table, faces.cofacet_table
            assert all(t.dtype == np.intp and t.flags.f_contiguous for t in tables)
            # start brackets each size, in the numbering of face_list
            assert start[:2] == [0, 0] and start[-1] == len(verts)
            for s in range(1, max_size + 1):
                assert {len(verts[k]) for k in range(start[s], start[s + 1])} == {s}
            # vertices padded by the last one; every facet and cofacet by
            # mask; each facet below its face
            index = {_mask(vs): k for k, vs in enumerate(verts)}
            for k, vs in enumerate(verts):
                assert tuple(faces.vertex_table[k]) == vs + vs[-1:] * (max_size - len(vs))
                if len(vs) > 1:
                    facets = faces.facet_table[k - m]
                    assert list(facets[: len(vs)]) == [index[_mask(vs) & ~(1 << v)] for v in vs]
                    assert max(facets) < k
                if len(vs) < max_size:
                    cofacets = {index[_mask(vs) | 1 << v] for v in range(m) if v not in vs}
                    assert set(faces.cofacet_table[k]) == cofacets

    @pytest.mark.parametrize("m", range(1, 13))
    def test_slot_order(self, m):
        # the apparent-pair pass reads the youngest facet and the oldest
        # cofacet off the slot order, and the pair off slot_table
        for max_size in range(1, 6):
            faces = subset_tables(m, max_size)
            start, size = faces.start, faces.max_size
            assert faces.slot_table.dtype == np.uint8 and faces.slot_table.flags.f_contiguous
            assert faces.slot_table.shape == faces.facet_table.shape
            for s in range(2, size + 1):
                facets = faces.facet_table[start[s] - m : start[s + 1] - m, :s]
                assert np.all(np.diff(facets, axis=1) < 0)
                tau = np.arange(start[s], start[s + 1])[:, None]
                slots = faces.slot_table[start[s] - m : start[s + 1] - m, :s]
                assert np.array_equal(faces.cofacet_table[facets, slots], np.broadcast_to(tau, facets.shape))
            for s in range(1, size):
                cofacets = faces.cofacet_table[start[s] : start[s + 1], : m - s]
                assert np.all(np.diff(cofacets, axis=1) > 0)

    @pytest.mark.parametrize("m", range(1, 13))
    def test_cofacet_slots(self, m):
        # the barren-face rule reads each face's facet slot in each of its
        # cofacets off cofacet_slot_table
        for max_size in range(1, 8):
            faces = subset_tables(m, max_size)
            start, slot = faces.start, faces.cofacet_slot_table
            assert slot.dtype == np.uint8 and slot.flags.f_contiguous
            assert slot.shape == faces.cofacet_table.shape
            for s in range(1, faces.max_size):
                k = np.arange(start[s], start[s + 1])[:, None]
                real = slot[start[s] : start[s + 1], : m - s]
                tau = faces.cofacet_table[start[s] : start[s + 1], : m - s]
                facets = faces.facet_table[tau - m, real]
                assert np.array_equal(facets, np.broadcast_to(k, tau.shape))
                # padded by the last real slot, as cofacet_table by the last cofacet
                assert np.all(slot[start[s] : start[s + 1], m - s :] == real[:, -1:])


# Column counts at and around the subset_gaps block edges.
EDGE_COLUMNS = (1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1)
KINDS = ("tie-free", "tied", "repeats")
DTYPES = ("int16", "int32", "int64", "scaled")


def _gap_table(rng, m: int, n: int, kind: str) -> np.ndarray:
    """Ranks of a tie-free or a tied matrix, or raw values from four
    levels, so that rows repeat entries and 2-D staircases tie."""
    if kind == "repeats":
        return rng.integers(1, 5, size=(m, n))
    return random_order_table(rng, m, n, ties=kind == "tied").ord


def _gap_inputs(rng, m, n, n_dst, kind, dtype):
    """(src, dst); dst is src itself when n_dst is None.  'scaled'
    multiplies the ranks into int64 past 2**30, as interleave does when
    the merged grid is that fine."""
    src = _gap_table(rng, m, n, kind)
    dst = src if n_dst is None else _gap_table(rng, m, n_dst, kind)
    if dtype != "scaled":
        return src.astype(dtype), dst.astype(dtype)
    alpha, beta = (int(rng.integers(2**31 // k, 2**32 // k)) for k in (n, dst.shape[1]))
    return src.astype(np.int64) * alpha, dst.astype(np.int64) * beta


def _assert_gaps_match(src, dst, max_size):
    got = list(subset_gaps(src, dst, max_size))
    want = list(prefix_gaps(src, dst, max_size))
    assert [c for c, _ in got] == [c for c, _ in want]
    for (_, g), (_, w) in zip(got, want):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)


class TestSubsetGaps:
    @given(st.integers(1, 10), st.one_of(st.sampled_from(EDGE_COLUMNS), st.integers(1, 300)),
           st.one_of(st.none(), st.integers(1, 300)), st.sampled_from(KINDS),
           st.sampled_from(DTYPES), st.integers(0, 2**32 - 1), st.data())
    @settings(max_examples=300, deadline=None)
    def test_equals_prefix_oracle(self, m, n, n_dst, kind, dtype, seed, data):
        rng = np.random.Generator(np.random.PCG64(seed))
        src, dst = _gap_inputs(rng, m, n, n_dst, kind, dtype)
        _assert_gaps_match(src, dst, data.draw(st.integers(1, m)))

    @pytest.mark.parametrize("i", range(len(EDGE_COLUMNS)))
    def test_every_max_size_at_ten_rows(self, i):
        n = EDGE_COLUMNS[i]
        rng = np.random.Generator(np.random.PCG64(n))
        n_dst = None if i % 2 else n + 37
        src, dst = _gap_inputs(rng, 10, n, n_dst, KINDS[i % len(KINDS)], "int16")
        for max_size in range(1, 11):
            _assert_gaps_match(src, dst, max_size)

    @pytest.mark.parametrize("n", EDGE_COLUMNS)
    def test_blocks_are_equal_width(self, n):
        src = _gap_table(np.random.Generator(np.random.PCG64(n)), 3, n, "tie-free")
        cols = [c for c, _ in subset_gaps(src, src, 3)]
        assert list(chain.from_iterable(cols)) == list(range(n))
        widths = [len(c) for c in cols]
        assert len(widths) == -(-n // BLOCK)  # the fewest blocks of at most BLOCK
        assert max(widths) <= BLOCK and max(widths) - min(widths) <= 1

    @pytest.mark.parametrize("block", (1, 7, 128))
    def test_gaps_do_not_depend_on_the_blocks(self, block, monkeypatch):
        rng = np.random.Generator(np.random.PCG64(block))
        src, dst = _gap_inputs(rng, 6, 150, 90, "tied", "int16")
        want = np.hstack([g for _, g in prefix_gaps(src, dst, 5)])
        monkeypatch.setattr(dowker, "BLOCK", block)
        assert np.array_equal(np.hstack([g for _, g in subset_gaps(src, dst, 5)]), want)

    @given(st.integers(3, 6), st.integers(1, 40), st.one_of(st.none(), st.integers(1, 40)),
           st.sampled_from(KINDS), st.integers(0, 2**32 - 1), st.data())
    @settings(max_examples=150, deadline=None)
    def test_scans_only_where_the_certificate_can_fail(self, m, n, n_dst, kind, seed, data):
        # A (face, column) cell of size >= 3 certifies from its youngest
        # facet's witness.  Whatever facet and witness the kernel picks
        # among the equally good ones, it must scan every cell where all
        # choices fail and no cell where all choices succeed.
        rng = np.random.Generator(np.random.PCG64(seed))
        src, dst = _gap_inputs(rng, m, n, n_dst, kind, "int64")
        max_size = data.draw(st.integers(3, m))
        scanned = []
        scan = dowker.scan_gaps

        def counting(x, rows, front):
            scanned.append(len(rows))
            return scan(x, rows, front)

        dowker.scan_gaps = counting
        try:
            gaps = np.hstack([g for _, g in subset_gaps(src, dst, max_size)])
        finally:
            dowker.scan_gaps = scan
        faces = subset_tables(m, max_size)
        verts = face_list(m, max_size)
        front = dst[:, undominated_columns(dst)]
        mins = [(src[list(vs), :, None] - front[list(vs), None, :]).min(axis=0) for vs in verts]
        must_scan = must_certify = cells = 0
        for k, vs in enumerate(verts):
            if len(vs) < 3:
                continue
            facets = faces.facet_table[k - m, : len(vs)]
            v = gaps[facets].min(axis=0)[:, None]
            can_pass = np.zeros(n, dtype=bool)
            can_fail = np.zeros(n, dtype=bool)
            for w, f in zip(vs, facets):
                choice = (gaps[f][:, None] == v) & (mins[f] == v)  # youngest facet, a witness
                passes = src[w][:, None] - front[w] >= v
                can_pass |= (choice & passes).any(axis=1)
                can_fail |= (choice & ~passes).any(axis=1)
            must_scan += int((~can_pass).sum())
            must_certify += int((~can_fail).sum())
            cells += n
        assert must_scan <= sum(scanned) <= cells - must_certify


class TestFaceFronts:
    @given(st.integers(1, 4), st.integers(1, 80), st.sampled_from(KINDS), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_one_row_faces_keep_the_row_minimum(self, m, n, kind, seed):
        X = _gap_table(np.random.Generator(np.random.PCG64(seed)), m, n, kind)
        vertices = subset_tables(m, 1).vertex_table
        for v, cols in zip(vertices, face_fronts(X, vertices)):
            assert np.array_equal(cols, undominated_columns(X[v]))

    @given(st.integers(1, 4), st.integers(0, 3), st.integers(1, 60), st.integers(1, 60),
           st.sampled_from((*KINDS, "anti-correlated")), st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_every_max_min_is_attained_on_the_front(self, size, extra, n, n_other, kind, seed):
        # g(a) = max_b min_{i in face} (src[i, a] - dst[i, b]): with X as
        # dst the max over b, and with X as src the min over a of g, must
        # not change when X keeps only its front's columns
        rng = np.random.Generator(np.random.PCG64(seed))
        m = size + extra
        if kind == "anti-correlated":  # odd rows reverse the even ones
            base = rng.permutation(n) + 1
            X = np.where(np.arange(m)[:, None] % 2, n + 1 - base, base)
        else:
            X = _gap_table(rng, m, n, kind)
        Y = _gap_table(rng, m, n_other, "tied" if kind == "anti-correlated" else kind)
        faces = subset_tables(m, size)
        top = faces.vertex_table[faces.start[size]:]  # every face of this size

        def gap(src, dst):
            return (src[:, :, None] - dst[:, None, :]).min(axis=0).max(axis=1)

        for face, cols in zip(top, face_fronts(X, top)):
            assert cols.size and np.unique(cols).size == cols.size
            x, y = X[face], Y[face]
            assert np.array_equal(gap(y, x[:, cols]), gap(y, x))
            assert gap(x[:, cols], y).min() == gap(x, y).min()
            if size == 2:
                assert np.all(np.diff(x[0, cols]) > 0)
