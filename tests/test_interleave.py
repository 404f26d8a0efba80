"""Interleaving distance versus the binary search it replaced and an
exhaustive merged-grid oracle."""

from __future__ import annotations

import gc
import itertools
import math
import runpy
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qcsense import DataMatrix, interleaving_distance, order_table
from qcsense.central import undominated_columns
from qcsense.dowker import SCAN_CELLS, dowker_at, scan_gaps
from qcsense.interleave import MAX_ROWS, InterleaveResult, _as_table

from conftest import random_order_table, random_tie_free_matrix


def _all_grid_complexes(T, lcm):
    """Face sets of the complex at every merged-grid threshold vector."""
    out = {}
    for g in itertools.product(range(lcm + 1), repeat=T.m):
        out[g] = dowker_at(T, np.array(g) / lcm).faces
    return out


def brute_force_numerator(TA, TB):
    """Smallest shift k/lcm with mutual inclusion at every grid point."""
    lcm = math.lcm(TA.n, TB.n)
    CA = _all_grid_complexes(TA, lcm)
    CB = _all_grid_complexes(TB, lcm)
    for e in range(lcm + 1):
        if all(
            CA[g] <= CB[tuple(min(x + e, lcm) for x in g)]
            and CB[g] <= CA[tuple(min(x + e, lcm) for x in g)]
            for g in CA
        ):
            return e, lcm
    raise AssertionError("the full shift clamps everything and is always feasible")


def _direction_feasible(ord_src, n_src, ord_dst, n_dst, lcm, shift_numer, subsets):
    """Every src-generator grade is matched in dst after the shift.

    For subset sigma and src column a the generator grade has coordinates
    ord_src[i,a]/n_src; the shifted clamp allows dst ranks up to
    floor(min(ord_src[i,a]*alpha + shift, lcm)/beta) where alpha, beta
    scale each grid to the common denominator.
    """
    alpha = lcm // n_src
    beta = lcm // n_dst
    bounds = np.minimum(ord_src * alpha + shift_numer, lcm) // beta  # (m, n_src)
    for sigma in subsets:
        rows = list(sigma)
        # (n_src, n_dst): dst column b matches src column a on all rows of sigma
        ok = (ord_dst[rows][:, None, :] <= bounds[rows][:, :, None]).all(axis=0)
        if not ok.any(axis=1).all():
            return False
    return True


def binary_search_distance(A, B, skeleton=None) -> InterleaveResult:
    """Least feasible merged-grid shift by binary search over probes of
    every generator against every dst column (feasibility is monotone)."""
    TA, TB = _as_table(A), _as_table(B)
    m = TA.m
    if skeleton is None:
        skeleton = m - 1
    max_size = min(skeleton + 1, m)
    subsets = [
        sigma
        for size in range(1, max_size + 1)
        for sigma in itertools.combinations(range(m), size)
    ]
    n_a, n_b = TA.n, TB.n
    lcm = math.lcm(n_a, n_b)

    def feasible(shift: int) -> bool:
        return _direction_feasible(
            TA.ord, n_a, TB.ord, n_b, lcm, shift, subsets
        ) and _direction_feasible(TB.ord, n_b, TA.ord, n_a, lcm, shift, subsets)

    lo, hi = 0, lcm  # shift = lcm clamps every bound to the top: always feasible
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(mid):
            hi = mid
        else:
            lo = mid + 1
    checked = len(subsets)
    return InterleaveResult(
        distance=lo / lcm,
        numerator=lo,
        denominator=lcm,
        m=m,
        n_a=n_a,
        n_b=n_b,
        skeleton=max_size - 1,  # the skeleton computed
        certificate=(checked * n_a, checked * n_b),
    )


def _table_from_rows(rows):
    return order_table(DataMatrix(np.array(rows, dtype=float)))


class TestKnownDistances:
    def test_identical_inputs(self, example_matrix):
        res = interleaving_distance(example_matrix, example_matrix)
        assert res.distance == 0.0
        assert res.numerator == 0

    def test_one_row_grid_refinement(self):
        # same underlying order sampled at n=2 and n=4: the coarse complex
        # first turns on at 1/2, the fine one at 1/4, so the shift is 1/4
        A = _table_from_rows([[1.0, 2.0]])
        B = _table_from_rows([[1.0, 2.0, 3.0, 4.0]])
        res = interleaving_distance(A, B)
        assert (res.numerator, res.denominator) == (1, 4)
        assert res.distance == 0.25
        assert brute_force_numerator(A, B) == (1, 4)

    def test_monotone_transform_is_distance_zero(self):
        vals = np.array([[3.0, 1.0, 2.0], [0.5, 0.9, 0.1]])
        A = DataMatrix(vals)
        B = DataMatrix(np.exp(vals))
        assert interleaving_distance(A, B).distance == 0.0

    def test_result_fields(self):
        A = _table_from_rows([[1.0, 2.0], [2.0, 1.0]])
        B = _table_from_rows([[1.0, 2.0, 3.0], [3.0, 2.0, 1.0]])
        res = interleaving_distance(A, B)
        assert res.denominator == 6
        assert (res.m, res.n_a, res.n_b) == (2, 2, 3)
        assert res.skeleton == 1
        assert res.distance == res.numerator / res.denominator
        assert 0.0 <= res.distance <= 1.0
        subsets = 3  # {1}, {2}, {1,2}
        assert res.certificate == (subsets * 2, subsets * 3)

    def test_json_shape(self):
        A = _table_from_rows([[1.0, 2.0]])
        obj = interleaving_distance(A, A).to_json_obj()
        assert obj == {
            "distance": 0.0,
            "numerator": 0,
            "denominator": 2,
            "m": 1,
            "grids": [2, 2],
            "skeleton": 0,
            "certificate": {"generators_checked_ab": 2, "generators_checked_ba": 2},
        }


class TestValidation:
    def test_row_count_mismatch(self):
        A = _table_from_rows([[1.0, 2.0]])
        B = _table_from_rows([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(ValueError, match="row counts differ"):
            interleaving_distance(A, B)

    def test_too_many_rows(self):
        vals = np.arange(18.0).reshape(9, 2)
        with pytest.raises(ValueError, match=r"m=9 rows would scan up to 126 maximal faces, "
                                             r"each against its Pareto fronts; at most 8 rows"):
            interleaving_distance(DataMatrix(vals), DataMatrix(vals))

    def test_row_cap(self):
        rng = np.random.Generator(np.random.PCG64(5))
        A = random_tie_free_matrix(rng, MAX_ROWS, 6)
        B = random_tie_free_matrix(rng, MAX_ROWS, 5)
        for skeleton in range(MAX_ROWS):
            got = interleaving_distance(A, B, skeleton=skeleton).to_json_obj()
            assert got == binary_search_distance(A, B, skeleton=skeleton).to_json_obj()

    def test_negative_skeleton(self):
        A = _table_from_rows([[1.0, 2.0]])
        with pytest.raises(ValueError, match="skeleton bound must be >= 0"):
            interleaving_distance(A, A, skeleton=-1)

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            interleaving_distance([[1.0, 2.0]], [[1.0, 2.0]])


class TestAgainstBinarySearch:
    """The one-pass least shift equals the binary search it replaced."""

    @given(
        st.integers(1, 5),
        st.integers(1, 40),
        st.integers(1, 40),
        st.booleans(),
        st.integers(0, 2**32 - 1),
        st.data(),
    )
    @example(m=1, n_a=1, n_b=2, ties=False, seed=0, data=None)
    @example(m=3, n_a=37, n_b=39, ties=False, seed=1, data=None)  # lcm 1443
    @example(m=5, n_a=40, n_b=39, ties=True, seed=2, data=None)
    @settings(max_examples=200, deadline=None)
    def test_matches_binary_search(self, m, n_a, n_b, ties, seed, data):
        assume(n_a != n_b)
        rng = np.random.Generator(np.random.PCG64(seed))
        TA = random_order_table(rng, m, n_a, ties)
        TB = random_order_table(rng, m, n_b, ties)
        skeleton = m - 1 if data is None else data.draw(st.integers(0, m))
        got = interleaving_distance(TA, TB, skeleton=skeleton).to_json_obj()
        assert got == binary_search_distance(TA, TB, skeleton=skeleton).to_json_obj()

    @pytest.mark.parametrize("n_a, n_b", [(32_767, 1), (32_767, 7), (32_768, 1), (32_768, 8)])
    def test_agrees_at_the_int16_edge(self, n_a, n_b):
        # lcm 32,767 scans in int16, lcm 32,768 in int32; against a single
        # column the differences reach -(lcm - 1) one way and lcm - 1 the other
        rng = np.random.Generator(np.random.PCG64(n_a + n_b))
        TA = random_order_table(rng, 2, n_a, False)
        TB = random_order_table(rng, 2, n_b, False)
        got = interleaving_distance(TA, TB).to_json_obj()
        assert got == binary_search_distance(TA, TB).to_json_obj()

    def test_coprime_grids_past_int32(self):
        # one row: the least rank 1 gives numerator |lcm/n_a - lcm/n_b| = 1,
        # with scaled ranks up to lcm = 2,499,950,000 > 2^31
        A = _table_from_rows([np.arange(50_000.0)])
        B = _table_from_rows([np.arange(49_999.0)])
        res = interleaving_distance(A, B)
        assert (res.numerator, res.denominator) == (1, 50_000 * 49_999)
        assert res.distance == 1 / (50_000 * 49_999)


def _anti_correlated(rng, m: int, n: int, ties: bool) -> DataMatrix:
    """The last row is minus the sum of the others, so a column beaten in
    the first m - 1 rows wins the last: nearly every column is on the
    front (ties come from few integer levels)."""
    if ties:
        vals = rng.integers(0, 30, size=(m, n)).astype(float)
    else:
        vals = rng.standard_normal((m, n))
    vals[-1] = -vals[:-1].sum(axis=0)
    return DataMatrix(vals, check_ties=False)


def _one_winner(rng, m: int, n: int, ties: bool) -> DataMatrix:
    """Column n // 2 is below every other column in every row."""
    if ties:
        vals = rng.integers(1, 4, size=(m, n)).astype(float)
    else:
        vals = rng.standard_normal((m, n))
    vals[:, n // 2] = vals.min(axis=1) - 1.0
    return DataMatrix(vals, check_ties=False)


class TestParetoFronts:
    """Both directions run over each face's Pareto fronts only: fronts
    wider than one block of the scan, a one-column front, and fronts
    holding tied columns, against the binary search over every column at
    every skeleton."""

    @staticmethod
    def _check_every_skeleton(TA, TB):
        for skeleton in range(TA.m):
            got = interleaving_distance(TA, TB, skeleton=skeleton).to_json_obj()
            assert got == binary_search_distance(TA, TB, skeleton=skeleton).to_json_obj()

    @pytest.mark.parametrize("ties", [False, True])
    @pytest.mark.parametrize("m", [3, 4])
    def test_front_wider_than_a_block(self, m, ties):
        rng = np.random.Generator(np.random.PCG64(40 + m))
        TA = order_table(_anti_correlated(rng, m, 300, ties))
        TB = order_table(_anti_correlated(rng, m, 260, ties))
        # at the full face each direction's source front spans several
        # scan blocks of SCAN_CELLS // (target front width) columns
        width_a = undominated_columns(TA.ord).size
        width_b = undominated_columns(TB.ord).size
        assert width_a > SCAN_CELLS // width_b
        assert width_b > SCAN_CELLS // width_a
        self._check_every_skeleton(TA, TB)

    @pytest.mark.parametrize("ties", [False, True])
    def test_one_column_front(self, ties):
        rng = np.random.Generator(np.random.PCG64(50))
        TA = order_table(_one_winner(rng, 4, 30, ties))
        TB = random_order_table(rng, 4, 24, ties)
        assert undominated_columns(TA.ord).tolist() == [15]
        self._check_every_skeleton(TA, TB)
        self._check_every_skeleton(TB, TA)

    @pytest.mark.parametrize("partner_ties", [False, True])
    def test_front_with_tied_columns(self, partner_ties):
        rng = np.random.Generator(np.random.PCG64(60))
        M = DataMatrix(rng.integers(0, 3, size=(3, 36)).astype(float), check_ties=False)
        TA = order_table(M)
        front = M.values[:, undominated_columns(TA.ord)]
        # two front columns share a value in some row
        assert any(np.unique(row).size < row.size for row in front)
        TB = random_order_table(rng, 3, 28, partner_ties)
        self._check_every_skeleton(TA, TB)

    @given(st.integers(1, 8), st.integers(1, 400), st.integers(1, 300), st.booleans(),
           st.integers(0, 2**32 - 1))
    @example(m=4, n_src=3 * (SCAN_CELLS // 200) + 1, n_dst=200, faces=False, seed=0)
    @example(m=4, n_src=3 * (SCAN_CELLS // 200) + 1, n_dst=200, faces=True, seed=0)
    @settings(max_examples=60, deadline=None)
    def test_scan_blocks_match_broadcast(self, m, n_src, n_dst, faces, seed):
        # Rows of x either read their own face of dst, as the births'
        # fallback scan does, or all m rows through one broadcast view, as
        # interleave does.  The last row sits lowest, so the last block
        # holds the least gap.
        rng = np.random.Generator(np.random.PCG64(seed))
        dst = rng.integers(-50, 50, size=(m, n_dst)).astype(np.int32)
        if faces:
            size = int(rng.integers(1, m + 1))
            rows = np.sort(rng.permuted(np.tile(np.arange(m), (n_src, 1)), axis=1)[:, :size],
                           axis=1)
        else:
            rows = np.broadcast_to(np.arange(m), (n_src, m))
        x = rng.integers(-50, 50, size=rows.shape).astype(np.int32)
        x[-1] -= 200
        mins = (x[:, :, None] - dst[rows]).min(axis=1)
        gap, witness = scan_gaps(x, rows, dst)
        assert gap.dtype == dst.dtype
        assert np.array_equal(gap, mins.max(axis=1))
        assert np.array_equal(witness, mins.argmax(axis=1))  # the first argmax
        assert gap.min() == gap[-1]


class TestAgainstBruteForce:
    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_matches_exhaustive_grid_check(self, seed):
        # m <= 2 at n <= 4, m = 3 at n <= 3: at most 7^3 grid points
        rng = np.random.Generator(np.random.PCG64(seed))
        m = int(rng.integers(1, 4))
        n_hi = 5 if m <= 2 else 4
        TA = order_table(random_tie_free_matrix(rng, m, int(rng.integers(2, n_hi))))
        TB = order_table(random_tie_free_matrix(rng, m, int(rng.integers(2, n_hi))))
        res = interleaving_distance(TA, TB)
        assert (res.numerator, res.denominator) == brute_force_numerator(TA, TB)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_symmetry(self, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        m = int(rng.integers(1, 4))
        A = random_tie_free_matrix(rng, m, int(rng.integers(2, 7)))
        B = random_tie_free_matrix(rng, m, int(rng.integers(2, 7)))
        ab = interleaving_distance(A, B)
        ba = interleaving_distance(B, A)
        assert (ab.numerator, ab.denominator) == (ba.numerator, ba.denominator)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_triangle_inequality(self, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        m = int(rng.integers(1, 3))
        mats = [random_tie_free_matrix(rng, m, int(rng.integers(2, 6))) for _ in range(3)]

        def dist(X, Y):
            r = interleaving_distance(X, Y)
            return Fraction(r.numerator, r.denominator)

        ab, bc, ac = dist(mats[0], mats[1]), dist(mats[1], mats[2]), dist(mats[0], mats[2])
        assert ac <= ab + bc
        assert ab <= ac + bc
        assert bc <= ab + ac


class TestSkeletonBound:
    def test_vertex_skeleton_never_exceeds_full(self):
        rng = np.random.Generator(np.random.PCG64(77))
        for _ in range(10):
            A = random_tie_free_matrix(rng, 3, 4)
            B = random_tie_free_matrix(rng, 3, 4)
            full = interleaving_distance(A, B)
            verts = interleaving_distance(A, B, skeleton=0)
            assert verts.distance <= full.distance
            assert verts.skeleton == 0
            assert full.skeleton == 2

    def test_large_skeleton_clamps_to_full(self):
        # the result reports the skeleton it computed: the full one
        A = _table_from_rows([[1.0, 2.0], [2.0, 1.0]])
        res = interleaving_distance(A, A, skeleton=10)
        assert res.distance == 0.0
        assert res.skeleton == 1
        assert res.to_json_obj() == interleaving_distance(A, A).to_json_obj()


SCRIPT_RUNS = {
    "interleave_trend": (["--m", "1", "--ref-n", "20", "--sizes", "5", "10", "--trials", "2"],
                         "trial,n,distance", 1 + 2 * 2),
    "point_subsample_experiment": (["--d", "2", "--m", "3", "--n", "12", "--sizes", "6", "8",
                                    "--reps", "3"], "n_s,k,q1,median,q3,outliers,verdict",
                                   1 + 2 * 3),
    "function_subsample_experiment": (["--d", "1", "--m", "5", "--n", "10", "--size", "3",
                                       "--reps", "3"], "k,q1,median,q3,outliers,verdict", 1 + 3),
}


@pytest.mark.parametrize("name", SCRIPT_RUNS)
def test_trend_script_closes_its_csv(tmp_path, name):
    script = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    main = runpy.run_path(str(script))["main"]
    argv, header, lines = SCRIPT_RUNS[name]
    out = tmp_path / "out.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        assert main([*argv, "--out", str(out)]) == 0
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
    assert out.read_text().splitlines()[0] == header
    assert len(out.read_text().splitlines()) == lines
