"""Exact rational linear-programming helpers used by the geometry oracles."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.exactlp import (
    convex_combination,
    feasible_nonneg,
    feasible_system,
    rational_rank,
)


class TestFeasibleNonneg:
    def test_simple_feasible(self):
        # x = 1 solves 2x = 2, x >= 0
        assert feasible_nonneg([[2]], [2]) is not None

    def test_negative_rhs_infeasible(self):
        # x >= 0 cannot satisfy x = -1
        assert feasible_nonneg([[1]], [-1]) is None

    def test_convexity_system(self):
        # weights on {-1, 1} summing to 1 with barycenter 0 exist
        A = [[-1, 1], [1, 1]]
        w = feasible_nonneg(A, [0, 1])
        assert w == [Fraction(1, 2), Fraction(1, 2)]

    def test_solution_satisfies_system(self):
        A = [[1, 2, 0], [0, 1, 3]]
        b = [4, 6]
        x = feasible_nonneg(A, b)
        assert x is not None
        assert all(v >= 0 for v in x)
        for row, rhs in zip(A, b):
            assert sum(c * v for c, v in zip(row, x)) == rhs


class TestFeasibleSystem:
    def test_free_variable_inequalities(self):
        # y <= -1 and -y <= -1 cannot both hold
        assert feasible_system(A_ub=[[1], [-1]], b_ub=[-1, -1], n_free=1) is None

    def test_free_variable_feasible(self):
        y = feasible_system(A_ub=[[1], [-1]], b_ub=[3, -2], n_free=1)
        assert y is not None
        assert 2 <= y[0] <= 3

    def test_mixed_equalities(self):
        # y1 + y2 = 1, y1 - y2 <= 0 has e.g. y = (0, 1)
        y = feasible_system(A_eq=[[1, 1]], b_eq=[1], A_ub=[[1, -1]], b_ub=[0], n_free=2)
        assert y is not None
        assert y[0] + y[1] == 1
        assert y[0] - y[1] <= 0

    def test_gordan_alternative(self):
        # rows positively span the plane: no w with Vw >= 1
        V = [[1, 0], [-1, 0], [0, 1], [0, -1]]
        assert feasible_system(A_ub=[[-a for a in row] for row in V], b_ub=[-1] * 4, n_free=2) is None
        # rows in a halfplane: w = (2, 0) gives Vw >= 1
        V = [[1, 0], [1, 1]]
        y = feasible_system(A_ub=[[-a for a in row] for row in V], b_ub=[-1] * 2, n_free=2)
        assert y is not None
        assert all(sum(Fraction(a) * w for a, w in zip(row, y)) >= 1 for row in V)


class TestConvexCombination:
    def test_interior_point(self):
        pts = [[0, 0], [1, 0], [0, 1]]
        w = convex_combination(pts, [0.25, 0.25])
        assert w is not None
        assert sum(w) == 1
        assert all(v >= 0 for v in w)

    def test_outside_point(self):
        pts = [[0, 0], [1, 0], [0, 1]]
        assert convex_combination(pts, [1, 1]) is None

    def test_vertex_is_member(self):
        pts = [[0, 0], [1, 0], [0, 1]]
        w = convex_combination(pts, [1, 0])
        assert w == [Fraction(0), Fraction(1), Fraction(0)]

    def test_boundary_point(self):
        pts = [[0, 0], [2, 0]]
        w = convex_combination(pts, [1, 0])
        assert w == [Fraction(1, 2), Fraction(1, 2)]

    def test_fractional_coordinates(self):
        pts = [[Fraction(1, 3)], [Fraction(2, 3)]]
        assert convex_combination(pts, [Fraction(1, 2)]) is not None
        assert convex_combination(pts, [Fraction(3, 4)]) is None


class TestRationalRank:
    def test_known_ranks(self):
        assert rational_rank([[1, 2], [2, 4]]) == 1
        assert rational_rank([[1, 0], [0, 1]]) == 2
        assert rational_rank([[0, 0]]) == 0
        assert rational_rank([]) == 0

    @given(
        st.lists(
            st.lists(st.integers(-5, 5), min_size=3, max_size=3),
            min_size=1,
            max_size=4,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_floating_point_rank(self, rows):
        expect = int(np.linalg.matrix_rank(np.array(rows, dtype=float)))
        assert rational_rank(rows) == expect
