"""Boundary reduction, persistence diagrams, and the elimination oracle."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcsense import (
    Filtration,
    PersistenceDiagram,
    PersistenceInterval,
    max_lengths,
    order_table,
    persistence_intervals,
    ray_filtration,
)
from qcsense.persistence import pair_reduction

from conftest import random_tie_free_matrix
from oracles.persistence import betti_numbers_by_elimination


class TestPairReduction:
    def test_filled_triangle(self):
        # faces in filtration order: v1 v2 v3 e12 e13 e23 t123
        columns = [0, 0, 0, 0b011, 0b101, 0b110, 0b111000]
        pairs, creators = pair_reduction(columns)
        assert pairs == {1: 3, 2: 4, 5: 6}
        assert creators == [0, 1, 2, 5]

    def test_single_vertex(self):
        pairs, creators = pair_reduction([0])
        assert pairs == {}
        assert creators == [0]

    def test_two_components_merge(self):
        # v1 v2 edge
        pairs, creators = pair_reduction([0, 0, 0b11])
        assert pairs == {1: 2}
        assert creators == [0, 1]


def random_columns(rng, n: int, density: float) -> list[int]:
    """Random boundary-shaped F2 matrix: column j has bits only below j."""
    return [sum(1 << i for i in range(j) if rng.random() < density) for j in range(n)]


def reduced_columns(columns: list[int]) -> list[int]:
    """Every column after plain left-to-right reduction."""
    red: list[int] = []
    owner: dict[int, int] = {}
    for col in columns:
        while col and col.bit_length() - 1 in owner:
            col ^= red[owner[col.bit_length() - 1]]
        if col:
            owner[col.bit_length() - 1] = len(red)
        red.append(col)
    return red


RANDOM_MATRIX = (
    st.integers(0, 2**32 - 1), st.integers(0, 60), st.sampled_from([0.05, 0.2, 0.5])
)


class TestPairReductionRandom:
    """pair_reduction on random matrices, against a plain reduction and
    against itself with a limit or with columns held outside the input."""

    @given(*RANDOM_MATRIX)
    @settings(max_examples=100, deadline=None)
    def test_matches_plain_reduction(self, seed, n, density):
        columns = random_columns(np.random.Generator(np.random.PCG64(seed)), n, density)
        red = reduced_columns(columns)
        pairs, creators = pair_reduction(columns)
        assert pairs == {c.bit_length() - 1: j for j, c in enumerate(red) if c}
        assert creators == [j for j, c in enumerate(red) if not c]

    @given(*RANDOM_MATRIX)
    @settings(max_examples=100, deadline=None)
    def test_limit_gives_the_first_pairs(self, seed, n, density):
        columns = random_columns(np.random.Generator(np.random.PCG64(seed)), n, density)
        full, _ = pair_reduction(columns)
        for q in range(len(full) + 1):
            pairs, _ = pair_reduction(columns, limit=q)
            assert list(pairs.items()) == list(full.items())[:q]

    @given(*RANDOM_MATRIX)
    @settings(max_examples=100, deadline=None)
    def test_owned_columns_left_out(self, seed, n, density):
        rng = np.random.Generator(np.random.PCG64(seed))
        columns = random_columns(rng, n, density)
        red = reduced_columns(columns)
        out = {j for j, c in enumerate(red) if c and rng.random() < 0.5}
        kept = [j for j in range(n) if j not in out]
        held = {red[j].bit_length() - 1: red[j] for j in out}
        asked: list[int] = []

        def owned(p):
            asked.append(p)
            return held.get(p)

        pairs, creators = pair_reduction([columns[j] for j in kept], owned)
        full, full_creators = pair_reduction(columns)
        assert {p: kept[j] for p, j in pairs.items()} == {
            p: j for p, j in full.items() if j not in out
        }
        assert [kept[j] for j in creators] == full_creators
        assert len(asked) == len(set(asked))  # the pivot table keeps each answer


class TestPersistenceIntervals:
    def test_two_vertices_then_edge(self):
        F = Filtration(2, 1, ((0, 0b01), (0, 0b10), (1, 0b11)), 1)
        D = persistence_intervals(F, d_up=1)
        got = [(iv.dim, iv.birth, iv.death, iv.essential) for iv in D.intervals]
        assert got == [(0, 0.0, 1.0, True), (0, 0.0, 1.0, False)]
        assert max_lengths(D)[0] == 1.0

    def test_hollow_then_filled_triangle(self):
        # 3 vertices at grade 0, 3 edges at 1, the filling 2-simplex at 2,
        # on the half-integer grid: one homology-1 class alive on [1/2, 1)
        entries = (
            (0, 0b001),
            (0, 0b010),
            (0, 0b100),
            (1, 0b011),
            (1, 0b101),
            (1, 0b110),
            (2, 0b111),
        )
        F = Filtration(3, 2, entries, 2)
        D = persistence_intervals(F, d_up=2)
        ones = [(iv.birth, iv.death, iv.essential) for iv in D.by_dim(1)]
        assert ones == [(0.5, 1.0, False)]
        L = max_lengths(D)
        assert L[0] == 1.0  # essential component born at 0, capped at 1
        assert L[1] == 0.5
        assert L[2] == 0.0

    def test_empty_filtration(self):
        F = Filtration(2, 4, (), 4)
        D = persistence_intervals(F, d_up=1)
        assert D.intervals == ()
        assert max_lengths(D).lengths == (0.0, 0.0)

    def test_ray_column1_diagram(self, example_matrix):
        T = order_table(example_matrix)
        D = persistence_intervals(ray_filtration(T, 1), d_up=1)
        got = [
            (iv.dim, iv.birth_numer, iv.death_numer, iv.essential)
            for iv in D.intervals
        ]
        assert got == [(0, 1, 4, True), (0, 3, 3, False)]
        assert max_lengths(D).lengths == (0.75, 0.0)

    def test_ray_column2_diagram(self, example_matrix):
        T = order_table(example_matrix)
        D = persistence_intervals(ray_filtration(T, 2), d_up=1)
        got = [
            (iv.dim, iv.birth_numer, iv.death_numer, iv.essential)
            for iv in D.intervals
        ]
        assert got == [(0, 1, 3, True), (0, 3, 3, False)]
        assert max_lengths(D).lengths == (0.5, 0.0)

    def test_zero_length_kept_but_ignored_by_lengths(self, example_matrix):
        T = order_table(example_matrix)
        D = persistence_intervals(ray_filtration(T, 2), d_up=1)
        zero = [iv for iv in D.intervals if iv.length == 0]
        assert len(zero) == 1
        assert max_lengths(D)[0] == 0.5

    def test_tie_break_independence(self):
        # same-grade simplices in two different valid orders: equal multisets
        Fa = Filtration(2, 1, ((0, 0b01), (0, 0b10), (1, 0b11)), 1)
        Fb = Filtration(2, 1, ((0, 0b10), (0, 0b01), (1, 0b11)), 1)
        as_multiset = lambda D: sorted(
            (iv.dim, iv.birth, iv.death, iv.essential) for iv in D.intervals
        )
        assert as_multiset(persistence_intervals(Fa, 1)) == as_multiset(
            persistence_intervals(Fb, 1)
        )

    def test_interval_count_matches_creators(self, example_matrix):
        T = order_table(example_matrix)
        for a in range(1, 5):
            F = ray_filtration(T, a)
            d_up = T.m - 1
            D = persistence_intervals(F, d_up=d_up)
            columns, sizes = F.boundary_columns()
            _, creators = pair_reduction(columns)
            for k in range(d_up + 1):
                n_creators_k = sum(1 for j in creators if sizes[j] == k + 1)
                assert len(D.by_dim(k)) == n_creators_k


class TestMaxLengths:
    def test_arithmetic_max(self):
        D = PersistenceDiagram(
            d_up=1,
            denominator=10,
            t_end_numer=10,
            intervals=(
                PersistenceInterval(1, 2, 5, 10, False),
                PersistenceInterval(1, 1, 9, 10, False),
            ),
        )
        assert max_lengths(D)[1] == pytest.approx(0.8)
        assert max_lengths(D)[0] == 0.0

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            PersistenceInterval(0, 5, 2, 10, False)


class TestBettiAgainstElimination:
    def assert_equivalent(self, F, d_up):
        D = persistence_intervals(F, d_up=d_up)
        # every grid grade a face enters at, and the midpoints past them
        for g in sorted({g for g, _ in F.entries} | {0, F.t_end_numer}):
            for grade in (g / F.denominator, (g + 0.5) / F.denominator):
                assert D.betti(grade) == betti_numbers_by_elimination(F, grade, d_up), grade

    def test_fixture_rays(self, example_matrix):
        T = order_table(example_matrix)
        for a in range(1, 5):
            self.assert_equivalent(ray_filtration(T, a), d_up=1)

    def test_hollow_triangle(self):
        entries = (
            (0, 0b001),
            (0, 0b010),
            (0, 0b100),
            (1, 0b011),
            (1, 0b101),
            (1, 0b110),
            (2, 0b111),
        )
        self.assert_equivalent(Filtration(3, 2, entries, 2), d_up=2)

    def test_off_grid_grade_reads_grid_point_below(self):
        # 0.4 lies between the grid grades 1/4 and 2/4: one vertex is in
        F = Filtration(2, 4, ((0, 0b01), (2, 0b10)), 4)
        assert len(F.complex_at(0.4).faces) == 1
        assert persistence_intervals(F, d_up=0).betti(0.4) == [1]
        self.assert_equivalent(F, d_up=0)

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_random_ray_filtrations(self, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        m = int(rng.integers(1, 6))
        n = int(rng.integers(2, 9))
        M = random_tie_free_matrix(rng, m, n)
        T = order_table(M)
        a = int(rng.integers(1, n + 1))
        self.assert_equivalent(ray_filtration(T, a), d_up=min(m - 1, 3))
