"""Synthetic geometry: sampled families, hulls, cones, and realizability."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qcsense.central import undominated_columns
from qcsense.geometry import _ball_points

from qcsense import PointCloud, RegularPairSpec, sample_pair

from oracles.geometry import (
    Cent1Result,
    ConeClass,
    _pointwise_values,
    _sampled_directions,
    cent0_predicate,
    cent1_membership,
    check_sequence_realizable,
    cone_classify,
    cone_classify_sampled,
    general_direction_check,
    gradients,
    hull_distances,
    hull_membership,
    mc_measure,
    realize_function,
    simplex_with_barycenter,
)

TRIANGLE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


class TestPointCloud:
    def test_shapes_and_properties(self):
        pc = PointCloud(np.array([[0.1, 0.2], [0.3, -0.4]]))
        assert (pc.n, pc.d) == (2, 2)
        assert not pc.points.flags.writeable

    def test_rejects_points_outside_ball(self):
        with pytest.raises(ValueError, match="unit ball"):
            PointCloud(np.array([[1.5, 0.0]]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            PointCloud(np.array([[np.nan, 0.0]]))

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError, match="shape"):
            PointCloud(np.array([0.1, 0.2]))


class TestRegularPairSpec:
    def test_linear_evaluate_is_inner_product(self):
        spec = RegularPairSpec.random_linear(d=2, m=3, seed=7)
        X = np.array([[0.1, 0.2], [-0.3, 0.4]])
        assert np.allclose(spec.evaluate(X), spec.directions @ X.T)
        assert np.allclose(np.linalg.norm(spec.directions, axis=1), 1.0)

    def test_quadratic_evaluate_matches_formula(self):
        spec = RegularPairSpec.random_quadratic(d=3, m=2, seed=11)
        x = np.array([0.2, -0.1, 0.3])
        vals = spec.evaluate(x)
        for i in range(2):
            diff = x - spec.centers[i]
            assert vals[i, 0] == pytest.approx(diff @ spec.forms[i] @ diff)

    def test_quadratic_gradients(self):
        spec = RegularPairSpec.random_quadratic(d=2, m=3, seed=3)
        x = np.array([0.4, -0.2])
        grads = gradients(spec, x)
        for i in range(3):
            assert np.allclose(grads[i], 2.0 * spec.forms[i] @ (x - spec.centers[i]))

    def test_linear_gradients_are_directions(self):
        spec = RegularPairSpec.random_linear(d=3, m=4, seed=5)
        assert np.array_equal(gradients(spec, np.zeros(3)), spec.directions)

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="family"):
            RegularPairSpec(family="cubic", d=2, m=1, seed=0)
        with pytest.raises(ValueError, match="directions only"):
            RegularPairSpec(
                family="linear", d=1, m=1, seed=0,
                directions=np.array([[1.0]]), centers=np.array([[0.0]]),
            )
        with pytest.raises(ValueError, match="zero direction"):
            RegularPairSpec(family="linear", d=2, m=1, seed=0, directions=np.zeros((1, 2)))
        with pytest.raises(ValueError, match="symmetric"):
            RegularPairSpec(
                family="quadratic", d=2, m=1, seed=0,
                centers=np.zeros((1, 2)), forms=np.array([[[1.0, 0.5], [0.0, 1.0]]]),
            )
        with pytest.raises(ValueError, match="positive definite"):
            RegularPairSpec(
                family="quadratic", d=2, m=1, seed=0,
                centers=np.zeros((1, 2)), forms=np.array([[[1.0, 0.0], [0.0, -1.0]]]),
            )

    @pytest.mark.parametrize("family", ["linear", "quadratic"])
    def test_json_round_trip(self, family):
        make = getattr(RegularPairSpec, f"random_{family}")
        spec = make(d=2, m=3, seed=42)
        clone = RegularPairSpec.from_json_obj(spec.to_json_obj())
        X = np.array([[0.1, 0.9], [-0.5, 0.2]])
        assert np.array_equal(clone.evaluate(X), spec.evaluate(X))


class TestSamplePair:
    def test_shapes_and_support(self):
        spec = RegularPairSpec.random_quadratic(d=2, m=4, seed=1)
        cloud, matrix = sample_pair(spec, n=25)
        assert cloud.points.shape == (25, 2)
        assert matrix.values.shape == (4, 25)
        assert np.linalg.norm(cloud.points, axis=1).max() <= 1.0 + 1e-9

    def test_deterministic(self):
        spec = RegularPairSpec.random_linear(d=3, m=5, seed=9)
        c1, m1 = sample_pair(spec, n=40)
        c2, m2 = sample_pair(spec, n=40)
        assert np.array_equal(c1.points, c2.points)
        assert np.array_equal(m1.values, m2.values)

    def test_explicit_seed_overrides_spec_seed(self):
        spec = RegularPairSpec.random_linear(d=2, m=3, seed=9)
        c1, _ = sample_pair(spec, n=10, seed=123)
        c2, _ = sample_pair(spec, n=10, seed=124)
        assert not np.array_equal(c1.points, c2.points)

    def test_matrix_is_family_evaluated_on_cloud(self):
        spec = RegularPairSpec.random_linear(d=2, m=4, seed=2)
        cloud, matrix = sample_pair(spec, n=30)
        assert np.array_equal(matrix.values, spec.directions @ cloud.points.T)

    def test_rejects_empty_sample(self):
        spec = RegularPairSpec.random_linear(d=2, m=2, seed=0)
        with pytest.raises(ValueError):
            sample_pair(spec, n=0)


class TestHulls:
    def test_distance_to_triangle_hypotenuse(self):
        d = hull_distances(np.array([[1.0, 1.0]]), TRIANGLE)
        assert d[0] == pytest.approx(math.sqrt(0.5))

    def test_distance_to_vertex(self):
        d = hull_distances(np.array([[-3.0, -4.0]]), TRIANGLE)
        assert d[0] == pytest.approx(5.0)

    def test_interior_distance_zero(self):
        d = hull_distances(np.array([[0.25, 0.25]]), TRIANGLE)
        assert d[0] == pytest.approx(0.0, abs=1e-9)

    def test_single_point_hull(self):
        d = hull_distances(np.array([[3.0, 4.0]]), np.array([[0.0, 0.0]]))
        assert d[0] == pytest.approx(5.0)

    def test_membership_exact(self):
        assert hull_membership(np.array([0.25, 0.25]), TRIANGLE)
        assert hull_membership(np.array([0.0, 0.0]), TRIANGLE)  # vertex
        assert hull_membership(np.array([0.5, 0.5]), TRIANGLE)  # edge
        assert not hull_membership(np.array([1.0, 1.0]), TRIANGLE)

    def test_too_many_points_rejected(self):
        pts = np.zeros((17, 2))
        with pytest.raises(ValueError, match="at most"):
            hull_distances(np.array([[0.0, 0.0]]), pts)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_membership_consistent_with_distance(self, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        pts = rng.uniform(-1, 1, size=(5, 2)).round(2)
        x = rng.uniform(-1.5, 1.5, size=2).round(2)
        dist = hull_distances(x[None, :], pts)[0]
        if hull_membership(x, pts):
            assert dist <= 1e-8
        else:
            # strictly outside points sit at positive distance
            assert dist >= 0.0


class TestRealizability:
    LINE = np.array([[0.0], [0.4], [0.8]])

    def test_collinear_cases(self):
        assert check_sequence_realizable(self.LINE, (1, 2, 3))
        assert check_sequence_realizable(self.LINE, (2, 1, 3))
        assert not check_sequence_realizable(self.LINE, (1, 3, 2))
        assert not check_sequence_realizable(self.LINE, (3, 1, 2))

    def test_interior_point_must_come_first(self):
        quad = np.array([[0.0, 0.0], [0.8, 0.0], [0.0, 0.8], [0.2, 0.2]])
        # point 4 is inside the triangle 1-2-3
        assert check_sequence_realizable(quad, (4, 1, 2, 3))
        assert not check_sequence_realizable(quad, (1, 2, 3, 4))

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError, match="permutation"):
            check_sequence_realizable(self.LINE, (1, 1, 2))

    def test_accepts_point_cloud(self):
        pc = PointCloud(self.LINE)
        assert check_sequence_realizable(pc, (1, 2, 3))


class TestRealizeFunction:
    def test_values_strictly_ordered(self):
        pts = np.array([[0.0, 0.0], [0.8, 0.0], [0.0, 0.8], [-0.6, -0.6]])
        seq = (1, 3, 2, 4)
        f = realize_function(pts, seq)
        vals = [f(pts[s - 1]) for s in seq]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_weights_positive_and_endpoints_one(self):
        pts = np.array([[0.0], [0.4], [0.8]])
        f = realize_function(pts, (1, 2, 3))
        assert f.weights[0] == 1.0
        assert f.weights[-1] == 1.0
        assert all(w >= 1.0 for w in f.weights)

    def test_unrealizable_sequence_raises(self):
        pts = np.array([[0.0], [0.4], [0.8]])
        with pytest.raises(ValueError, match="not realizable"):
            realize_function(pts, (1, 3, 2))

    def test_vectorized_matches_scalar(self):
        pts = np.array([[0.0, 0.0], [0.8, 0.0], [0.0, 0.8]])
        f = realize_function(pts, (2, 1, 3))
        X = np.array([[0.1, 0.1], [0.5, 0.5], [-0.2, 0.7]])
        batched = f(X)
        assert batched.shape == (3,)
        for i in range(3):
            assert f(X[i]) == pytest.approx(batched[i])

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_midpoint_convexity(self, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        pts = rng.uniform(-0.7, 0.7, size=(4, 2))
        seq = tuple(rng.permutation(4) + 1)
        if not check_sequence_realizable(pts, seq):
            return
        f = realize_function(pts, seq)
        A = rng.uniform(-1, 1, size=(50, 2))
        B = rng.uniform(-1, 1, size=(50, 2))
        mid = f((A + B) / 2.0)
        assert (mid <= (f(A) + f(B)) / 2.0 + 1e-9).all()


class TestConeClassification:
    def test_salient(self):
        assert cone_classify(np.array([[1.0, 0.0], [0.0, 1.0]])) is ConeClass.SALIENT

    def test_full(self):
        V = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        assert cone_classify(V) is ConeClass.FULL

    def test_flat_proper(self):
        assert cone_classify(np.array([[1.0, 0.0], [-1.0, 0.0]])) is ConeClass.FLAT_PROPER

    def test_one_dimensional(self):
        assert cone_classify(np.array([[2.0]])) is ConeClass.SALIENT
        assert cone_classify(np.array([[2.0], [-1.0]])) is ConeClass.FULL

    def test_simplex_directions_full(self):
        # vertices of a regular triangle positively span the plane
        theta = 2.0 * math.pi * np.arange(3) / 3.0
        V = np.column_stack([np.cos(theta), np.sin(theta)])
        assert cone_classify(V) is ConeClass.FULL
        assert cone_classify_sampled(V) is ConeClass.FULL

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="zero vector"):
            cone_classify(np.array([[0.0, 0.0]]))
        with pytest.raises(ValueError, match="zero vector"):
            cone_classify_sampled(np.array([[0.0, 0.0]]))

    def test_sampled_dimension_limit(self):
        with pytest.raises(ValueError, match="d <= 3"):
            cone_classify_sampled(np.eye(4))

    @given(st.integers(0, 10_000), st.integers(2, 3), st.integers(2, 6))
    @settings(max_examples=60, deadline=None)
    def test_exact_agrees_with_sampled(self, seed, d, k):
        # The sampled route only promises agreement away from the class
        # boundaries, so keep the support-function margin above the
        # direction-grid spacing (~0.055 rad at 4096 points on the sphere).
        rng = np.random.Generator(np.random.PCG64(seed))
        V = rng.standard_normal((k, d))
        V /= np.linalg.norm(V, axis=1, keepdims=True)
        probe = _sampled_directions(d, 4096)
        grid_min = (probe @ V.T).max(axis=1).min()
        assume(grid_min < -0.08 or grid_min > 0.14)
        assert cone_classify(V) is cone_classify_sampled(V, n_dirs=4096)


class TestCent1Membership:
    def test_positively_spanning_linear(self):
        dirs = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        spec = RegularPairSpec(family="linear", d=2, m=4, seed=0, directions=dirs)
        res = cent1_membership(spec, np.array([0.3, -0.2]))
        assert res.member and bool(res)
        assert res.cone is ConeClass.FULL

    def test_halfplane_linear_not_member(self):
        dirs = np.array([[1.0, 0.0], [1.0, 1.0]])
        spec = RegularPairSpec(family="linear", d=2, m=2, seed=0, directions=dirs)
        res = cent1_membership(spec, np.zeros(2))
        assert not res.member
        assert res.cone is ConeClass.SALIENT

    def test_zero_gradient_dropped(self):
        spec = RegularPairSpec(
            family="quadratic", d=2, m=1, seed=0,
            centers=np.zeros((1, 2)), forms=np.eye(2)[None, :, :],
        )
        res = cent1_membership(spec, np.zeros(2))
        assert res == Cent1Result(member=False, cone=None, dropped_rows=(1,))

    def test_surrounding_quadratics_member(self):
        centers = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        spec = RegularPairSpec(
            family="quadratic", d=2, m=4, seed=0,
            centers=centers, forms=np.repeat(np.eye(2)[None, :, :], 4, axis=0),
        )
        res = cent1_membership(spec, np.zeros(2))
        assert res.member
        assert res.cone is ConeClass.FULL
        assert res.dropped_rows == ()


class TestCent0Predicate:
    def test_linear_positively_spanning_is_constant_true(self):
        dirs = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        spec = RegularPairSpec(family="linear", d=2, m=4, seed=0, directions=dirs)
        pred = cent0_predicate(spec)
        assert pred.approximate is False
        assert pred.constant is True
        assert pred(np.array([0.2, 0.3])) is True
        assert pred(np.zeros((5, 2))).all()

    def test_linear_halfspace_is_constant_false(self):
        dirs = np.array([[1.0, 0.0], [1.0, 1.0]])
        spec = RegularPairSpec(family="linear", d=2, m=2, seed=0, directions=dirs)
        pred = cent0_predicate(spec)
        assert pred.constant is False
        assert not pred(np.zeros((3, 2))).any()

    def test_quadratic_minimum_is_member(self):
        spec = RegularPairSpec(
            family="quadratic", d=2, m=1, seed=0,
            centers=np.zeros((1, 2)), forms=np.eye(2)[None, :, :],
        )
        pred = cent0_predicate(spec, n_probe=2048)
        assert pred.approximate is True
        assert pred(np.zeros(2)) is True
        assert pred(np.array([0.9, 0.0])) is False

    def test_mc_measure_constant_predicate(self):
        dirs = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        spec = RegularPairSpec(family="linear", d=2, m=4, seed=0, directions=dirs)
        est = mc_measure(spec, cent0_predicate(spec), n_mc=1000, seed=5)
        assert est.fraction == 1.0
        assert est.std_error == 0.0
        assert est.approximate_predicate is False

    def test_mc_measure_deterministic(self):
        spec = RegularPairSpec.random_quadratic(d=2, m=3, seed=4)
        pred = cent0_predicate(spec, n_probe=512)
        a = mc_measure(spec, pred, n_mc=2000, seed=11)
        b = mc_measure(spec, pred, n_mc=2000, seed=11)
        assert a.fraction == b.fraction
        assert a.approximate_predicate is True

    def test_mc_measure_json(self):
        dirs = np.array([[1.0, 0.0], [-1.0, 0.0]])
        spec = RegularPairSpec(family="linear", d=2, m=2, seed=0, directions=dirs)
        obj = mc_measure(spec, cent0_predicate(spec), n_mc=100, seed=0).to_json_obj()
        assert obj["generator"] == "numpy.random.PCG64"
        assert obj["n_mc"] == 100


def cent0_loop(spec: RegularPairSpec, n_probe: int, X: np.ndarray) -> np.ndarray:
    """Oracle: the one-probe-at-a-time loop the quadratic cent0 predicate
    ran before it was blocked, on the predicate's own values."""
    rng = np.random.Generator(np.random.PCG64(spec.seed ^ 0x9E3779B9))
    F = _pointwise_values(spec, _ball_points(rng, n_probe, spec.d))
    front = F[:, undominated_columns(F)]
    fx = _pointwise_values(spec, np.atleast_2d(X))
    beaten = np.zeros(fx.shape[1], dtype=bool)
    for p in range(front.shape[1]):
        alive = np.nonzero(~beaten)[0]
        if alive.size == 0:
            break
        beaten[alive] = (front[:, p : p + 1] < fx[:, alive]).all(axis=0)
    return ~beaten


class TestCent0Blocked:
    @given(
        st.integers(1, 3),
        st.integers(1, 7),
        st.integers(0, 2**16),
        st.sampled_from([1, 7, 127, 128, 129, 700]),
        st.sampled_from([0, 1, 127, 128, 129, 1000, 2500]),
    )
    @example(d=2, m=6, seed=0, n_probe=700, q=129)  # fronts past one probe block
    @example(d=2, m=7, seed=1, n_probe=700, q=0)
    @example(d=3, m=6, seed=5, n_probe=700, q=1000)
    @settings(max_examples=60, deadline=None)
    def test_matches_probe_loop(self, d, m, seed, n_probe, q):
        spec = RegularPairSpec.random_quadratic(d=d, m=m, seed=seed)
        X = _ball_points(np.random.Generator(np.random.PCG64(seed + 1)), q, d)
        # Probes tie with themselves in every row, their mirror images in one
        # row, and small perturbations of a probe are often beaten by it alone.
        probes = _ball_points(np.random.Generator(np.random.PCG64(spec.seed ^ 0x9E3779B9)),
                              n_probe, d)
        mirrors = [2 * c - probes for c in spec.centers]
        noise = np.random.Generator(np.random.PCG64(seed)).standard_normal((8, *probes.shape))
        nudged = (probes + 1e-3 * noise).reshape(-1, d)
        X = np.vstack([X, probes, nudged, *mirrors])
        pred = cent0_predicate(spec, n_probe=n_probe)
        got = pred(X)
        assert got.dtype == bool
        assert np.array_equal(got, cent0_loop(spec, n_probe, X))
        assert pred(X[0]) is bool(pred(X[:1])[0])


class TestCent0BatchInvariance:
    @given(
        st.integers(1, 3),
        st.integers(1, 6),
        st.integers(0, 2**16),
        st.sampled_from([1, 7, 128, 129]),
        st.integers(0, 40),
    )
    @example(d=2, m=1, seed=0, n_probe=1, q=5)  # the probe, tied with itself
    @settings(max_examples=60, deadline=None)
    def test_alone_equals_in_batch(self, d, m, seed, n_probe, q):
        spec = RegularPairSpec.random_quadratic(d=d, m=m, seed=seed)
        rng = np.random.Generator(np.random.PCG64(seed + 1))
        probes = _ball_points(np.random.Generator(np.random.PCG64(spec.seed ^ 0x9E3779B9)),
                              n_probe, d)
        X = np.vstack([_ball_points(rng, q, d), probes[:16]])
        pred = cent0_predicate(spec, n_probe=n_probe)
        batch = pred(X)
        assert [pred(x) for x in X] == batch.tolist()
        perm = rng.permutation(len(X))
        assert np.array_equal(pred(X[perm]), batch[perm])


class TestGeneralDirection:
    def test_pairwise_independent(self):
        assert general_direction_check(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))

    def test_parallel_pair_fails(self):
        assert not general_direction_check(np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]]))

    def test_dimension_one(self):
        assert general_direction_check(np.array([[1.0], [2.0]]))
        assert not general_direction_check(np.array([[0.0], [1.0]]))

    def test_fewer_vectors_than_dimension(self):
        assert general_direction_check(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
        assert not general_direction_check(np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]]))


class TestSimplexWithBarycenter:
    def test_three_points_on_line(self):
        pc = simplex_with_barycenter(3)
        assert pc.points.shape == (3, 1)
        assert np.allclose(sorted(pc.points[:, 0]), [-0.8, 0.0, 0.8])
        assert pc.points[2, 0] == 0.0  # barycenter listed last

    def test_regular_simplex_properties(self):
        for n in (4, 5, 6):
            pc = simplex_with_barycenter(n)
            assert pc.points.shape == (n, n - 2)
            verts = pc.points[:-1]
            assert np.allclose(pc.points[-1], 0.0)
            assert np.allclose(verts.sum(axis=0), 0.0, atol=1e-12)
            assert np.allclose(np.linalg.norm(verts, axis=1), 0.8)
            gaps = [
                np.linalg.norm(verts[i] - verts[j])
                for i in range(n - 1)
                for j in range(i + 1, n - 1)
            ]
            assert np.allclose(gaps, gaps[0])

    def test_barycenter_only_realizable_first(self):
        pc = simplex_with_barycenter(4)
        assert check_sequence_realizable(pc, (4, 1, 2, 3))
        assert not check_sequence_realizable(pc, (1, 2, 3, 4))

    def test_validation(self):
        with pytest.raises(ValueError):
            simplex_with_barycenter(2)
        with pytest.raises(ValueError):
            simplex_with_barycenter(4, radius=1.5)
