"""Geometric oracles for the synthetic families of `qcsense.geometry`.

They compute, from the generating geometry itself, what the rank-based
pipeline should find, so the tests can check the paper's geometric
claims against it.  They cover

* exact convex-hull membership and batched hull distances,
* realization of a prescribed order sequence by a single convex function
  built from distances to nested hulls,
* classification of gradient cones (full / salient / flat-proper) both
  exactly via rational linear programs and by direction sampling,
* membership oracles for the first-gradient central region and a
  predicate for the order-minimum central region, and
* Monte Carlo estimation of the measure of a region of the ball.

Exact routines reduce to the rational feasibility solvers in
`oracles.exactlp`; numeric routines are plain numpy with documented
tolerances.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from qcsense.central import BLOCK, undominated_columns
from qcsense.geometry import PointCloud, RegularPairSpec, _ball_points

from .exactlp import convex_combination, feasible_system, rational_rank

GENERATOR_NAME = "numpy.random.PCG64"

# Gradients shorter than this are treated as exactly zero when testing
# first-gradient centrality (quadratic gradients vanish exactly at the
# center, so this only absorbs float noise).
ZERO_GRADIENT_TOL = 1e-12

# Barycentric feasibility slack for the batched hull-distance projections.
HULL_FEASIBILITY_TOL = 1e-10

# A prescribed order sequence is rejected as unrealizable when the next
# point sits this close to the hull of its predecessors.
REALIZE_MIN_GAP = 1e-9

_MAX_HULL_POINTS = 16

MC_BATCH = 8192  # ball points per mc_measure draw; estimates depend on it


class ConeClass(enum.Enum):
    """Position of the origin relative to the conic hull of a vector set.

    ``SALIENT``      the origin is not in the convex hull: some open
                     halfspace contains every vector.
    ``FULL``         the cone generated by the vectors is all of R^d.
    ``FLAT_PROPER``  the origin lies in the convex hull but the cone is a
                     proper subset of R^d (it contains a line yet misses
                     some direction).
    """

    FULL = "full"
    SALIENT = "salient"
    FLAT_PROPER = "flat-proper"


@dataclass(frozen=True)
class Cent1Result:
    """Verdict of the first-gradient centrality test at one point.

    ``dropped_rows`` lists 1-based function indices whose gradient
    vanished at the point; those rows impose no constraint and are removed
    before the cone is classified.
    """

    member: bool
    cone: ConeClass | None
    dropped_rows: tuple[int, ...] = ()

    def __bool__(self) -> bool:
        return self.member


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo estimate of the ball-measure of a region."""

    fraction: float
    std_error: float
    n_mc: int
    seed: int
    approximate_predicate: bool = False

    def to_json_obj(self) -> dict:
        return {
            "fraction": self.fraction,
            "std_error": self.std_error,
            "n_mc": self.n_mc,
            "seed": self.seed,
            "approximate_predicate": self.approximate_predicate,
            "generator": GENERATOR_NAME,
        }


def hull_membership(x: np.ndarray, points: np.ndarray) -> bool:
    """Exact test of x in conv(points) by rational feasibility."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    x = np.asarray(x, dtype=np.float64).reshape(pts.shape[1])
    return convex_combination(pts.tolist(), x.tolist()) is not None


class _HullProjector:
    """Distances to the convex hull of a fixed small point set.

    Enumerates every nonempty subset of the points once, precomputing the
    affine projector onto each subset's span.  A query point's hull
    distance is the minimum, over subsets whose projection has
    nonnegative barycentric coordinates (within HULL_FEASIBILITY_TOL), of
    the distance to the projection.  The minimizing face of the hull is
    affinely independent and feasible, so the minimum is always attained
    and never underestimates.
    """

    def __init__(self, points: np.ndarray):
        P = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if P.shape[0] > _MAX_HULL_POINTS:
            raise ValueError(
                f"hull distance enumerates subsets; at most {_MAX_HULL_POINTS} points supported"
            )
        self.points = P
        r = P.shape[0]
        self._faces: list[tuple[np.ndarray, np.ndarray, np.ndarray | None]] = []
        for size in range(1, r + 1):
            for subset in itertools.combinations(range(r), size):
                base = P[subset[0]]
                if size == 1:
                    self._faces.append((base, np.empty((0, P.shape[1])), None))
                    continue
                B = P[list(subset[1:])] - base  # (size-1, d)
                pinv = np.linalg.pinv(B.T)  # (size-1, d)
                self._faces.append((base, B, pinv))

    def distances(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        best = np.full(X.shape[0], np.inf)
        for base, B, pinv in self._faces:
            if pinv is None:
                dist = np.linalg.norm(X - base, axis=1)
                np.minimum(best, dist, out=best)
                continue
            U = (X - base) @ pinv.T  # (q, size-1) affine coordinates
            ok = (U >= -HULL_FEASIBILITY_TOL).all(axis=1)
            ok &= U.sum(axis=1) <= 1.0 + HULL_FEASIBILITY_TOL
            if not ok.any():
                continue
            proj = base + U[ok] @ B
            dist = np.linalg.norm(X[ok] - proj, axis=1)
            best[ok] = np.minimum(best[ok], dist)
        return best


def hull_distances(X: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Euclidean distances from the rows of X to conv(points).

    Direct face enumeration: exact up to floating-point projection error,
    no iteration, suitable for the small hulls used here (at most
    sixteen points).
    """
    return _HullProjector(points).distances(X)


def check_sequence_realizable(points, sequence: Sequence[int]) -> bool:
    """Whether an order sequence admits a realizing convex function.

    The sequence (1-based point indices, a permutation) is realizable
    exactly when each point after the first lies strictly outside the
    convex hull of its predecessors.  Hull membership is tested exactly.
    """
    P = np.atleast_2d(np.asarray(getattr(points, "points", points), dtype=np.float64))
    seq = list(sequence)
    if sorted(seq) != list(range(1, P.shape[0] + 1)):
        raise ValueError("sequence must be a permutation of 1..n")
    order = [s - 1 for s in seq]
    for k in range(1, len(order)):
        if hull_membership(P[order[k]], P[order[:k]]):
            return False
    return True


@dataclass(frozen=True, eq=False)
class RealizedFunction:
    """Convex function realizing a prescribed order sequence.

    f(x) = sum_k h_k * dist(x, conv(first k points)) with positive
    weights h_k chosen so that evaluating f on the original points ranks
    them exactly in the prescribed order.  A sum of distances to nested
    convex sets is convex, hence quasi-convex.
    """

    points_in_order: np.ndarray  # (n, d)
    weights: tuple[float, ...]
    _projectors: tuple[_HullProjector, ...] = field(repr=False, default=())

    def __call__(self, X: np.ndarray) -> np.ndarray | float:
        X = np.asarray(X, dtype=np.float64)
        single = X.ndim == 1
        X = np.atleast_2d(X)
        total = np.zeros(X.shape[0])
        for h, proj in zip(self.weights, self._projectors):
            total += h * proj.distances(X)
        return float(total[0]) if single else total


def realize_function(points, sequence: Sequence[int]) -> RealizedFunction:
    """Build a convex function whose values sort the points as prescribed.

    Weights follow the distance-sum recursion: h_1 = 1 and, for
    2 <= k <= n-1,

        h_k = 1 + max(sum_{j<k} h_j (d_j(x_k) - d_j(x_{k+1})), 0) / d_k(x_{k+1})

    where d_j is the distance to the hull of the first j ordered points;
    the final weight is 1.  Raises ValueError when the sequence is not
    realizable (some point at distance below REALIZE_MIN_GAP from the
    hull of its predecessors).
    """
    P = np.atleast_2d(np.asarray(getattr(points, "points", points), dtype=np.float64))
    seq = list(sequence)
    if sorted(seq) != list(range(1, P.shape[0] + 1)):
        raise ValueError("sequence must be a permutation of 1..n")
    order = [s - 1 for s in seq]
    Pord = P[order]
    n = Pord.shape[0]
    projectors = tuple(_HullProjector(Pord[: k + 1]) for k in range(n))
    # D[j - 1, t] = distance from point x_{t+1} to conv(x_1..x_j), 1-based x's.
    D = np.zeros((n, n))
    for j in range(1, n):
        D[j - 1, j:] = projectors[j - 1].distances(Pord[j:])
    for k in range(2, n + 1):
        if D[k - 2, k - 1] < REALIZE_MIN_GAP:
            raise ValueError(
                f"sequence not realizable: ordered point {k} lies in the hull "
                f"of its predecessors (gap {D[k - 2, k - 1]:.3g})"
            )
    h = [1.0]
    for k in range(2, n):
        carried = sum(h[j - 1] * (D[j - 1, k - 1] - D[j - 1, k]) for j in range(1, k))
        h.append(1.0 + max(carried, 0.0) / D[k - 1, k])
    if n >= 2:
        h.append(1.0)
    return RealizedFunction(points_in_order=Pord, weights=tuple(h), _projectors=projectors)


def cone_classify(vectors: np.ndarray) -> ConeClass:
    """Exact cone classification by rational linear programs.

    The origin lies in conv(V) iff no halfspace separates it (tested by a
    rational feasibility LP); when it does, the cone is all of R^d iff its
    polar {u : Vu <= 0} is {0}, tested by 2d LPs that look for a polar
    vector with some coordinate pinned to +-1.
    """
    V = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
    if (np.linalg.norm(V, axis=1) < 1e-300).any():
        raise ValueError("zero vector has no direction; remove it before classifying")
    d = V.shape[1]
    origin = [0.0] * d
    if convex_combination(V.tolist(), origin) is None:
        return ConeClass.SALIENT
    rows = V.tolist()
    zeros = [0.0] * len(rows)
    for j in range(d):
        for sign in (1.0, -1.0):
            pin = [0.0] * d
            pin[j] = sign
            witness = feasible_system(
                A_eq=[pin], b_eq=[1.0], A_ub=rows, b_ub=zeros, n_free=d
            )
            if witness is not None:
                return ConeClass.FLAT_PROPER
    return ConeClass.FULL


def _sampled_directions(d: int, n_dirs: int) -> np.ndarray:
    if d == 1:
        return np.array([[1.0], [-1.0]])
    if d == 2:
        theta = np.linspace(0.0, 2.0 * math.pi, n_dirs, endpoint=False)
        return np.column_stack([np.cos(theta), np.sin(theta)])
    if d == 3:
        # Fibonacci sphere: near-uniform covering with ~sqrt(4 pi / n) spacing.
        k = np.arange(n_dirs) + 0.5
        phi = math.pi * (1.0 + math.sqrt(5.0)) * k
        z = 1.0 - 2.0 * k / n_dirs
        r = np.sqrt(np.maximum(1.0 - z * z, 0.0))
        return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])
    raise ValueError("direction sampling covers d <= 3; use cone_classify for higher d")


def cone_classify_sampled(
    vectors: np.ndarray, n_dirs: int = 2048, tol: float = 1e-9
) -> ConeClass:
    """Cone classification by scanning a dense set of unit directions.

    Independent of the LP route: the cone is full when every scanned
    direction has positive inner product with some vector, salient when
    some direction sees all vectors strictly below -tol, flat-proper
    otherwise.  Resolution is limited by the direction spacing, so inputs
    should be bounded away from the degenerate boundaries.
    """
    V = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
    scale = np.linalg.norm(V, axis=1)
    if (scale < 1e-300).any():
        raise ValueError("zero vector has no direction; remove it before classifying")
    U = _sampled_directions(V.shape[1], n_dirs)
    support = (U @ V.T).max(axis=1)  # max_i <u, v_i> per direction
    cut = tol * scale.max()
    if (support < -cut).any():
        return ConeClass.SALIENT
    if (support > cut).all():
        return ConeClass.FULL
    return ConeClass.FLAT_PROPER


def gradients(spec: RegularPairSpec, x: np.ndarray) -> np.ndarray:
    """Gradient of every family member at a single point; (m, d)."""
    x = np.asarray(x, dtype=np.float64).reshape(spec.d)
    if spec.family == "linear":
        return spec.directions.copy()
    diff = x[None, :] - spec.centers  # (m, d)
    return 2.0 * np.einsum("mde,me->md", spec.forms, diff)


def cent1_membership(spec: RegularPairSpec, x: np.ndarray) -> Cent1Result:
    """First-gradient centrality of x: do the gradients span all of R^d?

    Zero gradients (a function minimized exactly at x) are dropped before
    classification; the point is central precisely when the remaining
    gradient cone is full.
    """
    grads = gradients(spec, x)
    norms = np.linalg.norm(grads, axis=1)
    dropped = tuple(int(i) + 1 for i in np.nonzero(norms < ZERO_GRADIENT_TOL)[0])
    keep = grads[norms >= ZERO_GRADIENT_TOL]
    if keep.shape[0] == 0:
        return Cent1Result(member=False, cone=None, dropped_rows=dropped)
    cone = cone_classify(keep)
    return Cent1Result(member=cone is ConeClass.FULL, cone=cone, dropped_rows=dropped)


def _pointwise_values(spec: RegularPairSpec, X: np.ndarray) -> np.ndarray:
    """The (m, len(X)) values of a quadratic family at the rows of X, each
    from its own point by the same sequence of elementwise operations, so
    a point's values do not depend on the batch it comes in (the einsum of
    `RegularPairSpec.evaluate` may round with the shape)."""
    if X.shape[1] != spec.d:
        raise ValueError(f"points must have {spec.d} coordinates")
    diff = X[None, :, :] - spec.centers[:, None, :]  # (m, q, d)
    out = np.zeros(diff.shape[:2])
    for r in range(spec.d):
        for c in range(spec.d):
            out += diff[:, :, r] * spec.forms[:, r, c, None] * diff[:, :, c]
    return out


def cent0_predicate(spec: RegularPairSpec, n_probe: int = 4096) -> Callable:
    """Membership predicate for the order-minimum central region.

    A point belongs when no other point of the ball is strictly below it
    under every family member simultaneously.

    * Linear families admit an exact point-independent answer: a common
      strict descent direction w with <v_i, w> < 0 for all i exists iff
      the region is empty, and when no such w exists every point
      qualifies.  The returned predicate is constant and exact
      (``pred.approximate`` is False, ``pred.constant`` holds the shared
      verdict).
    * Quadratic families fall back to a dense probe cloud: a point is
      declared central when no probe beats it on every coordinate.  This
      one-sided approximation can only overestimate the region
      (``pred.approximate`` is True).  A point's class does not depend on
      the batch it is passed in.
    """
    if spec.family == "linear":
        V = spec.directions
        witness = feasible_system(
            A_ub=(-V).tolist(), b_ub=[-1.0] * spec.m, n_free=spec.d
        )
        # witness w has V w >= 1, i.e. -w strictly decreases every f_i.
        verdict = witness is None

        def pred(X: np.ndarray):
            X = np.asarray(X, dtype=np.float64)
            if X.ndim == 1:
                return verdict
            return np.full(X.shape[0], verdict, dtype=bool)

        pred.approximate = False
        pred.constant = verdict
        return pred

    rng = np.random.Generator(np.random.PCG64(spec.seed ^ 0x9E3779B9))
    probes = _ball_points(rng, n_probe, spec.d)
    F = _pointwise_values(spec, probes)  # (m, n_probe)
    front = F[:, undominated_columns(F)]  # (m, n_front)
    width = max(front.shape[1], BLOCK)

    def pred(X: np.ndarray):
        X = np.asarray(X, dtype=np.float64)
        single = X.ndim == 1
        fx = _pointwise_values(spec, np.atleast_2d(X))  # (m, q)
        member = np.zeros(fx.shape[1], dtype=bool)
        # `width` points at a time against BLOCK probes at a time, dropping
        # the beaten points after each probe block: the scratch stays within
        # BLOCK x width booleans
        for start in range(0, fx.shape[1], width):
            alive = np.arange(start, min(start + width, fx.shape[1]))
            for p in range(0, front.shape[1], BLOCK):
                if alive.size == 0:
                    break
                probes, x = front[:, p : p + BLOCK], fx[:, alive]
                beaten = probes[0][:, None] < x[0]
                for f, xi in zip(probes[1:], x[1:]):
                    beaten &= f[:, None] < xi
                alive = alive[~beaten.any(axis=0)]
            member[alive] = True
        return bool(member[0]) if single else member

    pred.approximate = True
    pred.constant = None
    return pred


def general_direction_check(vectors: np.ndarray, d: int | None = None) -> bool:
    """Every subset of at most d vectors is linearly independent (exact).

    Checks all subsets of size min(d, count) by rational rank; smaller
    subsets are covered because any dependent subset extends to a
    dependent one of the checked size.
    """
    V = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
    if d is None:
        d = V.shape[1]
    size = min(d, V.shape[0])
    if size == 0:
        return True
    rows = V.tolist()
    for subset in itertools.combinations(range(len(rows)), size):
        if rational_rank([rows[i] for i in subset]) < size:
            return False
    return True


def mc_measure(
    spec: RegularPairSpec,
    predicate: Callable,
    n_mc: int = 100_000,
    seed: int = 0,
) -> McEstimate:
    """Fraction of the unit ball satisfying a membership predicate, which
    maps a (q, d) array of points to q booleans.

    Samples uniform ball points MC_BATCH at a time and reports the hit
    fraction with its binomial standard error sqrt(p(1-p)/n).
    """
    if n_mc < 1:
        raise ValueError("need at least one Monte Carlo sample")
    rng = np.random.Generator(np.random.PCG64(seed))
    hits = 0
    for done in range(0, n_mc, MC_BATCH):
        pts = _ball_points(rng, min(MC_BATCH, n_mc - done), spec.d)
        hits += int(np.count_nonzero(predicate(pts)))
    p = hits / n_mc
    se = math.sqrt(p * (1.0 - p) / n_mc)
    return McEstimate(
        fraction=p,
        std_error=se,
        n_mc=n_mc,
        seed=seed,
        approximate_predicate=bool(getattr(predicate, "approximate", False)),
    )


def simplex_with_barycenter(n: int, radius: float = 0.8) -> PointCloud:
    """n-point configuration: a regular (n-2)-simplex plus its barycenter.

    The n-1 simplex vertices are the centered standard basis vectors of
    R^{n-1} expressed in an orthonormal basis of the sum-zero hyperplane,
    scaled to the given radius; the final point is their barycenter (the
    origin).  Lives in R^{n-2}, the smallest dimension admitting this
    configuration, which makes it the canonical witness separating
    adjacent intrinsic dimensions.
    """
    if n < 3:
        raise ValueError("need n >= 3 points (two vertices plus barycenter)")
    if not 0.0 < radius <= 1.0:
        raise ValueError("radius must be in (0, 1]")
    k = n - 1  # number of simplex vertices
    centered = np.eye(k) - 1.0 / k  # rows: e_j - barycenter, in sum-zero hyperplane
    basis = np.zeros((k, k - 1))
    for j in range(k - 1):
        basis[j, j] = 1.0
        basis[j + 1, j] = -1.0
    q, _ = np.linalg.qr(basis)  # orthonormal basis of the hyperplane, (k, k-1)
    coords = centered @ q  # (k, k-1) vertices in R^{n-2}
    coords *= radius / np.linalg.norm(coords, axis=1).max()
    pts = np.vstack([coords, np.zeros((1, k - 1))])
    return PointCloud(pts)
