"""Synthetic geometry: generate known configurations and predict their behaviour.

This module builds controlled inputs for the rank-based pipeline and
computes, from the generating geometry itself, what the pipeline should
find.  It covers

* random regular function families (linear and strictly convex quadratic)
  over the unit ball, sampled into measurement matrices,
* exact convex-hull membership and batched hull distances,
* realization of a prescribed order sequence by a single convex function
  built from distances to nested hulls,
* classification of gradient cones (full / salient / flat-proper) both
  exactly via rational linear programs and by direction sampling,
* membership oracles for the first-gradient central region and a
  predicate for the order-minimum central region, and
* Monte Carlo estimation of the measure of a region of the ball.

Exact routines reduce to the rational feasibility solvers in
``qcsense.exactlp``; numeric routines are plain numpy with documented
tolerances.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .central import BLOCK, undominated_columns
from .exactlp import convex_combination, feasible_system, rational_rank
from .ingest import DataMatrix

GENERATOR_NAME = "numpy.random.PCG64"

# Random quadratic forms are rotations with eigenvalues drawn from this
# band.  Bounding the condition number keeps sublevel sets round-ish;
# nearly singular forms produce slab-like sublevel sets whose empirical
# complexes carry spurious high-dimensional cycles at moderate n.
QUADRATIC_EIGENVALUE_RANGE = (0.5, 2.0)
# Quadratic centers are drawn uniformly from a ball of this radius, so
# every minimum sits inside the sampling domain.
CENTER_RADIUS = 0.8

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


@dataclass(frozen=True, eq=False)
class PointCloud:
    """Finite point configuration inside the closed unit ball."""

    points: np.ndarray  # (n, d), float64, read-only

    def __post_init__(self):
        p = np.asarray(self.points, dtype=np.float64)
        if p.ndim != 2 or p.shape[0] < 1 or p.shape[1] < 1:
            raise ValueError(f"expected (n, d) points, got shape {p.shape}")
        if not np.isfinite(p).all():
            raise ValueError("points must be finite")
        r = np.linalg.norm(p, axis=1).max()
        if r > 1.0 + 1e-9:
            raise ValueError(f"points must lie in the unit ball, max norm {r:.6g}")
        p = p.copy()
        p.setflags(write=False)
        object.__setattr__(self, "points", p)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True, eq=False)
class RegularPairSpec:
    """A generated family of m scalar functions on the unit ball in R^d.

    ``family`` selects the functional form:

    * ``"linear"``     f_i(x) = <directions[i], x>; regular as long as no
      direction is zero.
    * ``"quadratic"``  f_i(x) = (x - centers[i])^T forms[i] (x - centers[i]);
      forms are symmetric positive definite, so each f_i is strictly
      convex with a unique minimum at its center.

    Instances are deterministic functions of their stored arrays; ``seed``
    records how random instances were drawn.
    """

    family: str
    d: int
    m: int
    seed: int
    directions: np.ndarray | None = None  # (m, d) for linear
    centers: np.ndarray | None = None  # (m, d) for quadratic
    forms: np.ndarray | None = None  # (m, d, d) SPD for quadratic

    def __post_init__(self):
        if self.family not in ("linear", "quadratic"):
            raise ValueError(f"unknown family {self.family!r}")
        if self.m < 1 or self.d < 1:
            raise ValueError("need m >= 1 functions in dimension d >= 1")
        if self.family == "linear":
            if self.directions is None or self.centers is not None or self.forms is not None:
                raise ValueError("linear family takes directions only")
            dirs = np.asarray(self.directions, dtype=np.float64)
            if dirs.shape != (self.m, self.d):
                raise ValueError(f"directions must be ({self.m}, {self.d})")
            if (np.linalg.norm(dirs, axis=1) < 1e-12).any():
                raise ValueError("zero direction makes a linear function constant")
            dirs = dirs.copy()
            dirs.setflags(write=False)
            object.__setattr__(self, "directions", dirs)
        else:
            if self.centers is None or self.forms is None or self.directions is not None:
                raise ValueError("quadratic family takes centers and forms")
            cen = np.asarray(self.centers, dtype=np.float64)
            frm = np.asarray(self.forms, dtype=np.float64)
            if cen.shape != (self.m, self.d):
                raise ValueError(f"centers must be ({self.m}, {self.d})")
            if frm.shape != (self.m, self.d, self.d):
                raise ValueError(f"forms must be ({self.m}, {self.d}, {self.d})")
            if not np.allclose(frm, np.swapaxes(frm, 1, 2)):
                raise ValueError("forms must be symmetric")
            eig = np.linalg.eigvalsh(frm)
            if eig.min() <= 0:
                raise ValueError("forms must be positive definite")
            cen = cen.copy()
            frm = frm.copy()
            cen.setflags(write=False)
            frm.setflags(write=False)
            object.__setattr__(self, "centers", cen)
            object.__setattr__(self, "forms", frm)

    @classmethod
    def random_linear(cls, d: int, m: int, seed: int) -> "RegularPairSpec":
        """m unit directions drawn from the sphere in R^d."""
        rng = np.random.Generator(np.random.PCG64(seed))
        dirs = rng.standard_normal((m, d))
        norms = np.linalg.norm(dirs, axis=1)
        while (norms < 1e-12).any():  # pragma: no cover - probability zero
            bad = norms < 1e-12
            dirs[bad] = rng.standard_normal((int(bad.sum()), d))
            norms = np.linalg.norm(dirs, axis=1)
        return cls(family="linear", d=d, m=m, seed=seed, directions=dirs / norms[:, None])

    @classmethod
    def random_quadratic(cls, d: int, m: int, seed: int) -> "RegularPairSpec":
        """m strictly convex quadratics: random orientations, eigenvalues
        in QUADRATIC_EIGENVALUE_RANGE, centers uniform in the 0.8-ball."""
        rng = np.random.Generator(np.random.PCG64(seed))
        lo, hi = QUADRATIC_EIGENVALUE_RANGE
        forms = np.empty((m, d, d))
        for i in range(m):
            q, r = np.linalg.qr(rng.standard_normal((d, d)))
            q *= np.sign(np.diag(r))  # Haar-distributed rotation
            forms[i] = (q * rng.uniform(lo, hi, size=d)) @ q.T
        centers = _ball_points(rng, m, d) * CENTER_RADIUS
        return cls(family="quadratic", d=d, m=m, seed=seed, centers=centers, forms=forms)

    def evaluate(self, X: np.ndarray) -> np.ndarray:
        """Evaluate all m functions at the rows of X; returns (m, len(X))."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.shape[1] != self.d:
            raise ValueError(f"points must have {self.d} coordinates")
        if self.family == "linear":
            return self.directions @ X.T
        diff = X[None, :, :] - self.centers[:, None, :]  # (m, n, d)
        return np.einsum("mnd,mde,mne->mn", diff, self.forms, diff)

    def gradients(self, x: np.ndarray) -> np.ndarray:
        """Gradient of every family member at a single point; (m, d)."""
        x = np.asarray(x, dtype=np.float64).reshape(self.d)
        if self.family == "linear":
            return self.directions.copy()
        diff = x[None, :] - self.centers  # (m, d)
        return 2.0 * np.einsum("mde,me->md", self.forms, diff)

    def to_json_obj(self) -> dict:
        out = {"family": self.family, "d": self.d, "m": self.m, "seed": self.seed}
        if self.family == "linear":
            out["directions"] = self.directions.tolist()
        else:
            out["centers"] = self.centers.tolist()
            out["forms"] = self.forms.tolist()
        return out

    @classmethod
    def from_json_obj(cls, obj: Mapping) -> "RegularPairSpec":
        kw = dict(family=obj["family"], d=int(obj["d"]), m=int(obj["m"]), seed=int(obj["seed"]))
        if obj["family"] == "linear":
            kw["directions"] = np.asarray(obj["directions"], dtype=np.float64)
        else:
            kw["centers"] = np.asarray(obj["centers"], dtype=np.float64)
            kw["forms"] = np.asarray(obj["forms"], dtype=np.float64)
        return cls(**kw)


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


def _ball_points(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """n points uniform in the unit ball of R^d (polar method)."""
    g = rng.standard_normal((n, d))
    norms = np.linalg.norm(g, axis=1)
    while (norms < 1e-300).any():  # pragma: no cover - probability zero
        bad = norms < 1e-300
        g[bad] = rng.standard_normal((int(bad.sum()), d))
        norms = np.linalg.norm(g, axis=1)
    radii = rng.random(n) ** (1.0 / d)
    return g * (radii / norms)[:, None]


def sample_pair(
    spec: RegularPairSpec,
    n: int,
    seed: int | None = None,
    max_resample: int = 100,
) -> tuple[PointCloud, DataMatrix]:
    """Sample n ball points and evaluate the family on them.

    Points are uniform in the unit ball.  If a row of the value matrix
    contains an exact floating-point tie the offending points are redrawn
    (ties have probability zero in exact arithmetic but can still occur in
    floats); each redraw is recorded in the matrix warnings.
    """
    if n < 1:
        raise ValueError("need at least one sample point")
    use_seed = spec.seed if seed is None else seed
    rng = np.random.Generator(np.random.PCG64(use_seed))
    pts = _ball_points(rng, n, spec.d)
    notes: list[str] = []
    for attempt in range(max_resample):
        vals = spec.evaluate(pts)
        tied_cols: set[int] = set()
        for i in range(vals.shape[0]):
            order = np.argsort(vals[i], kind="stable")
            row = vals[i, order]
            dup = np.nonzero(row[1:] == row[:-1])[0]
            for j in dup:
                tied_cols.add(int(order[j + 1]))
        if not tied_cols:
            break
        cols = sorted(tied_cols)
        pts[cols] = _ball_points(rng, len(cols), spec.d)
        notes.append(f"resampled {len(cols)} point(s) to break exact value ties")
    else:
        raise RuntimeError("could not draw a tie-free sample; family may be degenerate")
    cloud = PointCloud(pts)
    matrix = DataMatrix(vals, warnings=tuple(notes))
    return cloud, matrix


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


def cent1_membership(spec: RegularPairSpec, x: np.ndarray) -> Cent1Result:
    """First-gradient centrality of x: do the gradients span all of R^d?

    Zero gradients (a function minimized exactly at x) are dropped before
    classification; the point is central precisely when the remaining
    gradient cone is full.
    """
    grads = spec.gradients(x)
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
      qualifies.  The returned predicate is constant, exact and
      vectorized (``pred.approximate`` is False, ``pred.constant`` holds
      the shared verdict).
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
        pred.vectorized = True
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
    pred.vectorized = True
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
    batch: int = 8192,
) -> McEstimate:
    """Fraction of the unit ball satisfying a membership predicate.

    Samples uniform ball points in batches and reports the hit fraction
    with its binomial standard error sqrt(p(1-p)/n).
    """
    if n_mc < 1:
        raise ValueError("need at least one Monte Carlo sample")
    rng = np.random.Generator(np.random.PCG64(seed))
    vectorized = bool(getattr(predicate, "vectorized", False))
    hits = 0
    done = 0
    while done < n_mc:
        take = min(batch, n_mc - done)
        pts = _ball_points(rng, take, spec.d)
        if vectorized:
            hits += int(np.count_nonzero(predicate(pts)))
        else:
            hits += sum(bool(predicate(p)) for p in pts)
        done += take
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
