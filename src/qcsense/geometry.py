"""Synthetic families: generate known configurations for the rank-based
pipeline.

Random regular function families (linear and strictly convex quadratic)
over the unit ball, sampled into measurement matrices.  `cli generate`,
the experiment scripts and `perfbench` draw their inputs here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .ingest import DataMatrix, sort_rows

# Random quadratic forms are rotations with eigenvalues drawn from this
# band.  Bounding the condition number keeps sublevel sets round-ish;
# nearly singular forms produce slab-like sublevel sets whose empirical
# complexes carry spurious high-dimensional cycles at moderate n.
QUADRATIC_EIGENVALUE_RANGE = (0.5, 2.0)
# Quadratic centers are drawn uniformly from a ball of this radius, so
# every minimum sits inside the sampling domain.
CENTER_RADIUS = 0.8
# `sample_pair` gives up after this many redraws of tied points.
MAX_RESAMPLE = 100


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


def _check_sizes(d: int, m: int) -> None:
    """Raise before any draw: the redraw loops never end in dimension 0."""
    if m < 1 or d < 1:
        raise ValueError("need m >= 1 functions in dimension d >= 1")


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
        _check_sizes(self.d, self.m)
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
        _check_sizes(d, m)
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
        _check_sizes(d, m)
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
    for _ in range(MAX_RESAMPLE):
        vals = spec.evaluate(pts)
        order, tied = sort_rows(vals)
        cols = np.unique(order[:, 1:][tied])  # the later column of each tied pair
        if not cols.size:
            break
        pts[cols] = _ball_points(rng, len(cols), spec.d)
        notes.append(f"resampled {len(cols)} point(s) to break exact value ties")
    else:
        raise RuntimeError("could not draw a tie-free sample; family may be degenerate")
    # the loop leaves no ties to check
    return PointCloud(pts), DataMatrix(vals, warnings=tuple(notes), check_ties=False)
