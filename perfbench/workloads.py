"""The four benchmark workloads: seeded inputs, the CLI jobs run on them,
and the oracle checks made on them outside the timed phase.

Every workload drives `qcsense.cli.main(argv)` on CSV files written into
a work directory.  Each workload senses one fixed quadratic family
(`geometry.RegularPairSpec.random_quadratic` with FAMILY_SEED); the
benchmark seed draws the sample points (`sample_pair`) and the subsample
seeds, so a seed fixes the inputs.  Keeping the family fixed keeps the
work per op comparable across seeds.  A workload builds a pool of POOL
jobs that the runner cycles through; repeating a job must reproduce its
outputs exactly.  The memory pass runs one op alone: the first pooled
job, or for subsample a one-replicate run of it, since tracemalloc slows
the reduction about tenfold.

Why each workload exists, and which layer metric should move which
end-to-end metric on it, is recorded in README.md.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from qcsense.dowker import ray_filtration
from qcsense.estimator import compute_Lk
from qcsense.geometry import RegularPairSpec, sample_pair
from qcsense.ingest import DataMatrix, order_table
from qcsense.interleave import interleaving_distance
from qcsense.persistence import max_lengths, persistence_intervals

POOL = 4  # distinct jobs per workload; the runner cycles through them
FAMILY_SEED = 7
DUP = 3
ANCHORS_CHECKED = 4  # anchors per oracle spot-check


@dataclass
class Job:
    """One closed-loop request: CLI invocations run back to back.

    `ops` is how many ops the job completes: one matrix (analyze), one
    matrix pair (interleave) or `ops` replicates (subsample, timed one by
    one through the progress callback).  `width` is the number of pool
    threads running replicates at once.
    """

    key: str
    calls: list[list[str]]
    ops: int
    replicates_csv: Path | None = None
    width: int = 1


@dataclass
class Inputs:
    jobs: list[Job]
    peak: Job  # the one-op job of the memory pass
    matrices: list[DataMatrix]
    partners: list[DataMatrix] = field(default_factory=list)
    size: int = 0  # subsample size (columns or rows)


def _sizes(name: str, tiny: bool) -> dict:
    full = {
        "analyze-n1200": dict(d=3, m=10, n=1200),
        "points-n200": dict(d=3, m=10, n=350, size=200, reps=10),
        "functions-m10": dict(d=2, m=60, n=150, size=10, reps=20),
        "interleave-m4": dict(d=2, m=4, n=2000, n_b=1000),
    }
    small = {
        "analyze-n1200": dict(d=3, m=10, n=60),
        "points-n200": dict(d=3, m=10, n=50, size=30, reps=3),
        "functions-m10": dict(d=2, m=12, n=40, size=5, reps=4),
        "interleave-m4": dict(d=2, m=4, n=60, n_b=30),
    }
    return (small if tiny else full)[name]


def _seeds(seed: int, name: str, count: int) -> list[int]:
    tag = int.from_bytes(hashlib.sha256(name.encode()).digest()[:4], "big")
    return [int(s) for s in np.random.SeedSequence([seed, tag]).generate_state(count)]


def _write(matrix: DataMatrix, path: Path) -> str:
    path.write_text(matrix.to_csv())
    return str(path)


def pool_threads() -> int:
    """The pool width `subsample` uses by default on this machine."""
    return min(2, os.cpu_count() or 1)


def build(name: str, seed: int, workdir: Path, tiny: bool = False) -> Inputs:
    """Generate the workload's inputs into `workdir` and list its jobs.

    Every output file (reports, replicate CSVs) is named inside workdir,
    so no job writes into the current directory.
    """
    z = _sizes(name, tiny)
    s = _seeds(seed, name, 2 * POOL + 1)
    spec = RegularPairSpec.random_quadratic(d=z["d"], m=z["m"], seed=FAMILY_SEED)
    jobs: list[Job] = []
    if name == "analyze-n1200":
        mats = [sample_pair(spec, n=z["n"], seed=s[1 + k])[1] for k in range(POOL)]
        for k, M in enumerate(mats):
            src = _write(M, workdir / f"a{k}.csv")
            jobs.append(Job(f"job{k}", [
                ["analyze", "--input", src, "--dup", str(DUP),
                 "--output", str(workdir / f"a{k}.analyze.json")],
                ["central", "--input", src, "--output", str(workdir / f"a{k}.central.json")],
            ], 1))
        return Inputs(jobs, jobs[0], mats)
    if name in ("points-n200", "functions-m10"):
        M = sample_pair(spec, n=z["n"], seed=s[1])[1]
        src = _write(M, workdir / "m.csv")
        mode, threads = (("points", 1) if name == "points-n200" else ("functions", pool_threads()))

        def subsample(key: str, reps: int, job_seed: int) -> Job:
            csv = workdir / f"{key}.replicates.csv"
            return Job(key, [[
                "subsample", "--input", src, "--mode", mode, "--size", str(z["size"]),
                "--reps", str(reps), "--dup", str(DUP), "--seed", str(job_seed % 2**31),
                "--threads", str(threads), "--replicates-csv", str(csv),
                "--output", str(workdir / f"{key}.json"),
            ]], reps, csv, threads)

        jobs = [subsample(f"job{k}", z["reps"], s[2 + k]) for k in range(POOL)]
        return Inputs(jobs, subsample("peak", 1, s[2]), [M], size=z["size"])
    if name == "interleave-m4":
        mats, partners = [], []
        for k in range(POOL):
            A = sample_pair(spec, n=z["n"], seed=s[1 + 2 * k])[1]
            B = sample_pair(spec, n=z["n_b"], seed=s[2 + 2 * k])[1]
            mats.append(A)
            partners.append(B)
            jobs.append(Job(f"job{k}", [[
                "interleave", "--a", _write(A, workdir / f"a{k}.csv"),
                "--b", _write(B, workdir / f"b{k}.csv"),
                "--output", str(workdir / f"job{k}.json"),
            ]], 1))
        return Inputs(jobs, jobs[0], mats, partners)
    raise ValueError(f"unknown workload {name!r}")


def _check_profile(M: DataMatrix, rng: np.random.Generator, expect_L=None) -> list[str]:
    """Spot-check compute_Lk(per_column=True) against the object path
    (ray_filtration -> persistence_intervals -> max_lengths) on sampled
    anchors, and L_k against the maximum over the columns.  Returns one
    entry per check: '' when it passed, else what failed."""
    prof = compute_Lk(M, d_up=DUP, per_column=True)
    out = []
    col_max = tuple(max(prof.per_column[a][k] for a in prof.per_column) for k in range(DUP + 1))
    out.append("" if col_max == prof.L else f"L {prof.L} != max over columns {col_max}")
    if expect_L is not None:
        got = tuple(expect_L)
        out.append("" if got == prof.L else f"CLI L {got} != library L {prof.L}")
    T = order_table(M)
    skeleton = min(DUP + 2, M.m) - 1
    for a in rng.choice(M.n, size=min(ANCHORS_CHECKED, M.n), replace=False):
        a = int(a) + 1
        oracle = max_lengths(persistence_intervals(ray_filtration(T, a, skeleton), DUP))
        fast = prof.per_column[a]
        out.append("" if oracle.lengths == fast.lengths else
                   f"anchor {a}: object path {oracle.lengths} != per_column {fast.lengths}")
    return out


def oracle_checks(name: str, seed: int, inputs: Inputs, first_results: dict) -> list[str]:
    """Checks independent of the stored references, valid for any seed.

    `first_results` maps a job key to the `result` objects of its first
    run.  Returns one entry per check ('' when it passed).
    """
    rng = np.random.Generator(np.random.PCG64(_seeds(seed, name + "/oracle", 1)[0]))
    if name == "analyze-n1200":
        done = first_results.get("job0")
        return _check_profile(inputs.matrices[0], rng, done[0]["L"] if done else None)
    if name == "points-n200":
        M = inputs.matrices[0]
        cols = np.sort(rng.choice(M.n, size=inputs.size, replace=False))
        return _check_profile(DataMatrix(M.values[:, cols]), rng)
    if name == "functions-m10":
        M = inputs.matrices[0]
        rows = np.sort(rng.choice(M.m, size=inputs.size, replace=False))
        return _check_profile(DataMatrix(M.values[rows]), rng)
    if name == "interleave-m4":
        done = first_results.get("job0")
        if done is None:
            return ["job0 produced no result"]
        swapped = interleaving_distance(inputs.partners[0], inputs.matrices[0])
        num = done[0]["numerator"]
        return ["" if swapped.numerator == num else
                f"interleave(B, A) numerator {swapped.numerator} != interleave(A, B) {num}"]
    raise ValueError(f"unknown workload {name!r}")
