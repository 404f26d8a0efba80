"""qcsense benchmark: drive the CLI in-process on seeded synthetic inputs.

    python3 perfbench/run.py --workload functions-m10 --seed 0 --seconds 25 --trace 0

One closed-loop client runs the workload's jobs back to back, each a call
of `qcsense.cli.main(argv)` with stdout captured, on CSV files in a
temporary directory inside the checkout.  The last line of stdout is one
JSON object with `correct`, `attempted`, `failed` and `metrics`; the line
before it carries the machine description and sample counts.

--trace 0 measures the end-to-end metrics with tracing off, cycling the
workload's job pool for --seconds in two halves around the memory pass.
--trace 1 runs the pool once untraced and once traced, so that its counts
repeat exactly for a seed, and reports the per-layer metrics from the
traced pass (see tracer.py).  Both modes check every output (see
README.md).
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import traceback
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("analyze-n1200", "points-n200", "functions-m10", "interleave-m4")
DEFAULT_SEED = 0
SETUPS = 5  # input builds before the first job; a trace-0 run adds one after each timed job
REFERENCE = HERE / "reference_seed0.json"
LIMITS = (
    "process-local timers only (time.perf_counter, tracemalloc); no machine-wide "
    "profiler, no cache dropping; shared sandbox, other tenants may load the cores"
)

sys.path.insert(0, str(SRC))
try:
    import numpy as np
    import qcsense
    from qcsense import cli
except ImportError as exc:
    sys.exit(f"cannot import qcsense from {SRC}: {exc}")
if not Path(qcsense.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"qcsense was imported from {qcsense.__file__}, not from {SRC}")

import workloads  # noqa: E402  (needs qcsense on sys.path)
from tracer import Tracer  # noqa: E402


@dataclass
class JobRun:
    key: str
    wall: float
    op_times: list[float]
    ops: int
    error: str  # '' when every call exited 0
    results: list  # the `result` object of each call's report
    csv_sha256: str | None


class OpClock:
    """Chains a timestamping progress callback into `cli.subsample_points`
    and `cli.subsample_functions`; stamps[0] is the call's start and each
    further stamp a replicate completion."""

    def __init__(self):
        self.stamps: list[float] = []
        self._saved = []

    def _wrap(self, fn):
        def wrapper(*args, progress=None, **kwargs):
            def stamped(done, total):
                self.stamps.append(perf_counter())
                if progress is not None:
                    progress(done, total)

            self.stamps.append(perf_counter())
            return fn(*args, progress=stamped, **kwargs)

        return wrapper

    def install(self) -> None:
        for attr in ("subsample_points", "subsample_functions"):
            fn = getattr(cli, attr)
            self._saved.append((attr, fn))
            setattr(cli, attr, self._wrap(fn))

    def uninstall(self) -> None:
        for attr, fn in self._saved:
            setattr(cli, attr, fn)
        self._saved.clear()


def _result(stdout: str):
    result = json.loads(stdout)["result"]
    if "replicates_csv" in result:  # the path varies with the work directory
        result["replicates_csv"] = Path(result["replicates_csv"]).name
    return result


def run_job(job: workloads.Job, clock: OpClock, tracer: Tracer | None = None) -> JobRun:
    clock.stamps.clear()
    outs = []
    t0 = perf_counter()
    for argv in job.calls:
        buf = io.StringIO()
        with redirect_stdout(buf), redirect_stderr(io.StringIO()):
            try:
                code = cli.main(argv) if tracer is None else tracer.span("cli.main", cli.main, argv)
            except (Exception, SystemExit) as exc:  # a raising op is a failed op
                code = f"{type(exc).__name__}: {exc}"
        outs.append((code, buf.getvalue()))
    wall = perf_counter() - t0
    stamps = list(clock.stamps)
    # With w pool threads the replicate completing at stamps[i] started when
    # the one completing w stamps earlier freed its thread.
    w = job.width
    op_times = [t - stamps[max(i - w, 0)] for i, t in enumerate(stamps) if i] \
        if job.replicates_csv else [wall]
    error = "; ".join(f"{argv[0]} exited {code}" for argv, (code, _) in zip(job.calls, outs) if code != 0)
    results = []
    if not error:
        try:
            results = [_result(text) for _, text in outs]
        except (ValueError, KeyError) as exc:
            error = f"unreadable report: {exc}"
    sha = None
    if job.replicates_csv is not None and job.replicates_csv.exists():
        sha = hashlib.sha256(job.replicates_csv.read_bytes()).hexdigest()
    if job.replicates_csv is not None and len(op_times) != job.ops and not error:
        error = f"{len(op_times)} replicate completions, expected {job.ops}"
    return JobRun(job.key, wall, op_times, job.ops, error, results, sha)


def check_runs(runs: list[JobRun], reference: dict | None):
    """Failed ops and messages: a job fails when a call exits non-zero,
    when it differs from the first run of the same job, or when it differs
    from the stored reference."""
    first: dict[str, JobRun] = {}
    failed, notes = 0, []
    for r in runs:
        err = r.error
        if not err:
            base = first.setdefault(r.key, r)
            ref = (reference or {}).get(r.key)
            if (r.results, r.csv_sha256) != (base.results, base.csv_sha256):
                err = "output differs from the job's first run"
            elif ref is not None and (r.results, r.csv_sha256) != (
                ref["results"], ref["replicates_csv_sha256"]
            ):
                err = "output differs from the stored reference"
        if err:
            failed += r.ops
            notes.append(f"{r.key}: {err}")
    return failed, notes, {k: r.results for k, r in first.items()}


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least 10
    samples beyond it.  Under 100 samples that percentile would fall below
    the 90th, down to the median at 20 samples, so the interpolated 90th
    percentile stands in: a run whose op count crosses a threshold then
    does not jump from one percentile to another."""
    s = sorted(samples)
    if len(s) >= 100:
        return s[-11], 100.0 * (len(s) - 10) / len(s)
    if len(s) == 1:
        return s[0], 100.0
    return statistics.quantiles(s, n=10, method="inclusive")[-1], 90.0


def build(name: str, seed: int, workdir: Path, tiny: bool, times: list[float]):
    """Build the inputs into a fresh directory, appending the build time."""
    d = workdir / f"setup{len(times)}"
    d.mkdir()
    t0 = perf_counter()
    inputs = workloads.build(name, seed, d, tiny)
    times.append(perf_counter() - t0)
    return inputs, d


def machine() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "qcsense": qcsense.__version__,
        "limits": LIMITS,
    }


def measure(name: str, seed: int, seconds: float, trace: bool, tiny: bool, workdir: Path):
    setup_times: list[float] = []
    for _ in range(SETUPS):
        inputs, _ = build(name, seed, workdir, tiny, setup_times)
    jobs = inputs.jobs
    clock = OpClock()
    clock.install()
    runs: list[JobRun] = []
    detail: dict = {"workload": name, "seed": seed, **machine()}
    try:
        if trace:
            t0 = perf_counter()
            runs += [run_job(j, clock) for j in jobs]
            untraced = perf_counter() - t0
            tracer = Tracer()
            tracer.install()
            try:
                t0 = perf_counter()
                runs += [run_job(j, clock, tracer) for j in jobs]
                traced = perf_counter() - t0
            finally:
                tracer.uninstall()
            metrics = tracer.metrics(traced, untraced)
            detail["missing_hooks"] = tracer.missing
        else:
            # Two timed halves around the memory pass: the timed ops then
            # sample the shared machine's drifting speed over a longer span.
            # So do the input builds, one after each timed job.
            timed: list[JobRun] = []
            loop = 0.0
            for half in (0, 1):
                t0 = perf_counter()
                while not timed or loop + perf_counter() - t0 < seconds * (half + 1) / 2:
                    timed.append(run_job(jobs[len(timed) % len(jobs)], clock))
                    shutil.rmtree(build(name, seed, workdir, tiny, setup_times)[1])
                loop += perf_counter() - t0
                if half == 0:
                    tracemalloc.start()
                    try:
                        runs.append(run_job(inputs.peak, clock))
                        peak = tracemalloc.get_traced_memory()[1]
                    finally:
                        tracemalloc.stop()
            runs = timed + runs
            ops = [t for r in timed for t in r.op_times]
            tail_s, pct = tail(ops)
            metrics = {
                "setup_s": (statistics.median(setup_times), "s"),
                "wall_s": (statistics.median(r.wall for r in timed), "s"),
                "ops_per_s": (sum(r.ops for r in timed) / sum(r.wall for r in timed), "1/s"),
                "op_p50_s": (statistics.median(ops), "s"),
                "op_tail_s": (tail_s, "s"),
                "peak_alloc_mb": (peak / 2**20, "MB"),
            }
            detail.update(jobs_timed=len(timed), op_samples=len(ops), op_tail_percentile=pct,
                          setup_builds=len(setup_times))
    finally:
        clock.uninstall()

    reference = None
    if seed == DEFAULT_SEED and not tiny:
        reference = json.loads(REFERENCE.read_text())["workloads"].get(name)
    failed, notes, first = check_runs(runs, reference)
    try:
        oracle = workloads.oracle_checks(name, seed, inputs, first)
    except Exception:  # a raising check is a failed check
        oracle = ["raised: " + traceback.format_exc(limit=-3)]
    notes += [f"oracle: {msg}" for msg in oracle if msg]
    attempted = sum(r.ops for r in runs) + len(oracle)
    failed += sum(1 for msg in oracle if msg)
    detail.update(reference_checked=reference is not None, oracle_checks=len(oracle),
                  failures=notes[:20])
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small inputs, for the smoke test")
    args = ap.parse_args(argv)
    scratch = ROOT / ".perfbench-work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=scratch))
    try:
        out, detail = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                              args.tiny, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
