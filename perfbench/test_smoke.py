"""Smoke test of the benchmark itself: every workload at a tiny size, in
both modes, emits every metric BENCHMARK.json names with its unit, passes
its correctness gate, and (traced) accounts for its wall time.

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
from run import WORKLOADS  # noqa: E402  (BENCHMARK.json's workloads and points-n200)
from tracer import Tracer  # noqa: E402
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Per-layer self times that partition the traced spans (see tracer.py).
SELF_TIMES = (
    "cli.self_s", "ingest.load_matrix_s", "ingest.order_table_s", "dowker.subset_tables_s",
    "estimator.self_s", "persistence.pair_reduction_s", "central.completeness_test_s",
    "interleave.interleaving_distance_s", "trace.count_s",
)


def bench(workload: str, trace: int, seed: int = 5) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1, proc.stdout
    return out["metrics"]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_with_its_unit(workload, trace):
    metrics = bench(workload, trace)
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {k: v["unit"] for k, v in metrics.items()}
    for name, m in metrics.items():
        assert isinstance(m["value"], (int, float)), name
        if not trace:
            assert m["value"] > 0, name
    if trace:
        covered = sum(metrics[k]["value"] for k in SELF_TIMES)
        wall = metrics["trace.wall_s"]["value"]
        assert 0.9 * wall <= covered <= wall * 1.0001


def test_traced_counts_repeat_exactly():
    # functions-m10 reduces on pool threads, so this also covers counting
    # from several threads at once
    a, b = bench("functions-m10", 1), bench("functions-m10", 1)
    for name in ("persistence.apparent_pairs", "persistence.pairs", "persistence.columns",
                 "estimator.anchors", "ingest.order_table_calls"):
        assert a[name]["value"] == b[name]["value"] > 0, name


def test_counting_from_many_threads_loses_nothing():
    tracer = Tracer()
    wrapped = tracer._wrap(lambda columns: ({}, []), "persistence.pair_reduction")
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            threads = [threading.Thread(target=lambda: [wrapped([]) for _ in range(2000)])
                       for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old)
    assert tracer.counts["estimator.anchors"] == 5 * 8 * 2000


def test_bare_directory_fails(tmp_path):
    """Without the program's sources the benchmark exits non-zero and
    prints no result."""
    (tmp_path / "perfbench").mkdir()
    for f in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_names_known_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


def test_tail_stays_at_p90_below_100_samples():
    from run import tail

    assert tail([float(i) for i in range(99)])[1] == 90.0
    assert tail([float(i) for i in range(100)]) == (89.0, 90.0)
    assert tail([float(i) for i in range(200)]) == (189.0, 95.0)
