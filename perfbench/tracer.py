"""In-memory spans around the calls into each qcsense layer.

The tracer replaces a module attribute (the name the calling module
resolves, such as `estimator.pair_reduction`) with a wrapper that records
(thread, start, end, key).  Nothing in the library changes; `uninstall`
puts every original back.

Self time follows the wall clock: at each instant the time is split
equally among the innermost open spans of the threads that have one, so
the layer self times sum to the time covered by spans, even when pool
threads overlap.  A main-thread span gets no share while spans it spawned
on pool threads are open, since it is then waiting for them.  Counting work done after a call (apparent pairs, for
instance) is itself recorded as a `trace.count` span, so it lands in the
`trace` layer and not in the caller's self time.
"""

from __future__ import annotations

import threading
from collections import Counter, defaultdict
from time import perf_counter

from qcsense import cli, estimator, interleave

# (module, attribute, span key).  The key's prefix is the layer that owns
# the called function.
HOOKS = (
    (cli, "load_matrix", "ingest.load_matrix"),
    (cli, "compute_Lk", "estimator.compute_Lk"),
    (cli, "subsample_points", "estimator.subsample_points"),
    (cli, "subsample_functions", "estimator.subsample_functions"),
    (cli, "completeness_test", "central.completeness_test"),
    (cli, "interleaving_distance", "interleave.interleaving_distance"),
    (estimator, "order_table", "ingest.order_table"),
    (estimator, "subset_tables", "dowker.subset_tables"),
    (estimator, "pair_reduction", "persistence.pair_reduction"),
    (estimator, "_lk_from_order", "estimator.lk_from_order"),
    (interleave, "order_table", "ingest.order_table"),
)

# Spans whose summed busy time over their parents' wall time is
# estimator.concurrency.
BUSY_KEY = "estimator.lk_from_order"
BUSY_PARENTS = ("estimator.compute_Lk", "estimator.subsample_points", "estimator.subsample_functions")


def apparent_pairs(columns: list[int], pairs: dict[int, int]) -> int:
    """Pairs (p, j) of a reduction where p is the pivot of input column j
    and j is the first column with bit p set."""
    first: dict[int, int] = {}
    seen = 0
    for j, col in enumerate(columns):
        new = col & ~seen
        while new:
            low = new & -new
            first[low.bit_length() - 1] = j
            new ^= low
        seen |= col
    return sum(
        1 for p, j in pairs.items() if first.get(p) == j and columns[j].bit_length() - 1 == p
    )


def _count_reduction(args, out) -> dict[str, int]:
    columns = args[0]
    pairs, _ = out
    return {
        "estimator.anchors": 1,
        "persistence.columns": len(columns),
        "persistence.pairs": len(pairs),
        "persistence.apparent_pairs": apparent_pairs(columns, pairs),
    }


def _count_subsample(args, out) -> dict[str, int]:
    return {"estimator.replicates": out.reps}


def _count_central(args, out) -> dict[str, int]:
    return {"central.members": len(out.report.members)}


def _count_interleave(args, out) -> dict[str, int]:
    return {"interleave.generators_checked": sum(out.certificate)}


COUNTERS = {
    "persistence.pair_reduction": _count_reduction,
    "estimator.subsample_points": _count_subsample,
    "estimator.subsample_functions": _count_subsample,
    "central.completeness_test": _count_central,
    "interleave.interleaving_distance": _count_interleave,
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, float, float, str]] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._saved: list[tuple[object, str, object]] = []
        self._main = threading.main_thread().ident
        self._lock = threading.Lock()

    def span(self, key: str, fn, *args, **kwargs):
        """Call fn inside a span named key."""
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append((threading.get_ident(), t0, perf_counter(), key))

    def _wrap(self, fn, key: str):
        count = COUNTERS.get(key)

        def wrapper(*args, **kwargs):
            tid = threading.get_ident()
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self.spans.append((tid, t0, t1, key))
            if count is not None:
                increments = count(args, out)
                with self._lock:  # pool threads count concurrently
                    self.counts.update(increments)
                self.spans.append((tid, t1, perf_counter(), "trace.count"))
            return out

        return wrapper

    def install(self) -> None:
        for module, attr, key in HOOKS:
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module.__name__.rsplit('.', 1)[-1]}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, key))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def self_times(self) -> dict[str, float]:
        """Wall-clock self time per span key (see the module docstring)."""
        events = []
        for i, (_, t0, t1, _) in enumerate(self.spans):
            if t1 > t0:  # an empty span covers no time; its events could sort end-first
                events.append((t0, 1, i))
                events.append((t1, 0, i))
        events.sort()
        stacks: dict[int, list[int]] = defaultdict(list)
        main = stacks[self._main]
        waiting: Counter = Counter()  # main-thread span -> open spans it spawned on pool threads
        spawner: dict[int, int] = {}
        out: dict[str, float] = defaultdict(float)
        prev = None
        for t, kind, i in events:
            if prev is not None and t > prev:
                active = [s[-1] for s in stacks.values() if s and not waiting[s[-1]]]
                for j in active:
                    out[self.spans[j][3]] += (t - prev) / len(active)
            prev = t
            stack = stacks[self.spans[i][0]]
            if kind:
                if not stack and stack is not main and main:
                    spawner[i] = main[-1]
                    waiting[main[-1]] += 1
                stack.append(i)
            else:
                stack.remove(i)
                if i in spawner:
                    waiting[spawner.pop(i)] -= 1
        return dict(out)

    def metrics(self, wall: float, untraced_wall: float) -> dict[str, tuple[float, str]]:
        """The per-layer metrics, as name -> (value, unit)."""
        st = self.self_times()
        calls = Counter(key for _, _, _, key in self.spans)
        busy = sum(t1 - t0 for _, t0, t1, k in self.spans if k == BUSY_KEY)
        parent = sum(t1 - t0 for _, t0, t1, k in self.spans if k in BUSY_PARENTS)
        layer = defaultdict(float)
        for key, s in st.items():
            layer[key.split(".", 1)[0]] += s
        c = self.counts
        return {
            "cli.self_s": (layer["cli"], "s"),
            "ingest.load_matrix_s": (st.get("ingest.load_matrix", 0.0), "s"),
            "ingest.order_table_s": (st.get("ingest.order_table", 0.0), "s"),
            "ingest.order_table_calls": (calls["ingest.order_table"], "count"),
            "dowker.subset_tables_s": (st.get("dowker.subset_tables", 0.0), "s"),
            "estimator.self_s": (layer["estimator"], "s"),
            "estimator.anchors": (c["estimator.anchors"], "count"),
            "estimator.replicates": (c["estimator.replicates"], "count"),
            "estimator.concurrency": (busy / parent if parent else 0.0, "ratio"),
            "persistence.pair_reduction_s": (st.get("persistence.pair_reduction", 0.0), "s"),
            "persistence.columns": (c["persistence.columns"], "count"),
            "persistence.pairs": (c["persistence.pairs"], "count"),
            "persistence.apparent_pairs": (c["persistence.apparent_pairs"], "count"),
            "persistence.apparent_ratio": (
                c["persistence.apparent_pairs"] / c["persistence.pairs"]
                if c["persistence.pairs"] else 0.0, "ratio"),
            "central.completeness_test_s": (st.get("central.completeness_test", 0.0), "s"),
            "central.members": (c["central.members"], "count"),
            "interleave.interleaving_distance_s": (
                st.get("interleave.interleaving_distance", 0.0), "s"),
            "interleave.generators_checked": (c["interleave.generators_checked"], "count"),
            "trace.count_s": (st.get("trace.count", 0.0), "s"),
            "trace.wall_s": (wall, "s"),
            "trace.overhead_s": (wall - untraced_wall, "s"),
        }
