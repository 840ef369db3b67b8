"""Shared plumbing: locating the repo, the outside-in tracer, statistics.

The tracer wraps the calls the *benchmark* makes into a layer's public
functions; nothing under ``src/`` is instrumented.  With tracing off
``Tracer.span`` hands back one shared no-op context manager, so the
untraced run pays a method call per boundary and nothing else.
"""

from __future__ import annotations

import contextvars
import json
import os
import resource
import statistics
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
OUT = HERE / "out"
SPEC_PATH = REPO / "BENCHMARK.json"

#: STATS counters whose deltas are attached to traced spans.
SPAN_COUNTERS = (
    "nodes_built", "nodes_forced", "forces", "nodes_fused", "cse_reused",
    "masks_pushed", "memo_reused", "algo_memo_hits", "engine_batched_ops",
    "memo_delta_patches", "algo_warm_hits", "serve_batches",
    "serve_batched_queries", "serve_views_patched", "journal_appends",
    "store_hits", "store_misses", "store_stores",
)


#: Per-layer engine count metrics -> the STATS counter behind each.
ENGINE_COUNTS = {
    "engine.nodes_built": "nodes_built",
    "engine.forces": "forces",
    "engine.nodes_fused": "nodes_fused",
    "engine.cse_reused": "cse_reused",
    "engine.masks_pushed": "masks_pushed",
    "engine.memo_reused": "memo_reused",
    "engine.algo_memo_hits": "algo_memo_hits",
    "engine.engine_batched_ops": "engine_batched_ops",
    "engine.memo_delta_patches": "memo_delta_patches",
}


def bootstrap() -> None:
    """Make ``repro`` importable from a bare checkout and keep state
    inside it: REPRO_* variables could point the store, the checkpoint
    directory or the fault plane somewhere else, so they are dropped."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    src = REPO / "src"
    if src.is_dir() and str(src) not in sys.path:
        sys.path.insert(0, str(src))


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


# -- statistics ---------------------------------------------------------------

def median(values) -> float:
    return float(statistics.median(values))


def low(values) -> float:
    """10th percentile (the smallest of fewer than ten): the timing of
    an *undisturbed* repetition.  Interference on a shared box only
    ever adds time and comes in second-long bursts; it can take a run's
    median with it, while the low end stays put (measured here: the
    median of identical passes spreads 10-12 % between runs, their
    10th percentile 4-8 %)."""
    ordered = sorted(values)
    return float(ordered[len(ordered) // 10])


def high(values) -> float:
    """90th percentile (the largest of fewer than ten): ``low`` for rates."""
    ordered = sorted(values)
    return float(ordered[-1 - len(ordered) // 10])


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (the serving layer's own convention)."""
    ordered = sorted(values)
    rank = max(1, min(len(ordered), int(round(q / 100.0 * len(ordered) + 0.5))))
    return float(ordered[rank - 1])


def p95(values) -> float:
    """95th percentile by the Harrell-Davis estimator: a mean of the
    order statistics weighted by Beta((n+1)q, (n+1)(1-q)) around rank
    q*n.  With ~200 samples the nearest-rank p95 is one order statistic
    out of a sparse tail and jumped 0.31 (IQR/median) between runs on
    ``serve_stream``; this reads 0.16 on the same runs."""
    import numpy as np
    from scipy.stats import beta

    ordered = np.sort(np.asarray(values, dtype=float))
    n = len(ordered)
    edges = beta.cdf(np.arange(n + 1) / n, (n + 1) * 0.95, (n + 1) * 0.05)
    return float((np.diff(edges) * ordered).sum())


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def stats_delta(before: dict, after: dict) -> dict:
    """Integer counter deltas plus summed kernel seconds."""
    out = {k: after[k] - before[k] for k in before
           if isinstance(before[k], int)}
    out["kernel_s"] = (sum(after["kernel_time"].values())
                       - sum(before["kernel_time"].values()))
    return out


def engine_totals(*deltas: dict) -> dict:
    """The engine count metrics summed over ``stats_delta`` results."""
    return {metric: sum(d[counter] for d in deltas)
            for metric, counter in ENGINE_COUNTS.items()}


# -- tracing ------------------------------------------------------------------

class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL = _NullSpan()
_CURRENT: contextvars.ContextVar[int] = contextvars.ContextVar(
    "e2e_span", default=0)


class _Span:
    __slots__ = ("tracer", "name", "rid", "stats", "id", "parent",
                 "start", "token", "before")

    def __init__(self, tracer, name, rid, stats):
        self.tracer, self.name, self.rid, self.stats = tracer, name, rid, stats

    def __enter__(self):
        tr = self.tracer
        with tr._lock:
            tr._next += 1
            self.id = tr._next
        self.parent = _CURRENT.get()
        self.token = _CURRENT.set(self.id)
        self.before = tr._stats.snapshot() if self.stats else None
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        tr = self.tracer
        args = {"id": self.id, "parent": self.parent}
        if self.rid is not None:
            args["rid"] = self.rid
        if self.before is not None:
            delta = stats_delta(self.before, tr._stats.snapshot())
            args.update({k: delta[k] for k in SPAN_COUNTERS if delta[k]})
            args["kernel_ms"] = round(delta["kernel_s"] * 1e3, 4)
        _CURRENT.reset(self.token)
        with tr._lock:
            tr.events.append({
                "name": self.name, "cat": self.name.split(".", 1)[0],
                "ph": "X", "pid": tr.pid,
                "tid": threading.get_ident() % 100000,
                "ts": (tr.wall0 + self.start - tr.perf0 - tr.epoch) * 1e6,
                "dur": (end - self.start) * 1e6, "args": args,
            })
        return False


class Tracer:
    """In-memory spans: name, start, end, parent, request id.

    ``span("layer.function", rid=...)`` brackets one call into a layer;
    the parent is the span open in the same thread or asyncio task.
    ``stats=True`` also records the ``STATS.snapshot()`` delta across
    the call (two ~20 µs snapshots — not for per-call hot loops).
    """

    def __init__(self, enabled: bool, stats=None, pid: int = 1,
                 epoch: float | None = None):
        self.enabled = enabled
        self._stats = stats
        self.pid = pid
        self.wall0 = time.time()
        self.perf0 = time.perf_counter()
        self.epoch = self.wall0 if epoch is None else epoch
        self.events: list[dict] = []
        self._lock = threading.Lock()
        self._next = pid * 1_000_000   # ids stay unique across processes

    def span(self, name: str, rid=None, stats: bool = False):
        if not self.enabled:
            return _NULL
        return _Span(self, name, rid, stats and self._stats is not None)

    def layer_summary(self) -> dict:
        """Per layer: spans, total ms, and self ms (a span's duration
        minus what its direct children cover)."""
        child_ms: dict[int, float] = {}
        for ev in self.events:
            parent = ev["args"]["parent"]
            child_ms[parent] = child_ms.get(parent, 0.0) + ev["dur"] / 1e3
        out: dict[str, dict] = {}
        for ev in self.events:
            row = out.setdefault(ev["cat"],
                                 {"spans": 0, "total_ms": 0.0, "self_ms": 0.0})
            ms = ev["dur"] / 1e3
            row["spans"] += 1
            row["total_ms"] += ms
            row["self_ms"] += max(0.0, ms - child_ms.get(ev["args"]["id"], 0.0))
        return out


def write_chrome_trace(path: Path, events: list[dict]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
