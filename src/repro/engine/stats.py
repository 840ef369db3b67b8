"""Engine observability: counters, per-kernel wall time, trace spans.

The lazy engine's whole value proposition — defer, fuse, elide, reuse —
is invisible from the API surface,
so the engine keeps a process-wide counter block that answers "did the
optimizer actually do anything?".  Each counter is declared once, with
its meaning, in :data:`COUNTERS` below; ``docs/architecture.md``
carries the reference table generated from it.

Per-context rollups
-------------------

The block above is process-wide; the serving layer additionally needs
"what did *this tenant* consume?".  :class:`ContextStats` is the
per-:class:`~repro.core.context.Context` counterpart — a small
lock-guarded counter block the scheduler attributes kernel time and
deferred errors to, keyed by the owning object's context (the
algorithm layer adds its block-memo hits, keyed by the graph's).  It is created
lazily (``Context.local_stats()``) so non-serving workloads pay one
``None`` check and nothing else.

Per-kernel timing lives in ``kernel_time``/``kernel_count`` keyed by
node kind (``mxm``, ``apply``, ``fused:…``).  Query via
:meth:`EngineStats.snapshot`, :meth:`repro.core.context.Context.engine_stats`,
or the CLI's ``--engine-stats`` flag.

Trace spans
-----------

Every planner pass and every executed kernel records a span (name,
category, start, duration, thread); planner *decisions* (a fused
chain) and memo events record instant events.  The buffer is a
ring of the newest ``SPAN_CAP`` events, one plain tuple each (about
60 % of the memory of the dict it stands for), so a long-running
process keeps its recent history at a fixed cost.  It renders on read
to the Chrome trace event format —
``{"traceEvents": [...]}`` with
``ph="X"`` complete events in microseconds — so ``chrome://tracing`` or
Perfetto can load a dump directly.  ``Context.engine_stats(
include_spans=True)`` returns the events; the CLI's ``--trace-out
PATH`` writes the JSON file.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque

__all__ = ["EngineStats", "ContextStats", "STATS", "SPAN_CAP"]

#: name -> doc: the one declaration of every process-wide counter, in
#: the order ``snapshot``/``format`` report them.
COUNTERS: dict[str, str] = {
    "nodes_built":
        "DAG nodes created (one per deferred method; a run of pending "
        "tuples is one)",
    "nodes_forced":
        "nodes whose kernel actually ran",
    "nodes_fused":
        "producer nodes absorbed into a consumer's fused pipeline (their "
        "standalone kernel and write-back never ran)",
    "chains_fused":
        "fused pipelines constructed (at least one absorption each)",
    "transposes_elided":
        "transpose pairs cancelled inside a pipeline",
    "selects_hoisted":
        "value-independent selects moved ahead of maps (the map then "
        "touches fewer stored values)",
    "cse_reused":
        "no longer bumped; declared only because the end-to-end benchmark "
        "reads it from every snapshot",
    "masks_pushed":
        "no longer bumped; declared only because the end-to-end benchmark "
        "reads it from every snapshot",
    "memo_misses":
        "result-memo lookups that found nothing, in memory or in the "
        "warm-start store",
    "memo_reused":
        "memo hits that republished the cached carrier through the commit "
        "gate (the kernels never ran)",
    "memo_stores":
        "committed results recorded into a context's result memo",
    "memo_evictions":
        "entries evicted from a full result memo, lowest recency-aged "
        "rebuild cost first (each emits a `memo:evict` instant)",
    "memo_invalidations":
        "memo entries dropped because an input handle advanced or was freed",
    "algo_memo_hits":
        "algorithm building-block lookups (pattern matrices, degree "
        "vectors, …) served from the result memo",
    "algo_memo_misses":
        "algorithm building-block lookups that had to build",
    "algo_memo_stores":
        "building blocks materialized and recorded for later algorithm "
        "calls",
    "algo_memo_fallbacks":
        "cached building blocks whose republish was rejected at the commit "
        "gate and that were rebuilt",
    "planner_pass_failures":
        "planner passes skipped after an injected or real fault (the "
        "forcing proceeds without that pass's rewrites)",
    "forces":
        "subgraph forcings (`wait`, a read, use as an input)",
    "completes_deferred":
        "`wait(COMPLETE)` calls that legally left a fused-but-unforced "
        "sequence in place",
    "errors_deferred":
        "execution errors recorded during a forcing",
    "faults_injected":
        "faults fired by the injection plane (`repro.faults`)",
    "retries":
        "transient-fault retry attempts",
    "retries_recovered":
        "operations that succeeded after at least one retry",
    "retries_exhausted":
        "operations that burned the whole retry budget",
    "worker_faults":
        "persistent `mxm` row-block worker faults absorbed by re-running "
        "the blocks serially",
    "degraded_serial":
        "`mxm` block batches re-run serially after a persistent worker "
        "fault or a freed worker pool",
    "serve_submitted":
        "serving-layer queries admitted",
    "serve_completed":
        "serving-layer queries finished",
    "serve_rejected":
        "serving-layer queries shed by admission control",
    "serve_batches":
        "coalesced multi-source submissions the serving batcher formed",
    "serve_batched_queries":
        "client queries that rode in those coalesced submissions",
    "serve_timeouts":
        "queries stopped by their deadline, in the queue or mid-execution "
        "(transient `GrB_TIMEOUT`)",
    "serve_shutdown_rejected":
        "queries refused or failed because the server was stopping",
    "cancel_stops":
        "kernel or planner-pass boundaries at which a cancelled or expired "
        "token stopped execution",
    "breaker_open_rejected":
        "queries shed because their tenant's circuit breaker was open",
    "breaker_trips":
        "tenant circuit breakers tripped by a failure streak",
    "breaker_probes":
        "probe queries admitted through a half-open breaker",
    "breaker_recoveries":
        "breakers closed again by a successful probe",
    "journal_appends":
        "write-ahead journal records made durable",
    "journal_replayed":
        "journal records replayed over a snapshot by a restore",
    "checkpoints_written":
        "checkpoints committed (blobs, manifest, journal rotation)",
    "restores":
        "`GraphService.restore` calls",
    "restored_graphs":
        "resident graphs rehydrated by restores",
    "restored_blocks":
        "warm algorithm blocks rehydrated from a checkpoint by restores",
    "format_dcsr_commits":
        "matrix commits the hypersparse policy gave a row list, by repack "
        "or as assembled (each repack emits a `cost:format` instant)",
    "memo_delta_patches":
        "dependent memo entries updated in place from a batched write's "
        "delta and re-keyed at the new version (each patched handle emits a "
        "`memo:patch` instant)",
    "memo_delta_drops":
        "dependent memo entries a delta write dropped instead (no rule, "
        "wrong version, or `should_delta_patch` preferred a rebuild)",
    "algo_warm_hits":
        "warm-fixpoint blocks (prior pagerank ranks, component labels, "
        "triangle counts) served to an incremental algorithm run",
    "algo_warm_stores":
        "warm-fixpoint blocks recorded after a converged run",
    "store_hits":
        "warm-start store probes that returned a verified entry",
    "store_misses":
        "warm-start store probes that found nothing usable (absent, "
        "unreadable or corrupt)",
    "store_stores":
        "entries written to the warm-start store",
    "store_corrupt":
        "store entries that failed a checksum and were quarantined as a "
        "miss",
    "store_evictions":
        "store entries evicted to keep the directory under "
        "`STORE_MAX_BYTES`",
    "ingest_batches":
        "streaming-ingest flushes (one merged `apply_edges`, one journal "
        "record, one publish each)",
    "ingest_edges_committed":
        "edges those flushes committed",
    "ingest_fast_merges":
        "batched edge writes applied by the sorted positional merge in "
        "`internals/stream.py` instead of a full COO re-sort",
    "serve_views_patched":
        "stale cached tenant views advanced to the current graph generation "
        "by replaying recorded deltas in place",
    "engine_batched_ops":
        "no longer bumped; declared only because the end-to-end benchmark "
        "reads it from every snapshot",
    "spans_dropped":
        "oldest trace spans pushed out of the full in-memory ring by newer "
        "ones (the ring keeps the last `SPAN_CAP`; counters are never "
        "dropped)",
}
_COUNTERS = tuple(COUNTERS)

#: Counters a :class:`ContextStats` rollup tracks per context/tenant.
CTX_COUNTERS = (
    "kernels",
    "algo_memo_hits",
    "errors_deferred",
    "worker_faults",
    "queries_submitted",
    "queries_completed",
    "queries_rejected",
    "queries_batched",
    "queries_failed",
    "queries_timeout",
)

#: Trace-span ring size: the buffer keeps the newest ``SPAN_CAP`` spans
#: (about 2.5 MB at ~305 B each); each older one a new span pushes out
#: is counted in ``spans_dropped`` (counters are never dropped).
SPAN_CAP = 8192

#: Process start reference for trace timestamps (µs since this moment).
_T0 = time.perf_counter()


class EngineStats:
    """Thread-safe counter + span block (process-wide singleton)."""

    __slots__ = (
        "_lock", "kernel_time", "kernel_count", "_spans", "_threads",
    ) + _COUNTERS

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.kernel_time: dict[str, float] = {}
        self.kernel_count: dict[str, int] = {}
        self._spans: deque[tuple] = deque(maxlen=SPAN_CAP)
        self._threads: dict[int, tuple[int, str]] = {}  # ident -> (tid, name)
        for name in _COUNTERS:
            setattr(self, name, 0)

    # -- recording -----------------------------------------------------------

    def bump(self, name: str, n: int = 1) -> None:
        with self._lock:
            setattr(self, name, getattr(self, name) + n)

    def kernel(self, kind: str, seconds: float) -> None:
        """Record one executed kernel of *kind* taking *seconds*."""
        with self._lock:
            self.nodes_forced += 1
            self.kernel_time[kind] = self.kernel_time.get(kind, 0.0) + seconds
            self.kernel_count[kind] = self.kernel_count.get(kind, 0) + 1

    def _tid(self) -> int:
        # Caller holds self._lock.
        th = threading.current_thread()
        entry = self._threads.get(th.ident)
        if entry is None:
            entry = (len(self._threads), th.name)
            self._threads[th.ident] = entry
        return entry[0]

    def span(
        self, name: str, cat: str, start: float, duration: float,
        args: dict | None = None,
    ) -> None:
        """Record a complete ("X") trace event.

        *start* is a ``time.perf_counter()`` reading; *duration* is in
        seconds.  The buffer keeps the raw tuple; :meth:`trace_events`
        renders it with timestamps in microseconds relative to engine
        start, which is what the Chrome trace format expects.
        """
        self._record(name, cat, start, max(duration, 0.0), args)

    def instant(self, name: str, cat: str, args: dict | None = None) -> None:
        """Record an instant ("i") event — a point-in-time decision."""
        self._record(name, cat, time.perf_counter(), None, args)

    def _record(self, name, cat, start, duration, args) -> None:
        """Append one event to the ring, counting the oldest one it
        pushes out when the ring is full."""
        with self._lock:
            if len(self._spans) == SPAN_CAP:
                self.spans_dropped += 1
            self._spans.append((name, cat, start, duration, self._tid(), args))

    # -- querying ------------------------------------------------------------

    def snapshot(self) -> dict:
        """A point-in-time copy of every counter (safe to mutate)."""
        with self._lock:
            snap = {name: getattr(self, name) for name in _COUNTERS}
            snap["kernel_time"] = dict(self.kernel_time)
            snap["kernel_count"] = dict(self.kernel_count)
            snap["spans_recorded"] = len(self._spans)
            return snap

    def trace_events(self) -> list[dict]:
        """The recorded spans as Chrome trace events (copy), prefixed
        with thread-name metadata so viewers label the tracks."""
        with self._lock:
            meta = [
                {
                    "name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
                    "args": {"name": name},
                }
                for tid, name in sorted(self._threads.values())
            ]
            return meta + [_render(ev) for ev in self._spans]

    def write_trace(self, path: str) -> int:
        """Dump the span buffer as a Chrome-trace JSON file; returns the
        number of events written (metadata rows excluded)."""
        events = self.trace_events()
        with open(path, "w") as fh:
            json.dump(
                {"traceEvents": events, "displayTimeUnit": "ms"},
                fh, default=str,
            )
        return sum(1 for ev in events if ev.get("ph") != "M")

    def reset(self) -> None:
        with self._lock:
            for name in _COUNTERS:
                setattr(self, name, 0)
            self.kernel_time.clear()
            self.kernel_count.clear()
            self._spans.clear()
            self._threads.clear()

    def format(self) -> str:
        """Human-readable dump (used by ``repro --engine-stats``)."""
        snap = self.snapshot()
        lines = ["engine stats:"]
        for name in _COUNTERS:
            lines.append(f"  {name:<22} {snap[name]}")
        if snap["kernel_count"]:
            lines.append("  kernel wall time:")
            for kind in sorted(snap["kernel_count"]):
                t = snap["kernel_time"].get(kind, 0.0) * 1e3
                n = snap["kernel_count"][kind]
                lines.append(f"    {kind:<16} {n:>6} calls  {t:>9.2f} ms")
        return "\n".join(lines)


def _render(ev: tuple) -> dict:
    """One buffered ``(name, cat, start, duration | None, tid, args)``
    tuple as a Chrome trace event: a complete ("X") event, or a
    thread-scoped instant ("i") when there is no duration."""
    name, cat, start, duration, tid, args = ev
    ts = (start - _T0) * 1e6
    if duration is None:
        return {"name": name, "cat": cat, "ph": "i", "s": "t", "ts": ts,
                "pid": 1, "tid": tid, "args": args or {}}
    return {"name": name, "cat": cat, "ph": "X", "ts": ts,
            "dur": duration * 1e6, "pid": 1, "tid": tid, "args": args or {}}


class ContextStats:
    """Per-context tenant rollup of engine activity.

    Every mutation takes the instance lock — concurrent serving
    sessions bump these from their own threads, so a bare
    ``+=`` on instance attributes would lose updates.
    """

    __slots__ = ("_lock", "kernel_seconds") + CTX_COUNTERS

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.kernel_seconds = 0.0
        for name in CTX_COUNTERS:
            setattr(self, name, 0)

    def bump(self, name: str, n: int = 1) -> None:
        with self._lock:
            setattr(self, name, getattr(self, name) + n)

    def kernel(self, seconds: float) -> None:
        """Attribute one executed kernel of *seconds* to this context."""
        with self._lock:
            self.kernels += 1
            self.kernel_seconds += seconds

    def snapshot(self) -> dict:
        with self._lock:
            snap = {name: getattr(self, name) for name in CTX_COUNTERS}
            snap["kernel_time_ms"] = self.kernel_seconds * 1e3
            return snap


#: The process-wide engine stats block.
STATS = EngineStats()
