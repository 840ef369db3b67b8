"""Engine observability: counters, per-kernel wall time, trace spans.

The lazy engine's whole value proposition — defer, fuse, elide, share,
run independent work concurrently — is invisible from the API surface,
so the engine keeps a process-wide counter block that answers "did the
optimizer actually do anything?".  Counters:

* ``nodes_built``      — DAG nodes created (one per deferred method).
* ``nodes_forced``     — nodes whose kernel actually ran.
* ``nodes_fused``      — producer nodes absorbed into a consumer's
  fused pipeline (their standalone kernel + write-back never ran).
* ``chains_fused``     — fused pipelines constructed (≥1 absorption).
* ``transposes_elided``— transpose pairs cancelled inside a pipeline.
* ``selects_hoisted``  — value-independent selects moved ahead of maps
  (filter-before-map: the map then touches fewer stored values).
* ``cse_hits``         — pending nodes recognised as structurally
  identical to an earlier node (hash-cons pass) and aliased to it.
* ``cse_reused``       — aliases that actually published the shared
  result (the duplicate kernel never ran).
* ``cse_fallbacks``    — aliases whose representative failed (or whose
  commit was rejected) and that re-ran their own kernel instead.
* ``masks_pushed``     — masked consumers whose mask filter was pushed
  into the producing mxm/mxv/vxm/eWiseMult kernel (pushdown pass).
* ``pushdown_fallbacks`` — pushed chains that failed and transparently
  re-ran unpushed for exact §V state.
* ``memo_hits`` / ``memo_misses`` — cross-forcing result-memo lookups
  (the planner gate) that found / did not find a committed carrier for a
  re-submitted expression.
* ``memo_reused``      — memo hits that actually republished the cached
  carrier through the commit gate (the kernel never ran).
* ``memo_fallbacks``   — memo hits whose republish was rejected (commit
  gate) and that re-ran their own kernel instead.
* ``memo_stores``      — committed results recorded into a context's
  result memo for later forcings.
* ``memo_evictions``   — evictions from a full result memo (the victim
  is the LRU entry or the lowest cost-score entry, per
  ``MEMO_EVICTION``; each eviction emits a ``memo:evict`` instant).
* ``memo_admission_skips`` — expression stores rejected by the
  cost-model admission gate (``MEMO_ADMISSION``): the estimated rebuild
  savings were below the measured commit overhead, so caching would
  cost more than recomputing.
* ``memo_invalidations`` — memo entries dropped because an input handle
  advanced (write) or was freed.
* ``algo_memo_hits`` / ``algo_memo_misses`` — algorithm building-block
  lookups (pattern matrices, degree vectors, …) served from / absent
  from the context's result memo.
* ``algo_memo_stores`` — building blocks materialized and recorded for
  later algorithm calls.
* ``algo_memo_fallbacks`` — cached building blocks whose republish was
  rejected at the commit gate and that were rebuilt instead.
* ``cost_decisions``   — pushdown-vs-fusion conflicts arbitrated by the
  cost model (each also emits a ``cost:`` trace instant).
* ``cost_fusions_skipped`` — fusions vetoed by the adaptive cost model
  because the measured per-chain plan bookkeeping exceeded the
  estimated saving (tiny producers ran standalone).
* ``cost_partition_decisions`` — SpGEMM row-partition counts chosen by
  the per-context measured-scaling model instead of the static
  ``nthreads`` split.
* ``planner_pass_failures`` — planner passes skipped after an injected
  or real fault (the forcing proceeds without that pass's rewrites).
* ``forces``           — subgraph forcings (``wait``/read/input use).
* ``completes_deferred`` — ``wait(COMPLETE)`` calls that legally left a
  fused-but-unforced sequence in place (§V deferral freedom).
* ``parallel_batches`` / ``parallel_nodes`` — scheduler dispatches that
  ran ≥2 independent ready nodes concurrently, and how many nodes.
* ``errors_deferred``  — execution errors recorded during a forcing.
* ``faults_injected``  — faults fired by the injection plane
  (:mod:`repro.faults`).
* ``retries`` / ``retries_recovered`` / ``retries_exhausted`` —
  transient-fault retry attempts, operations that succeeded after ≥1
  retry, and operations that burned the whole retry budget.
* ``worker_faults``    — simulated engine-pool node failures absorbed
  by re-running the node on the dispatcher thread.
* ``degraded_serial``  — parallel batch paths that fell back to serial
  execution after persistent faults.
* ``degraded_local``   — distributed ops that fell back to
  single-process execution on an unhealthy cluster.
* ``comm_timeouts``    — communicator receives/collectives that timed
  out (dead-rank detection).
* ``serve_submitted`` / ``serve_completed`` / ``serve_rejected`` —
  serving-layer queries admitted, finished, and shed by admission
  control (:mod:`repro.serve`).
* ``serve_batches`` / ``serve_batched_queries`` — coalesced
  multi-source submissions the serving batcher formed, and how many
  client queries rode in them.
* ``format_dcsr_commits`` — matrix commits the format policy packed
  (or kept) doubly-compressed (hypersparse DCSR tier); each repack
  emits a ``cost:format`` instant with the shape and decision.
* ``format_densify_fallbacks`` — hypersparse carriers densified to CSR
  for a kernel family with no native DCSR path (each emits a
  ``format:densify:<family>`` instant with the conversion time).
* ``memo_delta_patches`` / ``memo_delta_drops`` — dependent memo
  entries updated *in place* from a batched write's delta (patch rule
  applied, entry re-keyed at the new handle version; each patched
  handle emits a ``memo:patch`` instant) vs dropped the classic way
  (no rule, wrong version, or the cost model preferred a rebuild).
* ``algo_warm_hits`` / ``algo_warm_stores`` / ``algo_warm_fallbacks``
  — warm-fixpoint blocks (prior pagerank ranks, component labels,
  triangle counts) served to an incremental algorithm run, recorded
  after a converged run, and warm entries that failed to apply (the
  algorithm recomputed cold).
* ``ingest_batches`` / ``ingest_edges_committed`` — streaming-ingest
  flushes (one merged ``apply_edges`` + one coalesced journal record
  + one publish each) and the edges they committed.
* ``ingest_fast_merges`` — batched edge writes applied by the sorted
  positional merge in :mod:`repro.internals.stream` (O(nnz + d log d))
  instead of the full COO re-sort.
* ``serve_views_patched`` — stale cached tenant views advanced to the
  current graph generation by replaying recorded deltas in place
  (handle identity preserved, so warm blocks survive the write).
* ``batch_groups`` / ``engine_batched_ops`` — small-op batches the
  scheduler coalesced into one blocked multi-vector kernel, and how
  many pending ops rode in them (the ops saved kernel entries, row
  expansions, and per-op commit bookkeeping).
* ``spans_dropped``    — trace spans discarded after the in-memory
  buffer filled (the counters above are never dropped).

Per-context rollups
-------------------

The block above is process-wide; the serving layer additionally needs
"what did *this tenant* consume?".  :class:`ContextStats` is the
per-:class:`~repro.core.context.Context` counterpart — a small
lock-guarded counter block the scheduler attributes kernel time and
reuse events to, keyed by the owning object's context.  It is created
lazily (``Context.local_stats()``) so non-serving workloads pay one
``None`` check and nothing else.

Per-kernel timing lives in ``kernel_time``/``kernel_count`` keyed by
node kind (``mxm``, ``apply``, ``fused:…``).  Query via
:meth:`EngineStats.snapshot`, :meth:`repro.core.context.Context.engine_stats`,
or the CLI's ``--engine-stats`` flag.

Trace spans
-----------

Every planner pass and every executed kernel records a span (name,
category, start, duration, thread); planner *decisions* (a CSE alias, a
pushed mask, a fused chain) record instant events.  The buffer renders
to the Chrome trace event format — ``{"traceEvents": [...]}`` with
``ph="X"`` complete events in microseconds — so ``chrome://tracing`` or
Perfetto can load a dump directly.  ``Context.engine_stats(
include_spans=True)`` returns the events; the CLI's ``--trace-out
PATH`` writes the JSON file.
"""

from __future__ import annotations

import json
import threading
import time

__all__ = [
    "EngineStats", "ContextStats", "STATS", "SPAN_CAP",
    "register_reset_hook",
]

#: Callables invoked after :meth:`EngineStats.reset` — modules keeping
#: calibration state *derived from* these counters (the cost model's
#: estimate accumulators) register here so a stats reset cannot leave
#: their numerator/denominator pairs inconsistent.
_RESET_HOOKS: list = []


def register_reset_hook(fn) -> None:
    _RESET_HOOKS.append(fn)

_COUNTERS = (
    "nodes_built",
    "nodes_forced",
    "nodes_fused",
    "chains_fused",
    "transposes_elided",
    "selects_hoisted",
    "cse_hits",
    "cse_reused",
    "cse_fallbacks",
    "masks_pushed",
    "pushdown_fallbacks",
    "memo_hits",
    "memo_misses",
    "memo_reused",
    "memo_fallbacks",
    "memo_stores",
    "memo_evictions",
    "memo_admission_skips",
    "memo_invalidations",
    "algo_memo_hits",
    "algo_memo_misses",
    "algo_memo_stores",
    "algo_memo_fallbacks",
    "cost_decisions",
    "cost_fusions_skipped",
    "cost_partition_decisions",
    "planner_pass_failures",
    "forces",
    "completes_deferred",
    "parallel_batches",
    "parallel_nodes",
    "errors_deferred",
    "faults_injected",
    "retries",
    "retries_recovered",
    "retries_exhausted",
    "worker_faults",
    "degraded_serial",
    "degraded_local",
    "comm_timeouts",
    "serve_submitted",
    "serve_completed",
    "serve_rejected",
    "serve_batches",
    "serve_batched_queries",
    "serve_timeouts",
    "serve_shutdown_rejected",
    "cancel_stops",
    "breaker_open_rejected",
    "breaker_trips",
    "breaker_probes",
    "breaker_recoveries",
    "journal_appends",
    "journal_replayed",
    "checkpoints_written",
    "restores",
    "restored_graphs",
    "restored_blocks",
    "format_dcsr_commits",
    "format_densify_fallbacks",
    "memo_delta_patches",
    "memo_delta_drops",
    "algo_warm_hits",
    "algo_warm_stores",
    "algo_warm_fallbacks",
    "store_hits",
    "store_misses",
    "store_stores",
    "store_corrupt",
    "store_evictions",
    "store_admission_skips",
    "ingest_batches",
    "ingest_edges_committed",
    "ingest_fast_merges",
    "serve_views_patched",
    "batch_groups",
    "engine_batched_ops",
    "spans_dropped",
)

#: Counters a :class:`ContextStats` rollup tracks per context/tenant.
CTX_COUNTERS = (
    "kernels",
    "memo_reused",
    "cse_reused",
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

#: Trace-span buffer bound; past it spans are counted in
#: ``spans_dropped`` instead of stored (counters are never dropped).
SPAN_CAP = 50_000

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
        self._spans: list[dict] = []
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
        seconds.  Event timestamps are microseconds relative to engine
        start, which is what the Chrome trace format expects.
        """
        with self._lock:
            if len(self._spans) >= SPAN_CAP:
                self.spans_dropped += 1
                return
            self._spans.append({
                "name": name, "cat": cat, "ph": "X",
                "ts": (start - _T0) * 1e6, "dur": max(duration, 0.0) * 1e6,
                "pid": 1, "tid": self._tid(), "args": args or {},
            })

    def instant(self, name: str, cat: str, args: dict | None = None) -> None:
        """Record an instant ("i") event — a point-in-time decision."""
        with self._lock:
            if len(self._spans) >= SPAN_CAP:
                self.spans_dropped += 1
                return
            self._spans.append({
                "name": name, "cat": cat, "ph": "i", "s": "t",
                "ts": (time.perf_counter() - _T0) * 1e6,
                "pid": 1, "tid": self._tid(), "args": args or {},
            })

    # -- querying ------------------------------------------------------------

    def snapshot(self) -> dict:
        """A point-in-time copy of every counter (safe to mutate)."""
        with self._lock:
            snap = {name: getattr(self, name) for name in _COUNTERS}
            snap["kernel_time"] = dict(self.kernel_time)
            snap["kernel_count"] = dict(self.kernel_count)
            snap["spans_recorded"] = len(self._spans)
            return snap

    def kernel_times(self) -> dict[str, float]:
        """Copy of the per-kind kernel wall time alone — what the cost
        model's calibration reads once per memo store, without paying
        for a full :meth:`snapshot`."""
        with self._lock:
            return dict(self.kernel_time)

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
            return meta + [dict(ev) for ev in self._spans]

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
        for hook in _RESET_HOOKS:
            try:
                hook()
            except Exception:
                pass

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


class ContextStats:
    """Per-context tenant rollup of engine activity.

    Every mutation takes the instance lock — concurrent serving
    sessions bump these from scheduler worker threads, so a bare
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
