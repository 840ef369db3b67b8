"""The graph service: resident graphs + tenant sessions + group runner.

``GraphService`` owns a small context tree::

    svc-root                     (service root, child of top-level)
    ├── svc-batch                (shared batch context, own fault domain)
    ├── sess-<tenant-a>          (one child context per session)
    └── sess-<tenant-b>

Resident graphs are stored as *committed carriers* (immutable — the
result of forcing the registering matrix), so handing a tenant a view
is ``Matrix.from_data``: O(1), no copy, and the §IV same-context rule
is satisfied because every derived object lives in the viewing
context.  Shared msbfs submissions run in the batch context, whose
result memo keeps the graph's pattern block warm across windows.

Durability: when a checkpoint directory is configured (ctor argument or
the ``CHECKPOINT_DIR`` knob) the service attaches a
:class:`~repro.serve.recovery.CheckpointStore`.  Registrations and
mutations are write-ahead journaled *before* they are acknowledged,
``checkpoint()`` compacts journal-into-snapshot (optionally carrying
warm algo-memo blocks), and
:meth:`GraphService.restore` rebuilds a bit-identical service from the
directory — snapshot plus journal replay, zero lost acknowledged
writes.

Health: :class:`~repro.serve.health.HealthMonitor` keeps a circuit
breaker per tenant; every execution outcome lands in
:meth:`_record_outcome`, and a breaker recovery restores the tenant's
context (clearing serial demotion) — the full degrade/recover loop.

Streaming ingest: :meth:`ingest_edges` *buffers* edge batches per graph
and commits them in bulk — one merged carrier build, **one** journal
record, one publish — either when the buffer reaches ``INGEST_BATCH``
edges or at an explicit :meth:`flush_ingest` (mutations, checkpoints,
and close flush implicitly).  Each publish records its normalized write
set in a bounded per-generation history, so a tenant session whose
cached view is a few generations behind can *patch* it forward in
place (``Matrix.update_batch``) instead of dropping the view — keeping
the view's uid, and with it every delta-patched algo-memo block, warm
across the write.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Any

import numpy as np

from ..core.context import Context, Mode
from ..core.errors import InvalidValueError
from ..core.matrix import Matrix
from ..engine.stats import STATS
from ..internals import config
from ..internals.stream import (
    WriteDelta,
    apply_delta,
    build_delta,
    coerce_edges,
)
from .batch import Group, coalesce
from .health import HealthMonitor
from .query import Query, QueryResult
from .recovery import CheckpointStore, carry_blocks
from .session import Session

__all__ = ["GraphService"]

#: Publish generations of write-set history kept per graph; a session
#: further behind than this refetches the full carrier.
_DELTA_HISTORY = 64


class GraphService:
    """N resident named graphs served to M tenant sessions."""

    def __init__(
        self,
        mode: Mode = Mode.NONBLOCKING,
        name: str = "svc",
        checkpoint_dir: str | None = None,
        store_dir: str | None = None,
    ):
        self.name = name
        self.root = Context.new(mode, name=f"{name}-root")
        self._batch_ctx = Context.new(
            mode, parent=self.root,
            exec_spec={"fault_domain": f"{name}:batch"},
            name=f"{name}-batch",
        )
        self._batch_ctx.local_stats()
        self._lock = threading.Lock()
        self._graphs: dict[str, Any] = {}      # name -> committed carrier
        self._graph_gen: dict[str, int] = {}   # name -> publish generation
        self._batch_views: dict[str, Matrix] = {}
        self._sessions: dict[str, Session] = {}
        #: view uid -> (graph name, publish generation): lets the
        #: checkpointer attribute algo-memo entries (keyed by view uid)
        #: to the resident graph *value* they were built over.  The
        #: generation only ever grows; ``id(carrier)`` would not do —
        #: carriers die every generation and their ids come back.
        self._view_uids: dict[int, tuple[str, int]] = {}
        #: (graph, kind, params) -> (carrier, cost_ms): warm blocks from
        #: a restore, seeded into each context that views the graph.
        self._warm_blocks: dict[tuple, tuple] = {}
        #: name -> [(rows, cols, vals), ...]: accepted-but-uncommitted
        #: ingest batches (validated on admission, durable at flush).
        self._ingest: dict[str, list] = {}
        self._ingest_pending: dict[str, int] = {}
        #: name -> OrderedDict[gen, (rows, cols, vals)]: the normalized
        #: write set that produced each publish generation.
        self._graph_deltas: dict[str, OrderedDict] = {}
        self.health = HealthMonitor()
        self._closed = False
        #: Serializes WAL-append + in-memory publish against
        #: snapshot + journal rotation, so a checkpoint can never fold
        #: away a journaled-but-unpublished write.
        self._dur_lock = threading.RLock()
        self._store: CheckpointStore | None = None
        if checkpoint_dir is None:
            checkpoint_dir = str(config.get_option("CHECKPOINT_DIR")) or None
        if checkpoint_dir:
            self._store = CheckpointStore(checkpoint_dir)
        # Warm-start store: a *fresh replica* — no checkpoint of its
        # own — still answers its first pagerank/BFS with zero setup
        # kernels from the cross-process tier.  Complementary to the
        # checkpoint store above, which only helps the same deployment.
        if store_dir:
            from ..store import tier as store_tier

            store_tier.activate(store_dir)

    # -- resident graphs ------------------------------------------------------

    def register_graph(self, name: str, matrix: Matrix) -> dict:
        """Make *matrix*'s committed value resident under *name*.

        Forces the registering sequence and keeps the immutable carrier;
        later writes to the caller's matrix do not affect the resident
        value (re-register to publish a new snapshot).  With a
        checkpoint store attached, the registration is journaled (full
        §VII blob) before this call returns.
        """
        carrier = matrix._capture()
        with self._dur_lock:
            with self._lock:
                self._check_open()
            # Buffered ingest against the old value commits first: an
            # accepted edge write is never silently superseded.
            self.flush_ingest(name)
            if self._store is not None:
                from ..formats.serialize import carrier_serialize

                self._store.journal_register(name, carrier_serialize(carrier))
            self._publish_carrier(name, carrier)
        return {"name": name, "nrows": carrier.nrows,
                "ncols": carrier.ncols, "nvals": carrier.nvals}

    def mutate_graph(self, name: str, rows, cols, vals) -> dict:
        """Upsert a batch of weighted edges into resident graph *name*.

        The mutation is validated and applied to a *new* carrier
        (resident carriers are immutable — live views keep reading the
        old one), write-ahead journaled, then published.  The ack a
        caller gets implies durability: a crash any instant later
        replays the write.  Sessions pick up the new value at their
        next ``view`` call (generation bump) — patching a cached view
        forward from the recorded write set when the history allows.
        Any buffered ingest for *name* commits first, preserving write
        order.
        """
        with self._dur_lock:
            self.flush_ingest(name)
            with self._lock:
                self._check_open()
                carrier = self._graphs.get(name)
            if carrier is None:
                raise InvalidValueError(f"no resident graph named {name!r}")
            new = self._commit_edges(name, carrier, rows, cols, vals)
        return {"name": name, "nrows": new.nrows,
                "ncols": new.ncols, "nvals": new.nvals}

    def _commit_edges(self, name: str, carrier, rows, cols, vals):
        """Merge + journal + publish one edge batch (holds ``_dur_lock``)."""
        delta = build_delta(carrier, rows, cols, vals)
        new = apply_delta(carrier, delta)
        if new is not carrier:
            new.check()
        if self._store is not None:
            self._store.journal_mutate(
                name, rows, cols, vals, carrier.type.name
            )
        self._publish_carrier(name, new, delta)
        return new

    # -- streaming ingest -----------------------------------------------------

    def ingest_edges(self, name: str, rows, cols, vals) -> dict:
        """Buffer an edge batch against graph *name* for bulk commit.

        The batch is validated (shape, bounds, dtype) on admission —
        a bad write is rejected while the caller's stack is live — and
        committed when the buffer reaches ``INGEST_BATCH`` edges, at an
        explicit :meth:`flush_ingest`, or implicitly before any
        ``mutate_graph``/``register_graph``/``checkpoint``/``close``.
        A flush is one merged carrier build and **one** journal record
        no matter how many calls filled the buffer; the ``durable``
        field of the ack says whether this call triggered it.
        """
        with self._lock:
            self._check_open()
            carrier = self._graphs.get(name)
        if carrier is None:
            raise InvalidValueError(f"no resident graph named {name!r}")
        r, c, v = coerce_edges(carrier, rows, cols, vals)
        with self._lock:
            self._check_open()
            self._ingest.setdefault(name, []).append((r, c, v))
            pending = self._ingest_pending.get(name, 0) + len(r)
            self._ingest_pending[name] = pending
        flushed = False
        if pending >= int(config.get_option("INGEST_BATCH")):
            flushed = name in self.flush_ingest(name)
        return {"name": name, "accepted": int(len(r)),
                "pending": 0 if flushed else pending, "durable": flushed}

    def flush_ingest(self, name: str | None = None) -> dict:
        """Commit buffered ingest batches (every graph, or just *name*).

        Returns ``{graph: edges_committed}`` for the graphs that had a
        non-empty buffer.  Idempotent and safe to call anytime; a
        closed service is a no-op.
        """
        with self._dur_lock:
            with self._lock:
                if self._closed:
                    return {}
                names = [name] if name is not None else list(self._ingest)
                pending: dict[str, list] = {}
                for n in names:
                    batches = self._ingest.pop(n, None)
                    self._ingest_pending.pop(n, None)
                    if batches:
                        pending[n] = batches
            out: dict[str, int] = {}
            for n, batches in pending.items():
                with self._lock:
                    carrier = self._graphs.get(n)
                if carrier is None:
                    continue
                rows = np.concatenate([b[0] for b in batches])
                cols = np.concatenate([b[1] for b in batches])
                vals = np.concatenate([b[2] for b in batches])
                self._commit_edges(n, carrier, rows, cols, vals)
                STATS.bump("ingest_batches")
                STATS.bump("ingest_edges_committed", int(len(rows)))
                out[n] = int(len(rows))
            return out

    def _publish_carrier(
        self, name: str, carrier: Any, delta: WriteDelta | None = None
    ) -> None:
        """Make *carrier* the resident value of *name*: *delta* is the
        write that produced it from the previous value, ``None`` a full
        replacement."""
        with self._lock:
            self._graphs[name] = carrier
            self._batch_views.pop(name, None)
            gen = self._graph_gen.get(name, 0) + 1
            self._graph_gen[name] = gen
            # Blocks a restore brought along describe the previous
            # value; they follow the write or go.
            carry_blocks(self._warm_blocks, name, delta)
            if delta is None:
                # Full replacement: history before it cannot advance a
                # stale view to this value.
                self._graph_deltas.pop(name, None)
            else:
                hist = self._graph_deltas.setdefault(name, OrderedDict())
                hist[gen] = (delta.rows, delta.cols, delta.vals)
                while len(hist) > _DELTA_HISTORY:
                    hist.popitem(last=False)

    def deltas_between(
        self, name: str, from_gen: int, to_gen: int
    ) -> list | None:
        """The write sets advancing *name* from one generation to
        another, oldest first — or ``None`` when the history cannot
        bridge the span (evicted, or a full republish in between)."""
        if to_gen <= from_gen:
            return []
        with self._lock:
            hist = self._graph_deltas.get(name)
            if hist is None:
                return None
            out = []
            for gen in range(from_gen + 1, to_gen + 1):
                delta = hist.get(gen)
                if delta is None:
                    return None
                out.append(delta)
            return out

    def _note_view_patched(self, uid: int, name: str, gen: int) -> None:
        """Re-attribute a patched view's uid to the generation it now
        holds, so its algo-memo blocks stay checkpointable."""
        with self._lock:
            self._view_uids[uid] = (name, gen)

    def graph_generation(self, name: str) -> int:
        """Publish generation of graph *name* (0 = never registered)."""
        with self._lock:
            return self._graph_gen.get(name, 0)

    def graphs(self) -> dict[str, dict]:
        with self._lock:
            return {
                name: {"nrows": c.nrows, "ncols": c.ncols, "nvals": c.nvals}
                for name, c in self._graphs.items()
            }

    def graph_view(self, name: str, ctx: Context) -> Matrix:
        """A zero-copy view of resident graph *name* in *ctx*.

        Side effects for the durability plane: the view's uid is mapped
        back to the graph (so the checkpointer can attribute algo-memo
        blocks), and any warm blocks a restore brought along are seeded
        into *ctx*'s result memo under this view's key — the first
        pagerank/BFS/triangles on a restored replica skips its setup
        kernels exactly as if the process had never died.
        """
        with self._lock:
            carrier = self._graphs.get(name)
            gen = self._graph_gen.get(name, 0)
            warm = [
                (key, blk) for key, blk in self._warm_blocks.items()
                if key[0] == name
            ]
        if carrier is None:
            raise InvalidValueError(f"no resident graph named {name!r}")
        mat = Matrix.from_data(carrier, ctx)
        uid, version = mat._uid, mat._version
        with self._lock:
            self._view_uids[uid] = (name, gen)
        if warm and config.get_option("ENGINE_ALGO_MEMO"):
            memo = ctx.result_memo(create=True)
            if memo is not None:
                for (_, kind, params), (block, cost_ms) in warm:
                    memo.store(
                        ("algo", kind, (uid, version), params),
                        block, deps=(uid,), cost_ms=cost_ms,
                    )
        return mat

    def _batch_view(self, name: str) -> Matrix:
        with self._lock:
            view = self._batch_views.get(name)
        if view is None:
            view = self.graph_view(name, self._batch_ctx)
            with self._lock:
                self._batch_views[name] = view
        return view

    # -- sessions -------------------------------------------------------------

    def open_session(
        self,
        tenant: str,
        *,
        nthreads: int | None = None,
        memo_capacity: int | None = None,
    ) -> Session:
        """Bind *tenant* to a fresh child context with its own quota.

        The spec keys are the tenant's §IV resource scope: worker share
        (``nthreads``), memo quota (``memo_capacity``), and a fault
        domain equal to the tenant name so targeted chaos stays inside.
        """
        spec: dict[str, Any] = {"fault_domain": tenant}
        if nthreads is not None:
            spec["nthreads"] = nthreads
        if memo_capacity is not None:
            spec["memo_capacity"] = memo_capacity
        with self._lock:
            self._check_open()
            if tenant in self._sessions:
                raise InvalidValueError(
                    f"tenant {tenant!r} already has an open session"
                )
        ctx = Context.new(
            self.root.mode, parent=self.root, exec_spec=spec,
            name=f"sess-{tenant}",
        )
        session = Session(self, tenant, ctx)
        with self._lock:
            self._sessions[tenant] = session
        return session

    def _forget_session(self, session: Session) -> None:
        with self._lock:
            if self._sessions.get(session.tenant) is session:
                del self._sessions[session.tenant]

    def sessions(self) -> dict[str, Session]:
        with self._lock:
            return dict(self._sessions)

    # -- execution ------------------------------------------------------------

    def execute(self, session: Session, query: Query) -> QueryResult:
        """Run one query alone in the tenant's context (no batching)."""
        result = session.run(query)
        STATS.bump("serve_completed")
        return result

    def execute_window(self, entries: list, tokens: list | None = None) -> list:
        """Run a window of ``(session, query)`` pairs, coalesced.

        Returns one slot per entry, in submission order: a
        :class:`QueryResult` on success or the ``Exception`` that query
        raised (per-query failure isolation — one tenant's error never
        poisons a sibling's slot).  ``tokens`` (parallel to *entries*)
        carries each query's cancellation token; solo executions run
        inside their token's scope, while *shared* submissions (msbfs,
        dedup) deliberately run unscoped — one rider's deadline must
        never kill an answer its siblings are still entitled to.
        """
        groups = coalesce(entries)
        results: list = [None] * len(entries)
        for group in groups:
            self._run_group(group, results, tokens)
        return results

    def _run_group(
        self, group: Group, results: list, tokens: list | None = None
    ) -> None:
        if group.mode == "msbfs" and len(group.entries) > 1:
            if self._run_msbfs(group, results):
                return
        elif group.mode == "dedup" and len(group.entries) > 1:
            if self._run_dedup(group, results):
                return
        # Singles — and the serial fallback when a shared submission
        # failed: every rider re-runs alone in its own context, so a
        # fault in the shared path degrades to per-query §V semantics.
        for idx, session, query in group.entries:
            if results[idx] is not None:
                continue
            token = tokens[idx] if tokens is not None else None
            try:
                results[idx] = session.run(query, token=token)
            except Exception as exc:
                results[idx] = exc

    def _run_msbfs(self, group: Group, results: list) -> bool:
        """One multi-source traversal answering every rider; False to
        fall back to serial singles."""
        graph = group.entries[0][2].graph
        sources = [int(q.source) for _, _, q in group.entries]
        t0 = time.perf_counter()
        try:
            from ..algorithms import msbfs_levels

            view = self._batch_view(graph)
            levels = msbfs_levels(view, sources)
            rows, cols, vals = levels.extract_tuples()
        except Exception:
            return False
        per_row: list[dict[int, int]] = [{} for _ in group.entries]
        for r, c, v in zip(rows, cols, vals):
            per_row[int(r)][int(c)] = int(v)
        latency = (time.perf_counter() - t0) * 1e3
        for (idx, session, query), value in zip(group.entries, per_row):
            result = QueryResult(
                query, value, session.tenant,
                latency_ms=latency, batched=True,
            )
            session.record(result)
            results[idx] = result
        return True

    def _run_dedup(self, group: Group, results: list) -> bool:
        """Execute one representative; every rider shares the answer."""
        idx0, rep_session, rep_query = group.entries[0]
        t0 = time.perf_counter()
        try:
            value = rep_session._dispatch(rep_query)
        except Exception:
            return False
        latency = (time.perf_counter() - t0) * 1e3
        for idx, session, query in group.entries:
            result = QueryResult(
                query, value, session.tenant,
                latency_ms=latency, batched=True,
            )
            session.record(result)
            results[idx] = result
        return True

    # -- durability: checkpoint / restore -------------------------------------

    def checkpoint(self) -> dict | None:
        """Compact journal-into-snapshot; returns the manifest.

        Persists every resident carrier (digest-keyed §VII blobs) and
        the warm algo-memo blocks attributable to resident graphs, then
        rotates to a fresh journal generation.  No-op (``None``)
        without a checkpoint store.
        """
        if self._store is None:
            return None
        with self._dur_lock:
            # Buffered ingest folds into the snapshot, not the next
            # journal generation.
            self.flush_ingest()
            with self._lock:
                self._check_open()
                graphs = dict(self._graphs)
                gens = dict(self._graph_gen)
            return self._store.write_checkpoint(
                graphs,
                blocks=self._collect_warm_blocks(gens),
                service=self.name,
            )

    def _collect_warm_blocks(self, gens: dict[str, int]) -> dict:
        """Algo-memo entries attributable to a *current* resident graph
        (*gens*: name -> the generation being checkpointed), keyed
        portably as ``(graph name, block kind, params)``."""
        contexts = [self._batch_ctx]
        contexts.extend(s.ctx for s in self.sessions().values())
        with self._lock:
            view_uids = dict(self._view_uids)
        out: dict[tuple, tuple] = dict(self._warm_blocks)
        for ctx in contexts:
            memo = ctx.result_memo(create=False)
            if memo is None:
                continue
            for key, carrier, cost_ms in memo.entries():
                if not (isinstance(key, tuple) and len(key) == 4
                        and key[0] == "algo"):
                    continue
                _, kind, vkey, params = key
                if isinstance(kind, str) and kind.startswith("warm:"):
                    # Warm fixpoint payloads are (value, meta) tuples,
                    # not §VII carrier streams — rebuilt, not restored.
                    continue
                if not (isinstance(vkey, tuple) and len(vkey) == 2):
                    continue
                mapped = view_uids.get(vkey[0])
                if mapped is None:
                    continue
                gname, gen = mapped
                if gens.get(gname) != gen:
                    continue  # block belongs to a superseded generation
                out[(gname, kind, params)] = (carrier, cost_ms)
        return out

    @classmethod
    def restore(
        cls,
        checkpoint_dir: str,
        mode: Mode = Mode.NONBLOCKING,
        name: str = "svc",
    ) -> "GraphService":
        """Rebuild a service from its checkpoint directory.

        Journal-over-snapshot replay through the *same*
        ``apply_edges`` path the live service uses, so the restored
        carriers are bit-identical to a replica that never crashed —
        zero lost acknowledged writes.  Warm blocks rehydrate lazily
        (they seed each context's memo as views are created).
        """
        svc = cls(mode, name=name, checkpoint_dir=checkpoint_dir)
        assert svc._store is not None
        state = svc._store.load()
        with svc._dur_lock:
            for gname, carrier in state.graphs.items():
                svc._publish_carrier(gname, carrier)
            with svc._lock:
                svc._warm_blocks = dict(state.blocks)
        STATS.bump("restores")
        if state.graphs:
            STATS.bump("restored_graphs", len(state.graphs))
        if state.blocks:
            STATS.bump("restored_blocks", len(state.blocks))
        return svc

    # -- health ---------------------------------------------------------------

    def _record_outcome(self, session: Session, ok: bool) -> None:
        """Feed one execution outcome to the tenant's circuit breaker;
        a successful probe restores the context (clears demotion)."""
        event = self.health.record(session.tenant, ok)
        if event == "recovered":
            session.ctx.restore()

    # -- introspection / teardown ---------------------------------------------

    def tenant_stats(self) -> dict[str, dict]:
        """Per-tenant rollups (the serving ``engine_stats()`` story)."""
        out = {}
        for tenant, session in self.sessions().items():
            snap = session.stats()
            snap["breaker"] = self.health.breaker(tenant).snapshot()
            snap["health_score"] = HealthMonitor.score(snap)
            out[tenant] = snap
        out["<batch>"] = self._batch_ctx.local_stats().snapshot()
        return out

    def _check_open(self) -> None:
        if self._closed:
            raise InvalidValueError(f"service {self.name!r} is closed")

    def close(self) -> None:
        """Free every session and the service's context tree."""
        try:
            # Accepted ingest becomes durable before teardown; a flush
            # failure must not leave the service half-closed.
            self.flush_ingest()
        except Exception:
            pass
        with self._lock:
            if self._closed:
                return
            self._closed = True
            sessions = list(self._sessions.values())
            self._sessions.clear()
            self._graphs.clear()
            self._batch_views.clear()
            self._view_uids.clear()
            self._warm_blocks.clear()
            self._ingest.clear()
            self._ingest_pending.clear()
            self._graph_deltas.clear()
        for session in sessions:
            session.ctx.free()
        self.root.free()
        if self._store is not None:
            self._store.close()
