"""Execution contexts (§IV, Figure 2).

GraphBLAS 1.X had a single program-wide context established by
``GrB_init``.  GraphBLAS 2.0 generalizes this into a *hierarchy* of
``GrB_Context`` objects so that multithreaded (and, in the future,
distributed) executions can scope resources:

* :func:`init` creates the **top-level context** (unchanged from 1.X).
* :meth:`Context.new` nests a context inside a parent (``parent=None``
  means the top-level context), with its own mode and an
  *implementation-defined* execution spec.  Ours is a
  :class:`ResourceSpec` — a validated mapping with keys:

  - ``nthreads`` — worker threads for ``mxm``'s row blocks,
  - ``memo_capacity`` — entry bound for this context's result memo
    (a tenant's cache quota in the serving layer),
  - ``fault_domain`` — label matched by targeted fault injection
    (``FaultSpec(where={"domain": ...})``) so chaos in one tenant
    cannot leak into a sibling.

* Vectors and matrices are created *in* a context (an optional
  constructor argument, §IV) and all objects participating in one
  method call must share a context — enforced as DOMAIN_MISMATCH.
* :func:`context_switch` re-homes an object (``GrB_Context_switch``).
* ``free()`` releases a context (it then behaves uninitialized);
  :func:`finalize` frees every context and tears down the library.

The class is split along the line the serving layer needs: the
**resource spec** (immutable :class:`ResourceSpec`, shared vocabulary
between §IV and admission control) versus the **per-session state**
(degradation, worker-fault count, result memo, kernel pool, local
stats), which is mutable and guarded by a per-instance lock so
concurrent sessions on sibling contexts never contend on — or corrupt —
each other's bookkeeping.
"""

from __future__ import annotations

import enum
import threading
from typing import Any, Mapping

from .errors import (
    InvalidValueError,
    PanicError,
    UninitializedObjectError,
)

__all__ = [
    "Mode",
    "WaitMode",
    "Context",
    "ResourceSpec",
    "init",
    "finalize",
    "is_initialized",
    "default_context",
    "context_switch",
    "get_version",
]


class Mode(enum.IntEnum):
    """``GrB_Mode`` with explicit values."""

    NONBLOCKING = 0
    BLOCKING = 1


class WaitMode(enum.IntEnum):
    """``GrB_WaitMode`` (§III completion / §V materialization)."""

    COMPLETE = 0
    MATERIALIZE = 1


#: Persistent worker faults a context absorbs before its ``mxm`` blocks
#: run serially (:meth:`Context.record_worker_fault`).
DEGRADE_AFTER_FAULTS = 2

_state_lock = threading.Lock()
_top_context: "Context | None" = None
_all_contexts: "list[Context]" = []


class ResourceSpec:
    """The immutable resource half of a context (§IV execution spec).

    Validated once at construction; contexts resolve unset keys through
    their ancestor chain (:meth:`Context.effective`), so a spec only
    names what this level *overrides*.
    """

    __slots__ = ("_values",)

    #: Every key an execution spec may set.
    KEYS = ("nthreads", "memo_capacity", "fault_domain")

    def __init__(self, spec: "Mapping[str, Any] | ResourceSpec | None" = None):
        if isinstance(spec, ResourceSpec):
            values = dict(spec._values)
        else:
            values = dict(spec or {})
        for key in ("nthreads", "memo_capacity"):
            val = values.get(key)
            if val is not None and (not isinstance(val, int) or val < 1):
                raise InvalidValueError(
                    f"{key} must be a positive int, got {val!r}"
                )
        domain = values.get("fault_domain")
        if domain is not None and (
                not isinstance(domain, str) or not domain):
            raise InvalidValueError(
                f"fault_domain must be a non-empty string, got {domain!r}"
            )
        unknown = set(values) - set(self.KEYS)
        if unknown:
            raise InvalidValueError(
                f"unknown execution-spec keys: {sorted(unknown)}"
            )
        self._values = values

    def __contains__(self, key: str) -> bool:
        return key in self._values

    def __getitem__(self, key: str) -> Any:
        return self._values[key]

    def get(self, key: str, default: Any = None) -> Any:
        return self._values.get(key, default)

    def as_dict(self) -> dict[str, Any]:
        return dict(self._values)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ResourceSpec):
            return self._values == other._values
        if isinstance(other, Mapping):
            return self._values == dict(other)
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ResourceSpec({self._values})"


class Context:
    """An opaque execution context (``GrB_Context``)."""

    __slots__ = (
        "__weakref__",
        "mode", "parent", "_spec", "_freed", "_children", "name",
        "_lock", "_degraded", "_worker_faults",
        "_result_memo", "_pool", "_pool_nthreads", "_local_stats",
    )

    def __init__(
        self,
        mode: Mode,
        parent: "Context | None",
        exec_spec: "Mapping[str, Any] | ResourceSpec | None",
        name: str = "",
    ):
        self.mode = Mode(mode)
        self.parent = parent
        self._spec = ResourceSpec(exec_spec)
        self._freed = False
        self._children: list[Context] = []
        self.name = name
        #: Guards the mutable per-session state below.  An RLock so the
        #: degradation path may consult config while holding it.
        self._lock = threading.RLock()
        self._degraded = False
        self._worker_faults = 0
        self._result_memo = None  # lazy ResultMemo (nonblocking planner)
        self._pool = None         # lazy ThreadPoolExecutor (mxm blocks)
        self._pool_nthreads = 0
        self._local_stats = None  # lazy ContextStats (tenant rollup)
        if parent is not None:
            parent._children.append(self)

    # -- GrB_Context_new ---------------------------------------------------

    @classmethod
    def new(
        cls,
        mode: Mode,
        parent: "Context | None" = None,
        exec_spec: "Mapping[str, Any] | ResourceSpec | None" = None,
        name: str = "",
    ) -> "Context":
        """``GrB_Context_new(ctx, mode, parent, exec)`` (Fig. 2).

        ``parent=None`` plays the role of ``GrB_NULL``: the new context
        nests under the top-level context, which must exist.
        """
        with _state_lock:
            if _top_context is None:
                raise PanicError("GrB_Context_new before GrB_init")
            actual_parent = parent if parent is not None else _top_context
        if actual_parent._freed:
            raise UninitializedObjectError("parent context has been freed")
        ctx = cls(mode, actual_parent, exec_spec, name)
        with _state_lock:
            _all_contexts.append(ctx)
        return ctx

    # -- resource resolution ------------------------------------------------

    def check_valid(self) -> None:
        if self._freed:
            raise UninitializedObjectError("context has been freed")

    @property
    def is_freed(self) -> bool:
        return self._freed

    @property
    def spec(self) -> ResourceSpec:
        """This context's own (immutable) resource spec."""
        return self._spec

    def exec_spec(self) -> dict[str, Any]:
        """A copy of this context's own execution spec."""
        return self._spec.as_dict()

    def effective(self, key: str, default: Any) -> Any:
        """Resolve a spec key through the ancestor chain."""
        ctx: Context | None = self
        while ctx is not None:
            if key in ctx._spec:
                return ctx._spec[key]
            ctx = ctx.parent
        return default

    @property
    def nthreads(self) -> int:
        return int(self.effective("nthreads", 1))

    @property
    def memo_capacity(self) -> int | None:
        """Result-memo entry bound, or ``None`` for the global default."""
        cap = self.effective("memo_capacity", None)
        return None if cap is None else int(cap)

    @property
    def fault_domain(self) -> str | None:
        """The fault-injection domain label, or ``None`` if unscoped."""
        return self.effective("fault_domain", None)

    @property
    def depth(self) -> int:
        """Nesting depth (top-level = 0)."""
        d, ctx = 0, self.parent
        while ctx is not None:
            d += 1
            ctx = ctx.parent
        return d

    def is_ancestor_of(self, other: "Context") -> bool:
        ctx: Context | None = other
        while ctx is not None:
            if ctx is self:
                return True
            ctx = ctx.parent
        return False

    # -- scoped engine resources ----------------------------------------------

    def result_memo(self, create: bool = True):
        """This context's cross-forcing result memo (lazily created).

        Scoping the memo to the context is what makes "never serve
        across mode or context boundaries" structural: a lookup made
        while planning an object's forcing can only see entries stored
        by sequences in the very same context.  The spec's
        ``memo_capacity`` (resolved through the ancestor chain) bounds
        it — a serving tenant's cache quota.
        """
        with self._lock:
            if self._result_memo is None and create and not self._freed:
                from ..engine.memo import ResultMemo

                self._result_memo = ResultMemo(capacity=self.memo_capacity)
            return self._result_memo

    def local_stats(self, create: bool = True):
        """This context's tenant-local stats rollup (lazily created).

        The scheduler attributes kernel time and reuse/fault events to
        the context owning each forced node; the serving layer reads
        the rollup back per tenant (``engine_stats()["tenant"]``).
        """
        with self._lock:
            if self._local_stats is None and create and not self._freed:
                from ..engine.stats import ContextStats

                self._local_stats = ContextStats()
            return self._local_stats

    def worker_pool(self):
        """The context's cached thread pool for ``mxm``'s row blocks,
        sized ``nthreads``: one pool per context, rebuilt only when the
        effective thread count changes, shut down on
        ``free``/``finalize``/degradation.

        Returns ``None`` once the context is freed: a deferred forcing
        (or a memo republish) that outlives ``free`` must not resurrect
        an executor nothing will ever shut down — callers fall back to
        serial execution instead.
        """
        from concurrent.futures import ThreadPoolExecutor

        nthreads = max(1, self.nthreads)
        with self._lock:
            if self._freed:
                return None
            pool = self._pool
            if (pool is None or self._pool_nthreads != nthreads
                    or getattr(pool, "_shutdown", False)):
                if pool is not None and not getattr(pool, "_shutdown", False):
                    pool.shutdown(wait=False)
                name = self.name or f"ctx{id(self) & 0xFFFF:x}"
                pool = ThreadPoolExecutor(
                    max_workers=nthreads,
                    thread_name_prefix=f"grb-{name}",
                )
                self._pool = pool
                self._pool_nthreads = nthreads
            return pool

    def _release_resources(self) -> None:
        """Drop memo entries and stop the worker pool (free/finalize)."""
        with self._lock:
            memo, self._result_memo = self._result_memo, None
            pool, self._pool = self._pool, None
            self._pool_nthreads = 0
        if memo is not None:
            memo.clear()
        if pool is not None:
            pool.shutdown(wait=False)

    # -- graceful degradation (fault plane) -----------------------------------

    @property
    def is_degraded(self) -> bool:
        """True once this context's ``mxm`` blocks have been demoted to
        serial execution after repeated worker faults."""
        return self._degraded

    def record_worker_fault(self) -> bool:
        """Count one absorbed worker fault against this context.

        Returns True exactly once — when the count reaches
        :data:`DEGRADE_AFTER_FAULTS` and the context flips to degraded
        (serial) execution.  Strictly per-context: a sibling tenant's
        count and pool are untouched.
        """
        with self._lock:
            self._worker_faults += 1
            degraded_now = (
                not self._degraded
                and self._worker_faults >= DEGRADE_AFTER_FAULTS
            )
            if degraded_now:
                self._degraded = True
            pool = None
            if degraded_now:
                # Serial execution from here on: stop the cached kernel
                # pool (workers may be wedged — don't wait on them).
                pool, self._pool = self._pool, None
                self._pool_nthreads = 0
        stats = self._local_stats
        if stats is not None:
            stats.bump("worker_faults")
        if pool is not None:
            pool.shutdown(wait=False)
        return degraded_now

    def restore(self) -> None:
        """Clear degraded state (operator action after the fault cleared)."""
        with self._lock:
            self._degraded = False
            self._worker_faults = 0

    # -- engine introspection -------------------------------------------------

    def engine_stats(self, include_spans: bool = False) -> dict[str, Any]:
        """Snapshot of the lazy-engine counters and per-kernel timings.

        The engine keeps process-wide statistics (nodes built/forced,
        fusions, CSE hits/reuses, pushed masks, deferred completes, ...);
        contexts expose them so tools need not import the engine package
        directly.  Fault plane counters ride along under ``fault_sites``
        (with the planner-pass subset repeated under ``planner_faults``),
        and ``include_spans=True`` adds the Chrome-trace event list under
        ``trace_events`` (what the CLI's ``--trace-out`` writes).

        The ``tenant`` key carries this context's *local* rollup —
        kernels, kernel wall time, reuse events, worker faults, serving
        counters — attributed by the scheduler to the context owning
        each forced node.  Process-wide counters answer "did the
        optimizer do anything?"; the tenant rollup answers "who
        consumed it?".
        """
        from ..engine.stats import STATS
        from ..faults.plane import PLANE

        snap = STATS.snapshot()
        plane_snap = PLANE.snapshot()
        injected = plane_snap["injected"]
        snap["fault_sites"] = injected
        snap["planner_faults"] = {
            site: n for site, n in injected.items()
            if site.startswith("planner.")
        }
        snap["fault_domains"] = plane_snap.get("by_domain", {})
        with self._lock:
            memo = self._result_memo
            stats = self._local_stats
            snap["context_degraded"] = self._degraded
        snap["memo_entries"] = 0 if memo is None else len(memo)
        snap["memo_capacity"] = (
            0 if memo is None else memo.capacity
        )
        snap["fault_domain"] = self.fault_domain
        snap["tenant"] = {} if stats is None else stats.snapshot()
        if include_spans:
            snap["trace_events"] = STATS.trace_events()
        return snap

    # -- teardown ------------------------------------------------------------

    def free(self) -> None:
        """``GrB_free`` on a context: it then behaves uninitialized (§IV).

        Scoped resources die with the context: the result memo's cached
        carriers are dropped and the kernel thread pool is stopped.  The
        context leaves the live list :func:`finalize` walks and its
        parent's children, so nothing the library holds keeps it alive.
        """
        self._freed = True
        self._release_resources()
        with _state_lock:
            if self in _all_contexts:
                _all_contexts.remove(self)
            if self.parent is not None and self in self.parent._children:
                self.parent._children.remove(self)
        for child in list(self._children):
            child.free()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = self.name or f"depth={self.depth}"
        state = "freed" if self._freed else self.mode.name
        return f"Context({label}, {state}, exec={self._spec.as_dict()})"


def init(mode: Mode = Mode.NONBLOCKING) -> Context:
    """``GrB_init`` — create the top-level context.

    Calling it twice without an intervening :func:`finalize` is an
    error (PANIC per spec: behaviour of double-init is undefined and we
    choose to fail loudly).
    """
    global _top_context
    with _state_lock:
        if _top_context is not None:
            raise PanicError("GrB_init called twice")
        _top_context = Context(Mode(mode), None, None, name="top-level")
        _all_contexts.append(_top_context)
        return _top_context


def finalize() -> None:
    """``GrB_finalize`` — frees all ``GrB_Context`` objects (§IV)."""
    global _top_context
    with _state_lock:
        if _top_context is None:
            raise PanicError("GrB_finalize without GrB_init")
        released = list(_all_contexts)
        for ctx in released:
            ctx._freed = True
        _all_contexts.clear()
        _top_context = None
    for ctx in released:
        ctx._release_resources()


def is_initialized() -> bool:
    with _state_lock:
        return _top_context is not None


def default_context() -> Context:
    """The top-level context; PANIC if the library is uninitialized."""
    with _state_lock:
        if _top_context is None:
            raise PanicError("GraphBLAS method called before GrB_init")
        return _top_context


def context_switch(obj: Any, new_ctx: Context) -> None:
    """``GrB_Context_switch(<GrB Object>, newCtx)`` (Fig. 2).

    Re-homes a vector or matrix into another context.  O(1): data does
    not move on a shared-memory node; the binding changes.
    """
    new_ctx.check_valid()
    obj._switch_context(new_ctx)


def get_version() -> tuple[int, int]:
    """``GrB_getVersion`` — (major, minor) of the implemented spec."""
    return (2, 0)
