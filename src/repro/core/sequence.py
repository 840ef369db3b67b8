"""Deferred sequences, completion, and the opaque-object base (§III, §V).

The paper defines the *sequence* of a GraphBLAS object as the ordered
collection of method calls that define it at a point in the program.  In
nonblocking mode an implementation may defer, reorder, and optimize that
sequence; the object's state is then ambiguous until it is **complete**.

Our execution model:

* In ``BLOCKING`` mode every operation executes at the call.
* In ``NONBLOCKING`` mode a method call becomes a node in the
  expression DAG of :mod:`repro.engine`: the object's ``_tail`` points
  at the node for its latest state, each node's ``prev`` edge is the
  per-object sequence order, and inputs are captured as :class:`Source`
  references (cheap — a materialized carrier is immutable, a pending
  input is captured as a reference to its producing *node*, which is
  itself a snapshot: later mutations of the input append new nodes and
  never change the captured one).  The subgraph reachable from a tail
  is forced — fused and scheduled by the engine — by:

  - ``wait(COMPLETE)`` / ``wait(MATERIALIZE)`` (``GrB_wait``),
  - any value-reading method (``nvals``, ``extractElement``, export…),
  - use of the object as an *input* to another operation *in blocking
    mode* (nonblocking consumers just add a data edge).

* Execution errors raised while forcing are recorded on the object
  (retrievable thread-safely via :func:`error_string`, the analogue of
  ``GrB_error``) and re-raised at the forcing call; the failing
  object's remaining sequence is dropped and it keeps its pre-failure
  state.  API errors are never deferred: the operations layer validates
  arguments before building any node.

* ``wait(COMPLETE)`` is allowed to leave the sequence deferred when no
  pending ancestor can raise an execution error (§V only requires that
  errors from the sequence have been surfaced); ``wait(MATERIALIZE)``
  always forces and marks the object materialized.

Thread safety (§III): every opaque object owns an ``RLock`` guarding
its tail/error/lifecycle fields; the engine serializes forcings behind
a process-wide execution lock (inside one forcing only ``mxm``'s row
blocks run on worker threads).  Independent method calls from different
threads therefore serialize, giving the "sequential execution in some
interleaved order" guarantee.  The cross-thread hand-off of a *shared*
object additionally needs ``wait()`` plus a host-language
synchronized-with edge, exactly as the paper's Figure 1 program
demonstrates (reproduced in ``examples/fig1_two_thread_pipeline.py``).
"""

from __future__ import annotations

import itertools
import threading
from typing import Any, Callable, Sequence

from ..engine import opbatch, scheduler
from ..engine.dag import DONE, FAILED, Node, Source
from ..engine.memo import (
    invalidate_handle,
    patch_handle_blocks,
    release_handle,
)
from ..engine.stats import STATS
from ..engine.txn import commit as _txn_commit
from ..faults.retry import with_retry
from .context import Context, Mode, WaitMode, default_context
from .errors import (
    ExecutionError,
    GraphBLASError,
    PanicError,
    UninitializedObjectError,
)

__all__ = ["OpaqueObject", "error_string", "wait"]

#: Monotonic handle identity: unlike ``id()``, a uid is never reused,
#: so the result memo's versioned keys can never alias a dead handle.
_UIDS = itertools.count(1)


class OpaqueObject:
    """Base for Scalar / Vector / Matrix: sequence + error state + lock."""

    __slots__ = (
        "_lock", "_tail", "_err", "_ctx",
        "_data", "_valid", "_materialized",
        "_uid", "_version",
    )

    def __init__(self, ctx: Context | None):
        self._lock = threading.RLock()
        self._tail: Node | None = None
        self._err: str = ""
        self._ctx = ctx if ctx is not None else default_context()
        self._ctx.check_valid()
        self._data: Any = None  # set by subclass
        self._valid = True
        self._materialized = True
        self._uid = next(_UIDS)
        self._version = 0

    # -- context -----------------------------------------------------------

    @property
    def context(self) -> Context:
        return self._ctx

    def _switch_context(self, new_ctx: Context) -> None:
        with self._lock:
            self._check_valid()
            self._ctx = new_ctx

    @property
    def _mode(self) -> Mode:
        return self._ctx.mode

    def _check_valid(self) -> None:
        if not self._valid:
            raise UninitializedObjectError(
                f"{type(self).__name__} has been freed"
            )

    # -- sequence machinery ---------------------------------------------------

    def _prev_source(self) -> Source:
        """Sequence edge to this object's current state (lock held).

        A materialized capture carries the handle's versioned identity
        (``vkey``) so the cross-forcing result memo can recognise the
        same committed carrier in a later sequence.
        """
        if self._tail is not None:
            return Source.of_node(self._tail)
        return Source.of_data(self._data, vkey=(self._uid, self._version))

    def _advance(self, delta=None) -> None:
        """A write happened: bump the handle version and drop memo
        entries that depended on the previous committed state.

        A batched write may pass its :class:`~repro.internals.stream.
        WriteDelta` so the memo's delta tier can *patch* dependent
        blocks across the version bump instead of dropping them.
        """
        old = self._version
        self._version += 1
        if delta is not None:
            patch_handle_blocks(self._uid, old, self._version, delta)
        else:
            invalidate_handle(self._uid)

    def _as_source(self) -> Source:
        """Capture this object as an *input* of a deferred operation.

        A snapshot by construction: a pending object is captured as its
        current tail node, a materialized one as its immutable carrier.
        """
        with self._lock:
            self._check_valid()
            return self._prev_source()

    def _submit(
        self,
        thunk: Callable[[Any], Any],
        label: str,
        *,
        can_raise: bool = True,
        inputs: Sequence[Source] = (),
    ) -> None:
        """Run now (blocking mode) or append a DAG node (nonblocking).

        ``thunk(current_data) -> new_data``.  All argument validation
        must happen *before* ``_submit`` — API errors are never
        deferred.  ``can_raise=False`` marks methods that cannot raise
        an execution error (element writes, clear, resize…), which lets
        ``wait(COMPLETE)`` leave them legally deferred.  ``inputs`` are
        engine sources the thunk resolves internally (the scheduler
        settles them first).
        """
        with self._lock:
            self._check_valid()
            if self._mode == Mode.BLOCKING:
                self._data = self._run_now(label, lambda: thunk(self._data))
                self._advance()
                return
            self._tail = Node(
                kind="method",
                label=label,
                owner=self,
                prev=self._prev_source(),
                inputs=inputs,
                thunk=thunk,
                complete_safe=not can_raise,
            )
            self._materialized = False
            self._advance()

    def _submit_write(self, coord: Any, value: Any, label: str) -> None:
        """One element write — ``value`` already validated and coerced,
        or ``REMOVED`` — executed now (blocking) or deferred as a
        **pending tuple** (nonblocking).

        A run of consecutive element writes shares one DAG node: the
        write joins the tail node's list unless that node is sealed (a
        consumer captured it, or a forcing collected it), in which case
        it opens a fresh node — so whoever captured this object before
        the write never sees it.  The node's thunk folds the whole run
        into the carrier in one merge (subclass ``_apply_writes``).
        Cannot raise an execution error, so ``wait(COMPLETE)`` may leave
        the run deferred; every call advances the handle version.
        """
        with self._lock:
            self._check_valid()
            if self._mode == Mode.BLOCKING:
                data = self._data
                self._data = self._run_now(
                    label, lambda: self._write_one(data, coord, value)
                )
                self._advance()
                return
            tail = self._tail
            if tail is None or not tail.append_write(coord, value):
                writes = [(coord, value)]
                apply_writes = self._apply_writes
                self._tail = Node(
                    kind="method",
                    label=label,
                    owner=self,
                    prev=self._prev_source(),
                    thunk=lambda d: apply_writes(d, writes),
                    complete_safe=True,
                    writes=writes,
                )
                self._materialized = False
            self._advance()

    def _submit_op(
        self,
        *,
        kind: str,
        label: str,
        inputs: Sequence[Source] = (),
        compute: Callable[[list], Any] | None = None,
        writeback: Callable[[Any, Any], Any] | None = None,
        stages: list | None = None,
        pipe_input: int = 0,
        out_type: Any = None,
        pure: bool = False,
        complete_safe: bool = False,
        opkey: tuple | None = None,
        cse_safe: bool = False,
        mask_info: Any = None,
        pushable: bool = False,
        push_targets: tuple | None = None,
        batch_key: tuple | None = None,
        batch_compute: Callable | None = None,
    ) -> None:
        """Submit an operations-layer method (the fusable node shape).

        ``compute(datas) -> T`` produces the unmasked result from the
        resolved input carriers (or ``stages`` describe a fusable
        pipeline over ``inputs[pipe_input]``); ``writeback(prev, T)``
        applies mask/accumulator/replace against the previous state.
        ``pure`` asserts the write-back ignores ``prev`` entirely (no
        mask, no complement, no accumulator) — the property fusion needs.
        ``opkey``/``cse_safe``/``mask_info``/``pushable`` are planner
        metadata (structural identity for hash-consing, write-back shape
        for mask pushdown); blocking mode ignores them.
        """
        if self._mode == Mode.BLOCKING:
            # Inputs are concrete in blocking mode (captures force).
            def _run():
                if stages is not None:
                    from ..internals.applyselect import run_stages

                    t = run_stages(inputs[pipe_input].resolve(), stages)
                else:
                    t = compute([s.resolve() for s in inputs])
                prev = None if pure else self._data
                return writeback(prev, t)

            with self._lock:
                self._check_valid()
                self._data = self._run_now(label, _run)
                self._advance()
            return
        with self._lock:
            self._check_valid()
            self._tail = Node(
                kind=kind,
                label=label,
                owner=self,
                prev=self._prev_source(),
                inputs=inputs,
                compute=compute,
                writeback=writeback,
                stages=stages,
                pipe_input=pipe_input,
                out_type=out_type,
                pure=pure,
                complete_safe=complete_safe,
                opkey=opkey,
                cse_safe=cse_safe,
                mask_info=mask_info,
                pushable=pushable,
                push_targets=push_targets,
                batch_key=batch_key,
                batch_compute=batch_compute,
            )
            self._materialized = False
            self._advance()
            if batch_key is not None:
                opbatch.register(self._tail)

    def _run_now(self, label: str, fn: Callable[[], Any]) -> Any:
        """Blocking-mode execution with the §V error wrapping.

        Runs as a *transaction*: the method's scratch result passes the
        commit gate inside the transient-fault retry envelope, so a
        mid-kernel fault leaves ``_data`` untouched (the reference store
        below never happens) and transient faults are retried with
        backoff before they surface.
        """
        try:
            return with_retry(lambda: _txn_commit(label, fn()), label)
        except ExecutionError as exc:
            # §V: the OUT/INOUT argument's state is undefined after an
            # execution error; we keep the previous data and record the
            # error for GrB_error.
            self._err = f"{label}: {exc.message}"
            raise
        except GraphBLASError:
            raise
        except Exception as exc:
            # A user-defined operator raised while the kernel ran (in C
            # this is a crash inside a function pointer).  We give it
            # defined behaviour: GrB_PANIC, reported like any execution
            # error — deferred in nonblocking mode, recorded on the
            # object for GrB_error.
            message = (
                f"{label}: user-defined function raised "
                f"{type(exc).__name__}: {exc}"
            )
            self._err = message
            raise PanicError(message) from exc

    def _force(self) -> Any:
        """Complete the sequence; returns the (now definite) carrier.

        The first execution error raised by a deferred method surfaces
        here — at the forcing call — and drops the rest of the sequence
        (the object's state is undefined per §V; we keep the data from
        before the failing method).
        """
        with self._lock:
            self._check_valid()
            tail = self._tail
        if tail is None:
            return self._data
        try:
            result = scheduler.force(tail)
        except (ExecutionError, GraphBLASError):
            with self._lock:
                if self._tail is tail:
                    # Drop the rest of the sequence; keep the
                    # pre-failure carrier the engine recorded.
                    self._data = tail.result
                    self._tail = None
            raise
        with self._lock:
            if self._tail is tail:
                self._data = result
                self._tail = None
            return result

    def _capture(self) -> Any:
        """Force and snapshot the carrier (eager readers, exports)."""
        return self._force()

    def _sequence_labels(self) -> list[str]:
        """Labels of still-deferred methods, oldest first (diagnostics)."""
        with self._lock:
            labels: list[str] = []
            node = self._tail
            while node is not None and node.state not in (DONE, FAILED):
                labels.append(node.label)
                node = node.prev.node
            labels.reverse()
            return labels

    # -- the 2.0 wait / error surface -----------------------------------------

    def wait(self, mode: WaitMode = WaitMode.MATERIALIZE) -> None:
        """``GrB_wait(obj, mode)`` (§III completion, §V materialization).

        ``COMPLETE`` guarantees all execution errors of the sequence
        have been surfaced and the object can be handed to another
        thread (with a host-language synchronized-with edge); when every
        pending method is statically error-free the engine may leave the
        sequence deferred — the optimization freedom §III grants.
        ``MATERIALIZE`` additionally forces evaluation and pins the
        internal representation.
        """
        mode = WaitMode(mode)
        with self._lock:
            self._check_valid()
            tail = self._tail
        if mode == WaitMode.COMPLETE:
            if tail is None:
                return
            if scheduler.chain_complete_safe(tail):
                STATS.bump("completes_deferred")
                return
            self._force()
            return
        self._force()
        with self._lock:
            self._materialized = True

    @property
    def is_materialized(self) -> bool:
        with self._lock:
            return self._materialized and self._tail is None

    def error(self) -> str:
        """``GrB_error(&str, obj)`` — last execution-error string (§V).

        Thread safe: two threads may call it concurrently on the same
        object.  An empty string is always a legal result.
        """
        with self._lock:
            return self._err

    # -- lifecycle -------------------------------------------------------------

    def free(self) -> None:
        """``GrB_free`` — release; the handle then behaves uninitialized.

        Dropping the handle also drops every result-memo entry that
        depends on it — both entries computed *from* it and entries
        cached *for* it — so freed carriers stay collectable.
        """
        with self._lock:
            self._tail = None
            self._data = None
            self._valid = False
        release_handle(self._uid)


def wait(obj: OpaqueObject, mode: WaitMode = WaitMode.MATERIALIZE) -> None:
    """Free-function spelling of :meth:`OpaqueObject.wait` (C-style API)."""
    obj.wait(mode)


def error_string(obj: OpaqueObject) -> str:
    """Free-function spelling of :meth:`OpaqueObject.error` (C-style API)."""
    return obj.error()
