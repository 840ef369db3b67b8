"""Topological forcing of the expression DAG (§III, §V).

``force(tail)`` is the single entry point: it collects the pending
ancestors of *tail* (exactly the subgraph the spec says a forcing call
must complete — unrelated pending work stays deferred), hands them to
the fusion planner, then executes them one at a time in dependency
order.  A Context's ``nthreads`` does not parallelise the DAG: it
parallelises inside ``mxm``, whose row blocks run on the context's
worker pool (``internals/mxm.py``).

Error contract (§V): execution errors raised by a kernel are recorded
on the node, the output object's error string is set, and the first
not-yet-raised failure in the forced subgraph is re-raised *from the
forcing call*.  Dependents of a failed node never run — they propagate
the failure and carry the pre-failure state forward, which is how the
old runtime's "a failed op drops the rest of the sequence" behaviour is
preserved across objects.

A process-wide execution lock serializes whole forcings.  This keeps
the §VI single-writer discipline trivially safe without per-object
locks held across kernel calls.
"""

from __future__ import annotations

import threading
import time

from ..core.errors import ExecutionError, GraphBLASError, PanicError
from ..faults.retry import with_retry
from ..internals.applyselect import run_stages
from . import cancel
from .dag import DONE, ELIDED, FAILED, PENDING, Node
from .fusion import plan_subgraph
from .stats import STATS
from .txn import commit as _txn_commit

__all__ = ["force", "chain_complete_safe"]

#: Serializes forcings end to end (reentrant: a kernel that forces a
#: scalar input mid-forcing must not deadlock).
_EXEC_LOCK = threading.RLock()


# -- public API ---------------------------------------------------------------


def force(tail: Node):
    """Execute everything *tail* depends on; return its result carrier.

    Raises the first not-yet-surfaced execution error in the forced
    subgraph (marking it raised, so each deferred error surfaces from
    exactly one forcing call — §V).
    """
    with _EXEC_LOCK:
        STATS.bump("forces")
        executed: list[Node] = []
        if tail.state == PENDING:
            t0 = time.perf_counter()
            cancel.checkpoint(f"force:{tail.label}")
            try:
                executed = _collect(tail)
                plan_subgraph(executed)
                for node in executed:  # topo order: deps already settled
                    _run_node(node)
            finally:
                for node in executed:
                    if node.state == DONE:
                        _release(node)
            STATS.span(
                f"force:{tail.label}", "force", t0,
                time.perf_counter() - t0, {"nodes": len(executed)},
            )
        for node in executed:
            if node.state == FAILED and not node.exc_raised:
                node.exc_raised = True
                raise node.exc
        if tail.state == FAILED and not tail.exc_raised:
            tail.exc_raised = True
            raise tail.exc
        return tail.result


def _release(node: Node) -> None:
    """Drop a settled node's links once its forcing has ended.

    After a node is DONE only ``state`` and ``result`` are read (a
    consumer's ``Source.resolve``, a later forcing's dependency check),
    so its sequence and data edges, owner, closures and planner
    decorations go: the inputs and intermediates they pin then die by
    refcount instead of waiting in owner ↔ node cycles for the cyclic
    collector."""
    node.prev = node.owner = None
    node.inputs = ()
    node.thunk = node.compute = node.writeback = node.writes = None
    node.stages = node.mask_info = node.plan = None


def chain_complete_safe(tail: Node) -> bool:
    """True when every pending ancestor of *tail* is guaranteed not to
    raise an execution error — the condition under which
    ``wait(COMPLETE)`` may legally leave the sequence deferred (§V:
    COMPLETE only promises errors have been surfaced)."""
    stack = [tail]
    seen: set[int] = set()
    while stack:
        node = stack.pop()
        if id(node) in seen or node.state != PENDING:
            continue
        if not node.complete_safe:
            return False
        seen.add(id(node))
        stack.extend(node.dep_nodes())
    return True


# -- subgraph collection ------------------------------------------------------


def _collect(tail: Node) -> list[Node]:
    """Pending ancestors of *tail* in topological (deps-first) order."""
    order: list[Node] = []
    seen: set[int] = set()
    stack: list[tuple[Node, bool]] = [(tail, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen or node.state != PENDING:
            continue
        seen.add(id(node))
        if node.writes is not None:
            node.seal()  # pending tuples: the run ends where it is read
        stack.append((node, True))
        for dep in node.dep_nodes():
            if dep.state == PENDING and id(dep) not in seen:
                stack.append((dep, False))
    return order


# -- single-node execution ----------------------------------------------------


def _node_stats(node: Node):
    """The owning context's tenant rollup, if one was ever created.

    Attribution never *creates* the rollup: non-serving workloads pay a
    single attribute probe and nothing else."""
    ctx = getattr(node.owner, "_ctx", None)
    return None if ctx is None else getattr(ctx, "_local_stats", None)


def _resolve_prev(node: Node):
    """The carrier of the output object's previous state, skipping over
    producers that were fused away (their value lives inside a pipeline
    and was, by construction, never observable)."""
    src = node.prev
    while src.node is not None and src.node.state == ELIDED:
        src = src.node.prev
    return src.resolve()


def _run_node(node: Node) -> None:
    """Execute one node.  Failures are recorded on the node (and the
    owner's error string, per §V) for ``force`` to surface — the single
    exception is cooperative cancellation: a tripped deadline checkpoint
    raises ``GrB_TIMEOUT`` *before* any kernel or commit runs, so the
    node stays PENDING (deferred) and every carrier keeps its
    last-committed value."""
    cancel.checkpoint(node.label)
    for dep in node.dep_nodes():
        if dep.state == FAILED:
            node.state = FAILED
            node.exc = dep.exc
            node.result = _carrier_before(node)
            return
    if node.state == ELIDED:
        return  # absorbed into a consumer's pipeline; nothing to run
    t0 = time.perf_counter()
    if node.plan is not None:
        try:
            node.result = _checked_evaluate(node)
            node.state = DONE
            kind = f"fused:{node.kind}"
            elapsed = time.perf_counter() - t0
            STATS.kernel(kind, elapsed)
            local = _node_stats(node)
            if local is not None:
                local.kernel(elapsed)
            STATS.span(
                kind, "kernel", t0, elapsed,
                {"node": node.label},
            )
        except Exception:
            # A fused evaluation failed.  Optimization must be
            # transparent even on failure: unfused execution would have
            # preserved every intermediate state before the op that
            # actually raises, so re-run the chain node by node (the
            # absorbed producers are pure — re-running is safe) and let
            # the normal §V machinery attribute the error to the node
            # that actually fails.
            _run_deoptimized_fallback(node)
        return
    try:
        result = _checked_evaluate(node)
    except ExecutionError as exc:
        _record_failure(node, exc, f"{node.label}: {exc.message}")
        return
    except GraphBLASError as exc:
        # API errors are never deferred by the ops layer; one escaping a
        # kernel is still surfaced but not recorded as a deferred error.
        node.exc = exc
        node.state = FAILED
        node.result = _carrier_before(node)
        return
    except Exception as exc:  # user-defined operator blew up: §V panic
        message = (
            f"{node.label}: user-defined function raised "
            f"{type(exc).__name__}: {exc}"
        )
        wrapped = PanicError(message)
        wrapped.__cause__ = exc
        _record_failure(node, wrapped, message)
        return
    node.result = result
    node.state = DONE
    elapsed = time.perf_counter() - t0
    STATS.kernel(node.kind, elapsed)
    local = _node_stats(node)
    if local is not None:
        local.kernel(elapsed)
    STATS.span(
        node.kind, "kernel", t0, elapsed,
        {"node": node.label},
    )


def _run_deoptimized_fallback(node: Node) -> None:
    """Re-execute a failed fused chain unfused.

    The absorbed producers flip back to PENDING and run standalone in
    dependency order; dependent-failure propagation then reproduces the
    exact unfused outcome — every node before the failing one leaves its
    result for the pre-failure carrier walk, and the failing node gets
    the error recorded under its own label.
    """
    plan, node.plan = node.plan, None
    for x in plan.chain:
        x.state = PENDING
    for x in plan.chain:
        _run_node(x)
    _run_node(node)


def _record_failure(node: Node, exc: BaseException, message: str) -> None:
    if node.owner is not None:
        node.owner._err = message
    STATS.bump("errors_deferred")
    local = _node_stats(node)
    if local is not None:
        local.bump("errors_deferred")
    node.exc = exc
    node.state = FAILED
    node.result = _carrier_before(node)


def _carrier_before(node: Node):
    """Pre-failure state: what the owner held before this node ran."""
    src = node.prev
    while src.node is not None and src.node.state == ELIDED:
        src = src.node.prev
    if src.node is None:
        return src.data
    return src.node.result


def _checked_evaluate(node: Node):
    """Evaluate a node as a *transaction*: the kernel runs inside the
    transient-fault retry envelope and its scratch result must pass the
    commit gate (:mod:`repro.engine.txn`) before it is published as the
    node's result.  Kernels are pure over immutable carriers, so a
    retried evaluation is indistinguishable from a first run."""
    return with_retry(
        lambda: _txn_commit(node.label, _evaluate(node)), node.label
    )


def _evaluate(node: Node):
    if node.thunk is not None:
        return node.thunk(_resolve_prev(node))
    plan = node.plan
    if plan is not None:
        if plan.head is not None:
            t = plan.head.compute([s.resolve() for s in plan.head.inputs])
        else:
            t = plan.start.resolve()
        t = run_stages(t, plan.stages)
    elif node.stages is not None:
        t = run_stages(node.inputs[node.pipe_input].resolve(), node.stages)
    else:
        t = node.compute([s.resolve() for s in node.inputs])
    prev = None if node.pure else _resolve_prev(node)
    return node.writeback(prev, t)
