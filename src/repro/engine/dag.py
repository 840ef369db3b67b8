"""Expression-DAG nodes for nonblocking-mode execution (§III, §V).

The paper defines an object's *sequence* as the ordered method calls
that define it; nonblocking mode lets the implementation defer,
reorder, and optimize that sequence.  This module is the deferred
representation: every deferred method becomes a :class:`Node` holding

* a **sequence edge** (``prev``) to the node that produced the output
  object's previous state — this is the per-object program order the
  spec requires us to preserve observationally, and
* **data edges** (``inputs``) to the producers of the input carriers —
  these are the cross-object dependencies that make the per-object
  thunk list of the old runtime a genuine DAG, so ``wait``/value-reads
  force exactly the needed subgraph and chains can fuse into
  single-pass kernels (fusion).

A :class:`Source` is the capture of an input at call time: either a
concrete immutable carrier (the input was materialized) or a reference
to the producing node (the input itself had a pending sequence).
Either way the capture is a snapshot — later mutations of the input
object append *new* nodes and never change what was captured, which
preserves the sequence-snapshot semantics the old runtime got from
forcing inputs eagerly.

Nodes come in two shapes:

* **thunk nodes** (element methods, build, clear…) transform the
  previous carrier directly: ``result = thunk(prev)``.  A run of
  consecutive element writes on one object is a single thunk node
  holding **pending tuples** — an append-only ``writes`` list its thunk
  folds into the carrier in one merge.  The run is *sealed* (later
  writes open a fresh node) as soon as anything captures the node
  (``nrefs``), the owner's tail moves past it, or a forcing collects
  it, so a captured node stays the snapshot it was at capture time.
* **op nodes** (the operations layer) split into ``T = compute(datas)``
  (or a list of fusable *stages* over one pipe input) followed by
  ``result = writeback(prev, T, datas)`` — the standard mask/accum
  write-back.  The split is what fusion exploits: a *pure* write-back
  (no mask, no complement, no accumulator) is just a domain cast, so
  the node's result is independent of ``prev`` and the node can be
  absorbed into its sole consumer.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Sequence

from ..core.errors import PanicError
from .stats import STATS

__all__ = [
    "PENDING", "DONE", "FAILED", "ELIDED",
    "Source", "Node", "MaskInfo", "GRAPH_LOCK",
]

# Node states.
PENDING = 0   # not yet executed
DONE = 1      # executed; ``result`` holds the carrier
FAILED = 2    # execution error; ``exc`` set, ``result`` = pre-failure carrier
ELIDED = 3    # absorbed into a consumer's fused pipeline; never ran alone

#: Guards graph wiring (node/source creation, ref counting) and fusion
#: planning.  Held only for cheap pointer work — never while a kernel runs.
GRAPH_LOCK = threading.Lock()


class Source:
    """A captured operation input: concrete carrier or producing node."""

    __slots__ = ("node", "data")

    def __init__(self, node: "Node | None", data: Any):
        self.node = node
        self.data = data

    @classmethod
    def of_data(cls, data: Any) -> "Source":
        return cls(None, data)

    @classmethod
    def of_node(cls, node: "Node") -> "Source":
        """Reference a pending node's future result (bumps its refcount)."""
        with GRAPH_LOCK:
            node.nrefs += 1
        return cls(node, None)

    def resolve(self) -> Any:
        """The carrier this source stands for (producer must have run)."""
        if self.node is None:
            return self.data
        if self.node.state == ELIDED:
            raise PanicError(
                "internal engine error: read of a fused-away node "
                f"({self.node.label})"
            )
        return self.node.result


class MaskInfo:
    """Write-back metadata an op submits for the planner's benefit.

    The write-back closure is opaque to the engine; this record is what
    lets the fuse pass reason about it: whether REPLACE clears unwritten
    positions, and whether an accumulator reads the previous state.
    """

    __slots__ = ("replace", "has_accum")

    def __init__(self, *, replace: bool = False, has_accum: bool = False):
        self.replace = replace
        self.has_accum = has_accum


class Node:
    """One deferred method invocation in the expression DAG."""

    __slots__ = (
        "kind", "label", "owner", "prev", "inputs",
        "thunk", "compute", "writeback", "stages", "pipe_input",
        "out_type", "pure", "complete_safe",
        "mask_info", "writes", "sealed",
        "state", "result", "exc", "exc_raised", "nrefs", "plan",
    )

    def __init__(
        self,
        *,
        kind: str,
        label: str,
        owner: Any,
        prev: Source,
        inputs: Sequence[Source] = (),
        thunk: Callable[[Any], Any] | None = None,
        compute: Callable[[list], Any] | None = None,
        writeback: Callable[[Any, Any, list], Any] | None = None,
        stages: list | None = None,
        pipe_input: int = 0,
        out_type: Any = None,
        pure: bool = False,
        complete_safe: bool = False,
        mask_info: MaskInfo | None = None,
        writes: list | None = None,
    ):
        self.kind = kind
        self.label = label
        self.owner = owner
        self.prev = prev
        self.inputs = list(inputs)
        self.thunk = thunk
        self.compute = compute
        self.writeback = writeback
        self.stages = stages
        self.pipe_input = pipe_input
        self.out_type = out_type
        self.pure = pure
        self.complete_safe = complete_safe
        self.mask_info = mask_info
        # Pending tuples: the ``(coordinate, value | REMOVED)`` writes
        # this node's thunk folds in (``None`` for every other node).
        self.writes = writes
        self.sealed = False
        self.state = PENDING
        self.result: Any = None
        self.exc: BaseException | None = None
        self.exc_raised = False
        self.nrefs = 0
        self.plan = None  # FusionPlan (fuse pass) for absorbing consumers
        STATS.bump("nodes_built")

    # -- pending tuples ------------------------------------------------------

    def append_write(self, coord: Any, value: Any) -> bool:
        """Add one element write to this node's run; ``False`` when the
        run is sealed (or this is no pending-tuple node) and the caller
        must open a fresh node.  The caller holds the owner's lock and
        has checked this node is still the owner's tail."""
        with GRAPH_LOCK:
            if self.writes is None or self.sealed or self.nrefs:
                return False
            self.writes.append((coord, value))
            return True

    def seal(self) -> None:
        """Close the run: a forcing is about to read ``writes``.  Under
        the same lock as :meth:`append_write`, so a racing write either
        made it into the list or opens a new node — never lost, never
        applied twice."""
        with GRAPH_LOCK:
            self.sealed = True

    # -- graph helpers -------------------------------------------------------

    def dep_nodes(self) -> list["Node"]:
        """Producer nodes this node waits on (sequence + data edges)."""
        deps = []
        if self.prev.node is not None:
            deps.append(self.prev.node)
        for s in self.inputs:
            if s.node is not None:
                deps.append(s.node)
        return deps

    def refs_to(self, other: "Node") -> int:
        """How many of this node's sources reference *other*."""
        n = 1 if self.prev.node is other else 0
        return n + sum(1 for s in self.inputs if s.node is other)

    def pipe_source(self) -> Source | None:
        """The source a stage-form node pipelines over (else ``None``)."""
        if self.stages is None:
            return None
        return self.inputs[self.pipe_input]

    def is_fusable_producer(self) -> bool:
        """Could this node be absorbed into a consumer?  (Needs purity —
        its write-back must be a plain cast — plus a structured body.)"""
        return self.pure and (self.stages is not None or self.compute is not None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        st = {PENDING: "pending", DONE: "done",
              FAILED: "failed", ELIDED: "elided"}[self.state]
        return f"Node({self.label}, {st}, refs={self.nrefs})"
