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
    "source_identity", "structural_key", "memo_key",
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
    """A captured operation input: concrete carrier or producing node.

    ``vkey`` is the *versioned identity* of the captured handle at
    capture time — ``(handle uid, handle version)`` for a data capture
    made through ``OpaqueObject._prev_source``.  Handle uids are drawn
    from a monotonic counter (never reused, unlike ``id()``) and the
    version advances on every write, so equal vkeys imply the very same
    committed carrier.  This is what the cross-forcing result memo keys
    on; captures made without a vkey are simply memo-ineligible.
    """

    __slots__ = ("node", "data", "vkey")

    def __init__(self, node: "Node | None", data: Any,
                 vkey: tuple | None = None):
        self.node = node
        self.data = data
        self.vkey = vkey

    @classmethod
    def of_data(cls, data: Any, vkey: tuple | None = None) -> "Source":
        return cls(None, data, vkey)

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

    The write-back closure itself is opaque to the engine; this record
    is what lets the pushdown pass reason about it: which mask source
    filters the output, whether it is complemented/structural, whether
    REPLACE clears unwritten positions, and whether an accumulator
    reads the previous state.
    """

    __slots__ = ("source", "complement", "structure", "replace", "has_accum")

    def __init__(
        self,
        source: "Source | None",
        *,
        complement: bool = False,
        structure: bool = False,
        replace: bool = False,
        has_accum: bool = False,
    ):
        self.source = source
        self.complement = complement
        self.structure = structure
        self.replace = replace
        self.has_accum = has_accum


class Node:
    """One deferred method invocation in the expression DAG."""

    __slots__ = (
        "__weakref__",  # the small-op batch registry tracks nodes weakly
        "kind", "label", "owner", "prev", "inputs",
        "thunk", "compute", "writeback", "stages", "pipe_input",
        "out_type", "pure", "complete_safe",
        "opkey", "cse_safe", "mask_info", "pushable", "push_targets",
        "batch_key", "batch_compute", "writes", "sealed",
        "state", "result", "exc", "exc_raised", "nrefs",
        "plan", "alias_of", "pushed_mask", "pushed_into",
        "memo_result", "memo_entry",
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
        opkey: tuple | None = None,
        cse_safe: bool = False,
        mask_info: MaskInfo | None = None,
        pushable: bool = False,
        push_targets: tuple | None = None,
        batch_key: tuple | None = None,
        batch_compute: Callable | None = None,
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
        self.opkey = opkey
        self.cse_safe = cse_safe
        self.mask_info = mask_info
        self.pushable = pushable
        self.push_targets = push_targets
        # Small-op batching (scheduler): nodes sharing an equal
        # ``batch_key`` compute independent single-vector products over
        # the *same* committed matrix; ``batch_compute(carrier, us)``
        # is the blocked multi-vector kernel that runs them together.
        self.batch_key = batch_key
        self.batch_compute = batch_compute
        # Pending tuples: the ``(coordinate, value | REMOVED)`` writes
        # this node's thunk folds in (``None`` for every other node).
        self.writes = writes
        self.sealed = False
        self.state = PENDING
        self.result: Any = None
        self.exc: BaseException | None = None
        self.exc_raised = False
        self.nrefs = 0
        self.plan = None       # FusionPlan (fuse pass) for absorbing consumers
        self.alias_of = None   # representative Node (CSE pass)
        self.pushed_mask = None  # (mask Source, complement, structure)
        self.pushed_into = None  # producer Node our mask was pushed into
        self.memo_result = None  # cached carrier to republish (memo hit)
        self.memo_entry = None   # (memo key, dep uids) for post-run store
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


# -- structural identity (hash-consing support) -------------------------------
#
# Two pending nodes compute the same value when they run the same pure
# operation over the same captured inputs.  ``structural_key`` derives a
# stable, hashable identity for that statement: the node kind, an
# operation key (the op layer's ``opkey``, or a key derived from the
# stage list), the output domain, and the *identity* of each captured
# input.  Carriers are immutable once published and node results are
# written exactly once, so ``id()`` is a sound identity for both — equal
# keys imply equal results.  The CSE pass hash-conses on these keys; the
# optional ``canon`` map routes input identities through already-found
# aliases so transitive duplicates (f(g(a)) vs f(g'(a)) with g ≡ g')
# still collide.


def _data_format(data: Any) -> str | None:
    """Storage-format tag of a captured matrix carrier (``None`` for
    vectors/scalars).  Keys that carry it distinguish the same logical
    content held in different tiers — a format auto-switch on commit
    then misses instead of republishing a carrier of the old shape."""
    if getattr(data, "row_ids", None) is not None:
        return "dcsr"
    if getattr(data, "indptr", None) is not None:
        return "csr"
    return None


def source_identity(src: Source, canon: dict[int, int] | None = None) -> tuple:
    """Hashable identity of a captured input."""
    if src.node is not None:
        nid = id(src.node)
        if canon is not None:
            nid = canon.get(nid, nid)
        return ("n", nid)
    return ("d", id(src.data), _data_format(src.data))


def _scalar_key(s: Any) -> tuple:
    """Value-based key for bound scalars when hashable, else identity."""
    if isinstance(s, (bool, int, float, complex, str, bytes, type(None))):
        return (type(s).__name__, s)
    item = getattr(s, "item", None)  # 0-d numpy scalars
    if callable(item):
        try:
            return (type(s).__name__, item())
        except Exception:
            pass
    return ("id", id(s))


def _stage_key(stage: tuple) -> tuple | None:
    """Key for one pipeline stage; ``None`` marks it non-consable."""
    kind = stage[0]
    if kind == "transpose":
        return ("transpose",)
    if kind == "cast":
        return ("cast", id(stage[1]))
    op = stage[1]
    if not getattr(op, "is_builtin", False):
        return None  # user-defined op: no determinism guarantee
    if kind == "unary":
        return ("unary", id(op), id(stage[2]))
    if kind == "select":
        return ("select", id(op), _scalar_key(stage[2]))
    if kind in ("bind1st", "bind2nd", "index"):
        return (kind, id(op), _scalar_key(stage[2]), id(stage[3]))
    return None


def structural_key(
    node: Node, canon: dict[int, int] | None = None
) -> tuple | None:
    """Stable identity of the value *node* computes, or ``None`` when
    the node must not be hash-consed (impure, thunk-form, user-defined
    op, or an op the layer didn't describe)."""
    if not node.pure or node.thunk is not None:
        return None
    if node.opkey is not None:
        if not node.cse_safe:
            return None
        base: tuple = ("op", node.opkey)
    elif node.stages is not None:
        skeys = []
        for stage in node.stages:
            sk = _stage_key(stage)
            if sk is None:
                return None
            skeys.append(sk)
        base = ("stages", tuple(skeys))
    else:
        return None
    return (
        node.kind, base, id(node.out_type),
        tuple(source_identity(s, canon) for s in node.inputs),
    )


# -- cross-forcing identity (result-memo support) -----------------------------
#
# ``structural_key`` identifies a statement *within one forcing* via
# ``id()``-based input identities, which are only stable while the
# captured objects are alive.  The result memo outlives a forcing, so it
# keys on *versioned handle identities* instead: each data capture made
# through the sequence layer carries ``(uid, version)`` (``Source.vkey``)
# where the uid is never reused and the version advances on every write.
# A pending input recurses into its producing node — its sources are
# snapshots too — so whole re-submitted chains collide.  Equal memo keys
# therefore imply the same pure computation over the same committed
# carrier contents, across forcings and across output objects.


def memo_key(node: Node) -> tuple[tuple, frozenset] | None:
    """Cross-forcing identity of the value *node* computes, plus the
    handle uids the cached entry depends on — or ``None`` when the node
    must not be memoized (impure, thunk-form, user-defined op, any input
    captured without a versioned identity, or any input whose producer
    an earlier forcing settled — :func:`~repro.engine.scheduler.force`
    releases a settled node's links, so nothing is left to key it by)."""
    if not node.pure or node.thunk is not None:
        return None
    if node.opkey is not None:
        if not node.cse_safe:
            return None
        base: tuple = ("op", node.opkey)
    elif node.stages is not None:
        skeys = []
        for stage in node.stages:
            sk = _stage_key(stage)
            if sk is None:
                return None
            skeys.append(sk)
        base = ("stages", tuple(skeys))
    else:
        return None
    deps: set = set()
    idents = []
    for src in node.inputs:
        if src.node is not None:
            if src.node.state != PENDING:
                return None  # settled: its links were released
            sub = memo_key(src.node)
            if sub is None:
                return None
            idents.append(("n", sub[0]))
            deps.update(sub[1])
        elif src.vkey is not None:
            idents.append(("d", src.vkey, _data_format(src.data)))
            deps.add(src.vkey[0])
        else:
            return None  # anonymous capture: no cross-forcing identity
    return (
        (node.kind, base, id(node.out_type), tuple(idents)),
        frozenset(deps),
    )
