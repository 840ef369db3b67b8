"""Pass 4 — mask/structure pushdown into producing kernels.

The write-back rule ``C⟨M, r⟩ = C ⊙ T`` never reads T's values at
positions where the (possibly complemented) mask is false: those output
positions take old-C content or are cleared.  So when a *masked
consumer*'s sole data input is a pending, pure, otherwise-unreferenced
producer that accepts a key filter, the mask's filter may run
**inside** the producing kernel — products outside the mask die before
the SpGEMM sort/compress phase (the CombBLAS masked-SpGEMM win), or
intersection entries die during the sorted-key merge, instead of being
materialized and then discarded by the write-back.

Two consumer shapes qualify:

* **stage-form** (apply/select pipelines): the mask filter pushes into
  the pipe input's producer, provided the pipeline contains no
  transpose (a transpose would move the mask into a different
  coordinate space than the producer's output).
* **compute-form eWise**: a masked ``eWiseMult`` — and the
  intersect-shaped ``eWiseAdd`` over one shared input — whose input is
  a pending pushable producer.  Filtering one input of an intersection
  filters the whole intersection (off-mask keys cannot survive the
  merge), and the write-back discards exactly those keys anyway.  The
  ops layer declares which inputs are safe coordinate spaces
  (``Node.push_targets`` excludes transposed inputs).

Legality conditions, checked per candidate pair (consumer ``y``,
producer ``x``):

* ``x`` is pushable (accepts ``mask_keys``), pure, pending, inside
  this forcing's subgraph, unclaimed by another pass, and no longer
  its owner's sequence tail (its unfiltered value can never be
  observed later — tails only advance).
* every reference to ``x`` comes from ``y`` (``x.nrefs`` equals
  ``y.refs_to(x)``), so no third party sees the filtered carrier.
* ``y``'s mask source is materialized or already-executed — pushing a
  *pending* mask would add a new dependency edge mid-plan.
* when ``y``'s sequence edge is ``x`` itself (the in-place pattern
  ``mxm(c, …); apply(c⟨m⟩, …, c)``), the consumer must REPLACE:
  without replace, write-back merges old-``c`` — which *is* ``x``'s
  unfiltered result — at mask-false positions, so filtering ``x``
  would change the outcome.

**Precondition** (:func:`can_fire`): a masked consumer of one of the
two shapes with a candidate producer that is pending, pure and
pushable — the part of the ladder that needs no plan state.  The gate
runs this pass only when some node of the forcing meets it.

At most one producer is claimed per consumer (``pushed_into`` is a
scalar edge); for an eWise consumer the first legal input wins, which
is sufficient — filtering either side filters the intersection.  The
consumer keeps its full write-back; only provably-dead products are
skipped.  §V transparency: a pushed chain that fails re-runs unpushed
(scheduler ``pushdown_fallbacks``).
"""

from __future__ import annotations

from ...internals import config
from ..dag import PENDING, Node
from .ir import PlanIR

__all__ = ["run"]


def _producer_ok(in_graph: set, locked: set,
                 y: Node, x: Node | None, m) -> bool:
    """The producer-side legality ladder shared by both consumer shapes."""
    if (
        x is None
        or id(x) not in in_graph
        or id(x) in locked
        or x.state != PENDING
        or not x.pushable
        or not x.pure
    ):
        return False
    if x.owner is not None and getattr(x.owner, "_tail", None) is x:
        return False
    if x.nrefs != y.refs_to(x):
        return False
    if y.prev.node is x and not m.replace:
        return False
    return True


def _candidates(y: Node) -> tuple:
    """The producers a masked consumer's filter could push into."""
    m = y.mask_info
    if m is None or m.source is None:
        return ()
    if y.stages is not None:
        # Stage-form consumer: pipe input only.
        return (y.inputs[y.pipe_input].node,)
    if y.push_targets:
        # Compute-form eWise consumer: any declared (untransposed)
        # input may carry the filter.
        return tuple(
            y.inputs[i].node for i in y.push_targets if i < len(y.inputs)
        )
    return ()


def can_fire(y: Node) -> bool:
    """Gate precondition: could this pass claim a producer for *y*?"""
    return any(
        x is not None and x.state == PENDING and x.pushable and x.pure
        for x in _candidates(y)
    )


def run(ir: PlanIR) -> PlanIR:
    if not (config.ENGINE_PUSHDOWN and config.MASK_PUSHDOWN):
        return ir
    in_graph = {id(n) for n in ir.nodes}
    locked = set(ir.locked)
    pushdowns = list(ir.pushdowns)
    for y in ir.nodes:
        if y.state != PENDING or id(y) in locked:
            continue
        candidates = _candidates(y)
        if not candidates:
            continue
        m = y.mask_info
        if m.source.node is not None and m.source.node.state == PENDING:
            continue
        if y.stages is not None:
            # No transpose stages: one would move the mask into a
            # different coordinate space than the producer's output.
            inf = ir.node_info(y)
            if inf is None or inf.has_transpose:
                continue
        for x in candidates:
            if not _producer_ok(in_graph, locked, y, x, m):
                continue
            pushdowns.append((x, y, (m.source, m.complement, m.structure)))
            locked.add(id(x))
            locked.add(id(y))
            break
    if len(pushdowns) == len(ir.pushdowns):
        return ir
    return ir.replace(pushdowns=tuple(pushdowns), locked=frozenset(locked))
