"""Pass 1 — fusion grouping: absorb producer chains into pipelines.

Walking consumers downstream-first, a stage-form consumer absorbs as
far upstream as legality allows: ``apply``/``select`` chains collapse
into one pass over the stored values, and a pure non-stage producer
(mxm, eWise, reduce, …) may seed the pipeline.  The spliced stage list
is re-optimized as a whole, so transpose pairs that only meet across
node boundaries cancel and value-independent selects hoist over
upstream maps.

Legality: the producer's write-back is pure, every reference to it
comes from the absorbing consumer, and it is no longer its owner's
sequence tail.  A consumer whose sequence edge *is* the producer (the
in-place ``mxm(c); apply(c⟨m⟩, …, c)`` pattern) may absorb it only
when its write-back never reads the previous value: either the
write-back is pure, or it masks with REPLACE and no accumulator (the
funnel then only needs ``prev``'s shape).

**Precondition** (:func:`can_fire`): a stage-form consumer whose pipe
source is a producer it could absorb right now.  The gate runs this
pass only when some node of the forcing meets it.

This pass only *decides*; absorbed producers are recorded in
``ir.elided`` and flipped to ELIDED by the schedule pass.
"""

from __future__ import annotations

from ..dag import PENDING, Node
from .ir import PlanIR

__all__ = ["run"]


def _prev_value_free(consumer: Node) -> bool:
    """True when the consumer's write-back never reads the previous
    *values* of its output: pure, or masked with REPLACE and no
    accumulator (the funnel then only uses ``prev`` for its shape)."""
    if consumer.pure:
        return True
    m = consumer.mask_info
    return m is not None and m.replace and not m.has_accum


def _absorbable(consumer: Node, x: Node) -> bool:
    """May *consumer* absorb producer *x*?  (Driver holds GRAPH_LOCK.)"""
    if x.state != PENDING or not x.is_fusable_producer():
        return False
    # The intermediate value must be unobservable: a later method must
    # already have overwritten the owner (tails only move forward).
    if x.owner is not None and getattr(x.owner, "_tail", None) is x:
        return False
    # Every reference to x must come from this consumer, and only via
    # the pipe input (plus the sequence edge when the consumer's
    # write-back never reads the previous value).
    allowed = 1 + (1 if consumer.prev.node is x else 0)
    if consumer.prev.node is x and not _prev_value_free(consumer):
        return False
    refs = consumer.refs_to(x)
    return refs == allowed and x.nrefs == refs


def can_fire(y: Node) -> bool:
    """Gate precondition: could *y* absorb its pipe source?"""
    if y.stages is None:
        return False
    x = y.inputs[y.pipe_input].node
    return x is not None and _absorbable(y, x)


def run(ir: PlanIR) -> PlanIR:
    from ..fusion import FusionPlan, optimize_stages

    in_graph = {id(n) for n in ir.nodes}
    fusions = list(ir.fusions)
    elided = set(ir.elided)
    hoisted_total, elided_total = ir.stage_counts
    for y in reversed(ir.nodes):
        if (
            y.state != PENDING
            or y.stages is None
            or id(y) in elided
        ):
            continue
        chain: list[Node] = []
        stages = list(y.stages)
        consumer = y
        src = y.inputs[y.pipe_input]
        head: Node | None = None
        while True:
            x = src.node
            if (
                x is None
                or id(x) not in in_graph
                or id(x) in elided
                or not _absorbable(consumer, x)
            ):
                break
            if x.stages is not None:
                chain.append(x)
                stages = x.stages + [("cast", x.out_type)] + stages
                consumer = x
                src = x.inputs[x.pipe_input]
                continue
            # Non-stage pure producer (mxm, eWise, reduce, …): it
            # seeds the pipeline and the chain ends here.
            chain.append(x)
            head = x
            break
        if not chain:
            continue
        stages, hoisted, elided_t = optimize_stages(stages)
        fusions.append((y, FusionPlan(
            head, None if head is not None else src, stages,
            list(reversed(chain)),
        )))
        hoisted_total += hoisted
        elided_total += elided_t
        for x in chain:
            elided.add(id(x))
    if len(fusions) == len(ir.fusions):
        return ir
    return ir.replace(
        fusions=tuple(fusions),
        elided=frozenset(elided),
        stage_counts=(hoisted_total, elided_total),
    )
