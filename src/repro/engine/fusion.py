"""Planner driver: the applicability gate and the pass pipeline (§III/§V).

Nonblocking mode lets the implementation *optimize* the sequence of
method calls, not just defer it — and deferral must cost nothing when
there is nothing to optimize.  :func:`plan_subgraph` therefore starts
with one O(nodes) **gate** scan over the forcing's subgraph that asks
the one rewrite pass for its precondition: could a stage-form consumer
absorb its pipe source (:func:`repro.engine.passes.fuse.can_fire`)?
When none can, planning is over: no
:class:`~repro.engine.passes.ir.PlanIR`, no fault site, no span.  That
is every BFS level (masked, impure nodes; a pure ``apply`` over a
materialized input), every run of pending tuples, every one-node
forcing.

Otherwise the staged pipeline in :mod:`repro.engine.passes` runs:
``fuse`` (absorb producer chains into single-pass pipelines) →
``schedule`` (commit the decisions onto the nodes).  A masked product
needs no pass of its own: ``mxm``/``mxv``/``vxm`` hand their *own*
mask to the kernel (``MASK_PUSHDOWN``), which skips off-mask products.

Each pass is a function over one shared immutable
:class:`~repro.engine.passes.ir.PlanIR`; the driver runs the sequence
under ``GRAPH_LOCK`` (planning reads refcounts and tails), records a
trace span per pass, and gives the fault plane a ``planner.<pass>``
site at every boundary.  A faulting pass is *skipped* — the previous
IR is still valid, the forcing proceeds without that pass's rewrites,
and ``planner_pass_failures`` counts the skip.  Because decisions only
take effect in the terminal schedule pass, a skipped schedule degrades
cleanly to plain unoptimized execution.  A precondition is necessary,
never sufficient: the fuse pass re-checks its full legality ladder and
may still rewrite nothing.

:class:`FusionPlan` and :func:`optimize_stages` (the stage-list
peephole: transpose pairs cancel, value-independent selects hoist
ahead of maps) live here unchanged — the passes import them.
"""

from __future__ import annotations

import time

from ..faults.plane import armed, maybe_inject
from ..internals import config
from . import cancel
from .dag import GRAPH_LOCK, PENDING, Node, Source
from .passes import fuse, schedule
from .passes.ir import PlanIR
from .stats import STATS

__all__ = ["FusionPlan", "plan_subgraph", "optimize_stages"]

#: Stage kinds that neither read coordinates nor change structure; these
#: commute with transposition and with structural filters.
_VALUE_ONLY = {"unary", "bind1st", "bind2nd", "cast"}
#: Stage kinds that map values (possibly from coordinates) 1:1.
_MAP_KINDS = {"unary", "bind1st", "bind2nd", "index", "cast"}


class FusionPlan:
    """Execution recipe for a consumer that absorbed its producers.

    ``head`` — an absorbed non-stage producer (mxm/eWise/…) whose
    ``compute`` seeds the pipeline, else ``None`` and ``start`` is the
    source (carrier or executed node) the pipeline begins from.
    ``stages`` — the fused, optimized stage list ending with the
    consumer's own stages; the consumer's write-back runs afterwards.
    ``chain`` — the absorbed producers in execution order (furthest
    upstream first), kept so a failing fused kernel can transparently
    fall back to unfused execution with exact §V failure state.
    """

    __slots__ = ("head", "start", "stages", "chain")

    def __init__(
        self,
        head: Node | None,
        start: Source | None,
        stages: list,
        chain: list,
    ):
        self.head = head
        self.start = start
        self.stages = stages
        self.chain = chain


def _is_value_independent_select(stage) -> bool:
    return stage[0] == "select" and not stage[1].uses_value


def optimize_stages(stages: list) -> tuple[list, int, int]:
    """Elide transpose pairs and hoist value-independent selects.

    Returns ``(stages, selects_hoisted, transposes_elided)``.
    """
    stages = list(stages)

    # Cancel ('transpose', …, 'transpose') pairs separated only by value
    # maps (which commute with transposition; coordinate-reading stages
    # between the pair pin it in place).
    elided = 0
    changed = True
    while changed:
        changed = False
        for i, st in enumerate(stages):
            if st[0] != "transpose":
                continue
            j = i + 1
            while j < len(stages) and stages[j][0] in _VALUE_ONLY:
                j += 1
            if j < len(stages) and stages[j][0] == "transpose":
                stages = stages[:i] + stages[i + 1:j] + stages[j + 1:]
                elided += 1
                changed = True
                break

    # Within each transpose-free segment, move selects whose predicate
    # reads only coordinates ahead of the maps: the surviving set is
    # identical (maps are structure-preserving and the predicate ignores
    # values), but the maps then run on fewer stored entries.
    hoisted = 0
    out: list = []
    seg: list = []

    def _flush() -> None:
        nonlocal hoisted
        front = [s for s in seg if _is_value_independent_select(s)]
        rest = [s for s in seg if not _is_value_independent_select(s)]
        seen_map = False
        for s in seg:
            if _is_value_independent_select(s):
                hoisted += seen_map
            elif s[0] in _MAP_KINDS:
                seen_map = True
        out.extend(front)
        out.extend(rest)

    for st in stages:
        if st[0] == "transpose":
            _flush()
            seg = []
            out.append(st)
        else:
            seg.append(st)
    _flush()
    return out, hoisted, elided


# -- the gate and the pass pipeline -------------------------------------------


#: The pass pipeline, in its fixed order.
_PASSES = (("fuse", fuse.run), ("schedule", schedule.run))


def _gate(nodes: list) -> bool:
    """One scan over a forcing's subgraph: can any rewrite fire?"""
    return config.ENGINE_FUSION and any(
        node.state == PENDING and fuse.can_fire(node) for node in nodes)


def plan_subgraph(nodes: list) -> None:
    """Plan one forcing's pending subgraph (*nodes*, topological order).

    On return the nodes carry whatever decisions survived: ``plan`` on
    fusion consumers and ELIDED on their absorbed producers.  Planner
    faults never fail the forcing — the affected pass is skipped.
    """
    with GRAPH_LOCK:
        if not _gate(nodes):
            return
        ir = PlanIR(nodes)
        for name, pass_fn in _PASSES:
            # Pass boundary = cancellation boundary.  Deliberately
            # outside the try below: a tripped deadline must propagate,
            # not be absorbed as a planner-pass failure.
            cancel.checkpoint(f"planner.{name}")
            t0 = time.perf_counter()
            try:
                with armed():  # the skip below is this site's recovery
                    maybe_inject(f"planner.{name}", nodes=len(nodes))
                ir = pass_fn(ir)
            except Exception:
                STATS.bump("planner_pass_failures")
            STATS.span(
                f"planner.{name}", "planner", t0, time.perf_counter() - t0,
                {"nodes": len(ir.nodes), "fusions": len(ir.fusions)},
            )
