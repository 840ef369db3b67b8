"""Planner driver: the applicability gate and the pass pipeline (§III/§V).

Nonblocking mode lets the implementation *optimize* the sequence of
method calls, not just defer it — and deferral must cost nothing when
there is nothing to optimize.  :func:`plan_subgraph` therefore starts
with one O(nodes) **gate** scan over the forcing's subgraph that asks
each rewrite pass for its precondition:

* ``cse`` — two pending hash-consable nodes share a signature
  (:func:`repro.engine.passes.cse.signature`);
* ``pushdown`` — a masked consumer sits over a pending, pure, pushable
  producer (:func:`repro.engine.passes.pushdown.can_fire`);
* ``fuse`` — a stage-form consumer could absorb its pipe source
  (:func:`repro.engine.passes.fuse.can_fire`);

and, in the same scan, consults the cross-forcing result memo for every
eligible node directly — one key, one dict probe
(:func:`repro.engine.passes.cse.consult_memo`).  When no pass can fire
the memo outcome lands on the nodes and planning is over: no
:class:`~repro.engine.passes.ir.PlanIR`, no fault site, no span.  That
is every BFS level (masked, impure nodes; a pure ``apply`` over a
materialized input), every run of pending tuples, every one-node
re-submission.

Otherwise the staged pipeline in :mod:`repro.engine.passes` runs —
only the passes whose precondition held, bracketed by ``normalize``
(canonicalize stage lists, compute structural keys) and ``schedule``
(commit all decisions onto the nodes):

``normalize`` → ``cse`` (hash-cons identical pending subtrees so a
repeated subexpression runs its kernel once) → ``pushdown`` (absorb a
masked consumer's filter into the producing mxm/mxv/vxm/eWiseMult
kernel) → ``fuse`` (absorb producer chains into single-pass pipelines)
→ ``schedule``.  The order is fixed: where a producer qualifies for
both, pushdown claims it first.

Each pass is a pure function over one shared immutable
:class:`~repro.engine.passes.ir.PlanIR`; the driver runs the sequence
under ``GRAPH_LOCK`` (planning reads refcounts and tails), records a
trace span per pass, and gives the fault plane a ``planner.<pass>``
site at every boundary.  A faulting pass is *skipped* — the previous
IR is still valid, the forcing proceeds without that pass's rewrites,
and ``planner_pass_failures`` counts the skip.  Because decisions only
take effect in the terminal schedule pass, a skipped schedule degrades
cleanly to plain unoptimized execution.  A precondition is necessary,
never sufficient: a pass the gate lets through re-checks its full
legality ladder and may still rewrite nothing.

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
from .passes import cse, fuse, normalize, pushdown, schedule
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


def _gate(nodes: list) -> tuple[list, list, list]:
    """One scan over a forcing's subgraph: which rewrite passes *can*
    fire, and what the result memo holds for the eligible nodes.

    Returns ``(passes, memo hits, memo entries)`` — ``passes`` is empty
    when nothing can be rewritten, else the pipeline to run.
    """
    cse_on = config.ENGINE_CSE
    push_on = config.ENGINE_PUSHDOWN and config.MASK_PUSHDOWN
    fuse_on = config.ENGINE_FUSION
    memo_on = config.ENGINE_MEMO
    can_cse = can_push = can_fuse = False
    signatures: set = set()
    hits: list = []
    entries: list = []
    for node in nodes:
        if node.state != PENDING or node.thunk is not None:
            continue  # thunk nodes (element writes, build…): no pass applies
        sig = cse.signature(node)
        if sig is not None:
            if memo_on:
                cse.consult_memo(node, hits, entries)
            if cse_on and not can_cse:
                can_cse = sig in signatures
                signatures.add(sig)
        if push_on and not can_push:
            can_push = pushdown.can_fire(node)
        if fuse_on and not can_fuse:
            can_fuse = fuse.can_fire(node)
    if not (can_cse or can_push or can_fuse):
        return [], hits, entries
    passes = [("normalize", normalize.run)]
    if can_cse:
        passes.append(("cse", cse.run))
    if can_push:
        passes.append(("pushdown", pushdown.run))
    if can_fuse:
        passes.append(("fuse", fuse.run))
    passes.append(("schedule", schedule.run))
    return passes, hits, entries


def plan_subgraph(nodes: list) -> None:
    """Plan one forcing's pending subgraph (*nodes*, topological order).

    On return the nodes carry whatever decisions survived:
    ``memo_result``/``memo_entry`` from the result-memo consult,
    ``alias_of`` on CSE duplicates, ``pushed_mask``/``pushed_into`` on
    pushdown pairs, ``plan`` on fusion consumers and ELIDED on their
    absorbed producers.  Planner faults never fail the forcing — the
    affected pass is skipped.
    """
    with GRAPH_LOCK:
        passes, hits, entries = _gate(nodes)
        if not passes:
            schedule.commit_memo(hits, entries)
            return
        ir = PlanIR.initial(nodes, hits, entries)
        for name, pass_fn in passes:
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
                {"nodes": len(ir.nodes), "aliases": len(ir.aliases),
                 "pushdowns": len(ir.pushdowns), "fusions": len(ir.fusions)},
            )
