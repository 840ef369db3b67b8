"""Pass 2 — schedule: commit the accumulated decisions onto the DAG.

The terminal pass is the single point where planning state leaves the
immutable IR and lands on the nodes the scheduler executes:

* each fusion consumer gets its ``plan`` and the absorbed producers
  flip to ELIDED,
* the optimizer counters and per-decision trace instants are emitted —
  here, not in the deciding pass, so a skipped schedule means the
  counters honestly report *nothing* was applied.

The mutation loop is plain attribute stores over already-built values
(nothing here allocates or calls kernels), so it cannot fail halfway in
practice; the driver's fault site fires *before* any mutation, keeping
"skip this pass" a clean no-op that degrades to unoptimized execution.
"""

from __future__ import annotations

from ..dag import ELIDED
from ..stats import STATS
from .ir import PlanIR

__all__ = ["run"]


def run(ir: PlanIR) -> PlanIR:
    for y, plan in ir.fusions:
        y.plan = plan
        STATS.bump("chains_fused")
        STATS.bump("nodes_fused", len(plan.chain))
        STATS.instant(
            f"fuse:{y.label}", "planner",
            {"consumer": y.label, "chain": [x.label for x in plan.chain]},
        )
    for node in ir.nodes:
        if id(node) in ir.elided:
            node.state = ELIDED
    hoisted, elided_t = ir.stage_counts
    if hoisted:
        STATS.bump("selects_hoisted", hoisted)
    if elided_t:
        STATS.bump("transposes_elided", elided_t)
    return ir
