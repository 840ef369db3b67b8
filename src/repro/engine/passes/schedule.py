"""Pass 4 — schedule: commit the accumulated decisions onto the DAG.

The terminal pass is the single point where planning state leaves the
immutable IR and lands on the nodes the scheduler executes:

* each cross-forcing memo hit gets ``memo_result`` (the cached carrier
  to republish) and each miss gets ``memo_entry`` (the key the
  scheduler stores the committed carrier under),
* each CSE duplicate gets ``alias_of`` → its representative,
* each fusion consumer gets its ``plan`` and the absorbed producers
  flip to ELIDED,
* the optimizer counters and per-decision trace instants are emitted —
  here, not in the deciding passes, so a skipped schedule means the
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

__all__ = ["run", "commit_memo"]


def commit_memo(hits, entries) -> None:
    """Land the result-memo consult on the nodes.  The planner's gate
    calls this directly when no pass can fire — a memo hit needs no
    plan, only the carrier to republish."""
    for node, carrier in hits:
        node.memo_result = carrier
        STATS.bump("memo_hits")
        STATS.instant(
            f"memo:{node.label}", "planner",
            {"node": node.label, "nvals": getattr(carrier, "nvals", None)},
        )
    for node, entry in entries:
        node.memo_entry = entry


def run(ir: PlanIR) -> PlanIR:
    by_id = {id(n): n for n in ir.nodes}
    commit_memo(ir.memo_hits, ir.memo_entries)
    for nid, rep in ir.aliases.items():
        node = by_id[nid]
        node.alias_of = rep
        STATS.bump("cse_hits")
        STATS.instant(
            f"cse:{node.label}", "planner",
            {"node": node.label, "rep": rep.label},
        )
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
