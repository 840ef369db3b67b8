"""Pass 1 — normalize: per-node canonicalization and analysis.

Rewrites each stage-form node's pipeline into canonical shape
(transpose pairs cancelled, value-independent selects hoisted ahead of
maps — both per-node-local and semantics-preserving) and records the
analysis fact later passes consume: the structural hash-consing key.
"""

from __future__ import annotations

from ..dag import PENDING, structural_key
from .ir import NodeInfo, PlanIR

__all__ = ["run"]


def run(ir: PlanIR) -> PlanIR:
    from ..fusion import optimize_stages

    info: dict[int, NodeInfo] = {}
    for node in ir.nodes:
        if node.state != PENDING:
            continue
        stages = None
        if node.stages is not None:
            stages, _, _ = optimize_stages(node.stages)
        info[id(node)] = NodeInfo(key=structural_key(node), stages=stages)
    return ir.replace(info=info)
